"""Per-layer tracing of funcsvm from outside the library.

A :class:`Tracer` replaces the public functions of each funcsvm module
with timing wrappers while it is installed.  Modules import one another's
functions by name (``selection`` binds ``solve_dual``, ``solver`` binds
``prepare_batch``, ...), so every module attribute that *is* the original
function object gets the wrapper; patching only the defining module would
silently miss those call sites.

Spans nest: a wrapper's time minus the time of wrapped calls made inside it
is that layer's self time, so the self times of one operation add up to at
most its wall time.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict

from funcsvm.errors import ConvergenceError
from funcsvm.solver import DEFAULT_TOL

# (module, function, layer).  The layer is the name the metrics use.
TARGETS = [
    ("funcsvm.kernels", "center", "functions.transform"),
    ("funcsvm.kernels", "normalize", "functions.transform"),
    ("funcsvm.kernels", "spline_derivative", "functions.transform"),
    ("funcsvm.basis", "project", "basis.project"),
    ("funcsvm.kernels", "prepare_batch", "kernels.prepare"),
    ("funcsvm.kernels", "inner_product_matrix", "kernels.stats"),
    ("funcsvm.kernels", "squared_distance_matrix", "kernels.stats"),
    ("funcsvm.kernels", "apply_base", "kernels.apply_base"),
    ("funcsvm.solver", "solve_dual", "solver.solve"),
    ("funcsvm.solver", "decision_values", "solver.decision"),
    ("funcsvm.solver", "predict_batch", "solver.decision"),
    ("funcsvm.solver", "train_svm", "selection.final_build"),
    ("funcsvm.selection", "select", "selection"),
    ("funcsvm.evaluation", "run_repeated_splits", "evaluation"),
    ("funcsvm.evaluation", "run_fixed_split", "evaluation"),
    ("funcsvm.evaluation", "run_leave_one_out", "evaluation"),
    ("funcsvm.persistence", "save_model", "persistence.save"),
    ("funcsvm.persistence", "write_report", "persistence.save"),
    ("funcsvm.persistence", "load_model", "persistence.load"),
    ("funcsvm.datasets", "load_dataset", "datasets.load"),
    ("funcsvm.config", "load_config", "config.load"),
    ("funcsvm.cli", "main", "cli"),
]


def _curve_key(curve) -> int:
    return hash(curve.values.tobytes())


class Tracer:
    """Span timers and counters around funcsvm's public functions."""

    def __init__(self, targets=TARGETS):
        self._targets = targets
        self._frames: list = []  # per open span: seconds spent in wrapped children
        self._depth: Counter = Counter()  # open spans per layer
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally, e.g. for the next operation."""
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # inclusive time of outermost spans
        self.counts = Counter()
        self.max_kkt = 0.0
        self._seen_transforms: set = set()
        self._seen_prepared: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in self._targets:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if name != "funcsvm" and not name.startswith("funcsvm."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        frames, depth = self._frames, self._depth
        name = fn.__name__
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            outermost = depth[layer] == 0
            if before is not None:
                before(self, outermost, name, args, kwargs)
            depth[layer] += 1
            frames.append(0.0)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = frames.pop()
                depth[layer] -= 1
                self.self_s[layer] += elapsed - children
                if outermost:
                    self.outer_s[layer] += elapsed
                if frames:
                    frames[-1] += elapsed
                if after is not None:
                    after(self, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper


# -- counters taken at the boundaries ----------------------------------------

def _before_transform(tracer, outermost, name, args, kwargs):
    if not outermost:  # normalize calls center internally
        return
    tracer.counts["functions.transform_calls"] += 1
    key = (name, args[1:], _curve_key(args[0]))
    if key in tracer._seen_transforms:
        tracer.counts["functions.transform_repeats"] += 1
    tracer._seen_transforms.add(key)


def _before_prepare(tracer, outermost, name, args, kwargs):
    kernel = args[0] if args else kwargs["kernel"]
    functions = args[1] if len(args) > 1 else kwargs["functions"]
    signature = kernel.prep_signature
    for curve in functions:
        tracer.counts["kernels.prepared_curves"] += 1
        key = (signature, _curve_key(curve))
        if key in tracer._seen_prepared:
            tracer.counts["kernels.prepare_repeats"] += 1
        tracer._seen_prepared.add(key)


def _before_project(tracer, outermost, name, args, kwargs):
    tracer.counts["basis.project_calls"] += 1


def _after_solve(tracer, args, kwargs, result, exc):
    if isinstance(exc, ConvergenceError):
        tracer.counts["solver.budget_exhausted"] += 1
        result = exc.solution
    if result is None:
        return
    tol = args[3] if len(args) > 3 else kwargs.get("tol", DEFAULT_TOL)
    kkt = float(result.kkt_violation)
    tracer.counts["solver.solves"] += 1
    tracer.counts["solver.iterations"] += int(result.iterations)
    if not kkt <= tol:  # NaN counts too
        tracer.counts["solver.kkt_over_tol"] += 1
    if math.isnan(kkt) or kkt > tracer.max_kkt:
        tracer.max_kkt = kkt


def _after_save(tracer, args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if exc is None and path is not None:
        tracer.counts["persistence.model_bytes"] += os.path.getsize(path)


_BEFORE = {
    "center": _before_transform,
    "normalize": _before_transform,
    "spline_derivative": _before_transform,
    "prepare_batch": _before_prepare,
    "project": _before_project,
}
_AFTER = {"solve_dual": _after_solve, "save_model": _after_save}


SHARES = {
    "functions.transform_share": "functions.transform",
    "basis.project_share": "basis.project",
    "kernels.prepare_share": "kernels.prepare",
    "kernels.stats_share": "kernels.stats",
    "kernels.apply_base_share": "kernels.apply_base",
    "solver.solve_share": "solver.solve",
    "solver.decision_share": "solver.decision",
    "selection.self_share": "selection",
    "evaluation.self_share": "evaluation",
    "persistence.save_share": "persistence.save",
    "persistence.load_share": "persistence.load",
    "datasets.load_share": "datasets.load",
    "config.load_share": "config.load",
    "cli.self_share": "cli",
}

COUNTS = (
    "solver.solves", "solver.iterations", "solver.budget_exhausted",
    "solver.kkt_over_tol", "functions.transform_calls", "basis.project_calls",
    "kernels.prepared_curves", "persistence.model_bytes",
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures of one traced operation of ``wall_s`` seconds.

    Self times are given as shares of the operation's wall time, so that a
    layer the workload never reaches reads 0 rather than a zero time.
    """
    s, c = tracer.self_s, tracer.counts
    out = {name: s[layer] / wall_s for name, layer in SHARES.items()}
    out["selection.final_build_share"] = tracer.outer_s["selection.final_build"] / wall_s
    out["untraced_share"] = 1.0 - sum(s.values()) / wall_s
    out.update({name: c[name] for name in COUNTS})
    out["solver.max_kkt_violation"] = tracer.max_kkt
    out["functions.transform_repeat_frac"] = _share(
        c["functions.transform_repeats"], c["functions.transform_calls"])
    out["kernels.prepare_repeat_frac"] = _share(
        c["kernels.prepare_repeats"], c["kernels.prepared_curves"])
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
