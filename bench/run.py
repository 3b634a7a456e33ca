#!/usr/bin/env python3
"""Benchmark of funcsvm, run from the root of a checkout:

    python3 bench/run.py --workload select-fourier --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the workload with the library untouched, each
operation paired with the same operation run by the frozen baseline copy of
the library in ``baseline/``, and prints the end-to-end metrics; with
``--trace 1`` it wraps the library's public functions (see ``layers.py``)
and prints the per-layer metrics.
Figures come one per line, by name and unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process with single-threaded BLAS: the machines this runs on are small
# and shared, and BLAS threads on 200x200 matrices add noise, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASELINE = Path(__file__).resolve().parent / "baseline"
WORK = ROOT / ".bench_work"

MIN_PAIRS = 3  # a run times at least this many operation pairs, however long they take
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; start = time.perf_counter(); import funcsvm.cli; "
                "print(time.perf_counter() - start)")

# Wrapped in end-to-end runs too, to check every solve's KKT violation and
# budget; a few microseconds per solve.
CHECK_TARGETS = [("funcsvm.solver", "solve_dual", "solver.solve")]

END_TO_END_UNITS = {"op_vs_baseline": "x", "setup_s": "s", "peak_rss_mb": "MB",
                    "error_rate": "frac"}


def load_package(path: Path, name: str):
    """Import package ``name`` from directory ``path``, never from elsewhere."""
    package = path / name
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no {name} sources at {package}")
    sys.path.insert(0, str(path))
    module = __import__(name)
    if Path(module.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: {name} imported from {module.__file__}, not {package}")


def run_ops(op, state, seconds, min_ops):
    """Run operations until the next one would end after ``seconds``."""
    ops = []
    start = time.perf_counter()
    while True:
        result = op(state, len(ops))
        ops.append(result)
        elapsed = time.perf_counter() - start
        if len(ops) >= min_ops and elapsed + result.seconds > seconds:
            return ops


def end_to_end(program, baseline, seed, seconds):
    """Time program and baseline operations in alternation; end-to-end metrics.

    The hosts this runs on are shared, and their speed swings by half in
    phases of seconds to minutes, so an operation's time alone does not
    repeat from run to run.  Its ratio to the same operation run by the
    frozen baseline a moment before or after does: both copies slow down
    together.
    """
    from layers import Tracer
    from workloads import Op

    setup_times, state = timed_setups(program, seed, (program.setup_repeats + 1) // 2)
    checker = Tracer(CHECK_TARGETS)
    checker.install()
    try:
        warmup = program.warmup_ops
        warm = [program.op(state, index) for index in range(warmup)]
        rss = peak_rss_mb()  # before the baseline adds its own memory
        base_state = baseline.setup(seed)
        for index in range(warmup):
            baseline.op(base_state, index)
        ops, base_ops = [], []

        def pair(_, index):
            sides = ((program, state, ops), (baseline, base_state, base_ops))
            # Alternate which copy goes first, so that neither always runs second.
            for workload, side_state, done in (sides if index % 2 == 0 else sides[::-1]):
                done.append(workload.op(side_state, warmup + index))
            return Op(ops[-1].seconds + base_ops[-1].seconds)

        run_ops(pair, None, seconds, MIN_PAIRS)
    finally:
        checker.uninstall()
    # Half the set-ups come after the operations: the host's speed drifts in
    # phases of seconds, and sampling both ends of the run steadies the median.
    setup_times += timed_setups(program, seed, program.setup_repeats // 2)[0]
    check = checked(program, state, warm + ops, checker.counts)
    metrics = {
        "op_vs_baseline": vs_baseline(ops, base_ops),
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": rss,
        "error_rate": check.error_rate,
    }
    report = {"operation_pairs": len(ops), "setups": len(setup_times),
              "op_p50_ms": 1e3 * float(np.median([op.seconds for op in ops])),
              **check.report}
    return check, metrics, END_TO_END_UNITS, report


def vs_baseline(ops, base_ops) -> float:
    """Operation time over the baseline's, from operations run in pairs.

    Each kind of operation gets the median ratio of its pairs; kinds are
    weighted by the baseline's median time for them.
    """
    ratios, weights = {}, {}
    for op, base in zip(ops, base_ops):
        ratios.setdefault(op.kind, []).append(op.seconds / base.seconds)
        weights.setdefault(op.kind, []).append(base.seconds)
    total = sum(np.median(w) for w in weights.values())
    return float(sum(np.median(ratios[k]) * np.median(weights[k]) for k in ratios) / total)


def timed_setups(workload, seed, count):
    """Set the workload up ``count`` times; the times and the last state."""
    times, state = [], None
    for _ in range(count):
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
    return times, state


def checked(workload, state, ops, counts):
    """The workload's output checks plus those of every observed solve."""
    check = workload.check(state, ops)
    check.failed += counts["solver.kkt_over_tol"] + counts["solver.budget_exhausted"]
    check.report["solves_checked"] = counts["solver.solves"]
    return check


def per_layer(workload, seed, seconds):
    """Alternate plain and traced operations; per-layer figures of the traced."""
    from collections import Counter

    from layers import COUNTS, Tracer, layer_metrics
    from workloads import Op

    state = workload.setup(seed)
    op = getattr(workload, "traced_op", workload.op)
    tracer = Tracer()
    plain, traced, per_op, counts = [], [], [], Counter()

    def pair(state, index):
        plain.append(op(state, 2 * index))
        tracer.reset()
        tracer.install()
        try:
            traced.append(op(state, 2 * index + 1))
        finally:
            tracer.uninstall()
        per_op.append(layer_metrics(tracer, traced[-1].seconds))
        counts.update(tracer.counts)
        return Op(plain[-1].seconds + traced[-1].seconds)

    run_ops(pair, state, seconds, 1)
    check = checked(workload, state, plain + traced, counts)
    # Exact counts are identity checks: every operation repeats them.
    for figures in per_op[1:]:
        check.failed += sum(figures[name] != per_op[0][name] for name in COUNTS)
    metrics = {name: float(np.mean([f[name] for f in per_op])) for name in per_op[0]}
    metrics.update({name: per_op[0][name] for name in COUNTS})
    metrics["solver.max_kkt_violation"] = max(f["solver.max_kkt_violation"] for f in per_op)
    metrics["traced_op_s"] = float(np.median([t.seconds for t in traced]))
    metrics["trace_overhead_frac"] = float(np.median(
        [t.seconds / p.seconds for p, t in zip(plain, traced)])) - 1.0
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times()
    units = {name: _layer_unit(name) for name in metrics}
    report = {"operation_pairs": len(per_op), **check.report}
    return check, metrics, units, report


def _layer_unit(name: str) -> str:
    from layers import COUNTS

    if name in COUNTS:
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "solver.max_kkt_violation":
        return "1"
    return "frac"


def import_times():
    """Median wall time of a cold ``import funcsvm.cli`` and its scipy part."""
    walls, scipy = [], []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=150)
        walls.append(float(proc.stdout.split()[-1]))
        scipy.append(_scipy_import_s(proc.stderr))
    return float(np.median(walls)), float(np.median(scipy))


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a -X importtime log."""
    total_us, stack = 0, []  # stack of (indent, is_scipy) for enclosing imports
    # The log lists an import after the imports it triggered; reversed, each
    # import comes before the imports nested in it.
    for line in reversed(importtime_log.splitlines()):
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        indent = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(inner for _, inner in stack):
            total_us += int(fields[1])
        stack.append((indent, is_scipy))
    return total_us / 1e6


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def machine() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package(SRC, "funcsvm")
    load_package(BASELINE, "funcsvm_baseline")
    import workloads

    workdir = WORK / str(os.getpid())

    def workload(package: str, path: Path):
        lib = workloads.Library(package, path)
        catalogue = {w.name: w for w in (
            workloads.SelectFourier(lib), workloads.PredictDerivBspline(lib),
            workloads.EvaluateDerivHaar(lib), workloads.CliCold(lib, workdir))}
        if args.workload not in catalogue:
            parser.error(f"unknown workload {args.workload!r}; one of {sorted(catalogue)}")
        return catalogue[args.workload]

    program = workload("funcsvm", SRC)
    try:
        if args.trace:
            check, metrics, units, report = per_layer(program, args.seed, args.seconds)
        else:
            baseline = workload("funcsvm_baseline", BASELINE)
            check, metrics, units, report = end_to_end(program, baseline, args.seed,
                                                       args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for key, value in {**machine(), **report}.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {check.failed / check.attempted:.6g} frac "
          f"({check.failed} of {check.attempted})")
    correct = check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
