"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

A workload object drives one copy of the library, given as a
:class:`Library`: the program under test (``funcsvm`` from ``src``) or the
frozen baseline (``funcsvm_baseline``), which ``run.py`` times side by side.
Inputs are built from the same seed for both; only the program's outputs
are checked.

Each workload is a problem instance drawn once from a fixed seed
(``INSTANCE_SEED``).  The ``--seed`` of a run changes what the program
receives without changing the problem it solves: it shuffles the curves
within each side of the train/validation split, adds straight lines that the
second-derivative transform removes, or draws fresh query curves.  The
problem itself stays fixed because the SMO iteration count varies up to 5x
between datasets drawn from one generator (measured: 26,644 to 148,855
iterations for the ``select`` grid on N=200), which would hide any
regression smaller than that spread.

The curves follow the two-frequency sinusoid recipe of
``funcsvm.evaluation.generate_synthetic``, re-implemented here so that a
change to that function cannot change a workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INSTANCE_SEED = 0
GRID_LENGTH = 128
NOISE = 0.6
LABEL_NOISE = 0.05
FREQUENCIES = (2.0, 3.0)
COMMAND_TIMEOUT_S = 150
MODULES = ("basis", "cli", "config", "evaluation", "functions", "kernels",
           "persistence", "selection", "solver")


class Library:
    """One importable copy of the funcsvm package and its modules."""

    def __init__(self, package: str, path: Path):
        self.package = package
        self.path = path  # the directory that holds the package
        for module in MODULES:
            setattr(self, module, importlib.import_module(f"{package}.{module}"))

    def curves(self, grid, values):
        return [self.functions.SampledFunction(grid, v) for v in values]


@dataclass
class Curves:
    t: np.ndarray
    values: np.ndarray
    labels: np.ndarray  # with label noise: what training sees
    classes: np.ndarray  # the generating class: what predictions are scored on

    def take(self, order) -> "Curves":
        return Curves(self.t, self.values[order], self.labels[order], self.classes[order])

    def dataset(self, lib: Library):
        functions = lib.functions
        return functions.LabeledDataset.from_matrix(
            functions.SamplingGrid.from_abscissae(self.t), self.values, self.labels)


def sinusoids(rng: np.random.Generator, n: int) -> Curves:
    """Class +1 follows sin(2 pi 2 t), class -1 sin(2 pi 3 t), plus noise."""
    t = np.linspace(0.0, 1.0, GRID_LENGTH)
    classes = rng.choice((-1, 1), size=n)
    freq = np.where(classes > 0, FREQUENCIES[0], FREQUENCIES[1])
    values = np.sin(2.0 * np.pi * freq[:, None] * t[None, :])
    values = values + NOISE * rng.standard_normal(values.shape)
    flips = rng.random(n) < LABEL_NOISE
    return Curves(t, values, np.where(flips, -classes, classes), classes)


def instance(n: int, offset: int = 0) -> Curves:
    return sinusoids(np.random.default_rng(INSTANCE_SEED + offset), n)


def shuffle_sides(rng: np.random.Generator, n: int, l: int) -> np.ndarray:
    """A permutation that keeps the first ``l`` positions among themselves."""
    return np.concatenate([rng.permutation(l), l + rng.permutation(n - l)])


@dataclass
class Op:
    """One timed operation: its wall time and what the checks need."""

    seconds: float
    output: object = None
    kind: str = ""  # operations of one workload that do different work differ in kind


@dataclass
class Check:
    attempted: int
    failed: int
    error_rate: float
    report: dict = field(default_factory=dict)  # figures printed for people


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


# -- select-fourier ------------------------------------------------------------

class SelectFourier:
    """One penalized split-sample ``select`` on raw curves with a Fourier grid."""

    name = "select-fourier"
    setup_repeats = 25
    warmup_ops = 1
    n, l = 200, 100
    grid_doc = {
        "basis": "fourier",
        "dimensions": [8, 16],
        "kernels": [{"kind": "gaussian", "sigma": [0.5, 2, 8]}, {"kind": "linear"}],
        "C": [1, 100],
    }

    def __init__(self, lib: Library):
        self.lib = lib

    def setup(self, seed):
        order = shuffle_sides(np.random.default_rng(seed), self.n, self.l)
        return (instance(self.n).take(order).dataset(self.lib),
                self.lib.config.build_grid(self.grid_doc))

    def op(self, state, index):
        data, grid = state
        seconds, result = _timed(self.lib.selection.select, grid, data, self.l)
        record = result.chosen_record
        table = [(r.validation_error, r.score, r.error) for r in result.table]
        summary = (record.index, record.validation_error, result.model.n_support,
                   result.model.bias, table)
        return Op(seconds, summary)

    def check(self, state, ops):
        first = ops[0].output
        table = first[4]
        failed = sum(op.output != first for op in ops)
        failed += sum(error is not None for _, _, error in table) * len(ops)
        return Check(
            attempted=len(table) * len(ops), failed=failed, error_rate=first[1],
            report={"select_s": _median([op.seconds for op in ops]),
                    "chosen_validation_error": first[1],
                    "chosen_candidate": first[0], "n_support": first[2]},
        )


# -- predict-deriv-bspline -----------------------------------------------------

class PredictDerivBspline:
    """Closed loop, one client: batches of fresh curves through decision_values."""

    name = "predict-deriv-bspline"
    setup_repeats = 6
    warmup_ops = 1
    n_train, batch, n_held_out = 200, 64, 1000

    def __init__(self, lib: Library):
        self.lib = lib
        kernels = lib.kernels
        self.kernel = kernels.FunctionalKernel(
            transforms=(kernels.Transform("derivative", order=2, spline_dimension=20),
                        kernels.Transform("normalize")),
            projection=lib.basis.BasisSpec("bspline", 16),
            base=kernels.BaseKernel.gaussian(1.0),
        )

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        train = instance(self.n_train).take(rng.permutation(self.n_train))
        model = self.lib.solver.train_svm(self.kernel, train.dataset(self.lib), 10.0)
        return model, seed

    def queries(self, state, index):
        model, seed = state
        fresh = sinusoids(np.random.default_rng([seed, index]), self.batch)
        return self.lib.curves(model.grid, fresh.values), fresh.classes

    def op(self, state, index):
        curves, classes = self.queries(state, index)
        seconds, values = _timed(self.lib.solver.decision_values, state[0], curves)
        return Op(seconds, (index, values, classes))

    def check(self, state, ops):
        model = state[0]
        decision_values = self.lib.solver.decision_values
        failed = 0
        for op in (ops[0], ops[-1]):  # repeat: decision values must be bit-identical
            index, values, _ = op.output
            again = decision_values(model, self.queries(state, index)[0])
            failed += int(np.sum(again != values))
        values = np.concatenate([op.output[1] for op in ops])
        classes = np.concatenate([op.output[2] for op in ops])
        failed += int(np.sum(~np.isfinite(values)))
        # Scored on a fixed labelled set, so that the error rate does not move
        # with the number of batches a run gets through.
        held_out = instance(self.n_held_out, offset=1)
        decisions = decision_values(model, self.lib.curves(model.grid, held_out.values))
        times = [op.seconds for op in ops]
        return Check(
            attempted=values.size, failed=failed,
            error_rate=_error_rate(decisions, held_out.labels),
            report={"predict_curves_per_s": values.size / sum(times),
                    "predict_batch_p50_ms": 1e3 * _median(times),
                    "predict_batch_p90_ms": 1e3 * _quantile(times, 0.9),
                    "batches": len(times), "n_support": model.n_support,
                    "predict_error_rate": _error_rate(decisions, held_out.labels),
                    "timed_curves_error_vs_class": _error_rate(values, classes)},
        )


# -- evaluate-deriv-haar -------------------------------------------------------

class EvaluateDerivHaar:
    """Repeated-splits evaluation: many small selections on transformed curves."""

    name = "evaluate-deriv-haar"
    setup_repeats = 25
    warmup_ops = 1
    n, count, train_size, inner_l = 240, 2, 160, 80
    grid_doc = {
        "basis": "haar_wavelet",
        "dimensions": [4, 8, 16, 32],
        "transforms": [{"kind": "derivative", "order": 2, "spline_dimension": 24},
                       {"kind": "normalize"}],
        "kernels": [{"kind": "gaussian", "sigma": 1}, {"kind": "linear"}],
        "C": [1, 100],
    }

    def __init__(self, lib: Library):
        self.lib = lib

    def setup(self, seed):
        # A straight line per curve: the cubic spline fit reproduces it and the
        # second derivative removes it, so the problem is the instance's.
        curves = instance(self.n)
        rng = np.random.default_rng(seed)
        lines = rng.standard_normal((self.n, 1)) + rng.standard_normal((self.n, 1)) * curves.t
        curves.values = curves.values + lines
        return curves.dataset(self.lib), self.lib.config.build_grid(self.grid_doc)

    def op(self, state, index):
        data, grid = state
        seconds, report = _timed(
            self.lib.evaluation.run_repeated_splits, data, grid, count=self.count,
            train_size=self.train_size, inner_l=self.inner_l, seed=0)
        payload = json.dumps(report.payload(), sort_keys=True)
        return Op(seconds, (payload, report.mean_error, report.excluded_runs))

    def check(self, state, ops):
        payload, mean_error, _ = ops[0].output
        failed = sum(op.output[0] != payload for op in ops)
        failed += sum(op.output[2] for op in ops)
        return Check(
            attempted=self.count * len(ops), failed=failed, error_rate=mean_error,
            report={"evaluate_s": _median([op.seconds for op in ops]),
                    "mean_test_error": mean_error},
        )


# -- cli-cold ------------------------------------------------------------------

class CliCold:
    """Cold command-line runs: --version, select on a CSV, predict on a CSV.

    One operation is one command in a new interpreter; operations take the
    three in turn, and ``predict`` uses the model the last ``select`` wrote.
    A traced operation is one round of the three through ``cli.main``.
    """

    name = "cli-cold"
    setup_repeats = 8
    warmup_ops = 3
    n_select, n_predict, l = 200, 2000, 100
    grid_doc = {
        "basis": "fourier",
        "dimensions": [4, 8, 12],
        "kernels": [{"kind": "gaussian", "sigma": 2}, {"kind": "linear"}],
        "C": [1, 10],
    }

    def __init__(self, lib: Library, workdir: Path):
        self.lib = lib
        self.workdir = workdir / lib.package
        self.env = {**os.environ, "PYTHONPATH": str(lib.path)}

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        train = instance(self.n_select).take(shuffle_sides(rng, self.n_select, self.l))
        queries = instance(self.n_predict, offset=1).take(rng.permutation(self.n_predict))
        w = self.workdir
        w.mkdir(parents=True, exist_ok=True)
        _write_csv(w / "select.csv", train.t, train.values, train.labels)
        _write_csv(w / "predict.csv", queries.t, queries.values, queries.labels)
        config = {"dataset": {"path": str(w / "select.csv")}, "grid": self.grid_doc,
                  "split": {"policy": "first_l", "l": self.l}}
        (w / "config.json").write_text(json.dumps(config))
        return queries

    def commands(self):
        w = self.workdir
        return {
            "version": ["--version"],
            "select": ["select", "--config", str(w / "config.json"), "--out", str(w / "out")],
            "predict": ["predict", "--model", str(w / "out" / "model.fsvm"),
                        "--data", str(w / "predict.csv"), "--out", str(w / "predictions.csv")],
        }

    def op(self, state, index):
        commands = self.commands()
        kind = list(commands)[index % len(commands)]
        if kind == "predict":
            (self.workdir / "predictions.csv").unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", f"{self.lib.package}.cli",
                               *commands[kind]], env=self.env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
        seconds = time.perf_counter() - start
        bad = proc.returncode != 0 or "FSVM-ERROR" in proc.stderr
        predictions = self._predictions() if kind == "predict" else None
        return Op(seconds, (bad, predictions), kind)

    def traced_op(self, state, index):
        """One round of the three commands through ``cli.main`` in this interpreter."""
        bad = 0
        (self.workdir / "predictions.csv").unlink(missing_ok=True)
        start = time.perf_counter()
        for argv in self.commands().values():
            with contextlib.redirect_stdout(io.StringIO()):
                bad += self.lib.cli.main(argv) != 0
        return Op(time.perf_counter() - start, (bad, self._predictions()))

    def _predictions(self) -> np.ndarray | None:
        path = self.workdir / "predictions.csv"
        if not path.is_file():
            return None
        lines = path.read_text().splitlines()[1:]
        return np.array([float(line.split(",")[1]) for line in lines])

    def check(self, state, ops):
        model = self.lib.persistence.load_model(str(self.workdir / "out" / "model.fsvm"))
        expected = self.lib.solver.decision_values(model, self.lib.curves(model.grid, state.values))
        failed = sum(op.output[0] for op in ops)
        predicts = [op for op in ops if op.kind in ("predict", "")]  # "": a traced round
        failed += sum(not np.array_equal(op.output[1], expected) for op in predicts)
        error_rate = _error_rate(expected, state.labels)
        report = {f"cli_{kind}_s": _median([op.seconds for op in ops if op.kind == kind])
                  for kind in self.commands() if any(op.kind == kind for op in ops)}
        report["predict_error_rate"] = error_rate
        return Check(attempted=len(ops), failed=failed,
                     error_rate=error_rate, report=report)


def _write_csv(path: Path, t, values, labels) -> None:
    """The csv_rows layout: a header of abscissae, then values and a label."""
    lines = [",".join([repr(float(x)) for x in t] + ["label"])]
    lines += [",".join([repr(float(x)) for x in row] + [str(int(y))])
              for row, y in zip(values, labels)]
    path.write_text("\n".join(lines) + "\n")


def _error_rate(decisions, labels) -> float:
    return float(np.mean(np.where(decisions >= 0.0, 1, -1) != labels))


def _median(values) -> float:
    return float(np.median(values))


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q))
