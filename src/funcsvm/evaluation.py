"""Experiment protocols: leave-one-out, fixed and repeated splits.

Every protocol is exactly reproducible from (data, grid, protocol, seed);
report assembly is ordered by fold/run index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .functions import (
    LabeledDataset, SamplingGrid, is_finite_number, is_integer, is_number, is_seed,
)
from .selection import CandidateGrid, empirical_error, select, split_sample
from .solver import DEFAULT_TOL

__all__ = [
    "EvaluationReport",
    "run_leave_one_out",
    "run_fixed_split",
    "run_repeated_splits",
    "generate_synthetic",
]


@dataclass
class EvaluationReport:
    protocol: dict
    per_run_errors: list
    per_run_chosen: list
    mean_error: float
    excluded_runs: int = 0
    wall_time: float = 0.0

    def payload(self) -> dict:
        """Deterministic content; wall time is reporting metadata, not payload."""
        return {
            "protocol": self.protocol,
            "per_run_errors": self.per_run_errors,
            "per_run_chosen": self.per_run_chosen,
            "mean_error": self.mean_error,
            "excluded_runs": self.excluded_runs,
        }


def _chosen_summary(result) -> dict:
    record = result.chosen_record
    return {**record.candidate.as_dict(), "validation_error": record.validation_error,
            "score": record.score}


def _run_folds(grid, folds, l, tol, key, what, protocol) -> EvaluationReport:
    """Select on the training part of each fold, a (train, test, inner
    policy, inner seed) tuple, and score the winner on its test part.

    A fold where no candidate trains is excluded and recorded under
    ``key``, never silently dropped.  Only a ``DataError`` excludes a fold:
    the protocols check their arguments before the first fold, and a
    ``UsageError`` is the caller's, whichever fold it shows in.
    """
    start = time.perf_counter()
    errors, chosen, excluded = [], [], 0
    for i, (train, test, policy, seed) in enumerate(folds):
        try:
            result = select(grid, train, l, policy=policy, seed=seed, tol=tol)
        except DataError as exc:
            excluded += 1
            chosen.append({key: i, "error": f"{type(exc).__name__}: {exc}"})
            continue
        errors.append(empirical_error(result.model, test))
        chosen.append(_chosen_summary(result))
    if not errors:
        raise DataError(f"every {what} failed")
    return EvaluationReport(
        protocol=protocol,
        per_run_errors=errors,
        per_run_chosen=chosen,
        mean_error=float(np.mean(errors)),
        excluded_runs=excluded,
        wall_time=time.perf_counter() - start,
    )


def _check_tol(tol) -> None:
    """Checked once, before the first fold, where it would fail every solve."""
    if not (is_finite_number(tol) and tol > 0.0):
        raise UsageError(f"tol must be a positive finite number, got {tol!r}")


def _random_splits(data: LabeledDataset, count, train_size, seed, outer_policy):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        run_seed = int(rng.integers(0, 2**63 - 1))
        outer = split_sample(data, train_size, policy=outer_policy, seed=run_seed)
        yield outer.train, outer.validation, "seeded_shuffle", run_seed + 1


def run_leave_one_out(
    data: LabeledDataset,
    grid: CandidateGrid,
    inner_l: int | None = None,
    tol: float = DEFAULT_TOL,
) -> EvaluationReport:
    """Hold out each curve in turn; run the split-sample selection on the rest.

    The inner split takes the first ``inner_l`` of the remaining curves in
    stored order (defaults to half).  Folds where no candidate trains are
    excluded and counted, never silently dropped.
    """
    n = len(data)
    if n < 3:
        raise UsageError("leave-one-out needs at least three examples")
    l = inner_l if inner_l is not None else (n - 1) // 2
    if not (is_integer(l) and 1 <= l < n - 1):
        raise UsageError(f"inner split size must be an integer in [1, {n - 2}], got {l!r}")
    _check_tol(tol)
    folds = (
        (data.subset([j for j in range(n) if j != i]), data.subset([i]), "first_l", None)
        for i in range(n)
    )
    return _run_folds(grid, folds, l, tol, "fold", "leave-one-out fold",
                      {"kind": "leave_one_out", "inner_l": l, "n": n})


def run_fixed_split(
    data: LabeledDataset,
    grid: CandidateGrid,
    train_size: int,
    inner_l: int,
    seed: int | None = None,
    policy: str = "first_l",
    tol: float = DEFAULT_TOL,
) -> EvaluationReport:
    """One outer train/test split with an inner split-sample selection."""
    report = run_repeated_splits(
        data, grid, count=1, train_size=train_size, inner_l=inner_l,
        seed=seed, outer_policy=policy, tol=tol,
    )
    report.protocol = {**report.protocol, "kind": "fixed_split"}
    return report


def run_repeated_splits(
    data: LabeledDataset,
    grid: CandidateGrid,
    count: int,
    train_size: int,
    inner_l: int,
    seed: int | None = 0,
    outer_policy: str = "seeded_shuffle",
    tol: float = DEFAULT_TOL,
) -> EvaluationReport:
    """Repeat a random train/test split ``count`` times and average test error."""
    n = len(data)
    if not (is_integer(count) and count >= 1):
        raise UsageError(f"repeated splits need an integer count >= 1, got {count!r}")
    if not (is_integer(train_size) and 1 <= train_size < n):
        raise UsageError(f"train size {train_size!r} incompatible with N={n}")
    if not (is_integer(inner_l) and 1 <= inner_l < train_size):
        raise UsageError("inner split size must be below the train size")
    if not is_seed(seed):
        raise UsageError(f"seed must be None or an integer >= 0, got {seed!r}")
    _check_tol(tol)
    return _run_folds(
        grid, _random_splits(data, count, train_size, seed, outer_policy),
        inner_l, tol, "run", "repeated split",
        {
            "kind": "repeated_splits", "count": count, "train_size": train_size,
            "inner_l": inner_l, "seed": seed, "outer_policy": outer_policy,
            "inner_policy": "seeded_shuffle",
        },
    )


def generate_synthetic(
    n: int,
    noise: float = 0.2,
    label_noise: float = 0.0,
    grid_length: int = 64,
    frequencies: tuple[float, float] = (2.0, 3.0),
    seed: int | None = 0,
) -> LabeledDataset:
    """Two-class sinusoid family on [0, 1].

    Class +1 curves follow sin(2 pi f1 t) and class -1 curves
    sin(2 pi f2 t), with i.i.d. Gaussian observation noise of the given
    standard deviation.  ``label_noise`` flips each label independently,
    so for separable prototypes the Bayes error equals the flip rate.
    Each argument out of its range is a :class:`UsageError`.
    """
    if not (is_integer(n) and n >= 1):
        raise UsageError(f"n must be an integer >= 1, got {n!r}")
    if not (is_finite_number(noise) and noise >= 0.0):
        raise UsageError(f"noise must be a finite number >= 0, got {noise!r}")
    if not (is_number(label_noise) and 0.0 <= label_noise <= 1.0):
        raise UsageError(f"label noise must be a rate in [0, 1], got {label_noise!r}")
    if not (isinstance(frequencies, (tuple, list, np.ndarray)) and len(frequencies) == 2
            and all(map(is_finite_number, frequencies))):
        raise UsageError(f"frequencies must be two finite numbers, got {frequencies!r}")
    if not is_seed(seed):
        raise UsageError(f"seed must be None or an integer >= 0, got {seed!r}")
    if not (is_integer(grid_length) and grid_length >= 2):
        raise UsageError(f"grid length must be an integer >= 2, got {grid_length!r}")
    grid = SamplingGrid.uniform(0.0, 1.0, grid_length)
    rng = np.random.default_rng(seed)
    t = grid.abscissae
    f_pos, f_neg = frequencies
    labels = rng.choice((-1, 1), size=n)
    protos = {
        1: np.sin(2.0 * np.pi * f_pos * t),
        -1: np.sin(2.0 * np.pi * f_neg * t),
    }
    values = np.stack([protos[int(y)] for y in labels])
    if noise > 0:
        values = values + noise * rng.standard_normal(values.shape)
    if label_noise > 0:
        flips = rng.random(n) < label_noise
        labels = np.where(flips, -labels, labels)
    return LabeledDataset.from_matrix(grid, values, labels)
