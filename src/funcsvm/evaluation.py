"""Experiment protocols: leave-one-out, fixed and repeated splits.

Every protocol is exactly reproducible from (data, grid, protocol, seed);
report assembly is ordered by fold/run index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FuncSvmError, UsageError
from .functions import LabeledDataset, SamplingGrid, is_integer
from .selection import CandidateGrid, empirical_error, select, split_sample
from .solver import DEFAULT_TOL

__all__ = [
    "EvaluationReport",
    "run_leave_one_out",
    "run_fixed_split",
    "run_repeated_splits",
    "paired_t_test",
    "generate_synthetic",
]

VARIANCE_FLOOR = 1e-12
# Terms of the incomplete beta's continued fraction: about sqrt(max(a, b))
# are needed, so this covers a t-test on up to 10^7 pairs.
BETA_FRACTION_TERMS = 10_000
EPS = float(np.finfo(float).eps)


@dataclass
class EvaluationReport:
    protocol: dict
    per_run_errors: list
    per_run_chosen: list
    mean_error: float
    excluded_runs: int = 0
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """Deterministic content; wall time is reporting metadata, not payload."""
        return {
            "protocol": self.protocol,
            "per_run_errors": self.per_run_errors,
            "per_run_chosen": self.per_run_chosen,
            "mean_error": self.mean_error,
            "excluded_runs": self.excluded_runs,
            "extra": self.extra,
        }


def _chosen_summary(result) -> dict:
    record = result.chosen_record
    return {**record.candidate.as_dict(), "validation_error": record.validation_error,
            "score": record.score}


def _run_folds(grid, folds, l, tol, key, what, protocol) -> EvaluationReport:
    """Select on the training part of each fold, a (train, test, inner
    policy, inner seed) tuple, and score the winner on its test part.

    A fold where no candidate trains is excluded and recorded under
    ``key``, never silently dropped.
    """
    start = time.perf_counter()
    errors, chosen, excluded = [], [], 0
    for i, (train, test, policy, seed) in enumerate(folds):
        try:
            result = select(grid, train, l, policy=policy, seed=seed, tol=tol)
        except FuncSvmError as exc:
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
    if count < 1:
        raise UsageError("repeated splits need count >= 1")
    if not 1 <= train_size < n:
        raise UsageError(f"train size {train_size} incompatible with N={n}")
    if not 1 <= inner_l < train_size:
        raise UsageError("inner split size must be below the train size")
    return _run_folds(
        grid, _random_splits(data, count, train_size, seed, outer_policy),
        inner_l, tol, "run", "repeated split",
        {
            "kind": "repeated_splits", "count": count, "train_size": train_size,
            "inner_l": inner_l, "seed": seed, "outer_policy": outer_policy,
            "inner_policy": "seeded_shuffle",
        },
    )


def paired_t_test(errors_a, errors_b) -> float:
    """Two-sided paired t-test p-value on per-split error pairs.

    Zero-variance differences are handled with a variance floor: identical
    vectors give p = 1, a constant nonzero difference gives a near-zero p.
    """
    a = np.asarray(errors_a, dtype=float)
    b = np.asarray(errors_b, dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise UsageError("paired test needs two equal-length vectors of size >= 2")
    d = a - b
    var = float(np.var(d, ddof=1))
    var = max(var, VARIANCE_FLOOR)
    t = float(np.mean(d) / np.sqrt(var / d.size))
    return student_t_two_sided(t, d.size - 1)


def student_t_two_sided(t: float, df: int) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom:
    the regularized incomplete beta ``I_x(df/2, 1/2)`` at ``x = df / (df +
    t^2)``."""
    t2 = float(t) * float(t)
    if math.isinf(t2):
        return 0.0
    x, y = df / (df + t2), t2 / (df + t2)  # y = 1 - x, without cancellation
    return _incomplete_beta(df / 2.0, 0.5, x, y)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta ``I_x(a, b)``, given ``y = 1 - x``,
    from its continued fraction (Numerical Recipes, 3rd ed., section 6.4),
    which converges fast for ``x < (a + 1) / (a + b + 2)``; past that it is
    ``1 - I_y(b, a)``."""
    if not x > 0.0:
        return 0.0 if x == 0.0 else math.nan
    if not y > 0.0:
        return 1.0 if y == 0.0 else math.nan
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta, by the modified Lentz
    method: its even and odd terms alternate until a step changes the
    value by less than a rounding."""
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, BETA_FRACTION_TERMS + 1):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            h *= step
        if abs(step - 1.0) < EPS:
            break
    return h


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
    if not 0.0 <= noise < np.inf:
        raise UsageError(f"noise must be a finite number >= 0, got {noise!r}")
    if not 0.0 <= label_noise <= 1.0:
        raise UsageError(f"label noise must be a rate in [0, 1], got {label_noise!r}")
    if len(frequencies) != 2 or not np.isfinite(frequencies).all():
        raise UsageError(f"frequencies must be two finite numbers, got {frequencies!r}")
    if seed is not None and not (is_integer(seed) and seed >= 0):
        raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
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
