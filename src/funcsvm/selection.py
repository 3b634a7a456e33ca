"""Penalized split-sample hyperparameter selection.

The sample is split into a training part and a validation part; one SVM
is trained per candidate (kernel, C); the winner minimizes ``validation
error + lambda_d / sqrt(validation size)``, d being the dimension of the
kernel's projection (0 for none).  Ties break toward smaller d, then
smaller C, then grid order (kernel declaration order on a ``from_axes``
grid).
The returned model is built from the winning candidate's own solve on
the training half (no refit, neither on that half nor on the full sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateTrainingError,
    FuncSvmError,
    GridMismatchError,
    UsageError,
)
from .functions import LabeledDataset, is_finite_number, is_integer
from .kernels import FunctionalKernel, apply_base, kernel_to_dict, prepare_rows
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DualSolution,
    SvmModel,
    model_from_solution,
    predict_batch,
    solve_dual,
    support_mask,
)

__all__ = [
    "Candidate",
    "CandidateGrid",
    "SelectionResult",
    "split_sample",
    "empirical_error",
    "select",
    "validate_grid",
]


@dataclass(frozen=True)
class Candidate:
    """One point of the search grid: a kernel and its C.

    Its :attr:`dimension`, which the penalty and the tie-break read, is the
    kernel's projection dimension d, or 0 when the kernel projects nowhere.
    """

    kernel: FunctionalKernel
    C: float

    def __post_init__(self):
        if not (is_finite_number(self.C) and self.C > 0):
            raise ConfigurationError(f"C must be positive and finite, got {self.C!r}")

    @property
    def dimension(self) -> int:
        projection = self.kernel.projection
        return 0 if projection is None else projection.dimension

    def as_dict(self) -> dict:
        return {"dimension": self.dimension, "kernel": kernel_to_dict(self.kernel),
                "C": self.C}


@dataclass(frozen=True)
class CandidateGrid:
    """Ordered candidate list plus the per-dimension penalty table."""

    candidates: tuple[Candidate, ...]
    penalties: dict = field(default_factory=dict)
    default_penalty: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for value in (*self.penalties.values(), self.default_penalty):
            if not is_finite_number(value):
                raise ConfigurationError(f"penalties must be finite numbers, got {value!r}")

    def __len__(self) -> int:
        return len(self.candidates)

    def penalty(self, dimension: int) -> float:
        return float(self.penalties.get(dimension, self.default_penalty))

    @classmethod
    def from_axes(
        cls,
        kernels,
        C_values,
        dimensions=(0,),
        penalties=None,
        default_penalty: float = 0.0,
        family: str = "fourier",
        spline_degree: int = 3,
    ) -> "CandidateGrid":
        """Cartesian product grid.

        Each of the ``kernels`` is combined with the ``family`` basis of
        each dimension d on the ``dimensions`` axis, or with no projection
        when d is 0; a projection the kernel already carries is replaced.
        """
        from .basis import BasisSpec

        cands = []
        for d in dimensions:
            projection = (
                BasisSpec(family, d, spline_degree=spline_degree) if d > 0 else None
            )
            for kernel in kernels:
                kernel_d = FunctionalKernel(
                    transforms=kernel.transforms, projection=projection,
                    base=kernel.base,
                )
                for C in C_values:
                    cands.append(Candidate(kernel_d, float(C)))
        return cls(tuple(cands), penalties=dict(penalties or {}),
                   default_penalty=default_penalty)


STEP_PENALTY_CAP = 100
STEP_PENALTY_HIGH = 1000.0


def step_penalty(dimension: int, cap: int = STEP_PENALTY_CAP,
                 high: float = STEP_PENALTY_HIGH) -> float:
    """Preset penalty: 0 up to the dimension cap, a high constant above."""
    return 0.0 if dimension <= cap else high


@dataclass
class Split:
    train: LabeledDataset
    validation: LabeledDataset
    warnings: list = field(default_factory=list)


def split_sample(
    data: LabeledDataset, l: int, policy: str = "first_l", seed: int | None = None
) -> Split:
    """Disjoint, exhaustive train/validation split.

    ``first_l`` keeps stored order; ``seeded_shuffle`` permutes with the
    given seed first.  A side containing a single class is reported as a
    warning, not an error (individual candidates will fail later).
    """
    n = len(data)
    if not (is_integer(l) and 1 <= l < n):
        raise UsageError(f"training size l={l!r} must be an integer with 1 <= l < N={n}")
    if policy == "first_l":
        order = np.arange(n)
    elif policy == "seeded_shuffle":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
    else:
        raise UsageError(f"unknown split policy {policy!r}")
    train = data.subset(order[:l])
    val = data.subset(order[l:])
    warnings = []
    for name, side in (("training", train), ("validation", val)):
        if len(set(side.labels.tolist())) < 2:  # np.unique would import numpy.ma
            warnings.append(f"{name} side contains a single class")
    return Split(train, val, warnings)


def empirical_error(model: SvmModel, data: LabeledDataset) -> float:
    """Misclassification fraction of the model on the given data, which
    must be sampled on the model's grid."""
    if len(data) == 0:
        raise DataError("cannot compute an error rate on empty data")
    if data.grid != model.grid:
        raise GridMismatchError("the data are not sampled on the model's grid")
    pred = predict_batch(model, data.value_matrix())
    return float(np.mean(pred != data.labels))


@dataclass
class CandidateRecord:
    candidate: Candidate
    index: int
    validation_error: float | None
    score: float | None
    max_iter: int  # the update budget its solve ran under
    error: str | None = None
    solution: DualSolution | None = None

    def as_row(self) -> dict:
        """Report row; the solver facts are None when no solve ran."""
        sol = self.solution
        return {
            "index": self.index,
            **self.candidate.as_dict(),
            "validation_error": self.validation_error,
            "score": self.score,
            "error": self.error,
            "iterations": sol.iterations if sol else None,
            "kkt_violation": sol.kkt_violation if sol else None,
            "n_support": int(support_mask(sol.alphas, self.candidate.C).sum())
            if sol else None,
            # A failed candidate keeps the solution of a ConvergenceError:
            # its budget ran out, or it stopped at the rounding floor.
            "budget_exhausted": (self.score is None and sol.iterations >= self.max_iter)
            if sol else None,
        }


@dataclass
class SelectionResult:
    chosen_record: CandidateRecord
    model: SvmModel
    table: list  # of CandidateRecord
    train_size: int
    validation_size: int
    split_warnings: list = field(default_factory=list)

    @property
    def chosen(self) -> Candidate:
        return self.chosen_record.candidate


def select(
    grid: CandidateGrid,
    data: LabeledDataset,
    l: int,
    policy: str = "first_l",
    seed: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SelectionResult:
    """Run the full split-sample search and return the winning model.

    Each candidate is solved once; the returned model is the winner's
    solve, kept with the training half's prepared curves.  Each
    preparation is applied once, and one Gram matrix is held at a time:
    it is built again only when a candidate's preparation or base kernel
    differs from the previous candidate's.  Every solve starts from zero,
    so a candidate's solution does not depend on the others in the grid,
    and is :func:`train_svm`'s on the training half, bit for bit.
    """
    if len(grid) == 0:
        raise UsageError("the candidate grid is empty")
    split = split_sample(data, l, policy=policy, seed=seed)
    train, validation = split.train, split.validation
    y = train.labels
    m = len(validation)
    table = []
    prepared: dict = {}  # prep_signature -> (train rows, validation rows)
    gram_key = K = Kv = None  # the one Gram matrix held, with its validation rows
    for idx, cand in enumerate(grid.candidates):
        kernel = cand.kernel
        key = (kernel.prep_signature, kernel.base)
        try:
            # from_axes lists each Gram matrix's candidates together: built once.
            # An overflow shows in K, which solve_dual checks, or in the
            # decisions, which are checked below.
            if key != gram_key:
                if kernel.prep_signature not in prepared:
                    prepared[kernel.prep_signature] = (
                        prepare_rows(kernel, train.grid, train.value_matrix()),
                        prepare_rows(kernel, validation.grid, validation.value_matrix()),
                    )
                tr, va = prepared[kernel.prep_signature]
                with np.errstate(all="ignore"):
                    K, Kv = apply_base(kernel.base, tr, tr), apply_base(kernel.base, va, tr)
                gram_key = key
            sol = solve_dual(K, y, cand.C, tol=tol, max_iter=max_iter)
            with np.errstate(all="ignore"):
                decisions = Kv @ (sol.alphas * y) + sol.bias
            if not np.isfinite(decisions).all():
                raise DataError("decision values are not all finite")
        except FuncSvmError as exc:
            table.append(CandidateRecord(
                cand, idx, None, None, max_iter,
                error=f"{type(exc).__name__}: {exc}",
                solution=exc.solution if isinstance(exc, ConvergenceError) else None))
            continue
        err = float(np.mean(np.where(decisions >= 0.0, 1, -1) != validation.labels))
        score = err + grid.penalty(cand.dimension) / np.sqrt(m)
        table.append(CandidateRecord(cand, idx, err, float(score), max_iter, solution=sol))

    usable = [r for r in table if r.score is not None]
    if not usable:
        causes = "; ".join(f"[{r.index}] {r.error}" for r in table)
        raise DegenerateTrainingError(f"every candidate failed to train: {causes}")
    # min keeps the first of equal keys, so grid order breaks the last ties.
    best = min(usable, key=lambda r: (r.score, r.candidate.dimension, r.candidate.C))
    model = model_from_solution(
        best.candidate.kernel, prepared[best.candidate.kernel.prep_signature][0],
        train, best.solution, best.candidate.C, tol,
        meta={"dimension": best.candidate.dimension, "seed": seed,
              "split_policy": policy, "l": l},
    )
    return SelectionResult(
        chosen_record=best,
        model=model,
        table=table,
        train_size=len(train),
        validation_size=m,
        split_warnings=split.warnings,
    )


def validate_grid(
    grid: CandidateGrid, N: int | None = None, l: int | None = None
) -> list[str]:
    """Warnings for configurations that break the consistency hypotheses."""
    warnings = []
    by_dim: dict = {}
    for cand in grid.candidates:
        by_dim.setdefault(cand.dimension, []).append(cand)
    for d, cands in sorted(by_dim.items()):
        if not any(c.kernel.base.kind == "gaussian" for c in cands):
            warnings.append(
                f"dimension {d}: no universal (Gaussian) kernel in the candidate set"
            )
        if all(c.C <= 1.0 for c in cands):
            warnings.append(
                f"dimension {d}: all C values are <= 1; the C range should extend above 1"
            )
    # Summability of sum_d |J_d| exp(-2 lambda_d^2) under the configured
    # truncation: the tail term at the largest dimension must be negligible.
    if by_dim:
        d_max = max(by_dim)
        kernels_at_cap = {c.kernel for c in by_dim[d_max]}
        tail = len(kernels_at_cap) * np.exp(-2.0 * grid.penalty(d_max) ** 2)
        if tail > 1e-6:
            warnings.append(
                "penalty summability: the tail term at the largest dimension "
                f"({tail:.3g}) exceeds 1e-6; penalties should grow with d"
            )
    if N is not None and l is not None and 1 <= l < N:
        m = N - l
        ratio = l * np.log(m) / m
        if ratio > 1.0:
            warnings.append(
                f"split sizes violate the growth condition: l*log(N-l)/(N-l) = {ratio:.2f} > 1"
            )
    return warnings
