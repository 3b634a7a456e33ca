"""Kernels on curves: transform chains, basis projections, base kernels.

A :class:`FunctionalKernel` evaluates ``K(P(u), P(v))`` where ``P`` is an
optional pipeline of functional transforms (center, normalize, at most
one spline derivative) followed by an optional basis projection, and
``K`` is a linear, Gaussian or polynomial base kernel.  All inner
products respect the underlying L2 geometry: each prepared curve is a
row whose dot product is the L2 inner product.  A raw curve is its
:func:`isometric_rows`, its values times the square roots of the
quadrature weights; the coefficients of its L2 projection onto a basis
span are multiplied by the Cholesky factor of the basis Gram matrix
(:func:`~funcsvm.basis.gram_factor`).

A batch is prepared through a plan built once per preparation and grid
(see :func:`_plan`): the steps before the spline derivative or
projection run on the (N, n) value matrix, and everything from there on
is two thin products, because the only nonlinear step, ``normalize``, is
a centring followed by a row scaling, which commutes with every linear
step after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import basis as basis_mod
from .errors import ConfigurationError, DataError
# bench/layers.py traces center, normalize and spline_derivative under these names.
from .functions import (
    DEGENERACY_RTOL,
    SamplingGrid,
    center,
    center_rows,
    check_finite,
    derivative_factors,
    is_finite_number,
    is_integer,
    normalize,
    normalize_by,
    normalize_rows,
    spline_derivative,
    stack_curves,
)

__all__ = [
    "BaseKernel",
    "Transform",
    "FunctionalKernel",
    "prepare_batch",
    "prepare_rows",
    "isometric_rows",
    "kernel_to_dict",
    "kernel_from_dict",
    "transforms_from_dicts",
]

EXP_FLOOR = -700.0  # clamp for Gaussian exponents, avoids exact underflow
# A squared distance reaches four times the larger squared norm of its two
# rows: below this bound, no pairwise statistic of prepared rows overflows.
MAX_SQUARED_NORM = float(np.finfo(float).max) / 4.0


@dataclass(frozen=True)
class BaseKernel:
    """Linear, Gaussian (exp(-sigma * ||u - v||^2)) or polynomial ((1 + <u,v>)^degree)."""

    kind: str
    sigma: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.kind == "linear":
            pass
        elif self.kind == "gaussian":
            if not (is_finite_number(self.sigma) and self.sigma > 0):
                raise ConfigurationError(
                    f"gaussian kernel needs a finite sigma > 0, got {self.sigma!r}"
                )
            object.__setattr__(self, "sigma", float(self.sigma))
        elif self.kind == "polynomial":
            # A finite degree: numpy cannot raise to an int past the float range.
            if not (is_integer(self.degree) and is_finite_number(self.degree)
                    and self.degree >= 1):
                raise ConfigurationError(
                    f"polynomial kernel needs an integer degree >= 1, got {self.degree!r}"
                )
            object.__setattr__(self, "degree", int(self.degree))
        else:
            raise ConfigurationError(f"unknown base kernel {self.kind!r}")

    @classmethod
    def linear(cls) -> "BaseKernel":
        return cls("linear")

    @classmethod
    def gaussian(cls, sigma: float) -> "BaseKernel":
        return cls("gaussian", sigma=sigma)

    @classmethod
    def polynomial(cls, degree: int) -> "BaseKernel":
        return cls("polynomial", degree=degree)

    def describe(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g})"
        if self.kind == "polynomial":
            return f"polynomial(degree={self.degree})"
        return "linear"


@dataclass(frozen=True)
class Transform:
    """One step of the functional preprocessing chain.

    ``order`` and ``spline_dimension`` belong to the derivative; a centring
    or normalization resets them to their defaults, so that two steps that
    compute the same are equal.
    """

    kind: str
    order: int = 2
    spline_dimension: int = 0

    def __post_init__(self):
        if self.kind in ("center", "normalize"):
            object.__setattr__(self, "order", 2)
            object.__setattr__(self, "spline_dimension", 0)
            return
        if self.kind == "derivative":
            if not (is_integer(self.order) and self.order in (1, 2)):
                raise ConfigurationError(
                    f"derivative order must be the integer 1 or 2, got {self.order!r}"
                )
            if not is_integer(self.spline_dimension):
                raise ConfigurationError(
                    "derivative spline dimension must be an integer, "
                    f"got {self.spline_dimension!r}"
                )
            if self.spline_dimension < self.order + 4:
                raise ConfigurationError(
                    "derivative transform needs spline dimension >= order + 4"
                )
            return
        raise ConfigurationError(f"unknown transform {self.kind!r}")


@dataclass(frozen=True)
class FunctionalKernel:
    transforms: tuple[Transform, ...] = ()
    projection: basis_mod.BasisSpec | None = None
    base: BaseKernel = field(default_factory=BaseKernel.linear)

    def __post_init__(self):
        transforms = tuple(self.transforms)
        if sum(t.kind == "derivative" for t in transforms) > 1:
            raise ConfigurationError("a transform chain holds at most one derivative")
        object.__setattr__(self, "transforms", transforms)

    @property
    def prep_signature(self) -> tuple:
        """Hashable key identifying the transform + projection pipeline."""
        return (self.transforms, self.projection)

    def describe(self) -> str:
        parts = [t.kind for t in self.transforms]
        if self.projection is not None:
            parts.append(f"{self.projection.family}(d={self.projection.dimension})")
        parts.append(self.base.describe())
        return " -> ".join(parts)


def prepare_batch(kernel: FunctionalKernel, functions) -> np.ndarray:
    """Apply the kernel's transforms and projection to a batch of curves,
    as the (N, width) matrix of their isometric rows, whose dot product is
    the L2 inner product.

    The curves, which share one grid, are stacked once into an (N, n) value
    matrix for :func:`prepare_rows` (see
    :func:`~funcsvm.functions.stack_curves`).
    """
    funcs = tuple(functions)
    if not funcs:
        raise ConfigurationError("cannot prepare an empty batch")
    return prepare_rows(kernel, *stack_curves(funcs))


def prepare_rows(kernel: FunctionalKernel, grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """:func:`prepare_batch` of the curves that are the rows of an (N, n)
    value matrix on ``grid``.  Zero rows check that every step fits the
    grid, and give the prepared width.

    The chain runs in the form :func:`_plan` gives it.  Each step's values
    are checked to be finite, and each normalization's degeneracy test
    (see ``DEGENERACY_RTOL``) has a floor that scales with the curve that
    entered the chain: the value matrix before the derivative, and the
    entry's rows after it.  Both normalizations go through
    :func:`~funcsvm.functions.normalize_by`, which checks the entry's rows
    to be finite when one fails its range test, as a row that is not
    finite does.  The prepared rows' squared norms are then tested against
    ``MAX_SQUARED_NORM``, unless a normalization after the derivative ends
    the chain: it divides by norms that passed its range test, so its rows
    are finite and of unit norm at most (the projection after it does not
    lengthen a curve).  It sets no floating-point warning.
    """
    # An overflow or a value that is not finite shows in the checks below.
    with np.errstate(all="ignore"):
        plan = _plan(kernel.prep_signature, grid)
        for t in plan.head:
            values = (center_rows if t.kind == "center" else normalize_rows)(grid, values)
            check_finite(values)
        if plan.entry is None:
            rows = isometric_rows(grid, values)
        else:
            rows = values @ plan.entry
        if plan.fold is not None:
            if plan.floor_scale is not None:
                return normalize_by(rows, plan.measure)
            check_finite(rows)
            rows = rows @ plan.fold
            check_finite(rows)
        # NaN fails the test too.
        if rows.size and not np.einsum("ij,ij->i", rows, rows).max() <= MAX_SQUARED_NORM:
            raise DataError("prepared curves must have squared norms below a quarter "
                            "of the float range")
    return rows


@dataclass(frozen=True)
class _Plan:
    """How :func:`prepare_rows` maps an (N, n) value matrix to its
    isometric rows under one preparation on one grid.

    ``head`` runs on the value matrix: centrings, or one normalization.
    Then the rows are ``values @ entry`` (or its :func:`isometric_rows`
    when ``entry`` is None), then, after the derivative, those times
    ``fold``.  Without a derivative the entry is the projector times the
    isometric map, and ``fold`` is None.  The first ``width`` columns of
    the folded rows are the prepared rows before the normalization's
    scaling.  When a normalization follows the derivative, one r x r norm
    factor comes next: its row norms are the quadrature norms of that
    step's centred input, unscaled too.  ``floor_scale`` is then the
    square of ``DEGENERACY_RTOL`` times the operator norm of the map from
    the entry's rows to that step's unscaled input: times the squared norm
    of an entry row, the square of its degeneracy floor.  Otherwise it is
    None.
    """

    head: tuple[Transform, ...]
    entry: np.ndarray | None
    fold: np.ndarray | None
    width: int
    floor_scale: float | None

    def measure(self, rows: np.ndarray):
        """The normalization after the derivative's measure (see
        :func:`~funcsvm.functions.normalize_by`) of the entry's ``rows``:
        their folded rows before the scaling, the squared quadrature norms
        of that step's centred input, and its squared degeneracy floors."""
        folded = rows @ self.fold
        norms = folded[:, self.width :]
        return (folded[:, : self.width], np.einsum("ij,ij->i", norms, norms),
                np.einsum("ij,ij->i", rows, rows) * self.floor_scale)


@lru_cache(maxsize=64)
def _plan(signature: tuple, grid: SamplingGrid) -> _Plan:
    """The :class:`_Plan` of a preparation (``FunctionalKernel.prep_signature``)
    on ``grid``.  Building it checks that every step fits the grid.

    The plan is the one cache of the tables a batch reads: the
    :mod:`~funcsvm.basis` tables are computed as it is built, and it marks
    every array it holds read-only.  It owns them all but the derivative's
    entry, which plans that differ only in projection share through the
    cached :func:`~funcsvm.functions.derivative_factors`.  A grid on which
    a table is not finite, such as one with weights near the float range,
    is a ``ConfigurationError``.

    The chain is a run of centrings and normalizations, at most one
    derivative, then another run.  A run ends at its first normalization:
    later steps leave a centred, unit-norm curve unchanged up to rounding.
    Before the derivative, a run with a normalization is that normalization
    alone, since it centres its input and its floor refers to the curve
    that entered the chain.

    The entry is the first rank-reducing factor: the spline fit ``pinv(B).T``
    (n x r, r the spline dimension) of the derivative, or, without one, the
    projector in its isometric rows, ``P @ L`` (one product per batch), from
    one :func:`~funcsvm.basis.projection_tables` call.  After the
    derivative, the state map (r x n, from spline
    coefficients to the current values) starts as the derivative's second
    factor and goes through the centrings, the projection and the
    isometric map as a batch of r rows.  A normalization adds an r x r
    norm factor beside the result, ``R.T`` of a thin QR of the centred
    state map's isometric transpose: ``z @ R.T`` has the quadrature norm of
    ``z @ centred``.  Its bound is the spectral norm of the state map's
    isometric rows as it is.
    """
    # An overflow shows in the tables, which are checked below; the caller,
    # prepare_rows, sets no floating-point warning.
    try:
        plan = _build_plan(signature, grid)
        tables = [t for t in (plan.entry, plan.fold) if t is not None]
        finite = (all(np.isfinite(t).all() for t in tables)
                  and np.isfinite(plan.floor_scale or 0.0))
    except np.linalg.LinAlgError:  # a factorization of a table that is not finite
        finite = False
    if not finite:
        raise ConfigurationError("the preparation's tables are not finite on this grid")
    for table in tables:
        table.setflags(write=False)
    return plan


def _build_plan(signature: tuple, grid: SamplingGrid) -> _Plan:
    transforms, projection = signature
    split = next((i for i, t in enumerate(transforms) if t.kind == "derivative"),
                 len(transforms))
    head = transforms[:split]
    if any(t.kind == "normalize" for t in head):
        head = (Transform("normalize"),)
    entry = fold = floor_scale = None
    width = len(grid) if projection is None else projection.dimension
    if split < len(transforms):
        derivative = transforms[split]
        entry, state = derivative_factors(grid, derivative.order,
                                          derivative.spline_dimension)
        kinds = [t.kind for t in transforms[split + 1 :]]
        centrings = kinds.index("normalize") if "normalize" in kinds else len(kinds)
        for _ in range(centrings):
            state = center_rows(grid, state)
        norm_factor = ()
        if centrings < len(kinds):
            centred = center_rows(grid, state)
            norm_factor = (np.linalg.qr(isometric_rows(grid, centred).T,
                                        mode="r").T,)
            floor = DEGENERACY_RTOL * float(
                np.linalg.norm(isometric_rows(grid, state), 2))
            floor_scale = floor * floor
            state = centred
        if projection is None:
            state = isometric_rows(grid, state)
        else:
            P, L = basis_mod.projection_tables(projection, grid)
            state = state @ P @ L
        fold = np.hstack([state, *norm_factor])
    elif projection is not None:
        P, L = basis_mod.projection_tables(projection, grid)
        entry = P @ L
    return _Plan(head, entry, fold, width, floor_scale)


def isometric_rows(grid: SamplingGrid, rows: np.ndarray) -> np.ndarray:
    """Rows of curves on ``grid`` times the square roots of the quadrature
    weights: their dot product is the L2 inner product.  Basis coefficients
    take the lower Cholesky factor of the basis Gram matrix instead
    (:func:`~funcsvm.basis.gram_factor`)."""
    return rows * np.sqrt(grid.weights)


def inner_product_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise inner products between two prepared batches."""
    return a @ b.T


def squared_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between two prepared batches.  A batch's
    distances to itself have an exact zero diagonal, which the rounding of
    ``|a|^2 + |a|^2 - 2<a, a>`` would not give."""
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    d = np.maximum(na[:, None] + nb[None, :] - 2.0 * inner_product_matrix(a, b), 0.0)
    if a is b:
        np.fill_diagonal(d, 0.0)
    return d


def apply_base(base: BaseKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Base kernel matrix between two prepared batches: the Gaussian kernel
    maps their squared distances, the others their inner products."""
    if base.kind == "gaussian":
        return np.exp(np.maximum(-base.sigma * squared_distance_matrix(a, b), EXP_FLOOR))
    stat = inner_product_matrix(a, b)
    if base.kind == "polynomial":
        return (1.0 + stat) ** base.degree
    return stat


# -- Serialization ---------------------------------------------------------

def kernel_to_dict(kernel: FunctionalKernel) -> dict:
    """Lossless human-readable description of a kernel specification."""
    out: dict = {"base": {"kind": kernel.base.kind}}
    if kernel.base.sigma is not None:
        out["base"]["sigma"] = kernel.base.sigma
    if kernel.base.degree is not None:
        out["base"]["degree"] = kernel.base.degree
    out["transforms"] = [
        {
            "kind": t.kind,
            **({"order": t.order, "spline_dimension": t.spline_dimension}
               if t.kind == "derivative" else {}),
        }
        for t in kernel.transforms
    ]
    if kernel.projection is not None:
        p = kernel.projection
        out["projection"] = {
            "family": p.family,
            "dimension": p.dimension,
            "spline_degree": p.spline_degree,
        }
    else:
        out["projection"] = None
    return out


def kernel_from_dict(doc: dict) -> FunctionalKernel:
    base_doc = doc.get("base", {"kind": "linear"})
    base = BaseKernel(
        base_doc["kind"],
        sigma=base_doc.get("sigma"),
        degree=base_doc.get("degree"),
    )
    transforms = transforms_from_dicts(doc.get("transforms", []))
    proj_doc = doc.get("projection")
    projection = None
    if proj_doc is not None:
        projection = basis_mod.BasisSpec(
            proj_doc["family"],
            proj_doc["dimension"],
            spline_degree=proj_doc.get("spline_degree", 3),
        )
    return FunctionalKernel(transforms=transforms, projection=projection, base=base)


def transforms_from_dicts(docs) -> tuple[Transform, ...]:
    """Transform chain from its dictionary form (config files, model files)."""
    return tuple(
        Transform(
            t["kind"],
            order=t.get("order", 2),
            spline_dimension=t.get("spline_dimension", 0),
        )
        for t in docs
    )
