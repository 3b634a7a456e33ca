"""Kernels on curves: transform chains, basis projections, base kernels.

A :class:`FunctionalKernel` evaluates ``K(P(u), P(v))`` where ``P`` is an
optional pipeline of functional transforms (center, normalize, spline
derivative) followed by an optional basis projection, and ``K`` is a
linear, Gaussian or polynomial base kernel.  All inner products respect
the underlying L2 geometry: :func:`isometric_rows` maps each prepared
curve to a row whose dot product is the L2 inner product (raw curves
times the square roots of the quadrature weights, orthonormal
coefficients as they are, B-spline coefficients times the Cholesky
factor of the basis Gram matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import basis as basis_mod
from .errors import ConfigurationError, DataError, GridMismatchError
# bench/layers.py traces center, normalize and spline_derivative under these names.
from .functions import (
    SampledFunction,
    SamplingGrid,
    center,
    center_rows,
    is_finite_number,
    is_integer,
    normalize,
    normalize_rows,
    spline_derivative,
    spline_derivative_rows,
)

__all__ = [
    "BaseKernel",
    "Transform",
    "FunctionalKernel",
    "prepare_batch",
    "prepare_rows",
    "isometric_rows",
    "kernel_eval",
    "gram_matrix",
    "kernel_to_dict",
    "kernel_from_dict",
    "transforms_from_dicts",
]

EXP_FLOOR = -700.0  # clamp for Gaussian exponents, avoids exact underflow


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
    """One step of the functional preprocessing chain."""

    kind: str
    order: int = 2
    spline_dimension: int = 0

    def __post_init__(self):
        if self.kind in ("center", "normalize"):
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

    def apply_rows(self, grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
        """The transform of each row of an (N, n) value matrix."""
        if self.kind == "center":
            return center_rows(grid, values)
        if self.kind == "normalize":
            return normalize_rows(grid, values)
        return spline_derivative_rows(grid, values, self.order, self.spline_dimension)


@dataclass(frozen=True)
class FunctionalKernel:
    transforms: tuple[Transform, ...] = ()
    projection: basis_mod.BasisSpec | None = None
    base: BaseKernel = field(default_factory=BaseKernel.linear)

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))

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
    as the (N, width) matrix of their :func:`isometric_rows`.

    The curves, which share one grid, are stacked once into an (N, n) value
    matrix, and each step maps the whole matrix at once.
    """
    funcs = list(functions)
    if not funcs:
        raise ConfigurationError("cannot prepare an empty batch")
    grid = funcs[0].grid
    if any(f.grid is not grid and f.grid != grid for f in funcs):
        raise GridMismatchError("functions are sampled on different grids")
    return prepare_rows(kernel, grid, np.array([f.values for f in funcs]))


def prepare_rows(kernel: FunctionalKernel, grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """:func:`prepare_batch` of the curves that are the rows of an (N, n)
    value matrix on ``grid``.  Zero rows check that every step fits the
    grid, and give the prepared width."""
    for t in kernel.transforms:
        values = t.apply_rows(grid, values)
        if not np.isfinite(values).all():
            raise DataError("function values must all be finite")
    if kernel.projection is not None:
        values = basis_mod.project_rows(kernel.projection, grid, values)
    return isometric_rows(kernel.projection, grid, values)


def isometric_rows(
    projection: basis_mod.BasisSpec | None, grid: SamplingGrid, rows: np.ndarray
) -> np.ndarray:
    """Rows of curves on ``grid`` prepared under ``projection``, mapped so
    that their dot product is the L2 inner product: raw curves times the
    square roots of the quadrature weights, orthonormal coefficients
    unchanged, B-spline coefficients times the lower Cholesky factor of
    the basis Gram matrix."""
    if projection is None:
        return rows * np.sqrt(grid.weights)
    if projection.orthonormal:
        return rows
    return rows @ basis_mod.gram_factor(projection, grid)


def inner_product_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise inner products between two prepared batches."""
    return a @ b.T


def squared_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between two prepared batches."""
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    return np.maximum(na[:, None] + nb[None, :] - 2.0 * inner_product_matrix(a, b), 0.0)


def apply_base(base: BaseKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Base kernel matrix between two prepared batches: the Gaussian kernel
    maps their squared distances, the others their inner products."""
    if base.kind == "gaussian":
        return np.exp(np.maximum(-base.sigma * squared_distance_matrix(a, b), EXP_FLOOR))
    stat = inner_product_matrix(a, b)
    if base.kind == "polynomial":
        return (1.0 + stat) ** base.degree
    return stat


def kernel_eval(
    kernel: FunctionalKernel, u: SampledFunction, v: SampledFunction
) -> float:
    """Evaluate the composed kernel on a single pair of curves."""
    prep = prepare_batch(kernel, [u, v])
    k = apply_base(kernel.base, prep[:1], prep[1:])
    return float(k[0, 0])


def gram_matrix(kernel: FunctionalKernel, functions) -> np.ndarray:
    """Symmetric kernel matrix; transforms are applied once per input."""
    prep = prepare_batch(kernel, functions)
    K = apply_base(kernel.base, prep, prep)
    return (K + K.T) / 2.0


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
