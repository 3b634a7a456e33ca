"""Finite-dimensional basis projections of sampled curves.

Three families are supported; they differ only in their sampled basis
functions, :func:`basis_matrix`:

* ``fourier`` -- constant mode first, then (cos, sin) pairs of increasing
  frequency on the observed interval rescaled to [0, 1], each scaled to
  unit quadrature norm.
* ``haar_wavelet`` -- weight-adjusted Haar system on the grid's own index
  halving: the constant first, then wavelets coarsest to finest (see
  :func:`_haar_columns`), unbalanced where a block has odd length.
* ``bspline`` -- clamped splines of degree ``spline_degree``.

Every family is projected by one rule, the L2 projection onto the span of
its first d functions, ``P = W B G^-1`` with ``B`` the (n, d)
:func:`basis_matrix`, ``W`` the quadrature weights and ``G = B' W B`` the
basis Gram matrix (:func:`coefficient_gram`).  Coefficient inner
products go through ``G``: coefficient rows times its lower Cholesky
factor ``L`` (:func:`gram_factor`) have the L2 inner product as their dot
product.  ``G`` is the identity, to rounding, for Haar on every grid and
for Fourier on uniform grids.  A grid on which ``G`` is numerically
singular is a ``ConfigurationError``.

For a fixed grid each projection is one linear map from samples to
coefficients: :func:`projector` builds it as an (n, d) matrix, and
:func:`project` is one product with it.  The tables here are
computed on each call and cached nowhere: a kernel's preparation plan
(:func:`funcsvm.kernels._plan`) folds what it needs of them, from one
:func:`projection_tables` call, into its own read-only arrays, once per
preparation and grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ConfigurationError
from .functions import SampledFunction, SamplingGrid, is_integer
from . import splines

__all__ = [
    "BasisSpec",
    "CoefficientVector",
    "project",
    "projector",
    "projection_tables",
    "reconstruct",
    "basis_matrix",
    "coefficient_gram",
    "gram_factor",
]

FAMILIES = ("fourier", "haar_wavelet", "bspline")


@dataclass(frozen=True)
class BasisSpec:
    family: str
    dimension: int
    spline_degree: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown basis family {self.family!r}")
        if not is_integer(self.dimension) or self.dimension < 1:
            raise ConfigurationError(
                f"basis dimension must be an integer >= 1, got {self.dimension!r}"
            )
        degree = self.spline_degree
        if not is_integer(degree) or degree < 0:
            raise ConfigurationError(
                f"spline degree must be a non-negative integer, got {degree!r}"
            )
        if self.family == "bspline" and self.dimension < self.spline_degree + 1:
            raise ConfigurationError(
                "bspline basis dimension must be >= spline degree + 1"
            )


@dataclass(frozen=True)
class CoefficientVector:
    coefficients: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        c = np.ascontiguousarray(self.coefficients, dtype=float)
        if c.shape != (self.basis.dimension,):
            raise ConfigurationError("coefficient length must equal the basis dimension")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def _check_compatible(spec: BasisSpec, grid: SamplingGrid) -> None:
    n = len(grid)
    if spec.dimension > n:
        raise ConfigurationError(
            f"basis dimension {spec.dimension} exceeds grid length {n}"
        )


# -- Fourier ---------------------------------------------------------------

def _fourier_columns(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    a, b = grid.interval
    s = (grid.abscissae - a) / (b - a)
    scale = 1.0 / np.sqrt(b - a)
    cols = np.empty((len(grid), spec.dimension))
    for j in range(spec.dimension):
        if j == 0:
            cols[:, j] = scale
        else:
            k = (j + 1) // 2
            phase = 2.0 * np.pi * k * s
            if j % 2 == 1:
                cols[:, j] = np.sqrt(2.0) * scale * np.cos(phase)
            else:
                cols[:, j] = np.sqrt(2.0) * scale * np.sin(phase)
    return cols


# -- Haar ------------------------------------------------------------------

def _haar_columns(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """The first d weight-adjusted Haar functions on ``grid``, as columns.

    Before the weights, the first is the constant ``1/sqrt(n)``; then come
    the wavelets of the index blocks, taken breadth first from ``[0, n)``.
    A block ``[s, e)`` of two points or more is halved at
    ``m = s + (e - s) // 2``, with ``a = m - s`` and ``b = e - m``.  Its
    wavelet is ``sqrt(b / (a (a + b)))`` on the a left points and
    ``-sqrt(a / (b (a + b)))`` on the b right ones, and the halves join the
    queue.  The n vectors are orthonormal on every grid: an unbalanced Haar
    system (Girardi & Sweldens 1997; Fryzlewicz 2007), the classical one on
    a power-of-two grid.  Each column is divided by the square roots of the
    weights, so ``G`` is the identity on every grid.
    """
    n, d = len(grid), spec.dimension
    cols = np.zeros((n, d))
    cols[:, 0] = 1.0 / np.sqrt(n)
    blocks, j = [(0, n)], 1
    for s, e in blocks:
        if j == d:
            break
        if e - s > 1:
            m = s + (e - s) // 2
            a, b = m - s, e - m
            cols[s:m, j] = np.sqrt(b / (a * (a + b)))
            cols[m:e, j] = -np.sqrt(a / (b * (a + b)))
            blocks += [(s, m), (m, e)]
            j += 1
    return cols / np.sqrt(grid.weights)[:, None]


# -- Public API ------------------------------------------------------------

def basis_matrix(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """Sampled basis functions as columns of an (n, d) matrix."""
    _check_compatible(spec, grid)
    if spec.family == "fourier":
        cols = _fourier_columns(spec, grid)
    elif spec.family == "haar_wavelet":
        cols = _haar_columns(spec, grid)
    else:
        cols = splines.design_matrix(grid.abscissae, spec.dimension, spec.spline_degree)[0]
    return np.ascontiguousarray(cols)


def _tables(spec: BasisSpec, grid: SamplingGrid):
    """``(W B, G, L)``: the weighted basis matrix, the basis Gram matrix
    ``G = B' W B`` and its lower Cholesky factor ``L`` (``B`` the
    :func:`basis_matrix`, ``W`` the quadrature weights).

    A ``ConfigurationError`` when ``G`` is not finite, or is numerically
    singular: some basis function keeps at most ``n * eps`` of its squared
    quadrature norm outside the span of the ones before it (a squared
    Cholesky pivot over its diagonal entry of ``G``, on n points).
    """
    B = basis_matrix(spec, grid)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in G
        WB = grid.weights[:, None] * B
        G = B.T @ WB
    if not np.isfinite(G).all():
        raise ConfigurationError(
            f"the {spec.family} basis Gram matrix is not finite on this grid")
    n = len(grid)
    try:
        L = np.linalg.cholesky(G)
        regular = (L.diagonal() ** 2 / G.diagonal()).min() > n * np.finfo(float).eps
    except np.linalg.LinAlgError:
        regular = False
    if not regular:
        raise ConfigurationError(
            f"{spec.family} basis of dimension {spec.dimension} is singular on a grid "
            f"of {n} points: its sampled functions are numerically dependent"
        )
    return WB, G, L


def coefficient_gram(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """The basis Gram matrix ``G = B' W B``, the metric of coefficient
    inner products."""
    return _tables(spec, grid)[1]


def gram_factor(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """Lower Cholesky factor ``L`` of the coefficient Gram matrix,
    ``G = L @ L.T``: coefficient rows times ``L`` have the L2 inner
    product as their dot product."""
    return _tables(spec, grid)[2]


def projection_tables(spec: BasisSpec, grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`projector` and the :func:`gram_factor`, from one build of
    the tables."""
    WB, G, L = _tables(spec, grid)
    return np.ascontiguousarray(np.linalg.solve(G, WB.T).T), L


def projector(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """The (n, d) matrix ``P = W B G^-1`` that maps an (N, n) value matrix
    to the coefficients of its rows' L2 projections, ``values @ P``."""
    return projection_tables(spec, grid)[0]


def project(u: SampledFunction, spec: BasisSpec) -> CoefficientVector:
    """Coefficients of the orthogonal projection of ``u`` onto the basis span:
    its values times the :func:`projector`."""
    return CoefficientVector(u.values @ projector(spec, u.grid), spec)


def reconstruct(c: CoefficientVector, grid: SamplingGrid) -> SampledFunction:
    """Pointwise evaluation of the basis expansion on ``grid``."""
    return SampledFunction(grid, basis_matrix(c.basis, grid) @ c.coefficients)
