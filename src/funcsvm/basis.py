"""Finite-dimensional basis projections of sampled curves.

Three families are supported:

* ``fourier`` -- constant mode first, then (cos, sin) pairs of increasing
  frequency on the observed interval rescaled to [0, 1], each scaled to
  unit quadrature norm.
* ``haar_wavelet`` -- weight-adjusted orthonormal Haar system: the scaling
  coefficient first, then detail coefficients coarsest to finest.  On
  power-of-two grids the decomposition is exact (Parseval holds to float
  precision); other lengths are handled by symmetric zero padding of the
  mean-removed signal, with the mean folded back into the scaling
  coefficient, and are only approximately invertible.
* ``bspline`` -- L2-orthogonal projection onto a clamped cubic spline
  space; the stored coefficients are the (non-orthonormal) B-spline
  coordinates, so coefficient inner products must be taken through the
  basis Gram matrix (see :func:`coefficient_gram` and :func:`gram_factor`).

For a fixed grid each projection is one linear map from samples to
coefficients: :func:`projector` builds it as an (n, d) matrix, and
:func:`project_rows` is one product with it, for every family.  The
tables here are computed on each call and cached nowhere: a kernel's
preparation plan (:func:`funcsvm.kernels._plan`) folds what it needs of
them into its own read-only arrays, once per preparation and grid.
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
    "project_rows",
    "projector",
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

    @property
    def orthonormal(self) -> bool:
        """Whether coefficients are used as L2 coordinates as they are.
        The sampled basis is exactly orthonormal under the trapezoid
        weights only for Fourier on uniform grids below the Nyquist limit
        (``2 * (d // 2) < n - 1`` on n points) and Haar on power-of-two
        grids; elsewhere the coordinates are approximate."""
        return self.family in ("fourier", "haar_wavelet")


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

def _haar_forward(y: np.ndarray) -> np.ndarray:
    """Full orthonormal Haar transform of each power-of-two-length row."""
    s = y
    details = []
    while s.shape[1] > 1:
        d = (s[:, 0::2] - s[:, 1::2]) / np.sqrt(2.0)
        s = (s[:, 0::2] + s[:, 1::2]) / np.sqrt(2.0)
        details.append(d)
    return np.concatenate([s] + details[::-1], axis=1)


def _haar_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_haar_forward`, row by row."""
    s = c[:, :1]
    while s.shape[1] < c.shape[1]:
        k = s.shape[1]
        d = c[:, k : 2 * k]
        s = np.stack([(s + d) / np.sqrt(2.0), (s - d) / np.sqrt(2.0)], axis=2)
        s = s.reshape(c.shape[0], 2 * k)
    return s


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _haar_rows(spec: BasisSpec, grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    n = len(grid)
    w = grid.weights
    sw = np.sqrt(w)
    p = _next_pow2(n)
    if p == n:
        return _haar_forward(values * sw)[:, : spec.dimension]
    # Padded fallback: remove the quadrature mean, pad symmetrically, fold
    # the mean back into the scaling coefficient.
    mass = grid.total_mass
    m = values @ w / mass
    left = (p - n) // 2
    padded = np.zeros((values.shape[0], p))
    padded[:, left : left + n] = (values - m[:, None]) * sw
    c = _haar_forward(padded)
    c[:, 0] += m * np.sqrt(mass)
    return c[:, : spec.dimension]


def _haar_reconstruct(grid: SamplingGrid, coeffs: np.ndarray) -> np.ndarray:
    """Samples of the expansion with each row of ``coeffs`` as coefficients,
    one row per curve (the inverse of :func:`_haar_rows` at full dimension)."""
    n = len(grid)
    sw = np.sqrt(grid.weights)
    p = _next_pow2(n)
    full = np.zeros((coeffs.shape[0], p))
    full[:, : coeffs.shape[1]] = coeffs
    if p == n:
        return _haar_inverse(full) / sw
    m = full[:, :1] / np.sqrt(grid.total_mass)
    full[:, 0] = 0.0
    left = (p - n) // 2
    return _haar_inverse(full)[:, left : left + n] / sw + m


# -- B-spline --------------------------------------------------------------

def _bspline_tables(spec: BasisSpec, grid: SamplingGrid):
    B, _ = splines.design_matrix(grid.abscissae, spec.dimension, spec.spline_degree)
    W = grid.weights
    G = B.T @ (W[:, None] * B)
    try:
        chol = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"bspline basis of dimension {spec.dimension} is singular on a grid of "
            f"{len(grid)} points: too few samples under some basis function"
        ) from exc
    return B, G, chol


# -- Public API ------------------------------------------------------------

def basis_matrix(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """Sampled basis functions as columns of an (n, d) matrix."""
    _check_compatible(spec, grid)
    if spec.family == "fourier":
        cols = _fourier_columns(spec, grid)
    elif spec.family == "haar_wavelet":
        cols = _haar_reconstruct(grid, np.eye(spec.dimension)).T
    else:
        cols = _bspline_tables(spec, grid)[0]
    return np.ascontiguousarray(cols)


def coefficient_gram(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """Metric for coefficient inner products: identity except for B-splines."""
    if not spec.orthonormal:
        return _bspline_tables(spec, grid)[1]
    return np.eye(spec.dimension)


def gram_factor(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """Lower Cholesky factor ``L`` of the B-spline coefficient Gram matrix,
    ``G = L @ L.T``: coefficient rows times ``L`` have the
    L2 inner product as their dot product."""
    return _bspline_tables(spec, grid)[2]


def projector(spec: BasisSpec, grid: SamplingGrid) -> np.ndarray:
    """The (n, d) matrix ``P`` that maps an (N, n) value matrix to its
    projection coefficients, ``values @ P``: quadrature-weighted basis
    columns for Fourier, the Haar transform of the identity, and
    ``W B G^-1`` for B-splines (``B`` the design matrix, ``W`` the
    weights, ``G`` the basis Gram matrix)."""
    _check_compatible(spec, grid)
    if spec.family == "fourier":
        P = grid.weights[:, None] * basis_matrix(spec, grid)
    elif spec.family == "haar_wavelet":
        P = _haar_rows(spec, grid, np.eye(len(grid)))
    else:
        B, G, _ = _bspline_tables(spec, grid)
        P = np.linalg.solve(G, (grid.weights[:, None] * B).T).T
    return np.ascontiguousarray(P)


def project_rows(spec: BasisSpec, grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """Projection coefficients of each row of an (N, n) value matrix, as an
    (N, d) matrix: one product with the :func:`projector`."""
    return values @ projector(spec, grid)


def project(u: SampledFunction, spec: BasisSpec) -> CoefficientVector:
    """Coefficients of the orthogonal projection of ``u`` onto the basis span
    (a one-row :func:`project_rows`)."""
    return CoefficientVector(project_rows(spec, u.grid, u.values[None])[0], spec)


def reconstruct(c: CoefficientVector, grid: SamplingGrid) -> SampledFunction:
    """Pointwise evaluation of the basis expansion on ``grid``."""
    return SampledFunction(grid, basis_matrix(c.basis, grid) @ c.coefficients)
