"""Discretized functions on a common sampling grid.

A curve is represented by its values at ordered abscissae together with
quadrature weights, so that the L2 inner product ``integral(u * v)`` is
approximated by the weighted sum ``sum(w * u * v)``.  Weights default to
the trapezoid rule, which handles non-uniform grids and is second order
accurate on smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateFunctionError,
    GridMismatchError,
)
from . import splines

__all__ = [
    "SamplingGrid",
    "SampledFunction",
    "LabeledDataset",
    "inner_product",
    "norm",
    "quadrature_mean",
    "center",
    "normalize",
    "spline_derivative",
    "center_rows",
    "normalize_rows",
    "spline_derivative_rows",
    "is_integer",
    "is_number",
    "is_finite_number",
]


def is_integer(value) -> bool:
    """An int or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int, float or NumPy number, and not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def is_finite_number(value) -> bool:
    """A number (see :func:`is_number`) that is finite as a float."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def trapezoid_weights(abscissae: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for ordered abscissae."""
    t = np.asarray(abscissae, dtype=float)
    if t.size < 2:
        raise ConfigurationError("a sampling grid needs at least two points")
    if not np.isfinite(t).all():
        raise ConfigurationError("abscissae and weights must all be finite")
    w = np.empty_like(t)
    # A span past the float range overflows to inf, which SamplingGrid rejects.
    with np.errstate(over="ignore"):
        w[0] = (t[1] - t[0]) / 2.0
        w[-1] = (t[-1] - t[-2]) / 2.0
        w[1:-1] = (t[2:] - t[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Ordered abscissae plus positive quadrature weights.

    Immutable after construction; instances are shared by every function
    sampled on the same grid.
    """

    abscissae: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.abscissae, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if t.ndim != 1 or w.shape != t.shape:
            raise ConfigurationError("abscissae and weights must be 1-d and equal length")
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise ConfigurationError("abscissae and weights must all be finite")
        if not np.all(t[1:] > t[:-1]):
            raise ConfigurationError("abscissae must be strictly increasing")
        if not np.all(w > 0):
            raise ConfigurationError("quadrature weights must all be positive")
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "abscissae", t)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "SamplingGrid":
        """Uniform grid on [a, b] with trapezoid weights."""
        t = np.linspace(a, b, n)
        return cls(t, trapezoid_weights(t))

    @classmethod
    def from_abscissae(cls, abscissae) -> "SamplingGrid":
        """Grid at the given (possibly non-uniform) points, trapezoid weights."""
        t = np.asarray(abscissae, dtype=float)
        return cls(t, trapezoid_weights(t))

    def __len__(self) -> int:
        return self.abscissae.size

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.abscissae[0]), float(self.abscissae[-1])

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SamplingGrid):
            return NotImplemented
        return np.array_equal(self.abscissae, other.abscissae) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash((self.abscissae.tobytes(), self.weights.tobytes()))


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """One observation: finite values on a shared :class:`SamplingGrid`."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != self.grid.abscissae.shape:
            raise DataError("values length does not match the grid length")
        if not np.all(np.isfinite(v)):
            raise DataError("function values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "SampledFunction":
        return SampledFunction(self.grid, np.asarray(values, dtype=float))


@dataclass(frozen=True)
class LabeledDataset:
    """Curves on one grid with labels in {-1, +1}."""

    functions: tuple[SampledFunction, ...]
    labels: np.ndarray

    def __post_init__(self):
        funcs = tuple(self.functions)
        y = np.ascontiguousarray(self.labels, dtype=int)
        if len(funcs) != y.size:
            raise DataError("functions and labels must have equal length")
        if y.size and not np.all(np.isin(y, (-1, 1))):
            raise DataError("labels must be -1 or +1")
        if funcs:
            grid = funcs[0].grid
            for i, f in enumerate(funcs):
                if not (f.grid is grid or f.grid == grid):
                    raise GridMismatchError(f"function {i} is not on the shared grid")
        y.setflags(write=False)
        object.__setattr__(self, "functions", funcs)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def grid(self) -> SamplingGrid:
        return self.functions[0].grid

    def value_matrix(self) -> np.ndarray:
        """Stack curve values into an (N, grid length) matrix."""
        return np.stack([f.values for f in self.functions])

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(
            tuple(self.functions[i] for i in idx), self.labels[idx]
        )

    @classmethod
    def from_matrix(cls, grid: SamplingGrid, values: np.ndarray, labels) -> "LabeledDataset":
        funcs = tuple(SampledFunction(grid, row) for row in np.asarray(values, dtype=float))
        return cls(funcs, np.asarray(labels, dtype=int))


def _check_shared_grid(u: SampledFunction, v: SampledFunction) -> None:
    if not (u.grid is v.grid or u.grid == v.grid):
        raise GridMismatchError("functions are sampled on different grids")


def inner_product(u: SampledFunction, v: SampledFunction) -> float:
    """Quadrature approximation of ``integral(u * v)``."""
    _check_shared_grid(u, v)
    return float(np.dot(u.grid.weights, u.values * v.values))


def norm(u: SampledFunction) -> float:
    """Quadrature L2 norm ``sqrt(<u, u>)``."""
    return float(np.sqrt(inner_product(u, u)))


def quadrature_mean(u: SampledFunction) -> float:
    """Mean value of ``u`` with respect to the quadrature measure."""
    mass = u.grid.total_mass
    if mass <= 0:
        raise ConfigurationError("total quadrature mass must be positive")
    return float(np.dot(u.grid.weights, u.values) / mass)


def center_rows(grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """Subtract from each row of an (N, n) value matrix its quadrature mean."""
    w = grid.weights
    return values - (values @ w / grid.total_mass)[:, None]


def normalize_rows(grid: SamplingGrid, values: np.ndarray, indices=None) -> np.ndarray:
    """Center each row, then scale it to unit quadrature norm.

    Constant rows are a hard error: silently mapping them to the zero
    function would corrupt Gram matrices downstream.  The error names the
    first such row by its entry in ``indices`` (default: its row number).
    """
    w = grid.weights
    c = center_rows(grid, values)
    n = np.sqrt((c * c) @ w)
    bad = np.flatnonzero(n <= 1e-12 * np.maximum(np.sqrt((values * values) @ w), 1.0))
    if bad.size:
        k = int(bad[0])
        raise DegenerateFunctionError(
            "cannot normalize a (near-)constant function",
            index=k if indices is None else indices[k],
        )
    return c / n[:, None]


@lru_cache(maxsize=64)
def _derivative_operator(
    grid: SamplingGrid, order: int, dimension: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cached :func:`splines.derivative_operator` on the grid's abscissae,
    as the transposed factors ``(pinv(B).T, B_order.T)``, shapes (n, d)
    and (d, n), each C-contiguous and read-only."""
    if order not in (1, 2):
        raise ConfigurationError("derivative order must be 1 or 2")
    B_order, fit = splines.derivative_operator(grid.abscissae, dimension, order)
    factors = (np.ascontiguousarray(fit.T), np.ascontiguousarray(B_order.T))
    for f in factors:
        f.setflags(write=False)
    return factors


def spline_derivative_rows(
    grid: SamplingGrid, values: np.ndarray, order: int, dimension: int
) -> np.ndarray:
    """Derivative of a least-squares cubic B-spline fit of each row.

    The spline basis has ``dimension`` functions on uniform interior knots
    with clamped boundary knots; the fitted spline is differentiated
    analytically and re-evaluated on the grid.  Fit and derivative are one
    fixed linear map of rank ``dimension``, applied to all rows as two thin
    products: the spline coefficients, then their derivative on the grid.
    """
    fit_t, deriv_t = _derivative_operator(grid, order, dimension)
    return (values @ fit_t) @ deriv_t


# Single-curve forms: one-row calls into the batched functions above.

def center(u: SampledFunction) -> SampledFunction:
    """Subtract the quadrature mean; idempotent."""
    return u.with_values(center_rows(u.grid, u.values[None])[0])


def normalize(u: SampledFunction, index: int | None = None) -> SampledFunction:
    """Center then scale to unit quadrature norm (see :func:`normalize_rows`).

    ``index`` labels the offending curve in the error.
    """
    return u.with_values(normalize_rows(u.grid, u.values[None], indices=(index,))[0])


def spline_derivative(
    u: SampledFunction, order: int, dimension: int
) -> SampledFunction:
    """Derivative of a least-squares cubic B-spline fit of ``u``
    (see :func:`spline_derivative_rows`)."""
    return u.with_values(spline_derivative_rows(u.grid, u.values[None], order, dimension)[0])
