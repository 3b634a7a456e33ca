"""Discretized functions on a common sampling grid.

A curve is represented by its values at ordered abscissae together with
quadrature weights, so that the L2 inner product ``integral(u * v)`` is
approximated by the weighted sum ``sum(w * u * v)``.  Weights default to
the trapezoid rule, which handles non-uniform grids and is second order
accurate on smooth integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
]


def trapezoid_weights(abscissae: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights for ordered abscissae."""
    t = np.asarray(abscissae, dtype=float)
    if t.size < 2:
        raise ConfigurationError("a sampling grid needs at least two points")
    w = np.empty_like(t)
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
        if not np.all(np.diff(t) > 0):
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

    @property
    def is_uniform(self) -> bool:
        d = np.diff(self.abscissae)
        return bool(np.allclose(d, d[0], rtol=1e-9, atol=0.0))

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


def center(u: SampledFunction) -> SampledFunction:
    """Subtract the quadrature mean; idempotent."""
    return u.with_values(u.values - quadrature_mean(u))


def normalize(u: SampledFunction, index: int | None = None) -> SampledFunction:
    """Center then scale to unit quadrature norm.

    Constant inputs are a hard error: silently mapping them to the zero
    function would corrupt Gram matrices downstream.  ``index`` labels the
    offending curve when applied over a batch.
    """
    c = center(u)
    n = norm(c)
    if n <= 1e-12 * max(norm(u), 1.0):
        raise DegenerateFunctionError(
            "cannot normalize a (near-)constant function", index=index
        )
    return c.with_values(c.values / n)


def spline_derivative(
    u: SampledFunction, order: int, dimension: int
) -> SampledFunction:
    """Derivative of a least-squares cubic B-spline fit of ``u``.

    The spline basis has ``dimension`` functions on uniform interior knots
    with clamped boundary knots; the fitted spline is differentiated
    analytically and re-evaluated on the original grid.
    """
    if order not in (1, 2):
        raise ConfigurationError("derivative order must be 1 or 2")
    spline = splines.fit_spline(u.grid.abscissae, u.values, dimension)
    deriv = spline.derivative(order)
    return u.with_values(deriv(u.grid.abscissae))
