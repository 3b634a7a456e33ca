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
    "stack_curves",
    "check_finite",
    "inner_product",
    "norm",
    "quadrature_mean",
    "center",
    "normalize",
    "spline_derivative",
    "center_rows",
    "normalize_rows",
    "spline_derivative_rows",
    "normalize_by",
    "derivative_factors",
    "check_value_matrix",
    "is_integer",
    "is_number",
    "is_finite_number",
    "is_seed",
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


def is_seed(value) -> bool:
    """A random seed: None, or an integer (see :func:`is_integer`) >= 0."""
    return value is None or (is_integer(value) and value >= 0)


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
    sampled on the same grid.  The hash and the total mass are computed
    once, when the grid is built.
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
        object.__setattr__(self, "_mass", float(w.sum()))
        object.__setattr__(self, "_hash", hash((t.tobytes(), w.tobytes())))

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
        return self._mass

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SamplingGrid):
            return NotImplemented
        return np.array_equal(self.abscissae, other.abscissae) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through the constructor: the hash of bytes differs from
        # one interpreter to the next, so it is never unpickled.
        return (SamplingGrid, (self.abscissae, self.weights))


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """One observation: finite values on a shared :class:`SamplingGrid`."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != self.grid.abscissae.shape:
            raise DataError("values length does not match the grid length")
        check_finite(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "SampledFunction":
        return SampledFunction(self.grid, np.asarray(values, dtype=float))


class LabeledDataset:
    """Curves on one grid with labels in {-1, +1}.

    A dataset holds its grid, one read-only, C-contiguous (N, n) float
    matrix whose rows are the curves' values, and a read-only array of N
    integer labels: the discretized form of functional data.  Build one
    from a value matrix with :meth:`from_matrix`, which checks the matrix
    and the labels once, or from curves on one grid with the constructor,
    which stacks them once.  ``functions`` gives the curves back as views
    of the rows, built when asked.
    """

    __slots__ = ("_grid", "_values", "_labels")

    def __init__(self, functions, labels):
        grid, values = stack_curves(functions)
        self._set(grid, values, _checked_labels(labels, len(values)))

    @classmethod
    def from_matrix(cls, grid: SamplingGrid, values, labels) -> "LabeledDataset":
        """The dataset of the rows of an (N, len(grid)) value matrix and N
        labels.  The matrix is always copied, so the dataset shares no
        memory with ``values``, which stays writable.  A ``DataError`` when
        the matrix is not real numbers, not 2-d, not as wide as the grid or
        not finite, or when the labels are not N numbers equal to -1 or +1."""
        v = check_value_matrix(grid, np.array(_real_array(values), dtype=float, order="C"))
        data = cls.__new__(cls)
        data._set(grid, v, _checked_labels(labels, len(v)))
        return data

    def _set(self, grid: SamplingGrid, values: np.ndarray, labels: np.ndarray) -> None:
        """Store checked, freshly made arrays, which become read-only."""
        values.setflags(write=False)
        labels.setflags(write=False)
        self._grid, self._values, self._labels = grid, values, labels

    @property
    def grid(self) -> SamplingGrid:
        return self._grid

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def functions(self) -> tuple[SampledFunction, ...]:
        """The curves, each a view of its row of the value matrix."""
        return tuple(SampledFunction(self._grid, row) for row in self._values)

    def __len__(self) -> int:
        return len(self._values)

    def value_matrix(self) -> np.ndarray:
        """The stored (N, grid length) value matrix, read-only, not a copy."""
        return self._values

    def subset(self, indices) -> "LabeledDataset":
        """The dataset of the rows at ``indices``, in their order."""
        idx = np.asarray(indices, dtype=int)
        data = LabeledDataset.__new__(LabeledDataset)
        data._set(self._grid, self._values[idx], self._labels[idx])
        return data


def check_value_matrix(grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """``values`` as a C-contiguous float matrix of curves on ``grid``, one
    per row, without a copy when it already is one; a ``DataError`` when it
    is not real numbers, not 2-d, not as wide as the grid or not finite."""
    v = np.ascontiguousarray(_real_array(values), dtype=float)
    if v.ndim != 2:
        raise DataError(f"a value matrix must be 2-d, got {v.ndim} dimension(s)")
    if v.shape[1] != len(grid):
        raise DataError("values length does not match the grid length")
    check_finite(v)
    return v


def check_finite(values: np.ndarray) -> None:
    """A ``DataError`` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise DataError("function values must all be finite")


def stack_curves(curves) -> tuple[SamplingGrid, np.ndarray]:
    """The grid of a sequence of curves and their (N, n) value matrix,
    stacked once.  A ``DataError`` when the sequence is empty or an item is
    not a :class:`SampledFunction`, and a ``GridMismatchError`` naming the
    first curve that is not on the first one's grid.  Each curve checked
    its values when it was built."""
    funcs = tuple(curves)
    if not funcs:
        raise DataError("a sequence of no curves has no grid")
    grid = funcs[0].grid if isinstance(funcs[0], SampledFunction) else None
    for i, f in enumerate(funcs):
        if not isinstance(f, SampledFunction):
            raise DataError(f"item {i} of a sequence of curves is not a SampledFunction")
        if not (f.grid is grid or f.grid == grid):
            raise GridMismatchError(f"function {i} is not on the shared grid")
    return grid, np.array([f.values for f in funcs])


def _real_array(values, what: str = "function values") -> np.ndarray:
    """``values`` as an array of booleans, integers or floats, which
    convert to float as they are.  A ``DataError`` for ragged rows, and for
    strings, complex numbers or other objects, which a float conversion
    would parse, cut to their real part or reject."""
    try:
        a = np.asarray(values)
    except ValueError:  # rows of unequal length
        raise DataError(f"{what} do not form a rectangular array") from None
    if a.dtype.kind not in "biuf":
        raise DataError(f"{what} must be real numbers, got an array of {a.dtype}")
    return a


def _checked_labels(labels, count: int) -> np.ndarray:
    """``labels`` as a fresh int array of ``count`` numbers equal to -1
    or +1, compared before they are converted; a ``DataError`` otherwise."""
    y = _real_array(labels, "labels")
    if y.shape != (count,):
        raise DataError("functions and labels must have equal length")
    if not ((y == 1) | (y == -1)).all():
        raise DataError("labels must be -1 or +1")
    return y.astype(int)


def inner_product(u: SampledFunction, v: SampledFunction) -> float:
    """Quadrature approximation of ``integral(u * v)``."""
    grid, (a, b) = stack_curves((u, v))
    return float(np.dot(grid.weights, a * b))


def norm(u: SampledFunction) -> float:
    """Quadrature L2 norm ``sqrt(<u, u>)``."""
    return float(np.sqrt(inner_product(u, u)))


def quadrature_mean(u: SampledFunction) -> float:
    """Mean value of ``u`` with respect to the quadrature measure."""
    return float(np.dot(u.grid.weights, u.values) / u.grid.total_mass)


def center_rows(grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """Subtract from each row of an (N, n) value matrix its quadrature mean."""
    w = grid.weights
    return values - (values @ w / grid.total_mass)[:, None]


# A normalize's input is degenerate when its centred norm is at most this
# much of the norm of the curve that entered the transform chain, times the
# operator norm of the chain's linear map from there to that input: what is
# left is rounding, not shape.  A floor relative to the input alone would
# pass the noise that a derivative or a centring leaves of a constant, and
# an absolute floor would turn small curves away.
DEGENERACY_RTOL = 1e-12


def normalize_rows(grid: SamplingGrid, values: np.ndarray) -> np.ndarray:
    """Center each row, then scale it to unit quadrature norm.

    Constant rows are a hard error: silently mapping them to the zero
    function would corrupt Gram matrices downstream.  A row is constant
    when its centred norm is at most ``DEGENERACY_RTOL`` times its own
    norm (see :func:`normalize_by`).
    """
    w = grid.weights

    def measure(rows):
        # A row that is not finite or too large shows in the range test.
        with np.errstate(all="ignore"):
            centred = center_rows(grid, rows)
            return (centred, (centred * centred) @ w,
                    DEGENERACY_RTOL**2 * ((rows * rows) @ w))

    return normalize_by(values, measure)


def normalize_by(rows: np.ndarray, measure) -> np.ndarray:
    """The normalization of the rows of an (N, m) matrix: ``measure(rows)``
    gives ``(out, squares, floors)``, the rows to scale, their squared
    norms and the squared degeneracy floors those are tested against, and
    each row of ``out`` is divided by its norm.

    When any row fails the test ``squares > floors`` or its square is not a
    normal float (see :func:`_squares_in_range`), ``rows`` are checked to
    be finite (see :func:`check_finite`), the whole batch is measured again
    after dividing each row by its largest absolute value, and a
    :class:`DegenerateFunctionError` names the first row that still fails
    by its row number.  A row that is
    not finite fails the test, as its floor is not finite either.  A batch
    whose rows all pass unscaled costs no other work.
    """
    out, squares, floors = measure(rows)
    if not _squares_in_range(squares, floors):
        check_finite(rows)
        out, squares, floors = measure(rows / _largest_magnitudes(rows))
        _check_normalizable(squares, floors)
    return out / np.sqrt(squares)[:, None]


# The smallest normal float: a square below it holds few digits.
SMALLEST_SQUARE = float(np.finfo(float).tiny)


def _squares_in_range(squares: np.ndarray, floors: np.ndarray) -> bool:
    """Whether a normalize may use the squared norms of its inputs as they
    are, given their squared degeneracy floors: every row passes the test
    ``squares > floors``, and every squared norm is a normal float.
    Squares overflow for values near 1e154 or more and underflow near
    1e-154 or less, so the test fails on huge rows (``inf <= inf``) and
    tiny ones (``0 <= 0``), and a centred norm can overflow alone.  It
    costs one comparison and three reductions."""
    return bool((squares > floors).all() and squares.min(initial=np.inf) >= SMALLEST_SQUARE
                and squares.max(initial=0.0) < np.inf)


def _largest_magnitudes(rows: np.ndarray) -> np.ndarray:
    """The (N, 1) column of each row's largest absolute value, 1 for a
    zero row, which stays zero when divided by it."""
    scales = np.abs(rows).max(axis=1, keepdims=True)
    scales[scales == 0.0] = 1.0
    return scales


def _check_normalizable(squares: np.ndarray, floors: np.ndarray) -> None:
    """Raise :class:`DegenerateFunctionError` for the first row whose
    squared norm is at most its entry of ``floors``, naming its row number."""
    bad = np.flatnonzero(squares <= floors)
    if bad.size:
        raise DegenerateFunctionError(
            "cannot normalize a (near-)constant function", index=int(bad[0]))


@lru_cache(maxsize=64)
def derivative_factors(
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
    fit_t, deriv_t = derivative_factors(grid, order, dimension)
    return (values @ fit_t) @ deriv_t


# Single-curve forms: one-row calls into the batched functions above.

def center(u: SampledFunction) -> SampledFunction:
    """Subtract the quadrature mean; idempotent."""
    return u.with_values(center_rows(u.grid, u.values[None])[0])


def normalize(u: SampledFunction) -> SampledFunction:
    """Center then scale to unit quadrature norm (see :func:`normalize_rows`)."""
    return u.with_values(normalize_rows(u.grid, u.values[None])[0])


def spline_derivative(
    u: SampledFunction, order: int, dimension: int
) -> SampledFunction:
    """Derivative of a least-squares cubic B-spline fit of ``u``
    (see :func:`spline_derivative_rows`)."""
    return u.with_values(spline_derivative_rows(u.grid, u.values[None], order, dimension)[0])
