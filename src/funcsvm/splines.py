"""Least-squares cubic B-spline smoothing on clamped uniform knots."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

SPLINE_DEGREE = 3


def knot_vector(a: float, b: float, dimension: int, degree: int = SPLINE_DEGREE) -> np.ndarray:
    """Clamped knot vector on [a, b] giving ``dimension`` basis functions.

    Boundary knots have multiplicity ``degree + 1``; interior knots are
    uniform in the open interval.
    """
    if dimension < degree + 1:
        raise ConfigurationError(
            f"spline dimension must be at least {degree + 1}, got {dimension}"
        )
    n_interior = dimension - degree - 1
    interior = np.linspace(a, b, n_interior + 2)[1:-1]
    return np.concatenate([np.full(degree + 1, a), interior, np.full(degree + 1, b)])


def _over(a: np.ndarray, span: np.ndarray) -> np.ndarray:
    """``a / span`` column by column, with 0 where a knot span is empty."""
    return np.divide(a, span, out=np.zeros_like(a), where=span > 0)


def bspline_values(x: np.ndarray, t: np.ndarray, degree: int, order: int = 0) -> np.ndarray:
    """The (n, len(t) - degree - 1) matrix of the B-splines of ``degree`` on
    the knots ``t``, or of their ``order``-th derivative, at the points
    ``x`` in ``[t[0], t[-1]]`` (Cox-de Boor; de Boor, *A Practical Guide to
    Splines*, 1978).

    Degree 0 is the indicator of ``[t_i, t_{i+1})``, with the last nonempty
    interval closed on the right.  Each degree ``p`` after it blends
    neighbouring columns of the one below, and the top ``order`` degrees
    use the derivative recurrence
    ``p/(t_{i+p}-t_i) B_i - p/(t_{i+p+1}-t_{i+1}) B_{i+1}`` instead.
    """
    if not 0 <= order <= degree:
        raise ConfigurationError(f"derivative order must be in [0, {degree}], got {order}")
    x = np.asarray(x, dtype=float)[:, None]
    t = np.asarray(t, dtype=float)
    B = ((t[:-1] <= x) & (x < t[1:])).astype(float)
    last = np.flatnonzero(t[:-1] < t[1:])[-1]
    B[x[:, 0] == t[last + 1], last] = 1.0
    for p in range(1, degree + 1):
        lo, hi = t[: -p - 1], t[p + 1 :]  # t_i and t_{i+p+1}
        left, right = B[:, :-1], B[:, 1:]
        if p > degree - order:
            B = _over(p * left, t[p:-1] - lo) - _over(p * right, hi - t[1:-p])
        else:
            B = _over((x - lo) * left, t[p:-1] - lo) + _over((hi - x) * right, hi - t[1:-p])
    return B


def design_matrix(x: np.ndarray, dimension: int,
                  degree: int = SPLINE_DEGREE) -> tuple[np.ndarray, np.ndarray]:
    """The dense (n, dimension) B-spline design matrix at the sample points
    ``x``, and the clamped knot vector on ``[x[0], x[-1]]`` it is built on:
    ``(B, t)``."""
    x = np.asarray(x, dtype=float)
    t = knot_vector(x[0], x[-1], dimension, degree)
    return bspline_values(x, t, degree), t


def derivative_operator(x: np.ndarray, dimension: int, order: int,
                        degree: int = SPLINE_DEGREE) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the map from samples at ``x`` to the
    ``order``-th derivative, at ``x``, of their least-squares spline fit.

    The fit is the linear smoother ``pinv(B)``, so the derivative of the
    fit is ``B_order`` times ``pinv(B)``, with ``B_order`` the
    differentiated design matrix.  Returns ``(B_order, pinv(B))``, shapes
    (n, d) and (d, n): the (n, n) product has rank at most d, and applying
    the factors one after the other costs 2nd instead of n^2 per curve.
    """
    x = np.asarray(x, dtype=float)
    if dimension > x.size:
        raise ConfigurationError(
            f"spline dimension {dimension} exceeds the number of samples {x.size}"
        )
    B, t = design_matrix(x, dimension, degree)
    return bspline_values(x, t, degree, order), np.linalg.pinv(B)
