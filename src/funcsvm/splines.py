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


def design_matrix(x: np.ndarray, dimension: int, degree: int = SPLINE_DEGREE) -> np.ndarray:
    """Dense B-spline design matrix evaluated at the sample points."""
    from scipy.interpolate import BSpline  # here, to keep scipy off the import path

    x = np.asarray(x, dtype=float)
    t = knot_vector(x[0], x[-1], dimension, degree)
    return BSpline.design_matrix(x, t, degree).toarray(), t


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
    from scipy.interpolate import BSpline

    B, t = design_matrix(x, dimension, degree)
    B_order = BSpline(t, np.eye(dimension), degree).derivative(order)(x)
    return B_order, np.linalg.pinv(B)
