"""Least-squares cubic B-spline smoothing on clamped uniform knots."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline

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
    x = np.asarray(x, dtype=float)
    t = knot_vector(x[0], x[-1], dimension, degree)
    return BSpline.design_matrix(x, t, degree).toarray(), t


def derivative_operator(x: np.ndarray, dimension: int, order: int,
                        degree: int = SPLINE_DEGREE) -> np.ndarray:
    """The (n, n) matrix that maps samples at ``x`` to the ``order``-th
    derivative, at ``x``, of their least-squares spline fit.

    The fit is the linear smoother ``pinv(B)``, so the derivative of the
    fit is ``B_order @ pinv(B)`` with ``B_order`` the differentiated
    design matrix.
    """
    x = np.asarray(x, dtype=float)
    if dimension > x.size:
        raise ConfigurationError(
            f"spline dimension {dimension} exceeds the number of samples {x.size}"
        )
    B, t = design_matrix(x, dimension, degree)
    B_order = BSpline(t, np.eye(dimension), degree).derivative(order)(x)
    return B_order @ np.linalg.pinv(B)


def loo_reconstruction_error(x: np.ndarray, rows: np.ndarray, dimension: int) -> float:
    """Mean squared leave-one-point-out residual of the spline fit.

    ``rows`` holds one curve per row.  Uses the linear-smoother identity
    r_i / (1 - h_ii), which equals refitting with point i removed.
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if dimension > x.size - 1:
        raise ConfigurationError(
            f"spline dimension {dimension} leaves no point to hold out on {x.size} samples"
        )
    B, _ = design_matrix(x, dimension)
    # Hat matrix H = B (B'B)^-1 B'
    G = B.T @ B
    H = B @ np.linalg.solve(G, B.T)
    h = np.clip(np.diag(H), None, 1.0 - 1e-12)
    fitted = rows @ H.T
    resid = (rows - fitted) / (1.0 - h)
    return float(np.mean(resid**2))
