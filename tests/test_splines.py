"""The numpy B-spline evaluator against scipy's ``BSpline`` as the oracle."""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from funcsvm import splines
from funcsvm.errors import ConfigurationError

_rng = np.random.default_rng(11)
GRIDS = {
    "uniform-128": (np.linspace(0.0, 1.0, 128), 20),
    "uniform-64": (np.linspace(0.0, 1.0, 64), 8),
    "uniform-100": (np.linspace(0.0, 1.0, 100), 24),
    "tecator-100": (np.linspace(850.0, 1050.0, 100), 16),
    "random-37": (np.sort(_rng.uniform(0.0, 1.0, 37)), 4),
    "random-90": (np.sort(_rng.uniform(0.0, 1.0, 90)), 12),
    "on-the-knots": (None, 10),  # built per degree: see samples()
}
# Every grid with degrees 0-5, where its dimension has room for the degree.
CASES = [(name, degree) for name in sorted(GRIDS) for degree in range(6)
         if GRIDS[name][1] >= degree + 1]


def samples(name, degree):
    """The grid's samples; for ``on-the-knots``, 25 random points on [0, 1]
    together with every knot of the degree's clamped knot vector, so that
    samples fall on each interior knot and on both ends."""
    x, dimension = GRIDS[name]
    if x is None:
        knots = splines.knot_vector(0.0, 1.0, dimension, degree)
        x = np.unique(np.concatenate([knots, np.random.default_rng(degree).uniform(0.0, 1.0, 25)]))
    return x, dimension


@pytest.mark.parametrize("name, degree", CASES)
def test_design_matrix_matches_scipy(name, degree):
    x, dimension = samples(name, degree)
    B, t = splines.design_matrix(x, dimension, degree)
    assert np.array_equal(t, splines.knot_vector(x[0], x[-1], dimension, degree))
    ref = BSpline.design_matrix(x, t, degree).toarray()
    assert B.shape == ref.shape == (x.size, dimension)
    assert np.max(np.abs(B - ref)) <= 1e-14


@pytest.mark.parametrize("name, degree, order",
                         [(name, degree, order) for name, degree in CASES
                          for order in (1, 2) if order <= degree])
def test_derivative_factor_matches_scipy(name, degree, order):
    x, dimension = samples(name, degree)
    B_order, fit = splines.derivative_operator(x, dimension, order, degree)
    t = splines.knot_vector(x[0], x[-1], dimension, degree)
    ref = BSpline(t, np.eye(dimension), degree).derivative(order)(x)
    assert B_order.shape == ref.shape and fit.shape == (dimension, x.size)
    assert np.max(np.abs(B_order - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_derivative_above_the_degree_is_a_configuration_error():
    t = splines.knot_vector(0.0, 1.0, 6, 2)
    with pytest.raises(ConfigurationError, match="derivative order"):
        splines.bspline_values(np.linspace(0.0, 1.0, 9), t, 2, order=3)
