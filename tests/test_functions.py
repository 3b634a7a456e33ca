import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcsvm import (
    SampledFunction,
    SamplingGrid,
    center,
    inner_product,
    norm,
    normalize,
    spline_derivative,
)
from funcsvm.errors import (
    ConfigurationError,
    DataError,
    DegenerateFunctionError,
    GridMismatchError,
)
from funcsvm import splines
from funcsvm.functions import derivative_factors, quadrature_mean, spline_derivative_rows


def grid_fn(n=256, fn=None):
    g = SamplingGrid.uniform(0.0, 1.0, n)
    values = fn(g.abscissae) if fn is not None else np.zeros(n)
    return g, SampledFunction(g, values)


class TestGridInvariants:
    def test_rejects_decreasing_abscissae(self):
        with pytest.raises(ConfigurationError):
            SamplingGrid(np.array([0.0, 2.0, 1.0]), np.ones(3))

    def test_non_finite_abscissae_are_rejected_before_any_arithmetic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="finite"):
                SamplingGrid.from_abscissae([0.0, np.inf, np.inf])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigurationError):
            SamplingGrid(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]))

    def test_uniform_weights_are_spacing_with_halved_endpoints(self):
        g = SamplingGrid.uniform(0.0, 1.0, 11)
        h = 0.1
        assert g.weights[0] == pytest.approx(h / 2)
        assert g.weights[-1] == pytest.approx(h / 2)
        assert np.allclose(g.weights[1:-1], h)

    def test_equal_grids_hash_equal(self):
        a = SamplingGrid.uniform(0.0, 1.0, 16)
        b = SamplingGrid.from_abscissae(np.linspace(0.0, 1.0, 16))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a.total_mass == b.total_mass == pytest.approx(1.0)
        shifted = SamplingGrid.uniform(0.0, 1.5, 16)
        assert a != shifted and {a: 1}.get(shifted) is None

    def test_unpickled_grid_hashes_as_a_new_one(self):
        # Written and read by interpreters with different string hashes.
        code = ("import pickle, sys; from funcsvm import SamplingGrid; g = SamplingGrid."
                "uniform(0.0, 1.0, 16); {}")
        dump = "sys.stdout.buffer.write(pickle.dumps(g))"
        load = "assert hash(pickle.loads(sys.stdin.buffer.read())) == hash(g)"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        blob = subprocess.run([sys.executable, "-c", code.format(dump)], check=True,
                              capture_output=True, env={**env, "PYTHONHASHSEED": "1"})
        subprocess.run([sys.executable, "-c", code.format(load)], check=True,
                       input=blob.stdout, env={**env, "PYTHONHASHSEED": "2"})

    def test_rejects_nonfinite_values(self):
        g = SamplingGrid.uniform(0.0, 1.0, 4)
        with pytest.raises(DataError):
            SampledFunction(g, np.array([0.0, np.nan, 1.0, 2.0]))


class TestInnerProduct:
    def test_constant_one_integrates_to_interval_mass(self):
        _, u = grid_fn(fn=lambda t: np.ones_like(t))
        assert inner_product(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_sin_cos_orthogonal(self):
        g, u = grid_fn(fn=lambda t: np.sin(2 * np.pi * t))
        v = SampledFunction(g, np.cos(2 * np.pi * g.abscissae))
        assert abs(inner_product(u, v)) < 1e-3

    def test_sin_squared_is_half(self):
        # Closed form: integral of sin^2(2 pi t) over [0,1] is 1/2.  On a
        # uniform 256-point grid the trapezoid rule is exact to rounding
        # for this periodic integrand.
        _, u = grid_fn(fn=lambda t: np.sin(2 * np.pi * t))
        assert inner_product(u, u) == pytest.approx(0.5, abs=1e-12)

    def test_grid_mismatch_raises(self):
        _, u = grid_fn(64)
        _, v = grid_fn(65)
        with pytest.raises(GridMismatchError):
            inner_product(u, v)


class TestNorm:
    def test_zero_function(self):
        _, u = grid_fn()
        assert norm(u) == 0.0

    def test_constant(self):
        _, u = grid_fn(fn=lambda t: np.full_like(t, -4.0))
        assert norm(u) == pytest.approx(4.0, rel=1e-12)

    def test_sin(self):
        _, u = grid_fn(fn=lambda t: np.sin(2 * np.pi * t))
        assert norm(u) == pytest.approx(np.sqrt(0.5), rel=1e-10)


class TestCenter:
    def test_constant_maps_to_zero(self):
        _, u = grid_fn(fn=lambda t: np.full_like(t, 5.0))
        assert np.allclose(center(u).values, 0.0, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        u = SampledFunction(g, rng.standard_normal(64))
        once = center(u)
        twice = center(once)
        assert np.allclose(once.values, twice.values, atol=1e-10)

    def test_identity_function_centers_at_half(self):
        # Oracle: the mean of t over [0,1] is 1/2 (trapezoid is exact for
        # linear integrands).
        g, u = grid_fn(fn=lambda t: t)
        assert np.allclose(center(u).values, g.abscissae - 0.5, atol=1e-12)


class TestNormalize:
    def test_unit_norm_and_zero_mean(self):
        rng = np.random.default_rng(1)
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = SampledFunction(g, rng.standard_normal(128))
        n = normalize(u)
        assert norm(n) == pytest.approx(1.0, abs=1e-10)
        assert abs(quadrature_mean(n)) < 1e-10

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = SampledFunction(g, rng.standard_normal(128))
        shifted = SampledFunction(g, 3.0 * u.values + 7.0)
        assert np.allclose(normalize(u).values, normalize(shifted).values, atol=1e-10)

    def test_constant_input_errors_with_index(self):
        _, u = grid_fn(fn=lambda t: np.full_like(t, 2.0))
        with pytest.raises(DegenerateFunctionError, match="function 3"):
            normalize(u, index=3)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = SampledFunction(g, rng.standard_normal(128))
        once = normalize(u)
        assert np.allclose(normalize(once).values, once.values, atol=1e-10)


class TestSplineDerivative:
    def test_second_derivative_of_square_is_two(self):
        g, u = grid_fn(100, fn=lambda t: t**2)
        d2 = spline_derivative(u, 2, 10)
        assert np.max(np.abs(d2.values - 2.0)) < 1e-6

    def test_first_derivative_of_constant_is_zero(self):
        g, u = grid_fn(100, fn=lambda t: np.full_like(t, 3.0))
        d1 = spline_derivative(u, 1, 8)
        assert np.max(np.abs(d1.values)) < 1e-8

    def test_second_derivative_of_sin(self):
        g, u = grid_fn(100, fn=lambda t: np.sin(2 * np.pi * t))
        d2 = spline_derivative(u, 2, 20)
        ref = -4 * np.pi**2 * np.sin(2 * np.pi * g.abscissae)
        err = norm(u.with_values(d2.values - ref)) / norm(u.with_values(ref))
        assert err < 0.01

    def test_overdetermined_dimension_rejected(self):
        g, u = grid_fn(10, fn=lambda t: t)
        with pytest.raises(ConfigurationError):
            spline_derivative(u, 2, 11)


class TestSplineDerivativeFactors:
    """The derivative is applied as two rank-d factors; it must agree with
    the dense (n, n) smoother ``B_order @ pinv(B)`` built here."""

    GRIDS = {
        "uniform-128": (SamplingGrid.uniform(0.0, 1.0, 128), 20),
        "random-90": (SamplingGrid.from_abscissae(
            np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 90))), 12),
    }

    @staticmethod
    def dense_operator(x, dimension, order):
        from scipy.interpolate import BSpline

        B, t = splines.design_matrix(x, dimension)
        B_order = BSpline(t, np.eye(dimension), splines.SPLINE_DEGREE).derivative(order)(x)
        return B_order @ np.linalg.pinv(B)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_match_the_dense_operator(self, name, order):
        grid, dimension = self.GRIDS[name]
        values = np.random.default_rng(order).normal(size=(16, len(grid)))
        ref = values @ self.dense_operator(grid.abscissae, dimension, order).T
        got = spline_derivative_rows(grid, values, order, dimension)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_cached_factors_are_thin(self, name):
        grid, dimension = self.GRIDS[name]
        n = len(grid)
        fit_t, deriv_t = derivative_factors(grid, 2, dimension)
        assert fit_t.shape == (n, dimension) and deriv_t.shape == (dimension, n)
        assert fit_t.flags.c_contiguous and deriv_t.flags.c_contiguous


coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def random_functions(draw, n=32, count=3):
    g = SamplingGrid.uniform(0.0, 1.0, n)
    out = []
    for _ in range(count):
        vals = draw(
            st.lists(coeff, min_size=n, max_size=n).map(np.array)
        )
        out.append(SampledFunction(g, vals))
    return out


class TestAlgebraicProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_functions(), coeff, coeff)
    def test_bilinearity_and_symmetry(self, funcs, a, b):
        u, v, w = funcs
        combo = u.with_values(a * u.values + b * w.values)
        lhs = inner_product(combo, v)
        rhs = a * inner_product(u, v) + b * inner_product(w, v)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert inner_product(u, v) == inner_product(v, u)

    @settings(max_examples=50, deadline=None)
    @given(random_functions(count=2))
    def test_cauchy_schwarz(self, funcs):
        u, v = funcs
        assert abs(inner_product(u, v)) <= norm(u) * norm(v) + 1e-12


class TestQuadratureConvergence:
    def test_trapezoid_second_order(self):
        # Smooth integrand: integral of exp(2t) over [0,1].
        exact = (np.e**2 - 1.0) / 2.0

        def quad_error(n):
            g = SamplingGrid.uniform(0.0, 1.0, n)
            u = SampledFunction(g, np.exp(g.abscissae))
            return abs(inner_product(u, u) - exact)

        for n in (17, 33, 65):
            ratio = quad_error(n) / quad_error(2 * n - 1)
            assert 3.5 <= ratio <= 4.5
