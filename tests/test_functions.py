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
    LabeledDataset,
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
from funcsvm.functions import (
    check_value_matrix, derivative_factors, normalize_rows, quadrature_mean,
    spline_derivative_rows, stack_curves,
)
from funcsvm.selection import split_sample


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

    def test_values_of_another_length_are_a_data_error(self):
        g = SamplingGrid.uniform(0.0, 1.0, 8)
        with pytest.raises(DataError, match="grid length"):
            SampledFunction(g, np.zeros(7))

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

    def test_a_non_curve_is_a_data_error(self):
        _, u = grid_fn(64)
        for other in (np.ones(64), None):
            with pytest.raises(DataError, match="SampledFunction"):
                inner_product(u, other)
            with pytest.raises(DataError, match="SampledFunction"):
                inner_product(other, u)


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
        with pytest.raises(DegenerateFunctionError, match="function 0"):
            normalize(u)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = SampledFunction(g, rng.standard_normal(128))
        once = normalize(u)
        assert np.allclose(normalize(once).values, once.values, atol=1e-10)


class TestNormalizeRows:
    @pytest.mark.parametrize("amplitude", [1e200, 1e-200])
    def test_huge_and_tiny_rows_normalize_as_the_row_itself(self, amplitude):
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        sine = np.sin(2 * np.pi * g.abscissae)[None]
        got = normalize_rows(g, amplitude * sine)
        want = normalize_rows(g, sine)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_huge_constant_row_is_still_degenerate(self):
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        rows = np.vstack([np.sin(2 * np.pi * g.abscissae), np.full(64, 1e200)])
        with pytest.raises(DegenerateFunctionError, match="function 1"):
            normalize_rows(g, rows)

    def test_a_row_of_inf_is_a_data_error_without_a_warning(self):
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        rows = np.vstack([np.sin(2 * np.pi * g.abscissae), np.full(64, np.inf)])
        with pytest.raises(DataError, match="must all be finite"):
            normalize_rows(g, rows)


def labelled_rows(n=6, length=8, seed=0):
    g = SamplingGrid.uniform(0.0, 1.0, length)
    rng = np.random.default_rng(seed)
    return g, rng.standard_normal((n, length)), np.where(np.arange(n) % 2 == 0, 1, -1)


class TestLabeledDataset:
    """One read-only, C-contiguous value matrix, with its grid and labels."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_from_matrix_rejects_a_value_that_is_not_finite(self, bad):
        g, rows, labels = labelled_rows()
        rows[4, 2] = float(bad)
        with pytest.raises(DataError, match="finite"):
            LabeledDataset.from_matrix(g, rows, labels)

    @pytest.mark.parametrize("rows", [np.zeros((6, 7)), np.zeros((6, 9)), np.zeros(8),
                                      np.zeros((6, 8, 1))],
                             ids=["narrow", "wide", "1-d", "3-d"])
    def test_from_matrix_rejects_a_matrix_of_another_shape(self, rows):
        g, _, labels = labelled_rows()
        with pytest.raises(DataError):
            LabeledDataset.from_matrix(g, rows, labels)

    @pytest.mark.parametrize("label", [0, 2, -2])
    def test_from_matrix_rejects_a_label_not_plus_or_minus_one(self, label):
        g, rows, labels = labelled_rows()
        labels[3] = label
        with pytest.raises(DataError, match="-1 or \\+1"):
            LabeledDataset.from_matrix(g, rows, labels)

    @pytest.mark.parametrize("label", [1.5, -1.9, 0.5, 1 + 1e-15, float("nan")])
    def test_a_fractional_label_is_not_cut_to_plus_or_minus_one(self, label):
        g, rows, labels = labelled_rows()
        labels = labels.astype(float)
        labels[3] = label
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="-1 or \\+1"):
                LabeledDataset.from_matrix(g, rows, labels)

    @pytest.mark.parametrize("labels", [[1, -1] * 3, [1.0, -1.0] * 3, [1e0, -1e0] * 3,
                                        np.array([1, -1] * 3, dtype=np.int8)])
    def test_labels_equal_to_plus_or_minus_one_are_stored_as_ints(self, labels):
        g, rows, _ = labelled_rows()
        data = LabeledDataset.from_matrix(g, rows, labels)
        assert data.labels.dtype == int and data.labels.tolist() == [1, -1] * 3

    @pytest.mark.parametrize("labels", [["1", "-1"] * 3, [1, "-1"] * 3, [1j, -1] * 3,
                                        [None] * 6, [[1], [-1, 1]] + [1] * 4],
                             ids=["strings", "mixed", "complex", "none", "ragged"])
    def test_labels_that_are_not_real_numbers_are_a_data_error(self, labels):
        g, rows, _ = labelled_rows()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="labels"):
                LabeledDataset.from_matrix(g, rows, labels)

    @pytest.mark.parametrize("values", [
        [["0.5"] * 8] * 6,
        [["a"] * 8] * 6,
        [[0.0] * 8] * 5 + [[0.0] * 7],
        np.full((6, 8), 1 + 2j),
        np.full((6, 8), None),
    ], ids=["numeric-strings", "strings", "ragged", "complex", "objects"])
    def test_values_that_are_not_real_numbers_are_a_data_error(self, values):
        g, _, labels = labelled_rows()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="values"):
                LabeledDataset.from_matrix(g, values, labels)

    @pytest.mark.parametrize("values", [np.full((6, 8), "0.5"), np.full((6, 8), 1 + 0j),
                                        np.full((6, 8), 0.5, dtype=object)],
                             ids=["strings", "complex", "objects"])
    def test_a_value_matrix_of_another_kind_is_a_data_error(self, values):
        g, _, _ = labelled_rows()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="real numbers"):
                check_value_matrix(g, values)

    @pytest.mark.parametrize("count", [5, 7])
    def test_from_matrix_rejects_a_label_count_other_than_the_rows(self, count):
        g, rows, _ = labelled_rows()
        with pytest.raises(DataError, match="equal length"):
            LabeledDataset.from_matrix(g, rows, np.ones(count, dtype=int))

    def test_matrix_and_labels_are_read_only_and_not_copied_on_read(self):
        g, rows, labels = labelled_rows()
        data = LabeledDataset.from_matrix(g, rows, labels)
        assert data.value_matrix() is data.value_matrix()
        assert data.value_matrix().flags.c_contiguous
        for array in (data.value_matrix(), data.labels):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_from_matrix_copies_its_input(self):
        g, rows, labels = labelled_rows()
        kept = rows.copy()
        data = LabeledDataset.from_matrix(g, rows, labels)
        assert not np.shares_memory(data.value_matrix(), rows)
        assert not np.shares_memory(data.labels, labels)
        rows[:] = 0.0  # the caller's arrays stay writable, and are theirs
        labels[:] = 1
        assert np.array_equal(data.value_matrix(), kept)
        assert np.array_equal(data.labels, np.where(np.arange(6) % 2 == 0, 1, -1))

    def test_a_fortran_or_integer_matrix_is_stored_c_contiguous_as_floats(self):
        g, rows, labels = labelled_rows()
        data = LabeledDataset.from_matrix(g, np.asfortranarray(rows), labels)
        assert data.value_matrix().flags.c_contiguous
        assert data.value_matrix().tobytes() == rows.tobytes()
        ints = LabeledDataset.from_matrix(g, np.ones((6, 8), dtype=int), labels)
        assert ints.value_matrix().dtype == float

    def test_subset_split_and_functions_give_the_rows_bit_for_bit(self):
        g, rows, labels = labelled_rows(n=9)
        data = LabeledDataset.from_matrix(g, rows, labels)
        idx = [7, 0, 3, 3]
        part = data.subset(idx)
        assert part.value_matrix().tobytes() == rows[idx].tobytes()
        assert np.array_equal(part.labels, labels[idx]) and part.grid is g
        assert not part.value_matrix().flags.writeable
        split = split_sample(data, 4, policy="seeded_shuffle", seed=3)
        order = np.random.default_rng(3).permutation(9)
        assert split.train.value_matrix().tobytes() == rows[order[:4]].tobytes()
        assert split.validation.value_matrix().tobytes() == rows[order[4:]].tobytes()
        curves = data.functions
        assert len(curves) == 9 and all(f.grid is g for f in curves)
        assert np.stack([f.values for f in curves]).tobytes() == rows.tobytes()
        assert all(np.shares_memory(f.values, data.value_matrix()) for f in curves)

    def test_constructor_stacks_curves_on_one_grid(self):
        g, rows, labels = labelled_rows()
        data = LabeledDataset([SampledFunction(g, r) for r in rows], labels)
        assert data.value_matrix().tobytes() == rows.tobytes()
        assert data.grid is g and len(data) == 6
        other = SamplingGrid.uniform(0.0, 2.0, 8)
        with pytest.raises(GridMismatchError, match="function 2"):
            LabeledDataset([SampledFunction(other if i == 2 else g, r)
                            for i, r in enumerate(rows)], labels)
        with pytest.raises(DataError, match="equal length"):
            LabeledDataset([SampledFunction(g, r) for r in rows], labels[:5])
        with pytest.raises(DataError, match="no curves"):
            LabeledDataset([], [])
        with pytest.raises(DataError, match="item 0 .* not a SampledFunction"):
            LabeledDataset([np.zeros(3)], [1])
        with pytest.raises(DataError, match="item 1 .* not a SampledFunction"):
            LabeledDataset([SampledFunction(g, rows[0]), rows[1]], labels[:2])


class TestStackCurves:
    """Curves on an equal but distinct grid object, and curves of a
    subclass, stack as the curves on the first one's grid object do."""

    def test_equal_grids_and_subclasses_stack_as_one_grid_does(self):
        g, rows, _ = labelled_rows(n=5, length=16)
        grid, one_grid = stack_curves([SampledFunction(g, r) for r in rows])
        assert grid is g and one_grid.tobytes() == rows.tobytes()
        assert one_grid.shape == (5, 16) and one_grid.dtype == float and one_grid.flags.c_contiguous

        class Tagged(SampledFunction):
            pass

        twin = SamplingGrid(g.abscissae.copy(), g.weights.copy())
        assert twin is not g and twin == g
        mixed = [SampledFunction(twin if i % 2 else g, r) for i, r in enumerate(rows)]
        mixed[2] = Tagged(g, rows[2])
        for curves in (mixed, [Tagged(g, r) for r in rows], [Tagged(twin, r) for r in rows]):
            grid, values = stack_curves(curves)
            assert grid is curves[0].grid
            assert values.shape == one_grid.shape and values.flags.c_contiguous
            assert values.tobytes() == one_grid.tobytes()
            assert values.flags.writeable
            assert not any(np.shares_memory(values, u.values) for u in curves)


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
