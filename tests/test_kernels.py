import warnings

import numpy as np
import pytest
from scipy.interpolate import BSpline

from funcsvm import (
    BasisSpec,
    BaseKernel,
    FunctionalKernel,
    LabeledDataset,
    SampledFunction,
    SamplingGrid,
    Transform,
    inner_product,
)
from funcsvm.errors import (
    ConfigurationError, DataError, DegenerateFunctionError, GridMismatchError,
)
from funcsvm.basis import basis_matrix, coefficient_gram, gram_factor, project, projector
from funcsvm.kernels import (
    _plan, apply_base, kernel_from_dict, kernel_to_dict, prepare_batch, prepare_rows,
    squared_distance_matrix,
)
from funcsvm.solver import SvmModel, decision_values, train_svm
from funcsvm.splines import SPLINE_DEGREE, design_matrix


def random_functions(n_funcs, grid_len=64, seed=0, interval=(0.0, 1.0)):
    g = SamplingGrid.uniform(*interval, grid_len)
    rng = np.random.default_rng(seed)
    return g, [SampledFunction(g, rng.standard_normal(grid_len)) for _ in range(n_funcs)]


class TestSpecs:
    def test_gaussian_requires_positive_sigma(self):
        with pytest.raises(ConfigurationError):
            BaseKernel.gaussian(0.0)

    def test_polynomial_requires_degree(self):
        with pytest.raises(ConfigurationError):
            BaseKernel.polynomial(0)

    def test_derivative_transform_dimension_floor(self):
        with pytest.raises(ConfigurationError):
            Transform("derivative", order=2, spline_dimension=5)
        Transform("derivative", order=2, spline_dimension=6)

    def test_a_chain_holds_at_most_one_derivative(self):
        d = Transform("derivative", order=2, spline_dimension=10)
        FunctionalKernel(transforms=(Transform("center"), d, Transform("normalize")))
        with pytest.raises(ConfigurationError, match="at most one derivative"):
            FunctionalKernel(transforms=(d, Transform("normalize"), d))

    def test_curves_on_two_grids_are_a_grid_mismatch(self):
        _, funcs = random_functions(3, grid_len=64)
        _, other = random_functions(1, grid_len=64, interval=(0.0, 2.0))
        with pytest.raises(GridMismatchError):
            prepare_batch(FunctionalKernel(), funcs + other)

    def test_the_first_curve_off_the_grid_is_named(self):
        _, funcs = random_functions(4, grid_len=64)
        _, other = random_functions(2, grid_len=64, interval=(0.0, 2.0))
        with pytest.raises(GridMismatchError, match="function 1 "):
            prepare_batch(FunctionalKernel(), funcs[:1] + other + funcs[1:])
        with pytest.raises(GridMismatchError, match="function 4 "):
            prepare_batch(FunctionalKernel(), funcs + other)


class TestKernelEval:
    """The kernel of a pair of curves: ``apply_base`` on their prepared rows."""

    def test_gaussian_self_similarity_is_one(self):
        _, (u,) = random_functions(1)
        q = FunctionalKernel(base=BaseKernel.gaussian(3.7))
        prep = prepare_batch(q, [u])
        assert apply_base(q.base, prep, prep)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_linear_kernel_is_the_inner_product(self):
        _, (u, v) = random_functions(2)
        q = FunctionalKernel()
        prep = prepare_batch(q, [u, v])
        assert apply_base(q.base, prep[:1], prep[1:])[0, 0] == pytest.approx(
            inner_product(u, v), rel=1e-12)

    def test_full_haar_projection_matches_raw_gaussian(self):
        # Parseval: at full dimension the projected distance equals the raw
        # quadrature distance, so the two kernels agree.
        _, (u, v) = random_functions(2)
        raw = FunctionalKernel(base=BaseKernel.gaussian(1.0))
        projected = FunctionalKernel(
            projection=BasisSpec("haar_wavelet", 64), base=BaseKernel.gaussian(1.0)
        )
        a, b = prepare_batch(projected, [u, v]), prepare_batch(raw, [u, v])
        assert apply_base(projected.base, a[:1], a[1:])[0, 0] == pytest.approx(
            apply_base(raw.base, b[:1], b[1:])[0, 0], abs=1e-6
        )

    def test_symmetry(self):
        _, (u, v) = random_functions(2, seed=5)
        for base in (BaseKernel.linear(), BaseKernel.gaussian(0.5),
                     BaseKernel.polynomial(3)):
            q = FunctionalKernel(base=base)
            prep = prepare_batch(q, [u, v])
            assert apply_base(base, prep[:1], prep[1:])[0, 0] == pytest.approx(
                apply_base(base, prep[1:], prep[:1])[0, 0], rel=1e-12)

    def test_degenerate_transform_identifies_the_input(self):
        g = SamplingGrid.uniform(0.0, 1.0, 32)
        good = SampledFunction(g, np.sin(g.abscissae))
        flat = SampledFunction(g, np.full(32, 2.0))
        q = FunctionalKernel(transforms=(Transform("normalize"),))
        with pytest.raises(DegenerateFunctionError, match="function 1"):
            prepare_batch(q, [good, flat])


class TestGramMatrix:
    """A Gram matrix is ``apply_base`` of a prepared batch with itself."""

    def test_single_function(self):
        _, (u,) = random_functions(1)
        q = FunctionalKernel()
        prep = prepare_batch(q, [u])
        K = apply_base(q.base, prep, prep)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(inner_product(u, u), rel=1e-12)

    def test_gaussian_diagonal_is_one(self):
        _, funcs = random_functions(6)
        q = FunctionalKernel(base=BaseKernel.gaussian(2.0))
        prep = prepare_batch(q, funcs)
        K = apply_base(q.base, prep, prep)
        assert np.allclose(np.diag(K), 1.0)

    def test_linear_gram_positive_semidefinite(self):
        _, funcs = random_functions(5, seed=1)
        prep = prepare_batch(FunctionalKernel(), funcs)
        K = apply_base(BaseKernel.linear(), prep, prep)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() >= -1e-8 * np.trace(K)

    @pytest.mark.parametrize(
        "base",
        [BaseKernel.linear(), BaseKernel.gaussian(0.7), BaseKernel.polynomial(2)],
    )
    def test_psd_for_random_batches(self, base):
        for seed in range(3):
            _, funcs = random_functions(int(7 + 3 * seed), seed=seed)
            prep = prepare_batch(FunctionalKernel(base=base), funcs)
            K = apply_base(base, prep, prep)
            assert np.allclose(K, K.T, atol=1e-12)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * np.trace(K)

    def test_matches_pairwise_eval(self):
        _, funcs = random_functions(4, seed=2)
        q = FunctionalKernel(
            transforms=(Transform("center"),),
            projection=BasisSpec("fourier", 9),
            base=BaseKernel.gaussian(0.3),
        )
        prep = prepare_batch(q, funcs)
        K = apply_base(q.base, prep, prep)
        for i in range(4):
            for j in range(4):
                pair = prepare_batch(q, [funcs[i], funcs[j]])
                assert K[i, j] == pytest.approx(
                    apply_base(q.base, pair[:1], pair[1:])[0, 0], abs=1e-12
                )

    def test_gaussian_bounds(self):
        _, funcs = random_functions(8, seed=3)
        q = FunctionalKernel(base=BaseKernel.gaussian(5.0))
        prep = prepare_batch(q, funcs)
        K = apply_base(q.base, prep, prep)
        assert np.all(K > 0.0)
        assert np.all(K <= 1.0)
        off = K[~np.eye(8, dtype=bool)]
        assert np.all(off < 1.0)  # distinct random inputs


class TestBuildersRaisePackageErrors:
    """Kernel values end in finite values or a ``funcsvm.errors`` class,
    and let no numpy warning out: those of ``train_svm`` and
    ``decision_values``, and ``apply_base`` on prepared rows under the
    ``np.errstate`` that ``train_svm`` and ``select`` build it in."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_a_polynomial_past_the_float_range_is_a_data_error(self):
        _, funcs = random_functions(4)
        kernel = FunctionalKernel(base=BaseKernel.polynomial(3000))
        with pytest.raises(DataError, match="non-finite"):
            train_svm(kernel, LabeledDataset(funcs, [1, -1, 1, -1]), C=1.0)
        model = SvmModel(kernel, funcs[0].grid, prepare_batch(kernel, funcs[:1]),
                         support_coeffs=np.ones(1), bias=0.0)
        with pytest.raises(DataError, match="not all finite"):
            decision_values(model, funcs[:1])

    def test_a_huge_sigma_gives_the_clamped_gaussian(self):
        _, funcs = random_functions(3)
        kernel = FunctionalKernel(base=BaseKernel.gaussian(1e308))
        prep = prepare_batch(kernel, funcs)
        with np.errstate(over="ignore"):
            K = apply_base(kernel.base, prep, prep)
            k = apply_base(kernel.base, prep[:1], prep[1:2])
        assert np.all(K[~np.eye(3, dtype=bool)] == np.exp(-700.0))
        assert np.all((np.exp(-700.0) <= K) & (K <= 1.0))
        assert k[0, 0] == np.exp(-700.0)

    @pytest.mark.parametrize("sigma", [1e10, 1e14, 1e308])
    def test_a_self_gram_has_a_gaussian_diagonal_of_exactly_one(self, sigma):
        # The rounding of |u|^2 + |u|^2 - 2<u, u> read 0.99999778, 0.978 and
        # 9.9e-305 on these curves' diagonal.
        _, funcs = random_functions(3)
        kernel = FunctionalKernel(base=BaseKernel.gaussian(sigma))
        prep = prepare_batch(kernel, funcs)
        with np.errstate(over="ignore"):
            assert np.all(apply_base(kernel.base, prep, prep).diagonal() == 1.0)
        assert np.all(squared_distance_matrix(prep, prep).diagonal() == 0.0)

    @pytest.mark.parametrize("batch", [[np.zeros(64)], [None, None], ["curve"]],
                             ids=["arrays", "none", "string"])
    def test_a_batch_that_is_not_curves_is_a_data_error(self, batch):
        _, (u,) = random_functions(1)
        with pytest.raises(DataError, match="SampledFunction"):
            prepare_batch(FunctionalKernel(), batch)
        with pytest.raises(DataError, match="SampledFunction"):
            prepare_batch(FunctionalKernel(), [u, *batch])
        with pytest.raises(DataError, match="SampledFunction"):
            prepare_batch(FunctionalKernel(), [u, batch[0]])


PLAN_CHAINS = [
    ((), BasisSpec("fourier", 7)),
    ((), BasisSpec("haar_wavelet", 7)),
    ((Transform("center"),), BasisSpec("bspline", 9)),
    ((Transform("derivative", order=2, spline_dimension=12),), None),
    ((Transform("derivative", order=1, spline_dimension=10), Transform("normalize")),
     BasisSpec("fourier", 5)),
    ((Transform("normalize"), Transform("derivative", order=2, spline_dimension=12),
      Transform("center"), Transform("normalize")), BasisSpec("bspline", 8)),
]


class TestPlanTables:
    """The preparation plan is the one cache of the tables a batch reads."""

    @pytest.mark.parametrize("grid", [
        SamplingGrid.uniform(0.0, 1.0, 40),
        SamplingGrid.from_abscissae(np.sort(np.random.default_rng(4).uniform(0.0, 2.0, 50))),
    ], ids=["uniform", "random"])
    @pytest.mark.parametrize("transforms,projection", PLAN_CHAINS)
    def test_every_array_a_plan_holds_is_read_only(self, transforms, projection, grid):
        plan = _plan(FunctionalKernel(transforms=transforms,
                                      projection=projection).prep_signature, grid)
        tables = [t for t in (plan.entry, plan.fold) if t is not None]
        assert tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    @pytest.mark.parametrize("transforms,projection", PLAN_CHAINS[-2:])
    def test_a_grid_whose_tables_overflow_is_a_configuration_error(self, transforms,
                                                                    projection):
        # Its centred derivative's weighted means overflow.
        weights = np.full(40, 1.0 / 39.0)
        weights[0] = 1e308
        grid = SamplingGrid(np.linspace(0.0, 1.0, 40), weights)
        kernel = FunctionalKernel(transforms=transforms, projection=projection)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="not finite on this grid"):
                prepare_rows(kernel, grid, np.zeros((0, 40)))

    @pytest.mark.parametrize("family", ["fourier", "haar_wavelet", "bspline"])
    def test_basis_tables_are_the_callers_own(self, family):
        g = SamplingGrid.from_abscissae(np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 48)))
        spec = BasisSpec(family, 7)
        kernel = FunctionalKernel(projection=spec)
        _, funcs = random_functions(3, grid_len=48)
        funcs = [SampledFunction(g, u.values) for u in funcs]
        before = prepare_batch(kernel, funcs)
        tables = [basis_matrix(spec, g), coefficient_gram(spec, g), projector(spec, g),
                  gram_factor(spec, g)]
        for table in tables:
            kept = table.copy()
            table[...] = np.nan  # writable, and not shared with a later call
            assert not np.shares_memory(table, kept)
        again = [basis_matrix(spec, g), coefficient_gram(spec, g), projector(spec, g)]
        assert all(np.isfinite(t).all() for t in again)
        assert prepare_batch(kernel, funcs).tobytes() == before.tobytes()


class TestProjectionConsistency:
    def test_coefficient_kernel_equals_reconstructed_function_kernel(self):
        from funcsvm import project, reconstruct

        g, funcs = random_functions(3, grid_len=128, seed=4)
        spec = BasisSpec("fourier", 11)
        q_coeff = FunctionalKernel(projection=spec, base=BaseKernel.gaussian(0.8))
        q_raw = FunctionalKernel(base=BaseKernel.gaussian(0.8))
        recon = [reconstruct(project(f, spec), g) for f in funcs]
        coeff, raw = prepare_batch(q_coeff, funcs), prepare_batch(q_raw, recon)
        A = apply_base(q_coeff.base, coeff, coeff)
        B = apply_base(q_raw.base, raw, raw)
        for i in range(3):
            for j in range(3):
                assert A[i, j] == pytest.approx(B[i, j], rel=1e-6)

    def test_bspline_coefficients_carry_the_gram_metric(self):
        from funcsvm import project, reconstruct

        g, funcs = random_functions(2, grid_len=128, seed=6)
        spec = BasisSpec("bspline", 12)
        q_coeff = FunctionalKernel(projection=spec)
        recon = [reconstruct(project(f, spec), g) for f in funcs]
        prep = prepare_batch(q_coeff, funcs)
        assert apply_base(q_coeff.base, prep[:1], prep[1:])[0, 0] == pytest.approx(
            inner_product(recon[0], recon[1]), rel=1e-8
        )


# -- Per-curve reference preparation ------------------------------------------
# Written independently of the batched code in funcsvm: one curve at a time,
# through a spline fit, quadrature sums and a least-squares L2 projection.

def _ref_center(g, v):
    return v - np.dot(g.weights, v) / g.weights.sum()


def _ref_normalize(g, v):
    c = _ref_center(g, v)
    return c / np.sqrt(np.dot(g.weights, c * c))


def _ref_derivative(g, v, order, dimension):
    B, knots = design_matrix(g.abscissae, dimension)
    coeffs, *_ = np.linalg.lstsq(B, v, rcond=None)
    return BSpline(knots, coeffs, SPLINE_DEGREE).derivative(order)(g.abscissae)


def _ref_project(g, v, spec):
    """Coefficients of the L2 projection of ``v`` onto the basis span: the
    weighted least-squares fit of the sampled basis functions."""
    sw = np.sqrt(g.weights)
    coeffs, *_ = np.linalg.lstsq(sw[:, None] * basis_matrix(spec, g), sw * v, rcond=None)
    return coeffs


REF_TRANSFORMS = {
    "none": ((), lambda g, v: v),
    "center": ((Transform("center"),), _ref_center),
    "derivative+normalize": (
        (Transform("derivative", order=2, spline_dimension=20), Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_derivative(g, v, 2, 20)),
    ),
    "normalize": ((Transform("normalize"),), _ref_normalize),
    "derivative1+normalize": (
        (Transform("derivative", order=1, spline_dimension=12), Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_derivative(g, v, 1, 12)),
    ),
    "center+derivative+normalize": (
        (Transform("center"), Transform("derivative", order=2, spline_dimension=20),
         Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_derivative(g, _ref_center(g, v), 2, 20)),
    ),
    "derivative+normalize+center": (
        (Transform("derivative", order=2, spline_dimension=20), Transform("normalize"),
         Transform("center")),
        lambda g, v: _ref_center(g, _ref_normalize(g, _ref_derivative(g, v, 2, 20))),
    ),
    "normalize+derivative+normalize": (
        (Transform("normalize"), Transform("derivative", order=2, spline_dimension=20),
         Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_derivative(g, _ref_normalize(g, v), 2, 20)),
    ),
    # Chains whose runs of centrings and normalizations go on past their
    # first normalization.
    "normalize+center+normalize": (
        (Transform("normalize"), Transform("center"), Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_center(g, _ref_normalize(g, v))),
    ),
    "center+normalize+derivative+normalize+center": (
        (Transform("center"), Transform("normalize"),
         Transform("derivative", order=2, spline_dimension=20), Transform("normalize"),
         Transform("center")),
        lambda g, v: _ref_center(g, _ref_normalize(g, _ref_derivative(
            g, _ref_normalize(g, _ref_center(g, v)), 2, 20))),
    ),
    "derivative+center+normalize+normalize": (
        (Transform("derivative", order=2, spline_dimension=20), Transform("center"),
         Transform("normalize"), Transform("normalize")),
        lambda g, v: _ref_normalize(g, _ref_normalize(g, _ref_center(
            g, _ref_derivative(g, v, 2, 20)))),
    ),
}


REF_GRIDS = {
    "uniform128": SamplingGrid.uniform(0.0, 1.0, 128),
    "uniform100": SamplingGrid.uniform(0.0, 1.0, 100),  # Haar blocks of unequal halves
    "random90": SamplingGrid.from_abscissae(
        np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 90))
    ),
}


class TestPrepareBatchAgainstPerCurveReference:
    @pytest.mark.parametrize("grid", sorted(REF_GRIDS))
    @pytest.mark.parametrize("chain", sorted(REF_TRANSFORMS))
    @pytest.mark.parametrize("projection", [
        None, BasisSpec("fourier", 15), BasisSpec("haar_wavelet", 7), BasisSpec("bspline", 16),
    ], ids=["raw", "fourier", "haar", "bspline"])
    def test_matches_to_1e_12(self, chain, projection, grid):
        g = REF_GRIDS[grid]
        rng = np.random.default_rng(11)
        rows = np.cumsum(rng.standard_normal((60, len(g))), axis=1) \
            + 3.0 * np.sin(2 * np.pi * rng.uniform(1, 4, (60, 1)) * g.abscissae)
        funcs = [SampledFunction(g, r) for r in rows]
        transforms, ref_transform = REF_TRANSFORMS[chain]
        kernel = FunctionalKernel(transforms=transforms, projection=projection)
        got = prepare_batch(kernel, funcs)
        ref = np.array([ref_transform(g, r) for r in rows])
        if projection is None:
            ref = ref * np.sqrt(g.weights)
        else:
            ref = np.array([_ref_project(g, r, projection) for r in ref])
            cols = basis_matrix(projection, g)
            ref = ref @ np.linalg.cholesky(cols.T @ (g.weights[:, None] * cols))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_constant_curve_is_named_by_its_row(self):
        g, funcs = random_functions(6)
        funcs[3] = SampledFunction(g, np.full(len(g), 2.5))
        kernel = FunctionalKernel(transforms=(Transform("normalize"),))
        with pytest.raises(DegenerateFunctionError, match="function 3"):
            prepare_batch(kernel, funcs)

    def test_centred_constant_curve_is_degenerate(self):
        # Centring leaves rounding noise of a constant; the floor of the
        # normalize after it scales with the curve before the centring.
        g, funcs = random_functions(6)
        funcs[3] = SampledFunction(g, np.full(len(g), 2.5))
        kernel = FunctionalKernel(transforms=(Transform("center"), Transform("normalize")))
        with pytest.raises(DegenerateFunctionError, match="function 3"):
            prepare_batch(kernel, funcs)

    def test_parabola_has_a_constant_second_derivative(self):
        # Its smoothed second derivative is constant, so normalizing it,
        # after the entry of the folded chain, is degenerate.
        g, funcs = random_functions(6, grid_len=128)
        funcs[4] = SampledFunction(g, 3.0 * g.abscissae ** 2 - g.abscissae + 0.5)
        kernel = FunctionalKernel(
            transforms=(Transform("derivative", order=2, spline_dimension=20),
                        Transform("normalize")),
            projection=BasisSpec("bspline", 16))
        with pytest.raises(DegenerateFunctionError, match="function 4"):
            prepare_batch(kernel, funcs)

    @pytest.mark.parametrize("curve", ["constant", "slope_2", "slope_1e6"])
    @pytest.mark.parametrize("projection", [None, BasisSpec("bspline", 16)],
                             ids=["raw", "bspline"])
    def test_second_derivative_of_a_line_is_degenerate(self, curve, projection):
        # What the smoothed second derivative leaves of a line is rounding
        # noise, of quadrature norm near 1e-12 for the constant 2.5: small
        # against the line, but not against an absolute floor of 1e-12.
        # Alone or in a batch, the rounding differs, and the error holds.
        g, funcs = random_functions(6, grid_len=128)
        t = g.abscissae
        funcs[2] = SampledFunction(g, {"constant": np.full(len(g), 2.5), "slope_2": 2.0 * t,
                                       "slope_1e6": 1e6 * t}[curve])
        kernel = FunctionalKernel(
            transforms=(Transform("derivative", order=2, spline_dimension=20),
                        Transform("normalize")),
            projection=projection)
        with pytest.raises(DegenerateFunctionError, match="function 0"):
            prepare_batch(kernel, funcs[2:3])
        with pytest.raises(DegenerateFunctionError, match="function 2"):
            prepare_batch(kernel, funcs)

    @pytest.mark.parametrize("transforms", [
        (Transform("normalize"),),
        (Transform("derivative", order=2, spline_dimension=20), Transform("normalize")),
    ], ids=["normalize", "derivative+normalize"])
    def test_small_curves_normalize_as_their_scaled_copies(self, transforms):
        g, funcs = random_functions(4, grid_len=128)
        small = [SampledFunction(g, 1e-20 * u.values) for u in funcs]
        kernel = FunctionalKernel(transforms=transforms)
        assert np.allclose(prepare_batch(kernel, small), prepare_batch(kernel, funcs),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("amplitude", [1e200, 1e-200])
    @pytest.mark.parametrize("transforms", [
        (Transform("normalize"),),
        (Transform("derivative", order=2, spline_dimension=20), Transform("normalize")),
    ], ids=["normalize", "derivative+normalize"])
    def test_huge_and_tiny_curves_normalize_as_the_curve_itself(self, transforms, amplitude):
        # Their squares leave the float range: inf <= inf and 0 <= 0 would
        # pass the degeneracy test, and the squares would warn.
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        sine = np.sin(2 * np.pi * g.abscissae)
        kernel = FunctionalKernel(transforms=transforms)
        got = prepare_batch(kernel, [SampledFunction(g, amplitude * sine)])
        want = prepare_batch(kernel, [SampledFunction(g, sine)])
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("transforms", [
        (Transform("normalize"),),
        (Transform("derivative", order=2, spline_dimension=20), Transform("normalize")),
    ], ids=["normalize", "derivative+normalize"])
    @pytest.mark.parametrize("level", [1e200, 0.0])
    def test_huge_or_zero_constant_curve_is_still_degenerate(self, transforms, level):
        g, funcs = random_functions(4, grid_len=128)
        funcs[1] = SampledFunction(g, np.full(len(g), level))
        kernel = FunctionalKernel(transforms=transforms)
        with pytest.raises(DegenerateFunctionError, match="function 1"):
            prepare_batch(kernel, funcs)


MIXED_CHAINS = [
    ((Transform("normalize"),), None),
    ((Transform("center"), Transform("normalize")), None),
    ((Transform("derivative", order=2, spline_dimension=20), Transform("normalize")), None),
    ((Transform("derivative", order=2, spline_dimension=20), Transform("normalize")),
     BasisSpec("bspline", 16)),
]
MIXED_IDS = ["normalize", "center+normalize", "derivative+normalize",
             "derivative+normalize+bspline"]


class TestOutOfRangeRowsInABatch:
    """A batch with a row whose squares leave the float range has its norms
    taken again as a whole: every row still prepares as it does alone."""

    @pytest.mark.parametrize("transforms,projection", MIXED_CHAINS, ids=MIXED_IDS)
    def test_each_row_prepares_as_it_does_alone(self, transforms, projection):
        g, funcs = random_functions(4, grid_len=128)
        sine = np.sin(2 * np.pi * g.abscissae)
        funcs.insert(1, SampledFunction(g, 1e200 * sine))
        funcs.append(SampledFunction(g, 1e-200 * funcs[0].values))
        kernel = FunctionalKernel(transforms=transforms, projection=projection)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = prepare_batch(kernel, funcs)
            for row, u in zip(batch, funcs):
                alone = prepare_batch(kernel, [u])[0]
                assert np.linalg.norm(row - alone) <= 1e-14 * np.linalg.norm(alone)

    @pytest.mark.parametrize("transforms,projection", MIXED_CHAINS, ids=MIXED_IDS)
    def test_a_huge_constant_row_is_named(self, transforms, projection):
        g, funcs = random_functions(5, grid_len=128)
        funcs[3] = SampledFunction(g, np.full(len(g), 1e200))
        kernel = FunctionalKernel(transforms=transforms, projection=projection)
        with pytest.raises(DegenerateFunctionError, match="function 3"):
            prepare_batch(kernel, funcs)

    @pytest.mark.parametrize("transforms", [(), (Transform("center"),)], ids=["none", "center"])
    def test_bspline_first_rows_are_the_projector_times_the_gram_factor(self, transforms):
        g, funcs = random_functions(6, grid_len=128)
        spec = BasisSpec("bspline", 16)
        values = np.array([u.values for u in funcs])
        if transforms:
            values = values - (values @ g.weights / g.total_mass)[:, None]
        rows = prepare_batch(FunctionalKernel(transforms=transforms, projection=spec), funcs)
        want = values @ projector(spec, g) @ gram_factor(spec, g)
        assert np.linalg.norm(rows - want, axis=1).max() <= (
            1e-14 * np.linalg.norm(want, axis=1).min())


class TestEntryRowsPastTheFloatRange:
    """After ``derivative(2, 20)``, the normalization's own measure finds an
    entry row that is not finite: the one finiteness error, for a matrix
    and for a list of curves, in preparation and in decision values."""

    kernel = FunctionalKernel(
        transforms=(Transform("derivative", order=2, spline_dimension=20),
                    Transform("normalize")),
        projection=BasisSpec("bspline", 16), base=BaseKernel.gaussian(1.0))

    def batch(self):
        # Values of 1e308 signed as the widest column of the spline fit
        # give a coefficient of about 5.6e308, past the float range.
        g, funcs = random_functions(4, grid_len=128)
        fit = _plan(self.kernel.prep_signature, g).entry
        widest = np.abs(fit).sum(axis=0).argmax()
        funcs[2] = SampledFunction(g, 1e308 * np.sign(fit[:, widest]))
        return g, funcs

    def test_prepare_rows_and_prepare_batch(self):
        g, funcs = self.batch()
        values = np.array([u.values for u in funcs])
        with np.errstate(all="ignore"):
            assert not np.isfinite(values @ _plan(self.kernel.prep_signature, g).entry).all()
        with pytest.raises(DataError, match="function values must all be finite"):
            prepare_rows(self.kernel, g, values)
        with pytest.raises(DataError, match="function values must all be finite"):
            prepare_batch(self.kernel, funcs)

    def test_a_huge_curve_prepares_as_its_shape_without_a_warning(self):
        # Its entry row is finite, but the measure of the normalization
        # overflows: the rescaled retry gives the rows of the curve's shape.
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        shape = np.sin(40.0 * g.abscissae)[None]
        want = prepare_rows(self.kernel, g, shape)
        for rows in (prepare_rows(self.kernel, g, 1e306 * shape),
                     prepare_batch(self.kernel, [SampledFunction(g, 1e306 * shape[0])])):
            assert np.linalg.norm(rows - want) <= 1e-14 * np.linalg.norm(want)

    def test_decision_values(self):
        g, funcs = self.batch()
        _, train = random_functions(10, grid_len=128, seed=3)
        model = train_svm(self.kernel, LabeledDataset(train, [1, -1] * 5), 10.0)
        assert model.n_support > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch in (funcs, np.array([u.values for u in funcs])):
                with pytest.raises(DataError, match="function values must all be finite"):
                    decision_values(model, batch)


class TestNormalizedRowsHaveUnitNorm:
    """A normalization after the derivative ends the chain with rows of unit
    norm at most, which is why they skip the test against
    ``MAX_SQUARED_NORM``: on its fast path and on its rescaled retry, with
    and without a projection after it."""

    @pytest.mark.parametrize("projection", [None, BasisSpec("bspline", 16),
                                            BasisSpec("fourier", 9),
                                            BasisSpec("haar_wavelet", 8)])
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e150, 1e300])
    def test_prepared_squared_norms_are_at_most_one(self, projection, scale):
        g, funcs = random_functions(6, grid_len=128, seed=9)
        values = scale * np.array([u.values for u in funcs])
        for chain in (("derivative", "normalize"), ("derivative", "center", "normalize")):
            kernel = FunctionalKernel(
                transforms=tuple(Transform(k, order=1, spline_dimension=12) for k in chain),
                projection=projection)
            assert _plan(kernel.prep_signature, g).floor_scale is not None
            rows = prepare_rows(kernel, g, values)
            squares = np.einsum("ij,ij->i", rows, rows)
            assert np.isfinite(rows).all()
            assert (squares <= 1.0 + 1e-9).all()
            if projection is None:
                np.testing.assert_allclose(squares, 1.0, rtol=1e-9)


class TestIsometricRows:
    """Prepared rows have the L2 inner product as their dot product."""

    def curves(self):
        rng = np.random.default_rng(21)
        g = SamplingGrid.from_abscissae(np.sort(rng.uniform(0.0, 2.0, 90)))
        return g, [SampledFunction(g, np.sin(3.0 * g.abscissae + k) + rng.standard_normal(90))
                   for k in range(5)]

    def test_raw_rows_give_the_quadrature_inner_product(self):
        g, funcs = self.curves()
        rows = prepare_batch(FunctionalKernel(), funcs)
        ref = np.array([[inner_product(u, v) for v in funcs] for u in funcs])
        assert np.max(np.abs(rows @ rows.T - ref)) <= 1e-12 * np.max(np.abs(ref))

    def assert_exact_l2_coordinates(self, spec, g):
        # The rows' dot products are the quadrature inner products of the
        # curves' L2 projections, computed by weighted least squares.
        values = np.random.default_rng(len(g)).standard_normal((6, len(g)))
        rows = prepare_batch(FunctionalKernel(projection=spec),
                             [SampledFunction(g, v) for v in values])
        cols = basis_matrix(spec, g)
        sw = np.sqrt(g.weights)
        coeffs, *_ = np.linalg.lstsq(sw[:, None] * cols, (values * sw).T, rcond=None)
        curves = (cols @ coeffs).T
        ref = (curves * g.weights) @ curves.T
        assert np.max(np.abs(rows @ rows.T - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [64, 100, 128])
    @pytest.mark.parametrize("span", [(0.0, 1.0), (850.0, 1050.0)])
    def test_fourier_rows_are_exact_on_uniform_grids(self, n, span):
        g = SamplingGrid.uniform(*span, n)
        for d in (1, 2, 5, n // 8, n // 4):
            self.assert_exact_l2_coordinates(BasisSpec("fourier", d), g)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_haar_rows_are_exact_on_power_of_two_grids(self, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        for d in (1, 3, 8, n // 4, n):
            self.assert_exact_l2_coordinates(BasisSpec("haar_wavelet", d), g)

    @pytest.mark.parametrize("d", [5, 9, 25])
    def test_fourier_rows_are_exact_on_a_random_grid(self, d):
        g = SamplingGrid.from_abscissae(np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 100)))
        self.assert_exact_l2_coordinates(BasisSpec("fourier", d), g)

    @pytest.mark.parametrize("d", [4, 8, 15, 16, 32, 64])
    def test_haar_rows_are_exact_on_a_grid_of_100_points(self, d):
        self.assert_exact_l2_coordinates(BasisSpec("haar_wavelet", d),
                                         SamplingGrid.uniform(0.0, 1.0, 100))

    @pytest.mark.parametrize("spec", [BasisSpec("fourier", 25), BasisSpec("haar_wavelet", 32),
                                      BasisSpec("bspline", 20)], ids=lambda s: s.family)
    def test_every_family_is_exact_on_the_128_point_grid(self, spec):
        self.assert_exact_l2_coordinates(spec, SamplingGrid.uniform(0.0, 1.0, 128))

    def test_bspline_rows_give_the_coefficient_gram_inner_product(self):
        g, funcs = self.curves()
        spec = BasisSpec("bspline", 12)
        rows = prepare_batch(FunctionalKernel(projection=spec), funcs)
        c = np.array([project(u, spec).coefficients for u in funcs])
        ref = c @ coefficient_gram(spec, g) @ c.T
        assert np.max(np.abs(rows @ rows.T - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSerialization:
    @pytest.mark.parametrize(
        "kernel",
        [
            FunctionalKernel(),
            FunctionalKernel(base=BaseKernel.gaussian(0.25)),
            FunctionalKernel(
                transforms=(Transform("center"), Transform("normalize")),
                projection=BasisSpec("haar_wavelet", 16),
                base=BaseKernel.polynomial(4),
            ),
            FunctionalKernel(
                transforms=(Transform("derivative", order=2, spline_dimension=20),),
                base=BaseKernel.gaussian(1.5),
            ),
        ],
    )
    def test_round_trip_is_lossless(self, kernel):
        assert kernel_from_dict(kernel_to_dict(kernel)) == kernel

    def test_round_trip_through_json(self):
        import json

        kernel = FunctionalKernel(
            projection=BasisSpec("fourier", 7), base=BaseKernel.gaussian(2.0)
        )
        doc = json.loads(json.dumps(kernel_to_dict(kernel)))
        assert kernel_from_dict(doc) == kernel
