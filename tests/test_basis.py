import numpy as np
import pytest

from funcsvm import (
    BasisSpec,
    CoefficientVector,
    SampledFunction,
    SamplingGrid,
    norm,
    project,
    reconstruct,
)
from funcsvm.basis import basis_matrix, coefficient_gram, gram_factor, projector
from funcsvm.errors import ConfigurationError
from funcsvm.kernels import FunctionalKernel, prepare_rows

from conftest import fft_fourier_coefficients


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return SampledFunction(grid, rng.standard_normal(len(grid)))


class TestProject:
    @pytest.mark.parametrize("family,d", [("fourier", 9), ("haar_wavelet", 8)])
    def test_basis_function_projects_to_unit_vector(self, family, d):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        spec = BasisSpec(family, d)
        e3 = np.eye(d)[2]
        psi3 = reconstruct(CoefficientVector(e3, spec), g)
        coeffs = project(psi3, spec).coefficients
        assert np.max(np.abs(coeffs - e3)) < 1e-6

    def test_constant_hits_only_the_constant_fourier_mode(self):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        spec = BasisSpec("fourier", 7)
        u = SampledFunction(g, np.full(128, 3.5))
        c = project(u, spec).coefficients
        assert c[0] == pytest.approx(3.5, rel=1e-10)  # Psi_1 = 1 on [0,1]
        assert np.max(np.abs(c[1:])) < 1e-10

    @pytest.mark.parametrize("n", [128, 100])
    def test_haar_parseval_at_full_dimension(self, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        u = random_function(g, 0)
        c = project(u, BasisSpec("haar_wavelet", n)).coefficients
        assert np.sum(c**2) == pytest.approx(norm(u) ** 2, rel=1e-6)

    def test_fft_path_matches_direct_quadrature(self):
        g = SamplingGrid.uniform(0.0, 2.0, 200)
        u = random_function(g, 1)
        spec = BasisSpec("fourier", 25)
        via_fft = fft_fourier_coefficients(u, 25)
        direct = project(u, spec).coefficients
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(via_fft - direct)) < 1e-8 * scale

    def test_dimension_larger_than_grid_rejected(self):
        g = SamplingGrid.uniform(0.0, 1.0, 16)
        with pytest.raises(ConfigurationError):
            project(random_function(g, 2), BasisSpec("fourier", 17))


class TestSpecChecks:
    def test_bspline_dimension_below_degree_plus_one_is_rejected(self):
        BasisSpec("bspline", 4)
        with pytest.raises(ConfigurationError, match="spline degree"):
            BasisSpec("bspline", 3)

    def test_coefficients_of_another_length_are_rejected(self):
        with pytest.raises(ConfigurationError, match="basis dimension"):
            CoefficientVector(np.zeros(4), BasisSpec("fourier", 5))


class TestReconstruct:
    def test_zero_coefficients_give_zero_function(self):
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        spec = BasisSpec("fourier", 5)
        r = reconstruct(CoefficientVector(np.zeros(5), spec), g)
        assert np.all(r.values == 0.0)

    def test_unit_coefficient_samples_the_basis_function(self):
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        spec = BasisSpec("fourier", 5)
        r = reconstruct(CoefficientVector(np.eye(5)[0], spec), g)
        assert np.allclose(r.values, basis_matrix(spec, g)[:, 0])

    @pytest.mark.parametrize("n", [64, 48])
    def test_full_haar_round_trip(self, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        u = random_function(g, 3)
        c = project(u, BasisSpec("haar_wavelet", n))
        assert np.max(np.abs(reconstruct(c, g).values - u.values)) < 1e-6

    def test_a_rank_deficient_span_is_rejected(self):
        # On 48 uniform points the 48 Fourier functions span a space of
        # dimension 47: no projection onto them is unique.
        g = SamplingGrid.uniform(0.0, 1.0, 48)
        u = SampledFunction(g, 2.0 + np.sin(2 * np.pi * g.abscissae))
        with pytest.raises(ConfigurationError, match="fourier basis of dimension 48 "
                                                     "is singular on a grid of 48 points"):
            project(u, BasisSpec("fourier", 48))


class TestRankTest:
    """A basis whose Gram matrix on the grid is numerically singular is a
    ``ConfigurationError`` that names the family, the dimension and the
    grid length, from every table and from a kernel's preparation."""

    @pytest.mark.parametrize("family,d,n", [
        ("fourier", 100, 100), ("fourier", 40, 40), ("fourier", 48, 48), ("fourier", 64, 64),
        # On an odd uniform grid the last sine, sin(pi i), is rounding noise
        # at every sample.
        *(("fourier", n, n) for n in (15, 17, 31, 33, 63, 65, 101)),
    ])
    def test_singular_spans_are_named(self, family, d, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        spec = BasisSpec(family, d)
        message = f"{family} basis of dimension {d} is singular on a grid of {n} points"
        for table in (coefficient_gram, gram_factor, projector):
            with pytest.raises(ConfigurationError, match=message):
                table(spec, g)
        with pytest.raises(ConfigurationError, match=message):
            prepare_rows(FunctionalKernel(projection=spec), g, np.zeros((0, n)))

    def test_a_gram_that_passes_cholesky_can_still_be_singular(self):
        # Fourier d = 64 on 64 uniform points has rank 63, but rounding lets
        # its Gram matrix through a Cholesky factorization.
        g = SamplingGrid.uniform(0.0, 1.0, 64)
        cols = basis_matrix(BasisSpec("fourier", 64), g)
        np.linalg.cholesky(cols.T @ (g.weights[:, None] * cols))
        with pytest.raises(ConfigurationError, match="singular"):
            gram_factor(BasisSpec("fourier", 64), g)

    @pytest.mark.parametrize("family,d,n", [("haar_wavelet", 40, 40), ("haar_wavelet", 100, 100),
                                            ("fourier", 63, 64)])
    def test_the_largest_full_rank_spans_pass(self, family, d, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        G = coefficient_gram(BasisSpec(family, d), g)
        L = gram_factor(BasisSpec(family, d), g)
        assert np.max(np.abs(L @ L.T - G)) <= 1e-12 * np.max(np.abs(G))

    def test_tiny_weights_pass_both_tests_without_overflow(self):
        # Haar divides by the square roots of the weights, so B' B of
        # denormal weights would overflow; G is still the identity.
        g = SamplingGrid(np.linspace(0.0, 1.0, 40), np.full(40, 1e-320))
        L = gram_factor(BasisSpec("haar_wavelet", 40), g)
        assert np.max(np.abs(L - np.eye(40))) <= 1e-12

    def test_a_gram_that_is_not_finite_is_named(self):
        weights = np.full(40, 1.0 / 39.0)
        weights[0] = 1e308
        g = SamplingGrid(np.linspace(0.0, 1.0, 40), weights)
        with pytest.raises(ConfigurationError, match="not finite on this grid"):
            coefficient_gram(BasisSpec("fourier", 5), g)


def recursive_haar(n):
    """The n unit-norm Haar vectors as rows, for a power of two n, built
    by ``H_2m = [H_m kron (1, 1); I_m kron (1, -1)] / sqrt(2)``."""
    H = np.ones((1, 1))
    while len(H) < n:
        H = np.vstack([np.kron(H, [1.0, 1.0]), np.kron(np.eye(len(H)), [1.0, -1.0])])
        H /= np.sqrt(2.0)
    return H


class TestHaarConstruction:
    """The Haar system halves the grid's own index blocks, so it is
    orthonormal in the quadrature and of full rank on every grid."""

    GRIDS = {
        "uniform40": SamplingGrid.uniform(0.0, 1.0, 40),
        "uniform48": SamplingGrid.uniform(0.0, 1.0, 48),
        "uniform100": SamplingGrid.uniform(0.0, 1.0, 100),
        "random90": SamplingGrid.from_abscissae(
            np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 90))),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_every_dimension_is_full_rank_with_an_identity_gram(self, grid):
        g = self.GRIDS[grid]
        n = len(g)
        for d in range(1, n + 1):
            spec = BasisSpec("haar_wavelet", d)
            assert np.max(np.abs(coefficient_gram(spec, g) - np.eye(d))) <= 1e-14
            assert np.max(np.abs(gram_factor(spec, g) - np.eye(d))) <= 1e-14
        assert np.linalg.matrix_rank(basis_matrix(BasisSpec("haar_wavelet", n), g)) == n

    def test_blocks_are_halved_breadth_first_with_the_smaller_half_left(self):
        # On 6 points: [0, 6) at 3, [0, 3) at 1, [3, 6) at 4, [1, 3) at 2, [4, 6) at 5.
        g = SamplingGrid.uniform(0.0, 1.0, 6)
        H = (basis_matrix(BasisSpec("haar_wavelet", 6), g) * np.sqrt(g.weights)[:, None]).T
        assert np.sign(np.round(H, 12)).tolist() == [
            [1, 1, 1, 1, 1, 1], [1, 1, 1, -1, -1, -1], [1, -1, -1, 0, 0, 0],
            [0, 0, 0, 1, -1, -1], [0, 1, -1, 0, 0, 0], [0, 0, 0, 0, 1, -1]]
        np.testing.assert_allclose(H[2], [np.sqrt(2 / 3), -np.sqrt(1 / 6), -np.sqrt(1 / 6),
                                          0, 0, 0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 64, 128, 256])
    def test_power_of_two_grids_give_the_classical_haar_vectors(self, n):
        g = SamplingGrid.uniform(0.0, 1.0, n)
        H = recursive_haar(n)
        for d in sorted({1, 2, 3, n // 4 + 1, n // 2, n}):
            cols = basis_matrix(BasisSpec("haar_wavelet", d), g)
            assert np.max(np.abs(cols * np.sqrt(g.weights)[:, None] - H[:d].T)) <= 1e-15


class TestInvariantsAndProperties:
    @pytest.mark.parametrize("family", ["fourier", "haar_wavelet"])
    def test_gram_near_identity(self, family):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        spec = BasisSpec(family, 32)
        cols = basis_matrix(spec, g)
        gram = cols.T @ (g.weights[:, None] * cols)
        assert np.max(np.abs(gram - np.eye(32))) < 1e-3

    @pytest.mark.parametrize("family", ["fourier", "haar_wavelet"])
    def test_bessel_monotone(self, family):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = random_function(g, 5)
        full = norm(u)
        previous = 0.0
        for d in (1, 2, 4, 8, 16, 32):
            energy = float(np.sum(project(u, BasisSpec(family, d)).coefficients ** 2))
            assert np.sqrt(energy) <= full + 1e-6
            assert energy >= previous - 1e-12
            previous = energy

    def test_projection_idempotent(self):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = random_function(g, 6)
        for family in ("fourier", "haar_wavelet", "bspline"):
            spec = BasisSpec(family, 12)
            c = project(u, spec)
            again = project(reconstruct(c, g), spec)
            assert np.max(np.abs(again.coefficients - c.coefficients)) < 1e-8

    def test_fourier_energy_ordering_for_smooth_signal(self):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = SampledFunction(g, np.sin(2 * np.pi * g.abscissae))

        def recon_error(d):
            c = project(u, BasisSpec("fourier", d))
            return norm(u.with_values(reconstruct(c, g).values - u.values))

        assert recon_error(1) >= 10.0 * recon_error(5)

    def test_bspline_projection_reduces_norm(self):
        g = SamplingGrid.uniform(0.0, 1.0, 128)
        u = random_function(g, 7)
        spec = BasisSpec("bspline", 10)
        c = project(u, spec)
        G = coefficient_gram(spec, g)
        proj_norm = float(c.coefficients @ G @ c.coefficients)
        assert proj_norm <= norm(u) ** 2 + 1e-6

