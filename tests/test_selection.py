import inspect
import warnings

import numpy as np
import pytest

from funcsvm import (
    BaseKernel,
    Candidate,
    CandidateGrid,
    FunctionalKernel,
    LabeledDataset,
    SamplingGrid,
    empirical_error,
    select,
    split_sample,
    train_svm,
    validate_grid,
)
from funcsvm.basis import BasisSpec
from funcsvm.config import build_grid
from funcsvm import selection, solver
from funcsvm.errors import (
    ConfigurationError, ConvergenceError, DataError, DegenerateTrainingError,
    GridMismatchError, UsageError,
)
from funcsvm.kernels import Transform, apply_base, prepare_rows
from funcsvm.selection import step_penalty
from funcsvm.solver import DEFAULT_MAX_ITER, solve_dual


GRID = SamplingGrid.uniform(0.0, 1.0, 64)


def two_frequency_data(n, noise=0.3, seed=0, grid=GRID):
    """Curves sin(2 pi f t) with f in {2, 3} encoding the class."""
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    freqs = np.where(labels > 0, 2.0, 3.0)
    rows = np.sin(2 * np.pi * freqs[:, None] * grid.abscissae) \
        + noise * rng.standard_normal((n, len(grid)))
    return LabeledDataset.from_matrix(grid, rows, labels)


def gaussian_kernels(sigmas):
    return [FunctionalKernel(base=BaseKernel.gaussian(s)) for s in sigmas]


class TestSplitSample:
    def test_first_l_keeps_order(self):
        data = two_frequency_data(99)
        split = split_sample(data, 50)
        assert len(split.train) == 50
        assert len(split.validation) == 49
        assert np.array_equal(split.train.labels, data.labels[:50])
        assert np.array_equal(
            split.train.functions[0].values, data.functions[0].values
        )

    def test_minimal_split(self):
        data = two_frequency_data(2)
        split = split_sample(data, 1)
        assert len(split.train) == 1
        assert len(split.validation) == 1

    def test_out_of_range_l_raises(self):
        data = two_frequency_data(10)
        for l in (0, 10, 11):
            with pytest.raises(UsageError):
                split_sample(data, l)

    def test_seeded_shuffle_is_deterministic_and_exhaustive(self):
        data = two_frequency_data(30)
        a = split_sample(data, 12, policy="seeded_shuffle", seed=5)
        b = split_sample(data, 12, policy="seeded_shuffle", seed=5)
        assert np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(
            a.train.value_matrix(), b.train.value_matrix()
        )
        merged = np.vstack([a.train.value_matrix(), a.validation.value_matrix()])
        original = data.value_matrix()
        matched = sorted(tuple(r) for r in merged) == sorted(tuple(r) for r in original)
        assert matched

    def test_different_seeds_differ(self):
        data = two_frequency_data(40)
        a = split_sample(data, 20, policy="seeded_shuffle", seed=1)
        b = split_sample(data, 20, policy="seeded_shuffle", seed=2)
        assert not np.array_equal(a.train.value_matrix(), b.train.value_matrix())

    def test_single_class_side_warns(self):
        rows = np.tile(GRID.abscissae, (6, 1)) + np.arange(6)[:, None]
        data = LabeledDataset.from_matrix(GRID, rows, [1, 1, 1, -1, -1, -1])
        split = split_sample(data, 3)  # first 3 are all +1
        assert any("single class" in w for w in split.warnings)


class TestEmpiricalError:
    def test_perfect_and_worst_case(self):
        data = two_frequency_data(20, noise=0.05)
        model = train_svm(
            FunctionalKernel(base=BaseKernel.gaussian(10.0)), data, C=10.0
        )
        assert empirical_error(model, data) == 0.0
        flipped = LabeledDataset.from_matrix(
            data.grid, data.value_matrix(), -data.labels
        )
        assert empirical_error(model, flipped) == 1.0

    def test_empty_data_is_a_data_error(self):
        data = two_frequency_data(20, noise=0.05)
        model = train_svm(FunctionalKernel(), data, C=10.0)
        with pytest.raises(DataError, match="empty data"):
            empirical_error(model, data.subset([]))

    def test_data_off_the_models_grid_is_a_grid_mismatch(self):
        data = two_frequency_data(20, noise=0.05)
        model = train_svm(FunctionalKernel(), data, C=10.0)
        other = two_frequency_data(20, noise=0.05, grid=SamplingGrid.uniform(0.0, 2.0, 64))
        with pytest.raises(GridMismatchError):
            empirical_error(model, other)


class TestGridConstruction:
    def test_from_axes_counts(self):
        g = CandidateGrid.from_axes(
            gaussian_kernels([0.5, 2.0]), [1.0, 10.0], dimensions=(3, 7)
        )
        assert len(g) == 8
        assert {c.dimension for c in g.candidates} == {3, 7}
        assert all(c.kernel.projection.dimension == c.dimension for c in g.candidates)

    def test_dimension_zero_keeps_kernel_unprojected(self):
        g = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0], dimensions=(0,))
        assert g.candidates[0].kernel.projection is None

    @pytest.mark.parametrize("family", ["fourier", "haar_wavelet", "bspline"])
    def test_dimension_zero_means_no_projection_for_every_basis(self, family):
        g = build_grid({"basis": family, "dimensions": [0, 4, 8],
                        "kernels": [{"kind": "linear"}], "C": [1.0]})
        projections = {c.dimension: c.kernel.projection for c in g.candidates}
        assert projections == {
            0: None, 4: BasisSpec(family, 4), 8: BasisSpec(family, 8),
        }

    def test_invalid_candidates_rejected(self):
        k = FunctionalKernel()
        with pytest.raises(ConfigurationError):
            Candidate(k, 0.0)

    def test_dimension_row_and_penalty_follow_the_projection(self):
        data = two_frequency_data(40, noise=0.3, seed=4)
        penalties = {0: 0.5, 4: 2.0, 8: 4.0, 200: 1000.0}
        from_axes = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0],
                                            dimensions=(0, 4, 8), penalties=penalties)
        by_hand = CandidateGrid(
            (Candidate(FunctionalKernel(base=BaseKernel.gaussian(1.0)), 1.0),
             Candidate(FunctionalKernel(projection=BasisSpec("haar_wavelet", 4)), 2.0)),
            penalties=penalties)
        for grid, dimensions in ((from_axes, [0, 4, 8]), (by_hand, [0, 4])):
            assert [c.dimension for c in grid.candidates] == dimensions
            for record in select(grid, data, l=20).table:
                row, d = record.as_row(), record.candidate.dimension
                assert row["dimension"] == d
                assert d == (0 if row["kernel"]["projection"] is None
                             else row["kernel"]["projection"]["dimension"])
                assert record.score == record.validation_error + penalties[d] / np.sqrt(20)

    def test_step_penalty(self):
        assert step_penalty(100) == 0.0
        assert step_penalty(101) == 1000.0


class TestSelect:
    def test_singleton_grid(self):
        data = two_frequency_data(40, noise=0.2)
        g = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0], dimensions=(5,))
        res = select(g, data, l=20)
        assert res.chosen is g.candidates[0]
        assert res.train_size == 20
        assert res.validation_size == 20
        assert len(res.table) == 1
        assert res.table[0].score is not None

    def test_penalty_rules_out_the_huge_dimension(self):
        # Both dimensions reach zero validation error on this easy problem;
        # the penalized score must pick the small one.
        grid256 = SamplingGrid.uniform(0.0, 1.0, 256)
        data = two_frequency_data(60, noise=0.05, grid=grid256)
        g = CandidateGrid.from_axes(
            gaussian_kernels([1.0]), [10.0], dimensions=(200, 5),
            penalties={5: 0.0, 200: 1000.0},
        )
        res = select(g, data, l=30)
        by_dim = {r.candidate.dimension: r for r in res.table}
        assert by_dim[5].validation_error == by_dim[200].validation_error == 0.0
        assert res.chosen.dimension == 5
        assert by_dim[200].score > by_dim[5].score

    def test_winner_minimizes_the_table_score(self):
        data = two_frequency_data(80, noise=0.6, seed=3)
        g = CandidateGrid.from_axes(
            gaussian_kernels([0.2, 1.0, 5.0]), [0.5, 5.0], dimensions=(3, 7),
        )
        res = select(g, data, l=40)
        scores = [r.score for r in res.table if r.score is not None]
        assert res.chosen_record.score == min(scores)

    def test_separable_problem_finds_a_working_candidate(self):
        data = two_frequency_data(60, noise=0.05, seed=4)
        g = CandidateGrid.from_axes(
            gaussian_kernels([0.1, 1.0, 10.0]),
            [0.1, 1.0, 10.0],
            dimensions=tuple(range(1, 11)),
        )
        res = select(g, data, l=30)
        assert res.chosen_record.validation_error == 0.0
        # One Fourier coefficient cannot separate the two frequencies.
        assert res.chosen.dimension >= 2

    def test_brute_force_reverification_of_the_table(self):
        # Independent route: retrain each candidate from scratch with
        # train_svm on the same split and recompute the validation error.
        data = two_frequency_data(30, noise=0.4, seed=5)
        g = CandidateGrid.from_axes(
            gaussian_kernels([0.5, 2.0]), [1.0, 10.0], dimensions=(4,),
        )
        res = select(g, data, l=15, tol=1e-6)
        split = split_sample(data, 15)
        for record in res.table:
            model = train_svm(
                record.candidate.kernel, split.train, record.candidate.C, tol=1e-6
            )
            assert empirical_error(model, split.validation) == record.validation_error

    def test_model_is_trained_on_the_train_half_only(self):
        data = two_frequency_data(40, noise=0.2, seed=6)
        g = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0], dimensions=(5,))
        res = select(g, data, l=20)
        ref = train_svm(res.chosen.kernel, split_sample(data, 20).train, res.chosen.C)
        assert res.model.bias == ref.bias
        assert np.array_equal(res.model.support_coeffs, ref.support_coeffs)

    @pytest.mark.parametrize(
        "kernel",
        [
            FunctionalKernel(base=BaseKernel.linear()),
            FunctionalKernel(projection=BasisSpec("haar_wavelet", 8),
                             base=BaseKernel.polynomial(3)),
            FunctionalKernel(
                transforms=(Transform("derivative", order=2, spline_dimension=12),
                            Transform("normalize")),
                projection=BasisSpec("bspline", 8), base=BaseKernel.gaussian(0.5),
            ),
        ],
    )
    def test_model_equals_a_retrain_for_every_pipeline(self, kernel):
        # The model is built from the selection solve; an independent
        # train_svm on the same half must give the same classifier bit for bit.
        data = two_frequency_data(40, noise=0.3, seed=10)
        g = CandidateGrid((Candidate(kernel, 1.0),))
        res = select(g, data, l=20)
        selection_meta = {k: res.model.meta[k] for k in ("dimension", "seed",
                                                         "split_policy", "l")}
        ref = train_svm(kernel, split_sample(data, 20).train, 1.0, meta=selection_meta)
        assert res.model.bias == ref.bias
        assert np.array_equal(res.model.support_coeffs, ref.support_coeffs)
        assert np.array_equal(res.model.support_vectors, ref.support_vectors)
        assert res.model.meta == ref.meta

    def test_non_finite_kernel_candidate_is_recorded_as_failed(self):
        # (1 + <u, u>)^400 overflows on these curves; that candidate fails
        # with a data error and the Gaussian one still wins.
        data = two_frequency_data(30, noise=0.3, seed=12)
        data = LabeledDataset.from_matrix(GRID, 10.0 * data.value_matrix(), data.labels)
        g = CandidateGrid.from_axes(
            [FunctionalKernel(base=BaseKernel.polynomial(400)),
             FunctionalKernel(base=BaseKernel.gaussian(0.01))],
            [1.0],
        )
        with np.errstate(over="ignore"):
            res = select(g, data, l=15)
        poly, gauss = res.table
        assert poly.score is None and poly.error.startswith("DataError")
        assert res.chosen is gauss.candidate

    def test_non_finite_validation_decisions_fail_the_candidate(self):
        # The training Gram is finite, but (1 + <u, v>)^121 overflows between
        # the training curves and the validation curves, 1000 times larger.
        grid = SamplingGrid.uniform(0.0, 1.0, 16)
        rng = np.random.default_rng(1)
        rows = np.vstack([rng.normal(size=(20, 16)), 1e3 * rng.normal(size=(20, 16))])
        data = LabeledDataset.from_matrix(grid, rows, [1, -1] * 20)
        poly = Candidate(FunctionalKernel(base=BaseKernel.polynomial(121)), 1.0)
        gauss = Candidate(FunctionalKernel(base=BaseKernel.gaussian(1e-6)), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTrainingError,
                               match="decision values are not all finite"):
                select(CandidateGrid((poly,)), data, l=20)
            res = select(CandidateGrid((poly, gauss)), data, l=20)
        failed, chosen = res.table
        assert failed.error == "DataError: decision values are not all finite"
        assert failed.validation_error is None and failed.score is None
        assert res.chosen_record is chosen and chosen.score is not None

    def test_reproducible_under_seeded_shuffle(self):
        data = two_frequency_data(50, noise=0.5, seed=7)
        g = CandidateGrid.from_axes(
            gaussian_kernels([0.5, 2.0]), [1.0, 10.0], dimensions=(3, 6),
        )
        a = select(g, data, l=25, policy="seeded_shuffle", seed=11)
        b = select(g, data, l=25, policy="seeded_shuffle", seed=11)
        assert a.chosen == b.chosen
        assert [r.score for r in a.table] == [r.score for r in b.table]

    def test_failed_candidates_are_recorded_not_fatal(self):
        rows = np.tile(GRID.abscissae, (8, 1)) + np.arange(8)[:, None]
        data = LabeledDataset.from_matrix(GRID, rows, [1, 1, 1, 1, -1, -1, -1, -1])
        g = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0], dimensions=(3,))
        # first_l with l=4 puts a single class on the training side
        with pytest.raises(DegenerateTrainingError):
            select(g, data, l=4)

    def test_empty_grid_raises(self):
        data = two_frequency_data(10)
        with pytest.raises(UsageError):
            select(CandidateGrid(()), data, l=5)

    def test_tie_breaks_prefer_smaller_dimension_then_smaller_c(self):
        # All candidates see the same zero validation error, so the tie
        # break alone decides.
        # The freq-2 sine lives in Fourier coefficient 5, so both d=5 and
        # d=10 separate the classes and the tie break alone decides.
        data = two_frequency_data(40, noise=0.02, seed=9)
        g = CandidateGrid.from_axes(
            gaussian_kernels([5.0]), [10.0, 2.0], dimensions=(10, 5),
        )
        res = select(g, data, l=20)
        errs = {r.validation_error for r in res.table}
        assert errs == {0.0}
        assert res.chosen.dimension == 5
        assert res.chosen.C == 2.0

    @pytest.mark.parametrize("first", ["linear", "gaussian"])
    def test_full_ties_go_to_the_kernel_declared_first(self, first):
        # Every candidate scores 0 (see above); at the winning d=5, C=2 the
        # two kernels tie on every key, so declaration order decides.
        data = two_frequency_data(40, noise=0.02, seed=9)
        kernels = [FunctionalKernel(base=BaseKernel.linear())] + gaussian_kernels([5.0])
        if first == "gaussian":
            kernels.reverse()
        g = CandidateGrid.from_axes(kernels, [10.0, 2.0], dimensions=(10, 5))
        res = select(g, data, l=20)
        assert {r.score for r in res.table} == {0.0}
        assert (res.chosen.dimension, res.chosen.C) == (5, 2.0)
        assert res.chosen.kernel.base.kind == first

    def test_select_and_train_share_one_iteration_budget(self):
        # A candidate that cannot converge gets the same budget whether
        # `funcsvm train` solves it directly or `select` solves it in a grid:
        # train_svm takes no budget of its own and runs solve_dual's default.
        def default(fn):
            return inspect.signature(fn).parameters["max_iter"].default

        assert default(select) is DEFAULT_MAX_ITER
        assert default(solve_dual) is DEFAULT_MAX_ITER
        assert "max_iter" not in inspect.signature(train_svm).parameters
        assert DEFAULT_MAX_ITER == 1_000_000


class TestEverySolveFromZero:
    GRID = CandidateGrid.from_axes(
        gaussian_kernels([0.5, 2.0]) + [FunctionalKernel(base=BaseKernel.linear())],
        [0.5, 5.0, 50.0], dimensions=(3, 6),
    )

    @staticmethod
    def train_svm_solutions(monkeypatch):
        """Every solution that ``train_svm``'s own solve returns."""
        solved = []

        def recording(*args, **kwargs):
            solved.append(solve_dual(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(solver, "solve_dual", recording)
        return solved

    @staticmethod
    def assert_same_solution(got, ref):
        assert got.alphas.tobytes() == ref.alphas.tobytes()
        assert got.bias == ref.bias
        assert (got.objective, got.iterations, got.kkt_violation) == \
            (ref.objective, ref.iterations, ref.kkt_violation)

    def test_each_solve_is_train_svms_bit_for_bit(self, monkeypatch):
        # No solve starts from a neighbour's solution: every candidate's is
        # the one train_svm finds on the training half.
        data = two_frequency_data(40, noise=0.5, seed=13)
        res = select(self.GRID, data, l=20)
        split = split_sample(data, 20)
        solved = self.train_svm_solutions(monkeypatch)
        for record in res.table:
            train_svm(record.candidate.kernel, split.train, record.candidate.C)
            self.assert_same_solution(record.solution, solved[-1])
        assert len(solved) == len(res.table) == 18

    def test_validation_errors_match_unseeded_solves(self, monkeypatch):
        data = two_frequency_data(40, noise=0.5, seed=13)
        res = select(self.GRID, data, l=20, tol=1e-6)
        split = split_sample(data, 20)
        solved = self.train_svm_solutions(monkeypatch)
        for record in res.table:
            model = train_svm(record.candidate.kernel, split.train, record.candidate.C,
                              tol=1e-6)
            assert empirical_error(model, split.validation) == record.validation_error
            self.assert_same_solution(record.solution, solved[-1])

    def test_bitwise_repeatable(self):
        data = two_frequency_data(40, noise=0.5, seed=13)
        a = select(self.GRID, data, l=20)
        b = select(self.GRID, data, l=20)
        assert [r.as_row() for r in a.table] == [r.as_row() for r in b.table]
        for ra, rb in zip(a.table, b.table):
            assert ra.solution.alphas.tobytes() == rb.solution.alphas.tobytes()
            assert ra.solution.bias == rb.solution.bias

    def test_permutation_equivariant(self):
        # Reordering curves within each side of the first_l split permutes
        # every candidate's solution and leaves its validation error alone.
        data = two_frequency_data(40, noise=0.5, seed=13)
        rng = np.random.default_rng(3)
        perm = np.concatenate([rng.permutation(20), 20 + rng.permutation(20)])
        a = select(self.GRID, data, l=20, tol=1e-8)
        b = select(self.GRID, data.subset(perm), l=20, tol=1e-8)
        for ra, rb in zip(a.table, b.table):
            assert ra.validation_error == rb.validation_error
            C = ra.candidate.C
            assert np.max(np.abs(rb.solution.alphas - ra.solution.alphas[perm[:20]])) < 1e-6 * C


class TestOneGramAtATime:
    KERNELS = gaussian_kernels([0.5, 2.0, 8.0]) + [FunctionalKernel(base=BaseKernel.linear())]
    GRID = CandidateGrid.from_axes(KERNELS, [0.5, 5.0], dimensions=(3, 6))

    @staticmethod
    def counted_select(monkeypatch, grid):
        calls = []

        def counting(base, a, b):
            calls.append(base)
            return apply_base(base, a, b)

        monkeypatch.setattr(selection, "apply_base", counting)
        return select(grid, two_frequency_data(40, noise=0.5, seed=13), l=20), len(calls)

    def test_from_axes_grid_builds_each_gram_once(self, monkeypatch):
        assert len(self.GRID) == 16
        _, calls = self.counted_select(monkeypatch, self.GRID)
        assert calls == 16  # 2 dimensions x 4 base kernels, each (K, Kv) once

    def test_interleaved_grid_gives_the_same_table_and_model(self, monkeypatch):
        # C outermost: no two neighbours share a Gram matrix, and each Gram
        # matrix still meets its C values in the same order.
        interleaved = CandidateGrid(sorted(self.GRID.candidates, key=lambda c: c.C))
        a, _ = self.counted_select(monkeypatch, self.GRID)
        b, calls = self.counted_select(monkeypatch, interleaved)
        assert calls == 32
        rows_b = {r.candidate: r for r in b.table}
        for ra in a.table:
            rb = rows_b[ra.candidate]
            assert {**ra.as_row(), "index": None} == {**rb.as_row(), "index": None}
            assert ra.solution.alphas.tobytes() == rb.solution.alphas.tobytes()
            assert ra.solution.bias == rb.solution.bias
        assert a.chosen == b.chosen
        assert a.model.support_vectors.tobytes() == b.model.support_vectors.tobytes()
        assert a.model.support_coeffs.tobytes() == b.model.support_coeffs.tobytes()
        assert (a.model.bias, a.model.meta) == (b.model.bias, b.model.meta)


class TestCandidateRows:
    GRID = CandidateGrid.from_axes(gaussian_kernels([1.0]), [1.0, 100.0], dimensions=(5,))

    def test_rows_carry_the_solver_facts(self):
        res = select(self.GRID, two_frequency_data(40, noise=0.5, seed=14), l=20)
        for record in res.table:
            row, sol = record.as_row(), record.solution
            assert row["iterations"] == sol.iterations > 0
            assert row["kkt_violation"] == sol.kkt_violation < 1e-3
            assert row["n_support"] == int(np.sum(sol.alphas > 1e-10 * record.candidate.C))
            assert row["n_support"] > 0
            assert row["budget_exhausted"] is False
        assert res.chosen_record.as_row()["n_support"] == res.model.n_support

    def test_budget_failure_keeps_its_best_iterate(self):
        # One update short of what the C=100 solve needs, which C=1 meets.
        data = two_frequency_data(40, noise=0.5, seed=13)
        first, second = select(self.GRID, data, l=20).table
        budget = second.solution.iterations - 1
        assert first.solution.iterations <= budget < second.solution.iterations
        record = select(self.GRID, data, l=20, max_iter=budget).table[1]
        row = record.as_row()
        assert row["score"] is None and row["error"].startswith("ConvergenceError")
        assert row["iterations"] == budget
        assert row["kkt_violation"] >= 1e-3
        assert row["n_support"] == int(np.sum(record.solution.alphas > 1e-8))
        assert row["budget_exhausted"] is True

    def test_rounding_floor_stop_is_not_out_of_budget(self):
        # Curves sampled over [0, 1.5e308]: the linear Gram's entries are
        # near 1e306, and its solve stops at the rounding floor after 100
        # updates, far inside its budget.
        unit = two_frequency_data(40, seed=7)
        data = LabeledDataset.from_matrix(SamplingGrid.uniform(0.0, 1.5e308, 64),
                                          unit.value_matrix(), unit.labels)
        grid = CandidateGrid.from_axes(
            [FunctionalKernel(base=BaseKernel.gaussian(1.0)), FunctionalKernel()], [1.0],
            dimensions=(3,))
        row = select(grid, data, l=20).table[1].as_row()
        assert row["kernel"]["base"]["kind"] == "linear"
        assert row["error"].startswith("ConvergenceError") and "rounding floor" in row["error"]
        assert row["iterations"] < DEFAULT_MAX_ITER
        assert row["budget_exhausted"] is False

    @staticmethod
    def rounded_floor_problem(draw):
        """The Gram matrix and labels of the linear candidate above, from its
        rows with each entry moved by one rounding."""
        unit = two_frequency_data(40, seed=7)
        grid = SamplingGrid.uniform(0.0, 1.5e308, 64)
        kernel = FunctionalKernel(projection=BasisSpec("fourier", 3))
        rows = prepare_rows(kernel, grid, unit.value_matrix()[:20])
        sign = np.random.default_rng(draw).choice([-1.0, 1.0], rows.shape)
        rows = rows * (1.0 + solver.EPS * sign)
        return apply_base(kernel.base, rows, rows), unit.labels[:20]

    @pytest.mark.parametrize("draw", range(7))
    def test_rounding_floor_stop_survives_rounding_of_the_rows(self, draw):
        # Some draws gave a one-coordinate continuation step of -5e-324,
        # blocked at the bound it had just left: freeing and blocking it
        # again spent the continuation's steps, and then the whole budget.
        K, labels = self.rounded_floor_problem(draw)
        with pytest.raises(ConvergenceError, match="rounding floor") as info:
            solve_dual(K, labels, 1.0, max_iter=20_000)
        assert info.value.solution.iterations < 20_000

    def test_continuation_points_stay_in_the_box(self, monkeypatch):
        # On this draw a coordinate whose move blocked nothing ends 2.2e-47
        # past its bound.
        points = []

        def continuation(K, y, u, level, C, tol, box):
            point = active_set(K, y, u, level, C, tol, box)
            points.append((point, box))
            return point

        active_set = solver._active_set
        monkeypatch.setattr(solver, "_active_set", continuation)
        K, labels = self.rounded_floor_problem(52)
        with pytest.raises(ConvergenceError):
            solve_dual(K, labels, 1.0, max_iter=2_000)
        assert any(point is not None for point, _ in points)
        for point, (lo, hi, _, _) in points:
            assert point is None or (np.all(lo <= point) and np.all(point <= hi))

    def test_rows_without_a_solve_report_none(self):
        data = two_frequency_data(30, noise=0.3, seed=12)
        data = LabeledDataset.from_matrix(GRID, 10.0 * data.value_matrix(), data.labels)
        g = CandidateGrid.from_axes(
            [FunctionalKernel(base=BaseKernel.polynomial(400)),
             FunctionalKernel(base=BaseKernel.gaussian(0.01))],
            [1.0],
        )
        with np.errstate(over="ignore"):
            row = select(g, data, l=15).table[0].as_row()
        assert row["error"].startswith("DataError")
        assert [row[k] for k in ("iterations", "kkt_violation", "n_support",
                                 "budget_exhausted")] == [None] * 4


class TestValidateGrid:
    def test_clean_grid_has_no_warnings(self):
        g = CandidateGrid.from_axes(
            gaussian_kernels([1.0]), [0.5, 10.0], dimensions=(3,),
            default_penalty=10.0,
        )
        assert validate_grid(g, N=1000, l=100) == []

    def test_missing_gaussian_warns(self):
        g = CandidateGrid.from_axes(
            [FunctionalKernel()], [10.0], dimensions=(3,), default_penalty=10.0
        )
        assert any("Gaussian" in w for w in validate_grid(g))

    def test_small_c_range_warns(self):
        g = CandidateGrid.from_axes(
            gaussian_kernels([1.0]), [0.1, 1.0], dimensions=(3,), default_penalty=10.0
        )
        assert any("C range" in w for w in validate_grid(g))

    def test_flat_penalty_fails_summability(self):
        g = CandidateGrid.from_axes(
            gaussian_kernels([1.0]), [10.0], dimensions=(3, 50), default_penalty=0.0
        )
        assert any("summability" in w for w in validate_grid(g))

    def test_growth_condition(self):
        g = CandidateGrid.from_axes(
            gaussian_kernels([1.0]), [10.0], dimensions=(3,), default_penalty=10.0
        )
        warns = validate_grid(g, N=1000, l=990)
        assert any("growth condition" in w for w in warns)
        assert validate_grid(g, N=1000, l=100) == []

    def test_penalty_lookup(self):
        g = CandidateGrid((), penalties={3: 1.5}, default_penalty=7.0)
        assert g.penalty(3) == 1.5
        assert g.penalty(4) == 7.0
