import numpy as np
import pytest

from funcsvm import (
    BaseKernel,
    CandidateGrid,
    FunctionalKernel,
    LabeledDataset,
    SamplingGrid,
    generate_synthetic,
    paired_t_test,
    run_fixed_split,
    run_leave_one_out,
    run_repeated_splits,
)
from funcsvm.basis import BasisSpec, project
from funcsvm.errors import DataError, UsageError


def small_grid(sigmas=(1.0,), Cs=(10.0,), dims=(5,)):
    kernels = [FunctionalKernel(base=BaseKernel.gaussian(s)) for s in sigmas]
    return CandidateGrid.from_axes(kernels, Cs, dimensions=dims)


def labelled_sines(labels, seed=0):
    """Curves sin(2 pi f t) plus a little noise, f in {2, 3} by label."""
    g = SamplingGrid.uniform(0.0, 1.0, 32)
    labels = np.asarray(labels)
    freqs = np.where(labels > 0, 2.0, 3.0)
    rows = np.sin(2 * np.pi * freqs[:, None] * g.abscissae) \
        + 0.05 * np.random.default_rng(seed).standard_normal((labels.size, 32))
    return LabeledDataset.from_matrix(g, rows, labels)


def assert_excluded(report, key, excluded):
    """The report excludes exactly the folds or runs ``excluded``, each
    recorded under ``key`` with its error, and scores the others."""
    assert report.excluded_runs == len(excluded)
    assert len(report.per_run_errors) == len(report.per_run_chosen) - len(excluded)
    for i, entry in enumerate(report.per_run_chosen):
        if i in excluded:
            assert set(entry) == {key, "error"} and entry[key] == i
            assert entry["error"].startswith("DegenerateTrainingError: ")
        else:
            assert "dimension" in entry and "validation_error" in entry


class TestGenerateSynthetic:
    def test_noiseless_curves_are_the_prototypes(self):
        data = generate_synthetic(12, noise=0.0, seed=1)
        t = data.grid.abscissae
        for f, y in zip(data.functions, data.labels):
            freq = 2.0 if y > 0 else 3.0
            assert np.allclose(f.values, np.sin(2 * np.pi * freq * t))

    def test_label_noise_flips_about_half(self):
        clean = generate_synthetic(4000, noise=0.0, label_noise=0.0, seed=2)
        noisy = generate_synthetic(4000, noise=0.0, label_noise=0.5, seed=2)
        flip_rate = np.mean(clean.labels != noisy.labels)
        assert 0.45 < flip_rate < 0.55

    def test_seeded_and_reproducible(self):
        a = generate_synthetic(30, seed=9)
        b = generate_synthetic(30, seed=9)
        assert np.array_equal(a.value_matrix(), b.value_matrix())
        assert np.array_equal(a.labels, b.labels)

    def test_non_integer_counts_and_seeds_are_usage_errors(self):
        for kwargs in ({"n": True}, {"n": 10, "seed": True}, {"n": 10, "grid_length": 2.5}):
            with pytest.raises(UsageError):
                generate_synthetic(**kwargs)

    def test_separating_fourier_coordinate(self):
        # Brute-force scan: one coefficient should separate the noiseless
        # classes perfectly.  Freq 2 lands in coefficient 5 (sin, k=2) and
        # freq 3 in coefficient 7 (sin, k=3) of the Fourier ordering.
        data = generate_synthetic(40, noise=0.0, seed=3)
        spec = BasisSpec("fourier", 8)
        coeffs = np.stack([project(f, spec).coefficients for f in data.functions])
        separating = []
        for j in range(8):
            pos = coeffs[data.labels > 0, j]
            neg = coeffs[data.labels < 0, j]
            if pos.min() > neg.max() + 0.1 or neg.min() > pos.max() + 0.1:
                separating.append(j)
        assert separating == [4, 6]  # zero-based indices of coefficients 5 and 7


class TestLeaveOneOut:
    def test_separable_data_scores_zero(self):
        # Seed chosen so every fold's inner first_l split sees both classes.
        data = generate_synthetic(12, noise=0.05, seed=6)
        report = run_leave_one_out(data, small_grid())
        assert report.mean_error == 0.0
        assert len(report.per_run_errors) == 12
        assert report.excluded_runs == 0
        assert report.protocol["kind"] == "leave_one_out"

    def test_fold_errors_are_zero_or_one(self):
        data = generate_synthetic(10, noise=1.5, seed=5)
        report = run_leave_one_out(data, small_grid())
        assert set(report.per_run_errors) <= {0.0, 1.0}
        assert report.mean_error == pytest.approx(
            np.mean(report.per_run_errors)
        )

    def test_too_small_sample_raises(self):
        data = generate_synthetic(2, seed=6)
        with pytest.raises(UsageError):
            run_leave_one_out(data, small_grid())

    def test_a_fold_with_a_single_class_inner_split_is_excluded(self):
        # The inner split trains on the first two remaining curves: without
        # curve 1 those are curves 0 and 2, both +1; every other fold has both.
        data = labelled_sines([1, -1, 1, 1, -1, 1, -1, -1, 1, -1])
        report = run_leave_one_out(data, small_grid(), inner_l=2)
        assert_excluded(report, "fold", {1})
        assert report.mean_error == pytest.approx(np.mean(report.per_run_errors))

    def test_every_fold_excluded_raises(self):
        data = labelled_sines([1, -1] * 5)
        with pytest.raises(DataError, match="^every leave-one-out fold failed$"):
            run_leave_one_out(data, small_grid(), inner_l=1)


class TestRepeatedSplits:
    def test_count_one_equals_fixed_split(self):
        data = generate_synthetic(40, noise=0.3, seed=7)
        grid = small_grid()
        rep = run_repeated_splits(data, grid, count=1, train_size=24, inner_l=12, seed=5)
        fixed = run_fixed_split(
            data, grid, train_size=24, inner_l=12, seed=5, policy="seeded_shuffle"
        )
        assert fixed.per_run_errors == rep.per_run_errors
        assert fixed.per_run_chosen == rep.per_run_chosen
        assert fixed.protocol["kind"] == "fixed_split"

    def test_same_seed_reproduces_the_report(self):
        data = generate_synthetic(40, noise=0.8, seed=8)
        grid = small_grid(sigmas=(0.5, 2.0), Cs=(1.0, 10.0))
        a = run_repeated_splits(data, grid, count=3, train_size=24, inner_l=12, seed=21)
        b = run_repeated_splits(data, grid, count=3, train_size=24, inner_l=12, seed=21)
        assert a.payload() == b.payload()

    def test_different_seeds_usually_differ(self):
        data = generate_synthetic(40, noise=3.0, seed=9)
        grid = small_grid()
        a = run_repeated_splits(data, grid, count=4, train_size=24, inner_l=12, seed=1)
        b = run_repeated_splits(data, grid, count=4, train_size=24, inner_l=12, seed=2)
        assert a.per_run_errors != b.per_run_errors

    def test_tiny_c_predicts_the_majority_class(self):
        # With C near zero every alpha is pinned and the bias dominates; on
        # unbalanced data the model degenerates to a constant prediction, so
        # the test error approaches the minority fraction.
        g = SamplingGrid.uniform(0.0, 1.0, 32)
        rng = np.random.default_rng(10)
        n = 60
        labels = np.where(np.arange(n) < 45, 1, -1)  # 75/25 unbalanced
        freqs = np.where(labels > 0, 2.0, 3.0)
        rows = np.sin(2 * np.pi * freqs[:, None] * g.abscissae) \
            + 0.1 * rng.standard_normal((n, 32))
        data = LabeledDataset.from_matrix(g, rows, labels)
        grid = small_grid(Cs=(1e-8,))
        report = run_repeated_splits(
            data, grid, count=5, train_size=40, inner_l=20, seed=3
        )
        # Every run should land near the minority mass (about 0.25).
        assert abs(report.mean_error - 0.25) < 0.15

    def test_argument_validation(self):
        data = generate_synthetic(10, seed=11)
        grid = small_grid()
        with pytest.raises(UsageError):
            run_repeated_splits(data, grid, count=0, train_size=6, inner_l=3)
        with pytest.raises(UsageError):
            run_repeated_splits(data, grid, count=1, train_size=10, inner_l=3)
        with pytest.raises(UsageError):
            run_repeated_splits(data, grid, count=1, train_size=6, inner_l=6)

    def test_runs_with_a_single_class_inner_split_are_excluded(self):
        # Two inner training curves: at this seed runs 3 and 4 draw one class.
        data = generate_synthetic(20, noise=0.1, seed=4)
        report = run_repeated_splits(
            data, small_grid(), count=6, train_size=12, inner_l=2, seed=2
        )
        assert_excluded(report, "run", {3, 4})

    def test_every_run_excluded_raises(self):
        data = generate_synthetic(20, seed=4)
        with pytest.raises(DataError, match="^every repeated split failed$"):
            run_repeated_splits(data, small_grid(), count=3, train_size=12, inner_l=1)

    def test_payload_excludes_wall_time(self):
        data = generate_synthetic(20, seed=12)
        report = run_repeated_splits(
            data, small_grid(), count=1, train_size=12, inner_l=6
        )
        assert report.wall_time > 0.0
        assert "wall_time" not in report.payload()


class TestPairedTTest:
    def test_identical_vectors_give_p_one(self):
        e = [0.1, 0.2, 0.15, 0.3]
        assert paired_t_test(e, e) == pytest.approx(1.0)

    def test_constant_shift_is_overwhelming_evidence(self):
        a = np.full(20, 0.20)
        b = np.full(20, 0.10)
        assert paired_t_test(a, b) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        a = rng.random(15)
        b = rng.random(15)
        assert paired_t_test(a, b) == pytest.approx(paired_t_test(b, a))

    def test_matches_scipy_on_generic_input(self):
        from scipy import stats

        rng = np.random.default_rng(14)
        a = rng.random(25)
        b = a + 0.05 + 0.1 * rng.standard_normal(25)
        expected = stats.ttest_rel(a, b).pvalue
        assert paired_t_test(a, b) == pytest.approx(expected, rel=1e-10)

    def test_student_t_matches_scipy_over_df_and_t(self):
        from scipy import stats

        from funcsvm.evaluation import student_t_two_sided

        for df in (1, 2, 3, 5, 9, 24, 99, 250, 1000):
            for t in np.concatenate([np.linspace(0.0, 100.0, 41), [1e-3, 1e3, 1e200]]):
                expected = 2.0 * stats.t.sf(t, df)
                assert student_t_two_sided(t, df) == pytest.approx(expected, rel=1e-10)
                assert student_t_two_sided(-t, df) == student_t_two_sided(t, df)

    def test_detects_a_real_gap_at_moderate_sample(self):
        rng = np.random.default_rng(15)
        a = rng.normal(0.07, 0.02, size=250)
        b = rng.normal(0.03, 0.02, size=250)
        assert paired_t_test(a, b) < 0.01

    def test_rejects_mismatched_or_short_input(self):
        with pytest.raises(UsageError):
            paired_t_test([0.1], [0.2])
        with pytest.raises(UsageError):
            paired_t_test([0.1, 0.2], [0.3])
