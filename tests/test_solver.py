import itertools
import warnings

import numpy as np
import pytest

from funcsvm import (
    BaseKernel,
    BasisSpec,
    FunctionalKernel,
    LabeledDataset,
    SampledFunction,
    SamplingGrid,
    Transform,
    solve_dual,
    train_svm,
)
from funcsvm import solver
from funcsvm.errors import (
    ConfigurationError,
    ConvergenceError,
    DataError,
    DegenerateTrainingError,
    GridMismatchError,
)
from funcsvm.evaluation import generate_synthetic
from funcsvm.kernels import apply_base, prepare_batch
from funcsvm.solver import (
    DualSolution,
    _active_set,
    _compute_bias,
    decision_values,
    guess_interval,
    predict_batch,
)

from conftest import dual_objective, qp_oracle, random_tiny_problem


class TestTwoPointFixture:
    # Scalar inputs -1 and +1 with labels matching sign, linear kernel, C=1.
    # The analytic optimum is alpha = (1/2, 1/2), b = 0, f(x) = x.
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([-1, 1])

    def test_alphas_and_bias(self):
        sol = solve_dual(self.K, self.y, C=1.0, tol=1e-8)
        assert np.max(np.abs(sol.alphas - 0.5)) < 1e-8
        assert abs(sol.bias) < 1e-8
        assert sol.objective == pytest.approx(0.5, abs=1e-8)

    def test_decision_is_identity(self):
        # f(x) = sum_i alpha_i y_i <x_i, x> + b = 0.5*(-1)(-x) + 0.5*(+1)(x) = x.
        sol = solve_dual(self.K, self.y, C=1.0, tol=1e-8)
        x_train = np.array([-1.0, 1.0])
        for x in (-1.0, 0.3, 0.7, 2.0):
            f = float(np.sum(sol.alphas * self.y * (x_train * x))) + sol.bias
            assert f == pytest.approx(x, abs=1e-8)


class TestAgainstQpOracle:
    @pytest.mark.parametrize("kernel_kind", ["linear", "gaussian"])
    @pytest.mark.parametrize("C", [0.5, 10.0])
    def test_objective_matches(self, kernel_kind, C):
        rng = np.random.default_rng(42 if kernel_kind == "linear" else 43)
        for _ in range(5):
            K, y = random_tiny_problem(rng, kernel_kind)
            sol = solve_dual(K, y, C, tol=1e-8)
            _, ref_obj = qp_oracle(K, y, C)
            scale = max(abs(ref_obj), 1.0)
            assert sol.objective >= ref_obj - 1e-6 * scale
            assert sol.objective <= ref_obj + 1e-6 * scale

    def test_alphas_match_when_solution_unique(self):
        # A strictly convex dual (positive definite K) has a unique maximizer.
        rng = np.random.default_rng(7)
        K, y = random_tiny_problem(rng, "gaussian")
        K = K + 1e-6 * np.eye(y.size)
        sol = solve_dual(K, y, C=5.0, tol=1e-10)
        ref, _ = qp_oracle(K, y, C=5.0)
        assert np.max(np.abs(sol.alphas - ref)) < 1e-4


class TestFeasibilityAndKkt:
    def test_solution_is_feasible(self):
        rng = np.random.default_rng(1)
        for C in (0.1, 1.0, 100.0):
            K, y = random_tiny_problem(rng)
            sol = solve_dual(K, y, C, tol=1e-8)
            assert np.all(sol.alphas >= 0.0)
            assert np.all(sol.alphas <= C)
            assert abs(np.dot(sol.alphas, y)) < 1e-8 * max(C, 1.0)

    def test_reported_violation_below_tol(self):
        rng = np.random.default_rng(2)
        K, y = random_tiny_problem(rng)
        sol = solve_dual(K, y, C=1.0, tol=1e-6)
        assert sol.kkt_violation < 1e-6

    def test_tiny_box_collapses_to_corner(self):
        # With C -> 0 every alpha is pinned at a box face; here the balanced
        # problem pushes all of them to the upper bound.
        K, y = random_tiny_problem(np.random.default_rng(3))
        C = 1e-9
        sol = solve_dual(K, y, C, tol=1e-15)
        n_pos = int(np.sum(y > 0))
        n_min = min(n_pos, y.size - n_pos)
        assert np.sum(sol.alphas) == pytest.approx(2 * n_min * C, rel=1e-6)

    def test_free_support_vectors_sit_on_the_margin(self):
        rng = np.random.default_rng(4)
        K, y = random_tiny_problem(rng, "gaussian")
        C = 10.0
        sol = solve_dual(K, y, C, tol=1e-10)
        f = K @ (y * sol.alphas) + sol.bias
        free = (sol.alphas > 1e-6 * C) & (sol.alphas < C * (1 - 1e-6))
        if np.any(free):
            assert np.max(np.abs(y[free] * f[free] - 1.0)) < 1e-4

    @pytest.mark.parametrize(
        "pattern", ["mixed", "all_zero", "all_at_c", "positives_at_c", "negatives_at_c"]
    )
    def test_bias_without_free_support_vectors_matches_a_loop(self, pattern):
        rng = np.random.default_rng(11)
        K, y = random_tiny_problem(rng, "gaussian")
        y = y.astype(float)
        C = 2.0
        alpha = {
            "mixed": rng.choice([0.0, C], size=y.size),
            "all_zero": np.zeros(y.size),
            "all_at_c": np.full(y.size, C),
            "positives_at_c": np.where(y > 0, C, 0.0),
            "negatives_at_c": np.where(y < 0, C, 0.0),
        }[pattern]
        # The interval of biases that satisfy the KKT conditions, one index at a time.
        f = K @ (y * alpha)
        lo, hi = -np.inf, np.inf
        for i in range(y.size):
            at_zero = alpha[i] <= 1e-8 * C
            if (at_zero and y[i] > 0) or (not at_zero and y[i] < 0):
                lo = max(lo, y[i] - f[i])
            else:
                hi = min(hi, y[i] - f[i])
        if not np.isfinite(lo):
            expected = float(hi) if np.isfinite(hi) else 0.0
        elif not np.isfinite(hi):
            expected = float(lo)
        else:
            expected = float((lo + hi) / 2.0)
        assert _compute_bias(K, y, alpha, C) == expected

    @pytest.mark.parametrize("C", [1.0, 3.0, 1e6])
    def test_levels_and_bias_share_one_margin(self, C):
        # An alpha of exactly 1e-8*C is at zero and one of C - 1e-8*C is at
        # C, for _levels and the bias alike; the next float inward is free.
        eps = 1e-8 * C
        edges = np.array([eps, np.nextafter(eps, C), np.nextafter(C - eps, 0.0), C - eps])
        np.testing.assert_array_equal(solver._levels(edges, C), [0, 1, 1, 2])
        # Point 1 is free at C/2, so the bias is y_1 - f_1 unless point 0 is free too.
        K, y = np.eye(2), np.array([1.0, -1.0])
        for a0, free in zip(edges, [False, True, True, False]):
            alpha = np.array([a0, C / 2])
            margins = y - K @ (y * alpha)
            want = float(np.mean(margins[[0, 1] if free else [1]]))
            assert _compute_bias(K, y, alpha, C) == want


class TestDegenerateInputs:
    def test_single_class_raises(self):
        K = np.eye(3)
        with pytest.raises(DegenerateTrainingError):
            solve_dual(K, [1, 1, 1], C=1.0)

    def test_single_example_raises(self):
        with pytest.raises(DegenerateTrainingError):
            solve_dual(np.eye(1), [1], C=1.0)

    def test_nonpositive_c_raises(self):
        K, y = random_tiny_problem(np.random.default_rng(5))
        with pytest.raises(DegenerateTrainingError):
            solve_dual(K, y, C=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gram_raises_before_iterating(self, bad):
        # A NaN violation compares false against tol both ways, so the loop
        # would spend its whole budget; the check must come first, which a
        # DataError (not a ConvergenceError or a result) shows.
        K, y = random_tiny_problem(np.random.default_rng(7))
        K = K.copy()
        K[1, 2] = K[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            solve_dual(K, y, C=1.0, max_iter=20_000)

    @pytest.mark.parametrize("C", [np.nan, np.inf])
    def test_non_finite_c_raises(self, C):
        K, y = random_tiny_problem(np.random.default_rng(5))
        with pytest.raises(DegenerateTrainingError, match="C must be positive and finite"):
            solve_dual(K, y, C=C)
        g = SamplingGrid.uniform(0.0, 1.0, 8)
        data = LabeledDataset.from_matrix(g, np.vstack([np.ones(8), -np.ones(8)]), [1, -1])
        with pytest.raises(DegenerateTrainingError, match="C must be positive and finite"):
            train_svm(FunctionalKernel(), data, C=C)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_tol_raises(self, tol):
        # A NaN tol compares false against every violation, so the loop would
        # spend its whole budget and return; zero or less can never be met.
        K, y = random_tiny_problem(np.random.default_rng(5))
        with pytest.raises(DegenerateTrainingError, match="tol must be positive and finite"):
            solve_dual(K, y, C=1.0, tol=tol, max_iter=2_000)

    def test_budget_exhaustion_carries_best_iterate(self):
        K, y = random_tiny_problem(np.random.default_rng(6), "gaussian")
        with pytest.raises(ConvergenceError) as info:
            solve_dual(K, y, C=100.0, tol=1e-12, max_iter=2)
        sol = info.value.solution
        assert sol.iterations == 2
        assert np.all(sol.alphas >= 0.0)
        assert info.value.exit_code == 3


class TestDeterminismAndEquivariance:
    def test_repeat_solve_is_bitwise_identical(self):
        K, y = random_tiny_problem(np.random.default_rng(8))
        a = solve_dual(K, y, C=1.0, tol=1e-8)
        b = solve_dual(K, y, C=1.0, tol=1e-8)
        assert np.array_equal(a.alphas, b.alphas)
        assert a.bias == b.bias

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        K, y = random_tiny_problem(rng, "gaussian")
        K = K + 1e-6 * np.eye(y.size)  # unique optimum
        perm = rng.permutation(y.size)
        sol = solve_dual(K, y, C=2.0, tol=1e-10)
        sol_p = solve_dual(K[np.ix_(perm, perm)], y[perm], C=2.0, tol=1e-10)
        assert np.max(np.abs(sol_p.alphas - sol.alphas[perm])) < 1e-6
        assert sol_p.bias == pytest.approx(sol.bias, abs=1e-6)


def _reference_solve_dual(K, y, C, tol, max_iter):
    """The first-order (maximal violating pair) SMO loop, kept verbatim
    (input checks aside) as an independent cross-check of the optimum.
    It reads columns of K, so it needs a symmetric K."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size

    alpha = np.zeros(n)
    # g = gradient of the dual objective: 1 - (yy'K a)_i
    g = np.ones(n)
    pos = y > 0
    # y_i * alpha_i ranges over [lo_i, hi_i]
    lo = np.where(pos, 0.0, -C)
    hi = np.where(pos, C, 0.0)
    slack = 1e-12 * C

    it = 0
    violation = np.inf
    while it < max_iter:
        ya = y * alpha
        yg = y * g
        up = ya < hi - slack
        down = ya > lo + slack
        yg_up = np.where(up, yg, -np.inf)
        yg_down = np.where(down, yg, np.inf)
        i = int(np.argmax(yg_up))
        j = int(np.argmin(yg_down))
        violation = yg_up[i] - yg_down[j]
        if violation < tol:
            break
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        lam = min(
            hi[i] - ya[i],
            ya[j] - lo[j],
            violation / quad,
        )
        alpha[i] += y[i] * lam
        alpha[j] -= y[j] * lam
        g += lam * y * (K[:, j] - K[:, i])
        it += 1

    np.clip(alpha, 0.0, C, out=alpha)
    objective = float(alpha.sum() - 0.5 * np.dot(y * alpha, K @ (y * alpha)))
    bias = _compute_bias(K, y, alpha, C)
    solution = DualSolution(
        alphas=alpha,
        bias=bias,
        objective=objective,
        iterations=it,
        kkt_violation=float(max(violation, 0.0)),
    )
    if it >= max_iter and violation >= tol:
        raise ConvergenceError("reference budget exhausted", solution=solution)
    return solution


def _reference_violation(K, y, u, lo, hi, slack):
    """The maximal pair violation at ``u = y*alpha``, and the gradient y*g."""
    yg = y - K @ u
    up = u < hi - slack
    down = u > lo + slack
    i = int(np.argmax(np.where(up, yg, -np.inf)))
    return np.where(down, yg[i] - yg, -np.inf).max(), yg


def _second_order_reference(K, y, C, tol, max_iter):
    """Plain second-order SMO: masks instead of penalty vectors, no buffers,
    each gain row computed when it is needed, and alpha and g as the state.
    It selects with the same expressions as ``solve_dual``, and finishes
    with the same active-set continuation under the same rule, so it is
    the reference for bit identity.  It reads columns of K, so it needs a
    symmetric K."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.size

    alpha = np.zeros(n)
    # g = gradient of the dual objective: 1 - (yy'K a)_i
    g = y * (y - K @ (y * alpha))
    pos = y > 0
    lo = np.where(pos, 0.0, -C)
    hi = np.where(pos, C, 0.0)
    slack = 1e-12 * C
    diag = K.diagonal()
    settled = None
    rejected = None

    it = 0
    violation = np.inf
    while it < max_iter:
        ya = y * alpha
        yg = y * g
        up = ya < hi - slack
        down = ya > lo + slack
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        b = np.where(down, yg[i] - yg, -np.inf)
        violation = b.max()
        if violation < tol:
            break
        # b^2 / a is largest where b / sqrt(a) is, for b > 0.
        j = int(np.argmax(b * (1.0 / np.sqrt(np.maximum(diag[i] + diag - 2.0 * K[i], 1e-12)))))
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        lam = min(hi[i] - ya[i], ya[j] - lo[j], (yg[i] - yg[j]) / quad)
        alpha[i] += y[i] * lam
        alpha[j] -= y[j] * lam
        g += lam * y * (K[:, j] - K[:, i])
        it += 1
        if it % guess_interval(n):
            continue
        eps = 1e-8 * C
        level = np.where(alpha >= C - eps, 2, np.where(alpha > eps, 1, 0))
        if (settled is None or not np.array_equal(level, settled)
                or (rejected is not None and np.array_equal(level, rejected))):
            settled = level
            continue
        box = (lo, hi, lo + slack, hi - slack)
        u = _active_set(K, y, y * alpha, level, C, tol, box)
        if (u is None or not np.isfinite(u).all() or np.any(u < lo) or np.any(u > hi)
                or abs(u.sum()) > 1e-8 * C * n):
            rejected = level
            continue
        finished_violation, finished_yg = _reference_violation(K, y, u, lo, hi, slack)
        if not finished_violation < tol:
            rejected = level
            continue
        alpha, g, violation = y * u, y * finished_yg, finished_violation

    alpha = alpha + 0.0
    np.clip(alpha, 0.0, C, out=alpha)
    objective = float(alpha.sum() - 0.5 * np.dot(y * alpha, K @ (y * alpha)))
    bias = _compute_bias(K, y, alpha, C)
    solution = DualSolution(
        alphas=alpha,
        bias=bias,
        objective=objective,
        iterations=it,
        kkt_violation=float(max(violation, 0.0)),
    )
    if it >= max_iter and violation >= tol:
        raise ConvergenceError("reference budget exhausted", solution=solution)
    return solution


def _seeded_problem(n, kind, seed):
    """An exactly symmetric Gram matrix on n points with both classes present.

    ``duplicated`` is a rank-deficient linear Gram matrix in which every
    point appears twice, so working-set selection meets exact ties."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1, -1)
    y[:2] = (1, -1)
    if kind == "duplicated":
        X = rng.standard_normal(((n + 1) // 2, 2))
        X = np.repeat(X, 2, axis=0)[:n]
        y = np.repeat(y[: (n + 1) // 2], 2)[:n]
        y[:2] = (1, -1)  # one duplicate pair with conflicting labels
    else:
        X = rng.standard_normal((n, 3))
    if kind == "gaussian":
        K = np.exp(-0.5 * np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
    else:
        K = X @ X.T
    return (K + K.T) / 2.0, y


def _assert_bitwise_equal(got, ref):
    assert np.array_equal(got.alphas, ref.alphas)
    assert got.alphas.tobytes() == ref.alphas.tobytes()
    assert got.bias == ref.bias
    assert got.objective == ref.objective
    assert got.iterations == ref.iterations
    assert got.kkt_violation == ref.kkt_violation


def _feasible(sol, y, C):
    return (np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= C)
            and abs(np.dot(sol.alphas, y)) < 1e-8 * max(C, 1.0) * y.size)


class TestBitIdentityWithReferenceLoop:
    @pytest.mark.parametrize("n", [2, 3, 17, 80, 240])
    @pytest.mark.parametrize("kind", ["gaussian", "linear", "duplicated"])
    @pytest.mark.parametrize("C", [0.1, 1.0, 100.0])
    def test_solution_is_bitwise_the_reference(self, n, kind, C):
        K, y = _seeded_problem(n, kind, seed=n)
        _assert_bitwise_equal(solve_dual(K, y, C), _second_order_reference(K, y, C, 1e-3, 10**6))

    def test_budget_exhaustion_carries_the_reference_iterate(self):
        K, y = _seeded_problem(80, "gaussian", seed=1)
        with pytest.raises(ConvergenceError) as ref:
            _second_order_reference(K, y, 100.0, 1e-3, 25)
        with pytest.raises(ConvergenceError) as got:
            solve_dual(K, y, 100.0, max_iter=25)
        assert got.value.solution.iterations == 25
        _assert_bitwise_equal(got.value.solution, ref.value.solution)

    def test_non_symmetric_gram_solves_as_its_symmetric_part(self):
        K, y = _seeded_problem(17, "gaussian", seed=3)
        skew = np.random.default_rng(4).standard_normal(K.shape) * 1e-3
        K_ns = K + (skew - skew.T)
        assert not np.array_equal(K_ns, K_ns.T)
        _assert_bitwise_equal(solve_dual(K_ns, y, 1.0),
                              solve_dual((K_ns + K_ns.T) / 2.0, y, 1.0))


class TestFirstOrderCrossCheck:
    @pytest.mark.parametrize("n", [2, 3, 17, 80, 240])
    @pytest.mark.parametrize("kind", ["gaussian", "linear", "duplicated"])
    @pytest.mark.parametrize("C", [0.1, 1.0, 100.0])
    def test_objective_agrees_with_the_first_order_loop(self, n, kind, C):
        K, y = _seeded_problem(n, kind, seed=n)
        got = solve_dual(K, y, C)
        ref = _reference_solve_dual(K, y, C, 1e-3, 10**6)
        assert _feasible(got, y, C) and _feasible(ref, y, C)
        assert got.objective == pytest.approx(ref.objective, rel=1e-5)

    def test_second_order_halves_the_iterations(self):
        K, y = _seeded_problem(80, "linear", seed=0)
        first = _reference_solve_dual(K, y, 100.0, 1e-3, 10**6).iterations
        assert solve_dual(K, y, 100.0).iterations <= first / 2


class TestFinishingSteps:
    """The active-set continuation that finishes ``solve_dual``."""

    @staticmethod
    def spy_on_accepted(monkeypatch):
        """Every point that ``_accept`` passes, as ``u = y*alpha``."""
        accepted = []
        real = solver._accept

        def spy(K, y, u, C, tol, box):
            state = real(K, y, u, C, tol, box)
            if state is not None:
                accepted.append(u.copy())
            return state

        monkeypatch.setattr(solver, "_accept", spy)
        return accepted

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("C", [1.0, 100.0])
    def test_low_rank_gram_converges(self, seed, C):
        # A rank-4 Gram matrix whose diagonal spans three decades.  Its
        # zero-curvature directions move at least six alphas at once, which
        # pair steps cannot follow: alone they stop at violation 2.2-25
        # after 100,000 updates.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 4)) * [300.0, 100.0, 30.0, 10.0]
        y = np.sign(X[:, 1] / 100 + X[:, 2] / 30 + 0.8 * rng.standard_normal(80))
        sol = solve_dual(X @ X.T, y, C, max_iter=100_000)
        assert sol.kkt_violation < 1e-3
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= C)
        assert abs(np.dot(y, sol.alphas)) <= 1e-8 * C * y.size

    @pytest.mark.parametrize("kind", ["gaussian", "linear", "duplicated"])
    def test_continuation_starts_only_from_settled_sets(self, monkeypatch, kind):
        # The first two continuations are turned away, so the pair steps go
        # on and the rule is met more than once in one solve.
        K, y = _seeded_problem(80, kind, seed=80)
        guesses, starts = [], []
        real_levels, real_active = solver._levels, solver._active_set

        def levels_spy(alpha, C):
            level = real_levels(alpha, C)
            guesses.append(level.tobytes())
            return level

        def active_spy(K_, y_, u, level, *rest):
            starts.append((len(guesses), level.tobytes()))
            return None if len(starts) < 3 else real_active(K_, y_, u, level, *rest)

        monkeypatch.setattr(solver, "_levels", levels_spy)
        monkeypatch.setattr(solver, "_active_set", active_spy)
        sol = solve_dual(K, y, 100.0)
        assert sol.kkt_violation < 1e-3 and len(starts) == 3
        keys = [key for _, key in starts]
        assert len(set(keys)) == len(keys)
        # Replay the rule over every check's guess: start where a guess
        # equals the previous one and is not the last rejected.
        expected, rejected = [], None
        for k in range(2, len(guesses) + 1):
            if guesses[k - 1] == guesses[k - 2] and guesses[k - 1] != rejected:
                expected.append((k, guesses[k - 1]))
                rejected = guesses[k - 1]
        assert starts == expected

    def test_singular_free_set_is_guarded(self):
        # Every point appears twice, so a free set that holds both copies of
        # one makes the bordered system singular.  The continuation starts
        # from the first check's iterate with both copies of its first free
        # point freed.
        rng = np.random.default_rng(1)
        X = np.repeat(rng.standard_normal((40, 3)), 2, axis=0)
        y = np.repeat(np.where(X[::2, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0), 2)
        K = np.exp(-0.5 * np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
        C, tol = 100.0, 1e-3
        lo, hi = np.where(y > 0, 0.0, -C), np.where(y > 0, C, 0.0)
        box = (lo, hi, lo + 1e-12 * C, hi - 1e-12 * C)
        sol = solve_dual(K, y, C, tol=tol)
        assert sol.kkt_violation < tol
        with pytest.raises(ConvergenceError) as first_check:
            solve_dual(K, y, C, tol=tol, max_iter=guess_interval(y.size))
        alpha = first_check.value.solution.alphas
        level = solver._levels(alpha, C)
        k = int(np.flatnonzero(level == 1)[0]) // 2
        level[2 * k : 2 * k + 2] = 1
        copies = np.bincount(np.flatnonzero(level == 1) // 2, minlength=40)
        assert np.any(copies == 2)
        u = solver._active_set(K, y, y * alpha, level, C, tol, box)
        assert u is not None and solver._accept(K, y, u, C, tol, box) is not None
        assert np.all(u >= lo) and np.all(u <= hi)
        assert abs(u.sum()) <= 1e-8 * C * y.size
        assert _reference_violation(K, y, u, lo, hi, 1e-12 * C)[0] < tol

    def test_huge_polynomial_gram_solves_without_warnings(self, monkeypatch):
        # (1 + <x, x'>)^400 with max <x, x> = 3.28 puts max|K| near 4e252:
        # finite, so nothing rejects it, and the finishing steps overflow.
        rng = np.random.default_rng(1)
        X = rng.standard_normal((80, 3))
        y = np.where(X[:, 0] + 0.3 * rng.standard_normal(80) > 0, 1, -1)
        X *= np.sqrt(3.28 / np.max(np.sum(X * X, axis=1)))
        K = apply_base(BaseKernel.polynomial(400), X, X)
        assert 1e252 < np.abs(K).max() < 1e253
        tries = []
        real = solver._active_set
        monkeypatch.setattr(solver, "_active_set", lambda *a: tries.append(1) or real(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_dual(K, y, 1.0)
        assert tries
        assert np.isfinite(sol.alphas).all() and np.isfinite(sol.bias)
        assert sol.kkt_violation < 1e-3

    def test_gram_past_its_rounding_floor_fails_fast(self):
        # A rank-5 linear Gram scaled to 1e306, the scale of the Fourier Gram
        # of curves sampled over [0, 1.5e308]: its optimum has alphas at C,
        # where rounding in y*g is about 4e291, and pair steps of about 1e-306
        # would spend the whole budget.  From 1e307 on, the largest eigenvalue
        # of the continuation's bordered system times its order overflows.
        for seed, scale in itertools.product((0, 1, 2), (1e306, 1e307, 3e307)):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((20, 5))
            y = np.where(rng.random(20) < 0.5, 1, -1)
            K = X @ X.T
            K *= scale / np.abs(K).max()
            with pytest.raises(ConvergenceError, match="rounding floor") as caught:
                solve_dual(K, y, 1.0, max_iter=20_000)
            sol = caught.value.solution
            assert sol.iterations <= 3 * guess_interval(y.size)
            assert np.isfinite(sol.alphas).all() and sol.kkt_violation >= 1e-3

    @pytest.mark.parametrize("scale", [6e307, 1e308])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gram_near_the_float_maximum_is_a_data_error(self, seed, scale):
        # Its symmetric part, or a pair's curvature K_ii + K_jj - 2 K_ij,
        # would overflow: the bound of prepared rows' squared norms holds.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((20, 5))
        y = np.where(rng.random(20) < 0.5, 1, -1)
        K = X @ X.T
        K *= scale / np.abs(K).max()
        assert np.isfinite(K).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="quarter of the float range"):
                solve_dual(K, y, 1.0, max_iter=20_000)

    def test_accept_rejects_a_point_off_the_hyperplane(self):
        # Moving one free alpha by 1e-5 breaks y'alpha = 0 by more than
        # 1e-8*C*n but moves the gradient by less than tol: only the
        # feasibility check can turn the point away.
        K, y = _seeded_problem(80, "gaussian", seed=80)
        y = y.astype(float)
        C, tol = 1.0, 1e-3
        lo, hi = np.where(y > 0, 0.0, -C), np.where(y > 0, C, 0.0)
        box = (lo, hi, lo + 1e-12 * C, hi - 1e-12 * C)
        u = y * solve_dual(K, y, C, tol=1e-10).alphas
        assert solver._accept(K, y, u, C, tol, box) is not None
        k = int(np.flatnonzero((u > lo + 1e-3) & (u < hi - 1e-3))[0])
        u[k] += 1e-5
        assert _reference_violation(K, y, u, lo, hi, 1e-12 * C)[0] < tol
        assert solver._accept(K, y, u, C, tol, box) is None

    def test_iterations_count_pair_updates_only(self, monkeypatch):
        K, y = _seeded_problem(80, "linear", seed=80)
        accepted = self.spy_on_accepted(monkeypatch)
        sol = solve_dual(K, y, 100.0)
        assert accepted
        assert sol.iterations % guess_interval(y.size) == 0


class TestObjectiveStructure:
    def test_objective_nondecreasing_in_c(self):
        # Growing the box enlarges the feasible set, so the optimum cannot drop.
        K, y = random_tiny_problem(np.random.default_rng(10))
        objs = [solve_dual(K, y, C, tol=1e-8).objective for C in (0.1, 1.0, 10.0)]
        assert objs[0] <= objs[1] + 1e-9
        assert objs[1] <= objs[2] + 1e-9

    def test_reported_objective_matches_recomputation(self):
        K, y = random_tiny_problem(np.random.default_rng(11))
        sol = solve_dual(K, y, C=1.0, tol=1e-8)
        assert sol.objective == pytest.approx(
            dual_objective(K, y, sol.alphas), rel=1e-12
        )

    def test_regularized_hinge_local_minimum(self):
        # Strong duality: the primal expansion f = sum_i beta_i K(x_i, .) + b
        # built from the dual solution minimizes
        #   mean hinge(y_i f_i) + lambda * |f|_K^2   with lambda = 1/(2 C N).
        rng = np.random.default_rng(12)
        K, y = random_tiny_problem(rng, "gaussian")
        K = K + 1e-8 * np.eye(y.size)
        C, n = 2.0, y.size
        lam = 1.0 / (2.0 * C * n)
        sol = solve_dual(K, y, C, tol=1e-10)
        beta = y * sol.alphas

        def primal(b_vec, bias):
            f = K @ b_vec + bias
            hinge = np.maximum(0.0, 1.0 - y * f)
            return float(np.mean(hinge) + lam * b_vec @ K @ b_vec)

        base = primal(beta, sol.bias)
        for _ in range(60):
            d = rng.standard_normal(n)
            db = float(rng.standard_normal())
            assert primal(beta + 1e-4 * d, sol.bias + 1e-4 * db) >= base - 1e-8


class TestTrainedModel:
    def make_data(self, n=16, seed=0):
        g = SamplingGrid.uniform(0.0, 1.0, 32)
        rng = np.random.default_rng(seed)
        shift = np.where(np.arange(n) < n // 2, 1.0, -1.0)
        rows = shift[:, None] + 0.3 * rng.standard_normal((n, 32))
        labels = np.where(shift > 0, 1, -1)
        return LabeledDataset.from_matrix(g, rows, labels)

    def test_separable_data_classified_perfectly(self):
        data = self.make_data()
        model = train_svm(FunctionalKernel(base=BaseKernel.gaussian(1.0)), data, C=10.0)
        preds = predict_batch(model, data.functions)
        assert np.array_equal(preds, data.labels)

    def test_decision_matches_explicit_expansion(self):
        data = self.make_data(seed=1)
        kernel = FunctionalKernel(base=BaseKernel.gaussian(1.0))
        model = train_svm(kernel, data, C=5.0, tol=1e-8)

        x = SampledFunction(data.grid, np.cos(3 * data.grid.abscissae))
        prep = prepare_batch(kernel, [*data.functions, x])
        K = apply_base(kernel.base, prep, prep)
        sol = solve_dual(K[:-1, :-1], data.labels, C=5.0, tol=1e-8)
        explicit = sum(
            float(sol.alphas[i]) * float(data.labels[i]) * K[i, -1]
            for i in range(len(data))
        ) + sol.bias
        assert decision_values(model, [x])[0] == pytest.approx(explicit, abs=1e-6)

    def test_support_set_is_pruned(self):
        data = self.make_data(n=40, seed=2)
        model = train_svm(FunctionalKernel(base=BaseKernel.gaussian(2.0)), data, C=1.0)
        assert 0 < model.n_support <= len(data)
        assert np.all(model.support_coeffs != 0.0)

    def test_sign_zero_maps_to_plus_one(self):
        data = self.make_data(seed=3)
        model = train_svm(FunctionalKernel(), data, C=1.0)
        model.support_coeffs = np.zeros_like(model.support_coeffs)
        model.bias = 0.0
        assert predict_batch(model, data.functions[:1])[0] == 1

    def test_empty_support_predicts_from_bias(self):
        data = self.make_data(seed=4)
        model = train_svm(FunctionalKernel(), data, C=1.0)
        model.support_vectors = model.support_vectors[:0]
        model.support_coeffs = model.support_coeffs[:0]
        model.bias = -0.25
        vals = decision_values(model, data.functions[:3])
        assert np.all(vals == -0.25)
        assert predict_batch(model, data.functions[:1])[0] == -1

    @pytest.mark.parametrize("kernel", [
        FunctionalKernel(base=BaseKernel.gaussian(1.0)),
        FunctionalKernel(transforms=(Transform("normalize"),), projection=BasisSpec("fourier", 5),
                         base=BaseKernel.polynomial(2)),
        FunctionalKernel(transforms=(Transform("derivative", order=2, spline_dimension=10),
                                     Transform("normalize")),
                         projection=BasisSpec("bspline", 8), base=BaseKernel.gaussian(0.5)),
    ], ids=["raw-gaussian", "normalize-fourier", "derivative-bspline"])
    def test_a_matrix_and_its_curves_give_the_same_decisions(self, kernel):
        data = self.make_data(n=24, seed=5)
        model = train_svm(kernel, data, C=10.0)
        queries = self.make_data(n=10, seed=6)
        by_matrix = decision_values(model, queries.value_matrix())
        assert by_matrix.tobytes() == decision_values(model, queries.functions).tobytes()
        assert by_matrix.tobytes() == decision_values(model, list(queries.functions)).tobytes()
        assert np.array_equal(predict_batch(model, queries.value_matrix()),
                              predict_batch(model, queries.functions))

    @pytest.mark.parametrize("rows", [np.zeros((3, 31)), np.zeros(32), np.full((3, 32), np.nan)],
                             ids=["narrow", "1-d", "nan"])
    def test_a_matrix_off_the_grid_or_not_finite_is_a_data_error(self, rows):
        model = train_svm(FunctionalKernel(), self.make_data(seed=7), C=1.0)
        with pytest.raises(DataError):
            decision_values(model, rows)

    @pytest.mark.parametrize("batch", [[], (), np.empty((0, 32))],
                             ids=["list", "tuple", "matrix"])
    def test_an_empty_batch_scores_as_an_empty_array(self, batch):
        model = train_svm(FunctionalKernel(transforms=(Transform("normalize"),)),
                          self.make_data(seed=8), C=1.0)
        values = decision_values(model, batch)
        assert values.shape == (0,) and values.dtype == float
        assert predict_batch(model, batch).shape == (0,)

    @pytest.mark.parametrize("batch", [
        [np.zeros(32)], "curves", [None], np.full((3, 32), 1 + 0j), np.full((3, 32), "0.5"),
        np.full((3, 32), 0.5, dtype=object),
    ], ids=["list-of-arrays", "string", "list-of-none", "complex-matrix", "string-matrix",
            "object-matrix"])
    def test_a_batch_that_is_not_curves_is_a_data_error(self, batch):
        model = train_svm(FunctionalKernel(), self.make_data(seed=9), C=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (decision_values, predict_batch):
                with pytest.raises(DataError):
                    call(model, batch)

    def test_an_overflowing_gram_is_a_data_error_without_a_warning(self):
        data = self.make_data(seed=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                train_svm(FunctionalKernel(base=BaseKernel.polynomial(3000)), data, C=1.0)

    def test_an_empty_sequence_still_cannot_be_prepared(self):
        kernel = FunctionalKernel()
        with pytest.raises(ConfigurationError, match="empty batch"):
            prepare_batch(kernel, [])

    def test_curves_off_the_models_grid_are_a_grid_mismatch(self):
        # Same length, another span: prepared on their own grid, these
        # curves scored -0.482, 0.689, 0.693 where the model's grid gives
        # -1.0, 1.0, 1.003.
        data = generate_synthetic(20, grid_length=32, seed=1)
        model = train_svm(FunctionalKernel(base=BaseKernel.gaussian(1.0)), data, C=10.0)
        off = SamplingGrid.uniform(0.0, 5.0, 32)
        curves = [SampledFunction(off, f.values) for f in data.functions[:3]]
        for call in (decision_values, predict_batch):
            for batch in (curves, curves[:1]):
                with pytest.raises(GridMismatchError):
                    call(model, batch)
        same = [SampledFunction(data.grid, f.values) for f in data.functions[:3]]
        assert np.array_equal(decision_values(model, same),
                              decision_values(model, data.functions[:3]))
