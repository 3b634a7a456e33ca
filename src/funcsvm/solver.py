"""Soft-margin SVM dual solver (sequential minimal optimization).

Solves, for a precomputed kernel matrix K and labels y in {-1, +1},

    max_a  sum(a) - 0.5 * a' (yy' * K) a
    s.t.   sum(a * y) = 0,  0 <= a_i <= C,

by repeated analytic updates of a working pair chosen with second-order
information (Fan, Chen & Lin, JMLR 2005): ``i`` is the maximal violator
and ``j`` the partner whose pair step gains the most, and exposes the
resulting sign classifier.  A solve starts from zero.  Ties in
working-set selection go to the lowest index, which makes the solve
deterministic and permutation equivariant.

Pair steps find which alphas sit at 0, at C or in between early, and then
spend most of their updates tuning the free ones.  So every
:func:`guess_interval` updates, ``max(10, n // 10)`` on n points, the loop
guesses those sets from its iterate, and once a guess has held for two
checks it runs an active-set continuation from them (Scheinberg, JMLR 7,
2006).  Its point replaces the iterate only if it is feasible and passes
the loop's own stopping test.  The interval grows with n because a
continuation's cost grows faster than a pair update's: on small problems
an early guess pays, on large ones a continuation from sets that are not
yet right costs more than the updates it saves.

The loop keeps y*alpha and y*g (g the gradient of the dual objective) as
its state, updates the gradient from two rows of K, and keeps the box
constraints as additive penalty vectors of which a step changes two
entries.  Multiplying by y = +-1 is exact, so a solve is the same float
arithmetic as updating alpha and g directly, and is bitwise repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError, DegenerateTrainingError, GridMismatchError
from .functions import LabeledDataset, SampledFunction, SamplingGrid, check_value_matrix
from .kernels import (
    MAX_SQUARED_NORM, FunctionalKernel, apply_base, prepare_batch, prepare_rows,
)

__all__ = [
    "DualSolution", "SvmModel", "solve_dual", "train_svm", "model_from_solution",
    "decision_value", "predict",
]

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000  # SMO updates per solve, for train and select alike
EPS = float(np.finfo(float).eps)


@dataclass
class DualSolution:
    alphas: np.ndarray
    bias: float
    objective: float
    iterations: int
    kkt_violation: float


def guess_interval(n: int) -> int:
    """Pair updates between two guesses of the sets at 0, free and at C,
    on a problem of ``n`` points."""
    return max(10, n // 10)


def solve_dual(
    gram: np.ndarray,
    labels,
    C: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """Second-order SMO on the dual problem.

    Each step moves the pair (i, j) where ``i`` maximises ``y*g`` over the
    coordinates that can move up and ``j`` maximises ``b_t^2 / a_t`` over
    those that can move down, with ``b_t = (y*g)_i - (y*g)_t > 0`` and
    ``a_t = K_ii + K_tt - 2 K_it``: the pair whose unclipped step gains the
    most objective.  The solve starts from zero.

    Solves with the symmetric part ``(K + K') / 2`` of ``gram``, which is
    ``gram`` itself, bit for bit, when it is symmetric.  Raises
    :class:`DegenerateTrainingError` if only one class is present or ``C``
    or ``tol`` is not a positive finite number, :class:`DataError` if the
    kernel matrix holds a NaN or infinite entry (no violation could ever be
    compared with ``tol``) or one of at least a quarter of the float range
    (see :data:`~funcsvm.kernels.MAX_SQUARED_NORM`), and :class:`ConvergenceError` (carrying the
    best iterate) if the iteration budget runs out, or as soon as a
    continuation stops at a point whose gradient rounding cannot reach
    ``tol``.

    Every :func:`guess_interval` updates the solve guesses the sets at 0,
    free and at C.  A guess equal to the previous one, and not the last
    rejected, starts :func:`_active_set` from the iterate; its point
    replaces the iterate if :func:`_accept` passes it, and the loop's own
    test then ends the solve.  A point it turns away whose gradient
    rounding floor, about ``n * eps * max|K| * max|alpha|``, is not below
    ``tol`` ends the solve: no point near it can pass the loop's test, and
    pair steps, which move an alpha by at most ``violation / a_ij``, only
    creep towards it.  ``iterations`` counts pair updates only.
    """
    K = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = y.size
    if n < 2 or K.shape != (n, n):
        raise DegenerateTrainingError("need at least two labeled examples")
    peak = np.abs(K).max()
    if not np.isfinite(peak):
        raise DataError("kernel matrix has non-finite entries")
    # Below it, neither the symmetric part nor a pair's curvature overflows.
    if peak >= MAX_SQUARED_NORM:
        raise DataError("kernel matrix entries must be below a quarter of the float range")
    K = (K + K.T) / 2.0  # the loop reads row K[i] as the column K[:, i]
    if np.all(y > 0) or np.all(y < 0):
        raise DegenerateTrainingError("training data contains a single class")
    if not 0.0 < C < np.inf:
        raise DegenerateTrainingError("C must be positive and finite")
    if not 0.0 < tol < np.inf:
        raise DegenerateTrainingError("tol must be positive and finite")

    # The state is ya = y*alpha and yg = y*g, where g = 1 - (yy'K alpha) is
    # the gradient of the dual objective.  Scalars are Python floats: the
    # same IEEE doubles as numpy's, without the overhead of numpy scalars.
    C = float(C)
    u = np.zeros(n)
    # y_i * alpha_i ranges over [lo_i, hi_i]; it can still rise while below
    # hi_i - slack and fall while above lo_i + slack.
    pos = y > 0
    slack = 1e-12 * C
    lo = np.where(pos, 0.0, -C)
    hi = np.where(pos, C, 0.0)
    box = (lo, hi, lo + slack, hi - slack)
    yg, pen_up, pen_down = _state(K, y, u, box)
    ya = u.tolist()
    lo, hi, lo_in, hi_in = (v.tolist() for v in box)
    buf_up = np.empty(n)
    gain = np.empty(n)
    step = np.empty(n)
    diag = K.diagonal()
    # R_it = 1/sqrt(a_it); for b > 0, b * R_it orders the partners t as the
    # second-order gain b^2 / a_it does.
    R = 1.0 / np.sqrt(np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, 1e-12))
    diag = diag.tolist()
    interval = guess_interval(n)
    settled = None  # the sets guessed at the previous check
    rejected = None  # the sets of the last rejected continuation
    floor = 0.0  # rounding in y*g at the last point a continuation turned away

    it = 0
    violation = np.inf
    while it < max_iter:
        i = int(np.add(yg, pen_up, out=buf_up).argmax())
        # b_t = yg_i - yg_t over the down set, -inf elsewhere.
        b = np.subtract(buf_up.item(i), yg, out=gain)
        b -= pen_down
        violation = b.item(b.argmax())  # b.max(), without its Python wrapper
        if violation < tol:
            break
        j = int(np.multiply(b, R[i], out=step).argmax())
        quad = max(diag[i] + diag[j] - 2.0 * K.item(i, j), 1e-12)
        lam = min(hi[i] - ya[i], ya[j] - lo[j], b.item(j) / quad)
        ya[i] += lam
        ya[j] -= lam
        for k in (i, j):
            pen_up[k] = 0.0 if ya[k] < hi_in[k] else -np.inf
            pen_down[k] = 0.0 if ya[k] > lo_in[k] else np.inf
        np.subtract(K[j], K[i], out=step)
        step *= lam
        yg += step  # y times the update g += lam*y*(K[:, j] - K[:, i])
        it += 1
        if it % interval:
            continue
        u = np.array(ya)
        level = _levels(y * u, C)
        key = level.tobytes()
        if key != settled or key == rejected:
            settled = key
            continue
        # Overflow in the continuation only makes a point that _accept rejects.
        with np.errstate(all="ignore"):
            point = _active_set(K, y, u, level, C, tol, box)
            state = None if point is None else _accept(K, y, point, C, tol, box)
        if state is None:
            if point is not None:
                floor = n * EPS * float(np.abs(K).max()) * float(np.abs(point).max())
                if floor >= tol:
                    break
            rejected = key
            continue
        ya = point.tolist()
        yg, pen_up, pen_down, violation = state

    alpha = y * np.array(ya) + 0.0  # + 0.0: an alpha at zero is +0.0, not -0.0
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
    if floor >= tol:
        raise ConvergenceError(
            f"SMO cannot reach tolerance {tol}: the gradient's rounding floor "
            f"is {floor:.3e} at the point the finishing step reached",
            solution=solution,
        )
    if it >= max_iter and violation >= tol:
        raise ConvergenceError(
            f"SMO did not reach tolerance {tol} in {max_iter} updates "
            f"(violation {violation:.3e})",
            solution=solution,
        )
    return solution


def _levels(alpha: np.ndarray, C: float) -> np.ndarray:
    """0 where alpha is at 0, 1 where it is free, 2 where it is at C, with
    the 1e-8*C margin of :func:`_compute_bias`."""
    eps = 1e-8 * C
    return (alpha > eps).astype(np.int8) + (alpha >= C - eps)


def _active_set(K, y, u, level, C, tol, box):
    """An active-set continuation from ``u = y*alpha``: its point, clipped
    to the box, once the maximal violating pair is below ``tol``, or has
    both ends free (the free set's optimum, which only rounding keeps from
    ``tol``), or None if neither comes within 5n steps.

    It starts from the sets of ``level``, with the bound alphas put exactly
    on their bounds.  Each step takes :func:`_free_step` on the free set
    from the current point.  A Newton step that leaves the box, and every
    step along a null direction, goes as far as the box allows and puts the
    blocking coordinate on its bound.  A coordinate that would move by at
    most ``eps * C`` blocks nothing: such a move is rounding, and one that
    rounds to a denormal would block at the bound just left, each time it
    is freed.  A Newton step that stays inside is
    taken whole; if the point is not optimal, the worse end of the maximal
    violating pair is then freed (Scheinberg, JMLR 7, 2006).  With K
    positive semidefinite every step raises the objective or keeps it, and
    every full step sets ``1'u = 0`` afresh rather than accumulating it.
    """
    lo, hi, lo_in, hi_in = box
    u = np.where(level == 1, u, np.where(level == 2, y * C, 0.0))
    free = level == 1
    scale = max(float(np.abs(K.diagonal()).max()), np.finfo(float).tiny)
    g = y - K @ u
    for _ in range(5 * u.size):
        bias = None
        F = np.flatnonzero(free)
        if F.size:
            try:
                d, bias = _free_step(K.take(F, 0).take(F, 1), g[F], u.sum(), scale, tol)
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(d).all():
                return None
            # How far each free coordinate can go along d before its bound.
            room = np.divide(np.where(d > 0, hi[F], lo[F]) - u[F], d,
                             out=np.full(F.size, np.inf), where=np.abs(d) > EPS * C)
            k = int(room.argmin())
            t = room[k]
            if bias is None or t < 1.0:
                if not t < np.inf:
                    return None
                u[F] += t * d
                u[F[k]] = hi[F[k]] if d[k] > 0 else lo[F[k]]
                free[F[k]] = False
                g = y - K @ u
                continue
            u[F] += d
            g = y - K @ u
        up = np.where(u < hi_in, g, -np.inf)
        down = np.where(u > lo_in, g, np.inf)
        i, j = int(up.argmax()), int(down.argmin())
        # With both ends free, rounding, not a wrong set, keeps the free
        # set from its optimum.  A coordinate whose move blocked nothing may
        # end past its bound by rounding.
        if up[i] - down[j] < tol or (free[i] and free[j]):
            return np.clip(u, lo, hi)
        if bias is None:
            bias = (up[i] + down[j]) / 2.0
        # Free the bound end of the pair; of two bound ends, the farther from the bias.
        free[j if free[i] or (not free[j] and bias - down[j] > up[i] - bias) else i] = True
    return None


def _free_step(K_FF, g_F, total, scale, tol):
    """The step ``d`` of the free coordinates and the bias after it.

    Solves ``[K_FF s; s' 0] [d; b/s] = [g_F; -s*total]`` (``g_F`` the
    gradient on the free set, ``total = 1'u``; the border is scaled by
    ``s = max|diag K|`` so that the matrix is singular or not whatever
    the scale of K).  When ``K_FF`` passes a Cholesky factorization with
    no pivot below ``sqrt(eps)`` of its largest diagonal entry, the matrix
    is regular and one LU solve gives the Newton step.  Otherwise an
    eigendecomposition splits off the null space: if the gradient's part
    along it differs by ``tol`` or more between two free coordinates, the
    objective rises linearly along that part, which is returned as ``d``
    with the bias None; else the least-squares Newton step is returned.
    """
    f = g_F.size
    system = np.empty((f + 1, f + 1))
    system[:f, :f] = K_FF
    system[:f, f] = system[f, :f] = scale
    system[f, f] = 0.0
    rhs = np.empty(f + 1)
    rhs[:f] = g_F
    rhs[f] = -scale * total
    try:
        pivots = np.linalg.cholesky(K_FF).diagonal()
        regular = pivots.min() ** 2 > np.sqrt(np.finfo(float).eps) * K_FF.diagonal().max()
    except np.linalg.LinAlgError:
        regular = False
    if regular:
        z = np.linalg.solve(system, rhs)
        return z[:f], z[f] * scale
    eig, Q = np.linalg.eigh(system)
    null = np.abs(eig) <= np.abs(eig).max() * ((f + 1) * np.finfo(float).eps)
    along_null = (Q[:, null] @ (Q[:, null].T @ rhs))[:f]
    if along_null.max() - along_null.min() >= tol:
        return along_null, None
    z = Q[:, ~null] @ ((Q[:, ~null].T @ rhs) / eig[~null])
    return z[:f], z[f] * scale


def _state(K, y, u, box):
    """The loop state ``(yg, pen_up, pen_down)`` at ``u = y*alpha``.

    The box is kept as additive penalties, 0 where a coordinate can move
    up (down) and -inf (+inf) where it cannot, so that choosing ``i`` is
    one add and one argmax, and ``b`` is -inf wherever ``j`` cannot be.
    """
    _, _, lo_in, hi_in = box
    yg = y - K @ u
    pen_up = np.where(u < hi_in, 0.0, -np.inf)
    pen_down = np.where(u > lo_in, 0.0, np.inf)
    return yg, pen_up, pen_down


def _accept(K, y, u, C, tol, box):
    """The loop state ``(yg, pen_up, pen_down, violation)`` at ``u = y*alpha``
    if ``u`` is finite, in the box and on ``y'alpha = 0``, and its violation,
    computed as the loop computes it, is below ``tol``; else None."""
    lo, hi, _, _ = box
    if not (np.isfinite(u).all() and np.all(u >= lo) and np.all(u <= hi)):
        return None
    if abs(u.sum()) > 1e-8 * C * u.size:
        return None
    yg, pen_up, pen_down = _state(K, y, u, box)
    up = yg + pen_up
    b = up[up.argmax()] - yg - pen_down
    violation = b.item(b.argmax())
    if not violation < tol:
        return None
    return yg, pen_up, pen_down, violation


def _compute_bias(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, C: float) -> float:
    """Mean of y_i - f_i over free support vectors, else the midpoint of the
    interval of biases compatible with the KKT conditions."""
    f = K @ (y * alpha)
    eps = 1e-8 * C
    free = (alpha > eps) & (alpha < C - eps)
    if np.any(free):
        return float(np.mean(y[free] - f[free]))
    margin_bias = y - f  # b = margin_bias[i] puts i exactly on the margin
    at_zero = alpha <= eps
    lower = (at_zero & (y > 0)) | (~at_zero & (y < 0))
    lo = np.max(margin_bias[lower], initial=-np.inf)
    hi = np.min(margin_bias[~lower], initial=np.inf)
    if not np.isfinite(lo):
        return float(hi) if np.isfinite(hi) else 0.0
    if not np.isfinite(hi):
        return float(lo)
    return float((lo + hi) / 2.0)


@dataclass
class SvmModel:
    """Trained classifier: kernel spec, retained support data and bias.

    ``support_vectors`` holds the *prepared* rows of the support vectors,
    so prediction only has to prepare the query.
    """

    kernel: FunctionalKernel
    grid: SamplingGrid
    support_vectors: np.ndarray
    support_coeffs: np.ndarray  # alpha_i * y_i per support vector, alpha_i > 0
    bias: float
    meta: dict = field(default_factory=dict)

    @property
    def n_support(self) -> int:
        return int(self.support_coeffs.size)


def train_svm(
    kernel: FunctionalKernel,
    data: LabeledDataset,
    C: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    meta: dict | None = None,
) -> SvmModel:
    """Prepare the data under the kernel, solve the dual, keep the support set."""
    prep = prepare_rows(kernel, data.grid, data.value_matrix())
    # An overflow shows in the Gram matrix, which solve_dual checks.
    with np.errstate(all="ignore"):
        K = apply_base(kernel.base, prep, prep)
    sol = solve_dual(K, data.labels, C, tol=tol, max_iter=max_iter)
    return model_from_solution(kernel, prep, data, sol, C, tol, meta)


def support_mask(alphas: np.ndarray, C: float) -> np.ndarray:
    """The support vectors of a solve with box constraint ``C``."""
    return alphas > 1e-10 * C


def model_from_solution(
    kernel: FunctionalKernel,
    prep: np.ndarray,
    data: LabeledDataset,
    sol: DualSolution,
    C: float,
    tol: float,
    meta: dict | None = None,
) -> SvmModel:
    """Classifier from a solved dual: ``prep`` is ``data`` prepared under
    ``kernel``, and ``sol`` solves it with box constraint ``C``."""
    idx = np.flatnonzero(support_mask(sol.alphas, C))
    info = {"C": C, "tol": tol, "objective": sol.objective,
            "iterations": sol.iterations, "kkt_violation": sol.kkt_violation}
    if meta:
        info.update(meta)
    return SvmModel(
        kernel=kernel,
        grid=data.grid,
        support_vectors=prep[idx],
        support_coeffs=sol.alphas[idx] * data.labels[idx].astype(float),
        bias=sol.bias,
        meta=info,
    )


def decision_value(model: SvmModel, x: SampledFunction) -> float:
    """sum_i alpha_i y_i K(x_i, x) + b."""
    return float(decision_values(model, [x])[0])


def decision_values(model: SvmModel, curves) -> np.ndarray:
    """Vectorized decision values for a batch of curves: a sequence of
    curves on one grid, which :func:`~funcsvm.kernels.prepare_batch` stacks
    once, or an (N, n) value matrix of curves on the model's grid, one per
    row, such as :meth:`LabeledDataset.value_matrix` or
    :func:`~funcsvm.datasets.load_curves` gives.  Both go through
    :func:`~funcsvm.kernels.prepare_rows`, so a matrix and the list of its
    rows as curves give the same values, bit for bit.  A
    ``GridMismatchError`` when the curves are not on the model's grid, and
    a ``DataError`` when a matrix is not real numbers, not 2-d, not as wide
    as the grid or not finite, when a sequence holds an object that is not
    a curve, or when a decision value is not finite.  An empty batch,
    a sequence or a matrix of no rows, gives an empty array.
    """
    matrix = isinstance(curves, np.ndarray)
    batch = check_value_matrix(model.grid, curves) if matrix else list(curves)
    # prepare_batch checks that the others are curves on the first one's grid.
    if not matrix and batch:
        if not isinstance(batch[0], SampledFunction):
            raise DataError("a batch is a value matrix or a sequence of SampledFunction curves")
        if batch[0].grid != model.grid:
            raise GridMismatchError("the curves are not sampled on the model's grid")
    if model.n_support == 0 or not len(batch):
        return np.full(len(batch), model.bias)
    query = (prepare_rows(model.kernel, model.grid, batch) if matrix
             else prepare_batch(model.kernel, batch))
    # An overflow shows in the values, which are checked below.
    with np.errstate(all="ignore"):
        k = apply_base(model.kernel.base, query, model.support_vectors)
        values = k @ model.support_coeffs + model.bias
    if not np.isfinite(values).all():
        raise DataError("decision values are not all finite")
    return values


def predict(model: SvmModel, x: SampledFunction) -> int:
    """Sign decision rule; a decision value of exactly zero maps to +1."""
    return 1 if decision_value(model, x) >= 0.0 else -1


def predict_batch(model: SvmModel, curves) -> np.ndarray:
    """Sign decisions for a batch of curves (see :func:`decision_values`)."""
    vals = decision_values(model, curves)
    return np.where(vals >= 0.0, 1, -1)
