import numpy as np
import pytest

from funcsvm import LabeledDataset, SampledFunction, SamplingGrid


def project_box_hyperplane(v, y, C, tol=1e-14):
    """Euclidean projection onto {0 <= a <= C, y.a = 0} by bisection on the
    multiplier of the equality constraint."""
    def clipped(mu):
        return np.clip(v - mu * y, 0.0, C)

    def residual(mu):
        return float(np.dot(y, clipped(mu)))

    lo, hi = -1.0, 1.0
    while residual(lo) < 0:
        lo *= 2.0
    while residual(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return clipped((lo + hi) / 2.0)


def qp_oracle(K, y, C, iters=200_000):
    """Projected-gradient maximizer of sum(a) - 0.5 a'(yy'K)a over the dual
    feasible set.  Independent of the SMO path; used as the reference."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * K
    lipschitz = max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    step = 1.0 / lipschitz
    a = project_box_hyperplane(np.zeros(y.size), y, C)
    for _ in range(iters):
        grad = 1.0 - Q @ a
        a_new = project_box_hyperplane(a + step * grad, y, C)
        if np.max(np.abs(a_new - a)) < 1e-14:
            a = a_new
            break
        a = a_new
    objective = float(a.sum() - 0.5 * a @ Q @ a)
    return a, objective


def dual_objective(K, y, alphas):
    y = np.asarray(y, dtype=float)
    Q = (y[:, None] * y[None, :]) * np.asarray(K, dtype=float)
    return float(alphas.sum() - 0.5 * alphas @ Q @ alphas)


def fft_fourier_coefficients(u, d):
    """First ``d`` Fourier coefficients of ``u`` on a uniform closed grid,
    as an oracle independent of the library's projection: the trapezoid
    rule for ``<u, Psi_j>`` equals a length-(n-1) real FFT of the weighted
    samples plus the endpoint term.  Odd entries are cosines and even
    entries after the first are sines, of frequency 1, 2, ..."""
    a, b = u.grid.interval
    v = u.values * u.grid.weights
    F = np.fft.rfft(v[:-1])
    scale = 1.0 / np.sqrt(b - a)
    c = np.empty(d)
    c[0] = scale * (F[0].real + v[-1])
    c[1::2] = np.sqrt(2.0) * scale * (F[1 : d // 2 + 1].real + v[-1])
    c[2::2] = np.sqrt(2.0) * scale * -F[1 : (d - 1) // 2 + 1].imag
    return c


def random_tiny_problem(rng, kernel_kind="linear"):
    """Small strictly-feasible two-class problem with a PSD kernel matrix."""
    n = int(rng.integers(4, 9))
    X = rng.standard_normal((n, 3))
    y = np.empty(n, dtype=int)
    half = n // 2
    y[:half] = 1
    y[half:] = -1
    if kernel_kind == "linear":
        K = X @ X.T
    else:
        d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
        K = np.exp(-0.5 * d2)
    return K, y


@pytest.fixture
def unit_grid():
    return SamplingGrid.uniform(0.0, 1.0, 64)


def make_dataset(grid, rows, labels):
    return LabeledDataset.from_matrix(grid, np.asarray(rows, dtype=float), labels)


def sampled(grid, values):
    return SampledFunction(grid, np.asarray(values, dtype=float))
