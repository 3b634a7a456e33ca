"""Acceptance suite.

Each test prints a single machine-greppable verdict line of the form
``ACCEPTANCE <n>: PASS|FAIL|SKIP — <summary>``.  Criteria 6 and 7 need
the benchmark data files under data/ and are skipped when absent.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from funcsvm import (
    BaseKernel,
    BasisSpec,
    CandidateGrid,
    DatasetDescriptor,
    FunctionalKernel,
    SampledFunction,
    SamplingGrid,
    Transform,
    generate_synthetic,
    load_dataset,
    load_model,
    norm,
    paired_t_test,
    project,
    reconstruct,
    run_repeated_splits,
    save_model,
    select,
    solve_dual,
    spline_derivative,
    train_svm,
)
from funcsvm.solver import decision_values, predict_batch

from conftest import fft_fourier_coefficients, qp_oracle, random_tiny_problem

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TECATOR_PATH = DATA_DIR / "tecator.csv"
SPEECH_PATH = DATA_DIR / "speech_yesno.csv"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # Verdict lines bypass capture so they show up in a plain `pytest -v` run.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)


def verdict(criterion, ok, summary):
    word = "PASS" if ok else "FAIL"
    _emit(f"\nACCEPTANCE {criterion}: {word} - {summary}")
    assert ok, f"criterion {criterion}: {summary}"


def skip(criterion, summary):
    _emit(f"\nACCEPTANCE {criterion}: SKIP - {summary}")
    pytest.skip(summary)


def test_acceptance_1_solver_matches_qp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_obj, worst_kkt = 0.0, 0.0
    cases = 25
    for case in range(cases):
        kernel_kind = "linear" if case % 2 == 0 else "gaussian"
        C = (0.1, 1.0, 10.0)[case % 3]
        K, y = random_tiny_problem(rng, kernel_kind)
        sol = solve_dual(K, y, C, tol=1e-6)
        _, ref = qp_oracle(K, y, C)
        rel = abs(sol.objective - ref) / max(abs(ref), 1.0)
        worst_obj = max(worst_obj, rel)
        worst_kkt = max(worst_kkt, sol.kkt_violation)
    elapsed = time.perf_counter() - start
    ok = worst_obj <= 1e-4 and worst_kkt <= 1e-3 and elapsed < 10.0
    verdict(1, ok,
            f"{cases} random problems, worst objective gap {worst_obj:.2e}, "
            f"worst KKT violation {worst_kkt:.2e}, {elapsed:.2f}s")


def test_acceptance_2_analytic_two_point_fixture():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([-1, 1])
    sol = solve_dual(K, y, C=1.0, tol=1e-10)
    alpha_err = float(np.max(np.abs(sol.alphas - 0.5)))
    ok = alpha_err < 1e-8 and abs(sol.bias) < 1e-8
    verdict(2, ok,
            f"alpha error {alpha_err:.2e}, bias {sol.bias:.2e} (tolerance 1e-8)")


def test_acceptance_3_projection_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    worst_fft = 0.0
    for n in (64, 128, 256):
        grid = SamplingGrid.uniform(0.0, 1.0, n)
        for _ in range(34 if n == 64 else 33):
            u = SampledFunction(grid, rng.standard_normal(n))
            full = norm(u)
            prev = 0.0
            for d in (4, 16, min(64, n)):
                spec = BasisSpec("haar_wavelet", d)
                energy = float(np.sum(project(u, spec).coefficients ** 2))
                assert energy <= full**2 + 1e-9  # Bessel
                assert energy >= prev - 1e-9  # monotone in d
                prev = energy
            # Parseval + round trip at full Haar dimension
            spec = BasisSpec("haar_wavelet", n)
            c = project(u, spec)
            assert float(np.sum(c.coefficients**2)) == pytest.approx(
                full**2, rel=1e-8
            )
            assert np.max(np.abs(reconstruct(c, grid).values - u.values)) < 1e-6
            # Direct quadrature vs an FFT of the weighted samples
            fspec = BasisSpec("fourier", 17)
            fast = fft_fourier_coefficients(u, 17)
            direct = project(u, fspec).coefficients
            worst_fft = max(worst_fft, float(np.max(np.abs(fast - direct))))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and worst_fft <= 1e-8 and elapsed < 5.0
    verdict(3, ok,
            f"{checked} curves at grid lengths 64/128/256, "
            f"worst FFT-vs-quadrature gap {worst_fft:.2e}, {elapsed:.2f}s")


def test_acceptance_4_transform_correctness():
    start = time.perf_counter()
    grid = SamplingGrid.uniform(0.0, 1.0, 100)
    t = grid.abscissae
    sq = spline_derivative(SampledFunction(grid, t**2), 2, 10)
    err_sq = float(np.max(np.abs(sq.values - 2.0)))
    sin_in = SampledFunction(grid, np.sin(2 * np.pi * t))
    sin_d2 = spline_derivative(sin_in, 2, 20)
    ref = -4 * np.pi**2 * np.sin(2 * np.pi * t)
    rel_sin = norm(sin_in.with_values(sin_d2.values - ref)) / norm(
        sin_in.with_values(ref)
    )
    elapsed = time.perf_counter() - start
    ok = err_sq < 1e-6 and rel_sin < 0.01 and elapsed < 2.0
    verdict(4, ok,
            f"d2(t^2) max error {err_sq:.2e} (< 1e-6), "
            f"d2(sin) relative L2 error {rel_sin:.4f} (< 1%), {elapsed:.2f}s")


def test_acceptance_5_consistency_trend():
    start = time.perf_counter()
    sizes = (50, 100, 200, 400)
    grid = CandidateGrid.from_axes(
        [FunctionalKernel(base=BaseKernel.gaussian(s)) for s in (0.5, 2.0)],
        [1.0, 10.0],
        dimensions=(3, 7),
    )
    means = {}
    for N in sizes:
        errs = []
        for seed in range(20):
            train = generate_synthetic(
                N, noise=0.8, label_noise=0.05, seed=1000 * seed + N
            )
            test = generate_synthetic(
                400, noise=0.8, label_noise=0.05, seed=1000 * seed + N + 7
            )
            result = select(grid, train, l=N // 2, policy="seeded_shuffle",
                            seed=seed)
            pred = predict_batch(result.model, test.functions)
            errs.append(float(np.mean(pred != test.labels)))
        means[N] = float(np.mean(errs))
    elapsed = time.perf_counter() - start
    trend_ok = all(
        means[b] <= means[a] + 0.02 for a, b in zip(sizes, sizes[1:])
    )
    final_ok = abs(means[400] - 0.05) <= 0.05
    ok = trend_ok and final_ok and elapsed < 600.0
    summary = ", ".join(f"N={N}: {means[N]:.3f}" for N in sizes)
    verdict(5, ok, f"mean test error over 20 seeds ({summary}), {elapsed:.1f}s")


def test_acceptance_6_tecator_reproduction():
    if not TECATOR_PATH.exists():
        skip(6, f"dataset {TECATOR_PATH} absent; criterion 5 is authoritative")
    start = time.perf_counter()
    data = load_dataset(DatasetDescriptor(str(TECATOR_PATH), format="tecator"))
    n = len(data)
    train_size, inner_l = 160, 120

    def protocol(kernels):
        grid = CandidateGrid.from_axes(kernels, [0.1, 1.0, 10.0, 100.0])
        return run_repeated_splits(
            data, grid, count=50, train_size=train_size, inner_l=inner_l, seed=0
        )

    sigmas = (0.005, 0.05, 0.5, 5.0)
    linear = protocol([FunctionalKernel()])
    gaussian_raw = protocol(
        [FunctionalKernel(base=BaseKernel.gaussian(s)) for s in sigmas]
    )
    deriv = Transform("derivative", order=2, spline_dimension=20)
    gaussian_d2 = protocol(
        [FunctionalKernel(transforms=(deriv,), base=BaseKernel.gaussian(s))
         for s in sigmas]
    )
    p = paired_t_test(gaussian_raw.per_run_errors, gaussian_d2.per_run_errors)
    elapsed = time.perf_counter() - start
    ok = (
        gaussian_d2.mean_error <= 0.045
        and gaussian_d2.mean_error < gaussian_raw.mean_error
        and 0.015 <= linear.mean_error <= 0.055
        and p < 0.01
        and elapsed < 1800.0
    )
    verdict(6, ok,
            f"N={n}, linear {linear.mean_error:.3f}, gaussian raw "
            f"{gaussian_raw.mean_error:.3f}, gaussian 2nd-deriv "
            f"{gaussian_d2.mean_error:.3f}, paired t p={p:.2e}, {elapsed:.0f}s")


def test_acceptance_7_speech_reproduction():
    if not SPEECH_PATH.exists():
        skip(7, f"dataset {SPEECH_PATH} absent")
    start = time.perf_counter()
    data = load_dataset(DatasetDescriptor(str(SPEECH_PATH)))
    n = len(data)
    folds = 10
    order = np.random.default_rng(0).permutation(n)

    def cv_error(grid):
        errors = []
        for k in range(folds):
            test_idx = order[k::folds]
            train_idx = np.setdiff1d(order, test_idx)
            train = data.subset(train_idx)
            test = data.subset(test_idx)
            result = select(
                grid, train, l=len(train) // 2, policy="seeded_shuffle", seed=k
            )
            pred = predict_batch(result.model, test.functions)
            errors.append(float(np.mean(pred != test.labels)))
        return float(np.mean(errors))

    projected = cv_error(CandidateGrid.from_axes(
        [FunctionalKernel(base=BaseKernel.gaussian(s)) for s in (0.1, 1.0, 10.0)],
        [1.0, 10.0, 100.0],
        dimensions=(5, 15, 50),
    ))
    direct_linear = cv_error(CandidateGrid.from_axes(
        [FunctionalKernel()], [0.1, 1.0, 10.0, 100.0],
    ))
    elapsed = time.perf_counter() - start
    ok = (
        projected <= 0.16
        and direct_linear - projected >= 0.10
        and elapsed < 7200.0
    )
    verdict(7, ok,
            f"N={n}, projected Gaussian CV error {projected:.3f} (<= 0.16), "
            f"direct linear {direct_linear:.3f}, gap "
            f"{direct_linear - projected:.3f} (>= 0.10), {elapsed:.0f}s")


def test_acceptance_8_evaluate_determinism(tmp_path):
    import json

    from funcsvm.cli import main

    data_path = tmp_path / "data.csv"
    assert main(["synth", "--out", str(data_path), "--n", "40",
                 "--noise", "0.4", "--seed", "5"]) == 0
    cfg = {
        "dataset": {"path": str(data_path)},
        "grid": {
            "dimensions": [3, 5],
            "kernels": [{"kind": "gaussian", "sigma": [0.5, 2.0]}],
            "C": [1.0, 10.0],
        },
        "protocol": {"kind": "repeated_splits", "count": 3,
                     "train_size": 24, "inner_l": 12},
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "evaluation_report.json").read_bytes()
    b2 = (out2 / "evaluation_report.json").read_bytes()
    verdict(8, b1 == b2,
            f"two evaluate runs, payloads {'identical' if b1 == b2 else 'differ'} "
            f"({len(b1)} bytes)")


def test_acceptance_9_persistence_bit_exact(tmp_path):
    train = generate_synthetic(60, noise=0.5, seed=1)
    kernel = FunctionalKernel(
        projection=BasisSpec("fourier", 7), base=BaseKernel.gaussian(1.0)
    )
    model = train_svm(kernel, train, C=5.0)
    path = tmp_path / "model.fsvm"
    save_model(model, str(path))
    loaded = load_model(str(path))
    probe = generate_synthetic(100, noise=1.0, seed=2)
    before = decision_values(model, probe.functions)
    after = decision_values(loaded, probe.functions)
    exact = bool(np.array_equal(before, after))
    verdict(9, exact,
            f"100-curve probe, decision values "
            f"{'bit-identical' if exact else 'diverged'} after round trip")
