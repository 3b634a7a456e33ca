import json
import os
from pathlib import Path

import numpy as np
import pytest

from funcsvm import (
    BaseKernel,
    BasisSpec,
    FunctionalKernel,
    SamplingGrid,
    Transform,
    generate_synthetic,
    load_model,
    save_model,
    train_svm,
)
from funcsvm.errors import IntegrityError
from funcsvm.kernels import prepare_batch
from funcsvm.persistence import MODEL_MAGIC, MODEL_VERSION, atomic_write_bytes, write_report
from funcsvm.solver import decision_values


def trained_model(kernel=None, n=30, seed=0):
    data = generate_synthetic(n, noise=0.4, seed=seed)
    kernel = kernel or FunctionalKernel(
        transforms=(Transform("center"),),
        projection=BasisSpec("fourier", 9),
        base=BaseKernel.gaussian(1.5),
    )
    return data, train_svm(kernel, data, C=5.0)


class TestModelRoundTrip:
    def test_decisions_are_bit_identical(self, tmp_path):
        data, model = trained_model()
        probe = generate_synthetic(100, noise=1.0, seed=99)
        path = str(tmp_path / "model.fsvm")
        save_model(model, path)
        loaded = load_model(path)
        before = decision_values(model, probe.functions)
        after = decision_values(loaded, probe.functions)
        assert np.array_equal(before, after)

    def test_kernel_and_metadata_survive(self, tmp_path):
        _, model = trained_model()
        path = str(tmp_path / "model.fsvm")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kernel == model.kernel
        assert loaded.bias == model.bias
        assert loaded.meta["C"] == model.meta["C"]
        assert np.array_equal(loaded.grid.abscissae, model.grid.abscissae)
        assert np.array_equal(loaded.support_coeffs, model.support_coeffs)

    def test_save_is_idempotent_bytes(self, tmp_path):
        _, model = trained_model()
        p1, p2 = str(tmp_path / "a.fsvm"), str(tmp_path / "b.fsvm")
        save_model(model, p1)
        save_model(model, p2)
        assert (tmp_path / "a.fsvm").read_bytes() == (tmp_path / "b.fsvm").read_bytes()

    def test_zero_support_model_round_trips(self, tmp_path):
        _, model = trained_model()
        model.support_vectors = model.support_vectors[:0]
        model.support_coeffs = model.support_coeffs[:0]
        model.bias = 0.75
        path = str(tmp_path / "empty.fsvm")
        save_model(model, path)
        loaded = load_model(path)
        probe = generate_synthetic(3, seed=1)
        assert np.all(decision_values(loaded, probe.functions) == 0.75)


# One kernel per kind of metric: quadrature weights, ones, and a B-spline Gram matrix.
KERNELS_BY_METRIC = {
    "raw": FunctionalKernel(base=BaseKernel.gaussian(2.0)),
    "fourier": FunctionalKernel(projection=BasisSpec("fourier", 7), base=BaseKernel.linear()),
    "haar": FunctionalKernel(
        transforms=(Transform("derivative", order=1, spline_dimension=12),
                    Transform("normalize")),
        projection=BasisSpec("haar_wavelet", 8),
        base=BaseKernel.polynomial(2),
    ),
    "bspline": FunctionalKernel(
        transforms=(Transform("center"),),
        projection=BasisSpec("bspline", 10),
        base=BaseKernel.gaussian(1.0),
    ),
}


def _saved_doc(model, path) -> dict:
    save_model(model, str(path))
    return json.loads(path.read_bytes()[5:].decode("utf-8"))


class TestModelFileContents:
    @pytest.mark.parametrize("name", list(KERNELS_BY_METRIC))
    def test_round_trip_rebuilds_the_metric(self, tmp_path, name):
        kernel = KERNELS_BY_METRIC[name]
        data, model = trained_model(kernel)
        probe = generate_synthetic(50, noise=1.0, seed=98)
        path = str(tmp_path / "model.fsvm")
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(decision_values(loaded, probe.functions),
                              decision_values(model, probe.functions))
        assert np.array_equal(loaded.support_vectors, model.support_vectors)
        rows = prepare_batch(kernel, data.functions)
        assert all((rows == v).all(axis=1).any() for v in loaded.support_vectors)

    def test_saved_document_holds_each_fact_once(self, tmp_path):
        _, model = trained_model(KERNELS_BY_METRIC["bspline"])
        doc = _saved_doc(model, tmp_path / "model.fsvm")
        assert set(doc) == {"kernel", "grid", "support_vectors", "support_coeffs",
                            "bias", "meta"}

    @pytest.mark.parametrize("name", list(KERNELS_BY_METRIC))
    def test_version_1_file_loads(self, name):
        # Version 1 also stored the metric, the labels and the alphas.
        _assert_predicts_as_written(f"v1_{name}")

    @pytest.mark.parametrize("name", list(KERNELS_BY_METRIC))
    def test_version_2_file_loads(self, name):
        _assert_predicts_as_written(f"v2_{name}")

    @pytest.mark.parametrize("name", list(KERNELS_BY_METRIC))
    def test_version_3_file_loads(self, name):
        # Its Fourier and Haar rows are coefficients as they are, which on
        # its uniform 32-point grid are L2 coordinates to rounding.
        _assert_predicts_as_written(f"v3_{name}")

    @pytest.mark.parametrize("name", list(KERNELS_BY_METRIC))
    def test_version_4_file_loads(self, name):
        _assert_predicts_as_written(f"v4_{name}")

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_haar_rows_off_a_power_of_two_grid_are_refused(self, tmp_path, version):
        # Formats 1-4 built Haar on 48 points from a padded system of 64,
        # whose span is not the one format 5 projects onto.
        doc = json.loads((DATA / "v3_haar.fsvm").read_bytes()[5:].decode("utf-8"))
        grid = SamplingGrid.uniform(0.0, 1.0, 48)
        doc["grid"] = {"abscissae": grid.abscissae.tolist(), "weights": grid.weights.tolist()}
        path = tmp_path / "old.fsvm"
        path.write_bytes(MODEL_MAGIC + bytes([version]) + json.dumps(doc).encode("utf-8"))
        with pytest.raises(IntegrityError, match="haar_wavelet rows of format .*, which are "
                                                 "not L2 coordinates on its grid: retrain"):
            load_model(str(path))
        path.write_bytes(MODEL_MAGIC + bytes([MODEL_VERSION]) + json.dumps(doc).encode("utf-8"))
        assert load_model(str(path)).grid == grid

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_fourier_rows_off_a_uniform_grid_are_refused(self, tmp_path, version):
        # Formats 1-3 took Fourier coefficients as L2 coordinates, which on
        # a non-uniform grid they are not: the model must be trained again.
        doc = json.loads((DATA / "v3_fourier.fsvm").read_bytes()[5:].decode("utf-8"))
        grid = SamplingGrid.from_abscissae(
            np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 32)))
        doc["grid"] = {"abscissae": grid.abscissae.tolist(), "weights": grid.weights.tolist()}
        path = tmp_path / "old.fsvm"
        path.write_bytes(MODEL_MAGIC + bytes([version]) + json.dumps(doc).encode("utf-8"))
        with pytest.raises(IntegrityError, match="not L2 coordinates on its grid: retrain"):
            load_model(str(path))
        path.write_bytes(MODEL_MAGIC + bytes([MODEL_VERSION]) + json.dumps(doc).encode("utf-8"))
        assert load_model(str(path)).grid == grid


DATA = Path(__file__).parent / "data"


def _assert_predicts_as_written(name):
    """The model file ``tests/data/<name>.fsvm``, written by an earlier
    format, gives the decision values its writer recorded (see
    ``tests/data/README.md``)."""
    blob = (DATA / f"{name}.fsvm").read_bytes()
    assert blob[4] == int(name[1]) < MODEL_VERSION
    want = np.array(json.loads((DATA / "decisions.json").read_text())[name])
    probe = generate_synthetic(12, noise=1.0, seed=97, grid_length=32)
    got = decision_values(load_model(str(DATA / f"{name}.fsvm")), probe.functions)
    assert np.array_equal(np.where(got >= 0.0, 1, -1), np.where(want >= 0.0, 1, -1))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestModelFileFormat:
    def test_header_layout(self, tmp_path):
        _, model = trained_model()
        path = str(tmp_path / "model.fsvm")
        save_model(model, path)
        blob = (tmp_path / "model.fsvm").read_bytes()
        assert blob[:4] == MODEL_MAGIC
        assert blob[4] == MODEL_VERSION
        json.loads(blob[5:].decode("utf-8"))  # body is valid JSON

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.fsvm"
        p.write_bytes(b"NOPE" + bytes([1]) + b"{}")
        with pytest.raises(IntegrityError):
            load_model(str(p))

    def test_unknown_version_rejected(self, tmp_path):
        p = tmp_path / "v9.fsvm"
        p.write_bytes(MODEL_MAGIC + bytes([9]) + b"{}")
        with pytest.raises(IntegrityError):
            load_model(str(p))

    def test_truncated_file_rejected(self, tmp_path):
        _, model = trained_model()
        path = tmp_path / "model.fsvm"
        save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_model(str(path))

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "short.fsvm"
        p.write_bytes(MODEL_MAGIC + bytes([MODEL_VERSION]) + b"{}")
        with pytest.raises(IntegrityError):
            load_model(str(p))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IntegrityError):
            load_model(str(tmp_path / "absent.fsvm"))


class TestReports:
    def test_payload_bytes_are_deterministic(self, tmp_path):
        payload = {"b": [1.0, 2.0], "a": {"z": 1, "y": 2}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(payload, str(p1))
        write_report(payload, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload

    def test_sidecar_holds_the_timestamp(self, tmp_path):
        p = tmp_path / "r.json"
        write_report({"x": 1}, str(p), meta={"note": "probe"})
        meta = json.loads((tmp_path / "r.json.meta.json").read_text())
        assert meta["note"] == "probe"
        assert meta["written_at"] > 0
        # timestamps never leak into the payload file
        assert "written_at" not in json.loads(p.read_text())


class TestAtomicWrite:
    def test_overwrite_leaves_only_the_target(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert os.listdir(tmp_path) == ["out.bin"]
        assert target.read_bytes() == b"new"

    def test_failed_final_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        rename = os.rename

        def failing(src, dst):
            if Path(dst) == target and not str(src).endswith(".old"):
                raise OSError("rename refused")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", failing)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_bytes(target, b"new")
        assert os.listdir(tmp_path) == ["out.bin"]
        assert target.read_bytes() == b"old"

    def test_a_directory_at_the_target_is_not_moved(self, tmp_path):
        target = tmp_path / "model.fsvm"
        target.mkdir()
        (target / "inside").write_bytes(b"kept")
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"new")
        assert sorted(os.listdir(tmp_path)) == ["model.fsvm"]
        assert (target / "inside").read_bytes() == b"kept"

    def test_new_files_get_the_mode_open_gives(self, tmp_path):
        # the umask decides, as for a file written with open()
        atomic_write_bytes(tmp_path / "a", b"x")
        (tmp_path / "b").write_bytes(b"x")
        assert (tmp_path / "a").stat().st_mode == (tmp_path / "b").stat().st_mode
