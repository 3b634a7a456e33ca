import ast
import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcsvm import (
    DatasetDescriptor,
    load_dataset,
    load_model,
)
from funcsvm.cli import main
from funcsvm.config import parse_config
from funcsvm.persistence import MODEL_VERSION
from funcsvm.solver import decision_values


def write_config(tmp_path, data_path, name="config.json", **extra):
    doc = {
        "dataset": {"path": str(data_path)},
        "grid": {
            "dimensions": [3, 5],
            "kernels": [{"kind": "gaussian", "sigma": [0.5, 2.0]}],
            "C": [1.0, 10.0],
        },
        "split": {"policy": "first_l", "l": 20},
        "seed": 0,
    }
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    rc = main(["synth", "--out", str(path), "--n", "40",
               "--noise", "0.3", "--seed", "7"])
    assert rc == 0
    return path


class TestSynth:
    def test_output_loads_back(self, synth_csv):
        data = load_dataset(DatasetDescriptor(str(synth_csv)))
        assert len(data) == 40
        assert set(np.unique(data.labels)) <= {-1, 1}

    def test_seeded_repeatability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert main(["synth", "--out", str(p), "--n", "10", "--seed", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSelectPredictPipeline:
    def test_end_to_end_matches_the_api(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("selected: d=")

        model_path = out / "model.fsvm"
        report = json.loads((out / "selection_report.json").read_text())
        assert report["split"] == {"train": 20, "validation": 20, "warnings": []}
        assert len(report["table"]) == 8  # 2 dims x 2 sigmas x 2 Cs

        pred_out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path),
                     "--data", str(synth_csv), "--out", str(pred_out)]) == 0
        lines = pred_out.read_text().strip().splitlines()
        assert lines[0] == "label,decision"
        assert len(lines) == 41

        # Independent route: load the model through the API and compare.
        model = load_model(str(model_path))
        data = load_dataset(DatasetDescriptor(str(synth_csv)))
        values = decision_values(model, data.functions)
        for line, v in zip(lines[1:], values):
            label, decision = line.split(",")
            assert float(decision) == v
            assert int(label) == (1 if v >= 0 else -1)

    def test_report_rows_carry_the_solver_facts(self, tmp_path, synth_csv):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "selection_report.json").read_text())
        for row in report["table"]:
            assert isinstance(row["iterations"], int) and row["n_support"] > 0
            assert row["kkt_violation"] < 1e-3 and row["budget_exhausted"] is False
        assert sum(row["iterations"] for row in report["table"]) > 0

    def test_predict_to_stdout(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(out / "model.fsvm"),
                     "--data", str(synth_csv)]) == 0
        assert capsys.readouterr().out.startswith("label,decision\n")

    def test_grid_mismatch_exits_2(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0\n")
        rc = main(["predict", "--model", str(out / "model.fsvm"),
                   "--data", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("FSVM-ERROR code=data msg=")

    def test_non_numeric_cell_exits_2_with_line_number(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = synth_csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "abc"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n")
        rc = main(["predict", "--model", str(out / "model.fsvm"), "--data", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=data msg=line 3:")


def _truncate_coeffs(doc):
    doc["support_coeffs"] = doc["support_coeffs"][:-1]
    return doc


def _widen_vectors(doc):
    doc["support_vectors"] = [row + [0.0] for row in doc["support_vectors"]]
    return doc


def _unknown_kernel_kind(doc):
    doc["kernel"]["base"]["kind"] = "sigmoid"
    return doc


def _as_bspline(doc, spline_degree=3, dimension=None):
    """The document with a B-spline projection and zero support vectors of
    the matching width."""
    proj = doc["kernel"]["projection"]
    proj["family"] = "bspline"
    proj["spline_degree"] = spline_degree
    if dimension is not None:
        proj["dimension"] = dimension
    doc["support_vectors"] = [[0.0] * proj["dimension"] for _ in doc["support_vectors"]]
    return doc


def _gap_abscissae(doc):
    # All samples but the last in [0, 0.1]: three of the eight basis functions
    # on [0, 1] have no sample where they are nonzero.
    n = len(doc["grid"]["abscissae"])
    doc["grid"]["abscissae"] = np.linspace(0.0, 0.1, n - 1).tolist() + [1.0]
    return _as_bspline(doc, dimension=8)


def _infinite_weight(doc):
    doc["grid"]["weights"][0] = float("inf")  # what JSON 1e400 and Infinity read as
    return doc


def _as_raw(doc):
    """The document without a projection, with support vectors of the
    grid's length."""
    doc["kernel"]["projection"] = None
    n = len(doc["grid"]["abscissae"])
    doc["support_vectors"] = [[0.1] * n for _ in doc["support_vectors"]]
    return doc


def _base_kernel(doc, **base):
    doc["kernel"]["base"] = base
    return doc


def _wider_than_grid(doc):
    # A Fourier projection of two more functions than the grid has points.
    width = len(doc["grid"]["abscissae"]) + 2
    doc["kernel"]["projection"]["dimension"] = width
    doc["support_vectors"] = [[0.1] * width for _ in doc["support_vectors"]]
    return doc


def _derivative(doc, order=2, spline_dimension=10):
    doc["kernel"]["transforms"] = [
        {"kind": "derivative", "order": order, "spline_dimension": spline_dimension}]
    return doc


def _two_derivatives(doc):
    doc["kernel"]["transforms"] = [
        {"kind": "derivative", "order": 2, "spline_dimension": 10}, {"kind": "normalize"},
        {"kind": "derivative", "order": 1, "spline_dimension": 10}]
    return doc


def _huge_coefficients(doc):
    # Every kernel value is near 1, so the decisions sum to about -N * 1e308.
    doc = _base_kernel(_as_raw(doc), kind="polynomial", degree=2)
    doc["support_coeffs"] = [-1e308] * len(doc["support_coeffs"])
    return doc


def _huge_weights(doc):
    doc["grid"]["weights"] = [1e308] * len(doc["grid"]["weights"])
    return doc


class TestCorruptModelFile:
    """A model file that parses as JSON but does not describe a model, or
    whose decisions overflow, exits 2 with one data error, never a traceback,
    a usage error or a warning."""

    @pytest.mark.parametrize("mutate", [
        _truncate_coeffs,
        _widen_vectors,
        lambda doc: [doc],
        _unknown_kernel_kind,
        lambda doc: _as_bspline(doc, spline_degree=2.5),
        lambda doc: _as_bspline(doc, spline_degree=-1),
        _gap_abscissae,
        _infinite_weight,
        lambda doc: _infinite_weight(_as_raw(doc)),
        _wider_than_grid,
        lambda doc: _base_kernel(doc, kind="gaussian", sigma=float("nan")),
        lambda doc: _base_kernel(doc, kind="polynomial", degree=2.5),
        lambda doc: _base_kernel(doc, kind="polynomial", degree=True),
        lambda doc: _base_kernel(doc, kind="polynomial", degree=10**400),
        lambda doc: _derivative(doc, spline_dimension=10.0),
        lambda doc: _derivative(doc, order=2.0),
        lambda doc: _derivative(doc, order=True),
        lambda doc: _derivative(doc, spline_dimension=len(doc["grid"]["abscissae"]) + 1),
        _two_derivatives,
        _huge_coefficients,
        _huge_weights,
    ], ids=["truncated-coeffs", "wrong-vector-width", "json-list", "unknown-kernel-kind",
            "bspline-degree-2.5", "bspline-degree-negative", "bspline-gap-grid",
            "fourier-infinite-weight", "raw-infinite-weight", "projection-wider-than-grid",
            "sigma-NaN", "polynomial-degree-2.5", "polynomial-degree-true",
            "polynomial-degree-past-the-float-range",
            "derivative-dimension-10.0", "derivative-order-2.0", "derivative-order-true",
            "derivative-wider-than-grid", "two-derivatives", "raw-polynomial-coeffs-1e308",
            "fourier-weights-1e308"])
    def test_predict_exits_2_with_a_data_error(self, tmp_path, synth_csv, capsys, mutate):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        model_path = out / "model.fsvm"
        blob = model_path.read_bytes()
        doc = mutate(json.loads(blob[5:].decode("utf-8")))
        model_path.write_bytes(blob[:5] + json.dumps(doc).encode("utf-8"))
        rc = main(["predict", "--model", str(model_path), "--data", str(synth_csv)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=data msg=")


_FUZZ_VALUES = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400,
                True, False, "x", None, []]


def _node_paths(node, prefix=()):
    """Paths to every node below ``node``; of a list, to its first and last
    entries only."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({0, len(node) - 1}) if node else []
    else:
        return []
    paths = []
    for key in keys:
        paths.append(prefix + (key,))
        paths.extend(_node_paths(node[key], prefix + (key,)))
    return paths


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory):
    """The documents of three v3 model files, and a CSV of 20 curves on
    their grid."""
    from funcsvm import (BaseKernel, BasisSpec, FunctionalKernel, Transform,
                         generate_synthetic, save_model, train_svm, write_csv)

    directory = tmp_path_factory.mktemp("fuzz")
    data = generate_synthetic(20, noise=0.3, grid_length=32, seed=5)
    kernels = {
        "fourier-gaussian": FunctionalKernel(
            projection=BasisSpec("fourier", 5), base=BaseKernel.gaussian(1.0)),
        "raw-polynomial": FunctionalKernel(base=BaseKernel.polynomial(2)),
        "bspline-derivative-normalize": FunctionalKernel(
            transforms=(Transform("derivative", order=1, spline_dimension=10),
                        Transform("normalize")),
            projection=BasisSpec("bspline", 8)),
    }
    docs = {}
    for name, kernel in kernels.items():
        path = directory / f"{name}.fsvm"
        save_model(train_svm(kernel, data, 10.0), str(path))
        docs[name] = json.loads(path.read_bytes()[5:])
    curves = directory / "curves.csv"
    write_csv(data, str(curves))
    return directory, docs, curves


class TestModelFileFuzz:
    """One field of a valid model file set to an odd value: ``predict``
    exits 0 with finite decisions, or 2 with one data error."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_predict_exits_0_or_2(self, fuzz_models, data):
        directory, docs, curves = fuzz_models
        doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)), label="model")])
        path = data.draw(st.sampled_from(_node_paths(doc)), label="field")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(_FUZZ_VALUES), label="value")
        model = directory / "mutated.fsvm"
        model.unlink(missing_ok=True)
        model.write_bytes(b"FSVM" + bytes([MODEL_VERSION]) + json.dumps(doc).encode())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["predict", "--model", str(model), "--data", str(curves)])
        lines = err.getvalue().splitlines()
        if rc == 0:
            decisions = [float(row.split(",")[1]) for row in out.getvalue().splitlines()[1:]]
            assert lines == [] and len(decisions) == 20 and np.isfinite(decisions).all()
        else:
            assert rc == 2 and len(lines) == 1
            assert lines[0].startswith("FSVM-ERROR code=data msg=")


class TestBsplineFaults:
    def test_gap_grid_fails_every_candidate_with_one_data_error(self, tmp_path, capsys):
        t = np.concatenate([np.linspace(0.0, 0.1, 30), [1.0]])
        rng = np.random.default_rng(0)
        rows = [",".join(repr(float(x)) for x in t) + ",label"]
        for i in range(20):
            label = 1 if i % 2 else -1
            values = np.sin(2.0 * np.pi * (2 + i % 2) * t) + 0.1 * rng.standard_normal(t.size)
            rows.append(",".join(repr(float(v)) for v in values) + f",{label}")
        data = tmp_path / "gap.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path, data,
            grid={"basis": "bspline", "dimensions": [8],
                  "kernels": [{"kind": "gaussian", "sigma": 1.0}], "C": [1.0]},
            split={"policy": "first_l", "l": 10},
        )
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=data msg=")
        assert "dimension 8" in err[0] and "31 points" in err[0]

    @pytest.mark.parametrize("degree", [2.5, -1, "3"])
    def test_invalid_config_spline_degree_is_a_usage_error(
        self, tmp_path, synth_csv, capsys, degree
    ):
        cfg = write_config(
            tmp_path, synth_csv,
            grid={"basis": "bspline", "spline_degree": degree, "dimensions": [8],
                  "kernels": [{"kind": "gaussian", "sigma": 1.0}], "C": [1.0]},
        )
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")


def _non_utf8(lines):
    return ("\n".join(lines[:3]) + "\n").encode() + b"\xff\xfe,1\n"


def _long_cell(lines):
    width = len(lines[1].split(","))
    row = ["1" * 140_000] + ["0.5"] * (width - 2) + ["1"]
    return ("\n".join(lines[:3] + [",".join(row)]) + "\n").encode()


class TestUnreadableCsv:
    """A CSV that cannot be decoded or split is a data error, not a traceback."""

    @pytest.mark.parametrize("make", [_non_utf8, _long_cell])
    @pytest.mark.parametrize("command", ["select", "predict"])
    def test_exits_2_with_one_error_line(self, tmp_path, synth_csv, capsys, make, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(make(synth_csv.read_text().splitlines()))
        if command == "select":
            argv = ["select", "--config", write_config(tmp_path, bad),
                    "--out", str(tmp_path / "bad_run")]
        else:
            out = tmp_path / "run"
            assert main(["select", "--config", write_config(tmp_path, synth_csv),
                         "--out", str(out)]) == 0
            argv = ["predict", "--model", str(out / "model.fsvm"), "--data", str(bad)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=data msg=")


class TestPredictHeader:
    def test_header_on_another_grid_exits_2(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "run"
        assert main(["select", "--config", write_config(tmp_path, synth_csv),
                     "--out", str(out)]) == 0
        lines = synth_csv.read_text().splitlines()
        t = [float(x) for x in lines[0].split(",")[:-1]]
        shifted = tmp_path / "wide.csv"
        shifted.write_text("\n".join([",".join(repr(10.0 * x) for x in t) + ",label"]
                                     + lines[1:]) + "\n")
        capsys.readouterr()
        rc = main(["predict", "--model", str(out / "model.fsvm"), "--data", str(shifted)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=data msg=line 1: header abscissae differ")

    def test_rows_without_a_header_are_not_checked(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "run"
        assert main(["select", "--config", write_config(tmp_path, synth_csv),
                     "--out", str(out)]) == 0
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(synth_csv.read_text().splitlines()[1:]) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(out / "model.fsvm"), "--data", str(bare)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 41


class TestCsvHeaderAbscissae:
    """Header abscissae that are not finite, not strictly increasing or
    spread past the float range are bad data: one data error naming the
    header's line, and no warning."""

    @pytest.mark.parametrize("header, msg", [
        ("0.0,1.798e+308,1.798e+308,label", "must be finite and strictly increasing"),
        ("0.0,0.5,0.5,label", "must be finite and strictly increasing"),
        ("-1.7e308,0.0,1.7e308,label",
         "give no sampling grid: abscissae and weights must all be finite"),
    ], ids=["0.0,1.798e+308,1.798e+308,label", "0.0,0.5,0.5,label",
            "-1.7e308,0.0,1.7e308,label"])
    def test_is_one_data_error(self, tmp_path, capsys, header, msg):
        data = tmp_path / "data.csv"
        data.write_text("\n".join([header, "0.1,0.2,0.3,1", "0.3,0.2,0.1,-1"]) + "\n")
        argv = ["select", "--config", write_config(tmp_path, data),
                "--out", str(tmp_path / "run")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert err == [f"FSVM-ERROR code=data msg=line 1: header abscissae {msg}"]


class TestOutputFiles:
    def test_a_directory_at_the_model_path_is_left_alone(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "run"
        (out / "model.fsvm").mkdir(parents=True)
        (out / "model.fsvm" / "inside").write_text("kept")
        rc = main(["select", "--config", write_config(tmp_path, synth_csv), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("FSVM-ERROR code=data msg=")
        assert os.listdir(out) == ["model.fsvm"]
        assert (out / "model.fsvm" / "inside").read_text() == "kept"

    def test_outputs_written_over_old_ones_leave_nothing_else(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, synth_csv)
        predict = ["predict", "--model", str(out / "model.fsvm"), "--data", str(synth_csv)]
        for _ in range(2):
            assert main(["select", "--config", cfg, "--out", str(out)]) == 0
            assert main(predict + ["--out", str(out / "pred.csv")]) == 0
            assert main(["synth", "--out", str(out / "synth.csv"), "--n", "10"]) == 0
        assert sorted(os.listdir(out)) == [
            "model.fsvm", "pred.csv", "selection_report.json",
            "selection_report.json.meta.json", "synth.csv",
        ]
        capsys.readouterr()
        assert main(predict) == 0
        assert (out / "pred.csv").read_text() == capsys.readouterr().out


class TestInvalidGridValues:
    @pytest.mark.parametrize("key, value", [
        ("dimensions", 2.5), ("C", float("inf")), ("C", float("nan")), ("C", 10**400),
    ], ids=["dimension-2.5", "C-Infinity", "C-NaN", "C-past-the-float-range"])
    def test_is_a_usage_error(self, tmp_path, synth_csv, capsys, key, value):
        grid = {"dimensions": [3], "kernels": [{"kind": "gaussian", "sigma": 1.0}],
                "C": [1.0], key: [value]}
        cfg = write_config(tmp_path, synth_csv, grid=grid)
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert repr(value) in err[0]

    @pytest.mark.parametrize("kernel, value", [
        ("gaussian", {"sigma": float("nan")}), ("gaussian", {"sigma": "2"}),
        ("polynomial", {"degree": 2.5}), ("polynomial", {"degree": "3"}),
        ("polynomial", {"degree": True}), ("gaussian", {"sigma": 10**400}),
        ("polynomial", {"degree": 10**400}),
    ], ids=["sigma-NaN", "sigma-string", "degree-2.5", "degree-string", "degree-true",
            "sigma-past-the-float-range", "degree-past-the-float-range"])
    def test_base_kernel_parameter_is_a_usage_error(
        self, tmp_path, synth_csv, capsys, kernel, value
    ):
        grid = {"dimensions": [3], "kernels": [{"kind": kernel, **value}], "C": [1.0]}
        cfg = write_config(tmp_path, synth_csv, grid=grid)
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert repr(*value.values()) in err[0]

    @pytest.mark.parametrize("fields", [
        {"order": 2, "spline_dimension": 24.0}, {"order": 2.0, "spline_dimension": 24},
        {"order": True, "spline_dimension": 24}, {"order": 2, "spline_dimension": "24"},
    ], ids=["dimension-24.0", "order-2.0", "order-true", "dimension-string"])
    def test_derivative_field_is_a_usage_error(self, tmp_path, synth_csv, capsys, fields):
        grid = {"dimensions": [3], "kernels": [{"kind": "linear"}], "C": [1.0],
                "transforms": [{"kind": "derivative", **fields}]}
        cfg = write_config(tmp_path, synth_csv, grid=grid)
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert rc == 1
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=derivative")

    def test_two_derivatives_are_a_usage_error(self, tmp_path, synth_csv, capsys):
        grid = {"dimensions": [3], "kernels": [{"kind": "linear"}], "C": [1.0],
                "transforms": [{"kind": "derivative", "order": 2, "spline_dimension": 10},
                               {"kind": "derivative", "order": 1, "spline_dimension": 10}]}
        cfg = write_config(tmp_path, synth_csv, grid=grid)
        assert main(["select", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert "at most one derivative" in err[0]

    def test_integral_sigma_is_stored_as_a_float(self):
        grid = {"kernels": [{"kind": "gaussian", "sigma": 2}], "C": [1.0]}
        (cand,) = parse_config({"grid": grid}).grid.candidates
        assert cand.kernel.base.sigma == 2.0 and type(cand.kernel.base.sigma) is float


class TestInvalidPenalty:
    """Every penalty value is a finite number: one usage error otherwise.
    Dimension 5 lies above the cap of 3, so ``high`` is used."""

    @pytest.mark.parametrize("penalty", [
        {"kind": "step", "cap": 3, "high": float("nan")},
        {"kind": "table", "table": {"3": float("inf")}},
        {"kind": "table", "table": {"3": 0.0}, "default": float("-inf")},
        {"kind": "step", "cap": 3, "high": "x"},
        {"kind": "step", "cap": 3, "high": None},
        {"kind": "step", "cap": 3, "high": True},
        {"kind": "table", "table": {"3": "1"}},
        {"kind": "step", "cap": float("nan"), "high": 1.0},
        {"kind": "step", "cap": float("inf"), "high": 1.0},
        {"kind": "step", "cap": 3, "high": float("inf")},
    ], ids=["high-NaN", "table-Infinity", "default-minus-Infinity", "high-string",
            "high-null", "high-true", "table-string", "cap-NaN", "cap-Infinity",
            "high-Infinity"])
    def test_is_one_usage_error(self, tmp_path, synth_csv, capsys, penalty):
        grid = {"dimensions": [3, 5], "kernels": [{"kind": "gaussian", "sigma": 1.0}],
                "C": [1.0], "penalty": penalty}
        cfg = write_config(tmp_path, synth_csv, grid=grid)
        out = tmp_path / "run"
        rc = main(["select", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=penalt")
        assert not (out / "model.fsvm").exists()


class TestNoWarningLines:
    """Numbers past the float range end in the one error line that the
    explicit checks give, with no numpy warning beside it."""

    @pytest.mark.parametrize("dataset, kernel, code, msg", [
        ({"interval": [-1e308, 1e308]}, "gaussian", "usage",
         "abscissae and weights must all be finite"),
        ({"abscissae": np.linspace(0.0, 1e300, 64).tolist()}, "polynomial", "data",
         "every candidate failed to train: [0] DataError: kernel matrix has non-finite"),
    ], ids=["interval-past-the-float-range", "huge-abscissae"])
    def test_stderr_is_one_error_line(self, tmp_path, synth_csv, capsys, dataset, kernel,
                                      code, msg):
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(synth_csv.read_text().splitlines()[1:]) + "\n")
        grid = {"dimensions": [3, 5], "kernels": [{"kind": kernel}], "C": [1.0]}
        path = Path(write_config(tmp_path, bare, grid=grid))
        doc = json.loads(path.read_text())
        doc["dataset"].update(dataset)
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["select", "--config", str(path), "--out", str(tmp_path / "run")])
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"FSVM-ERROR code={code} msg={msg}")
        assert rc == (1 if code == "usage" else 2)


def test_curve_whose_squared_norm_passes_the_float_range_exits_2(tmp_path, synth_csv,
                                                                    capsys):
    # The last curve, on the validation side, scaled to values near 1e160:
    # its squared distances to every training curve overflow to inf, which
    # the Gaussian kernel would map to a value near zero without an error.
    lines = synth_csv.read_text().splitlines()
    *values, label = lines[-1].split(",")
    lines[-1] = ",".join([repr(float(v) * 1e160) for v in values] + [label])
    synth_csv.write_text("\n".join(lines) + "\n")
    rc = main(["select", "--config", write_config(tmp_path, synth_csv),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1
    assert err[0].startswith("FSVM-ERROR code=data msg=every candidate failed to train: "
                             "[0] DataError: prepared curves must have squared norms")


class TestMalformedConfig:
    """A config value of the wrong JSON type exits 1 with one usage error."""

    @pytest.mark.parametrize("change", [
        lambda doc: doc["grid"].update(dimensions="abc"),
        lambda doc: doc["grid"].update(C="x"),
        lambda doc: doc["grid"].update(kernels="linear"),
        lambda doc: doc["grid"].update(penalty={"kind": "table", "table": {"x": 0}}),
        lambda doc: doc.update(dataset="d.csv"),
        lambda doc: doc.update(dataset={}),
        lambda doc: [doc],
    ], ids=["dimensions-string", "C-string", "kernels-string", "penalty-key-string",
            "dataset-string", "dataset-without-path", "json-list"])
    def test_is_one_usage_error(self, tmp_path, synth_csv, capsys, change):
        path = Path(write_config(tmp_path, synth_csv))
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(change(doc) or doc))
        rc = main(["select", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")


class TestInvalidDatasetValues:
    """Each value of the dataset section is checked before any file is read."""

    @pytest.mark.parametrize("values", [
        {"path": 999999}, {"label_map": 3}, {"label_map": {"1": 1, "-1": 0}},
        {"fat_threshold": "x"}, {"fat_threshold": None}, {"fat_threshold": float("nan")},
        {"interval": [0, "b"]}, {"interval": [0, 1, 2]}, {"interval": []}, {"interval": 0},
        {"abscissae": ["a"]}, {"abscissae": []},
    ], ids=["path-number", "label-map-number", "label-map-to-0", "fat-threshold-string",
            "fat-threshold-null", "fat-threshold-NaN", "interval-string",
            "interval-three-numbers", "interval-empty", "interval-0", "abscissae-string",
            "abscissae-empty"])
    def test_is_one_usage_error(self, tmp_path, synth_csv, capsys, values):
        path = Path(write_config(tmp_path, synth_csv))
        doc = json.loads(path.read_text())
        doc["dataset"].update(values)
        path.write_text(json.dumps(doc))
        rc = main(["select", "--config", str(path), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert rc == 1
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert "Traceback" not in captured.err


class TestInvalidTolAndSeed:
    @pytest.mark.parametrize("key, value", [
        ("tol", float("nan")), ("tol", float("inf")), ("tol", 0), ("tol", -1),
        ("tol", "abc"), ("tol", True), ("seed", "abc"), ("seed", None), ("seed", [1]),
        ("seed", 2.5), ("seed", -1),
    ], ids=["tol-NaN", "tol-Infinity", "tol-0", "tol-negative", "tol-string", "tol-bool",
            "seed-string", "seed-null", "seed-list", "seed-fraction", "seed-negative"])
    def test_is_a_usage_error(self, tmp_path, synth_csv, capsys, key, value):
        cfg = write_config(tmp_path, synth_csv, **{key: value})
        rc = main(["select", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"FSVM-ERROR code=usage msg={key} must be")
        assert not (tmp_path / "run" / "model.fsvm").exists()

    def test_integral_numbers_are_accepted(self):
        cfg = parse_config({"seed": 3.0, "tol": 1})
        assert (cfg.seed, cfg.tol) == (3, 1.0)
        assert type(cfg.seed) is int and type(cfg.tol) is float


class TestInvalidRunValues:
    """Config values that ``cli`` and ``evaluation`` read after parsing are
    checked at parse time, or by the protocol before its first fold: each
    bad one exits 1 with one usage error."""

    PROTOCOL = {"kind": "repeated_splits", "count": 2, "train_size": 24, "inner_l": 12}

    @pytest.mark.parametrize("command, key, value", [
        ("select", "split", {"policy": "first_l", "l": "x"}),
        ("select", "split", {"policy": "first_l", "l": 2.5}),
        ("select", "split", {"policy": "first_l", "l": True}),
        ("select", "grid", {"dimensions": [3], "kernels": [{"kind": "linear"}],
                            "C": [True]}),
        ("evaluate", "protocol", {**PROTOCOL, "train_size": "x"}),
        ("evaluate", "protocol", {**PROTOCOL, "count": "x"}),
        ("evaluate", "protocol", {"kind": "repeated_splits", "count": 2, "inner_l": 12}),
        ("evaluate", "protocol", {"kind": "fixed_split", "train_size": 24}),
        ("evaluate", "protocol", {"kind": "leave_one_out", "inner_l": 2.5}),
        ("select", "split", {"policy": "first_l", "l": 0}),
        ("evaluate", "protocol", {"kind": "fixed_split", "train_size": 24, "inner_l": 12,
                                  "policy": "shuffled"}),
        ("evaluate", "protocol", {"kind": "leave_one_out", "inner_l": 0}),
        ("evaluate", "protocol", {"kind": "leave_one_out", "inner_l": 39}),
    ], ids=["split-l-string", "split-l-fraction", "split-l-true", "C-true",
            "train-size-string", "count-string", "repeated-without-train-size",
            "fixed-without-inner-l", "loo-inner-l-fraction", "split-l-0",
            "fixed-split-unknown-policy", "loo-inner-l-0", "loo-inner-l-n-1"])
    def test_is_one_usage_error(self, tmp_path, synth_csv, capsys, command, key, value):
        cfg = write_config(tmp_path, synth_csv, **{key: value})
        out = tmp_path / "run"
        rc = main([command, "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert "Traceback" not in captured.err
        assert not (out / "model.fsvm").exists()

    def test_integers_and_nulls_are_accepted(self):
        cfg = parse_config({
            "split": {"l": 20},
            "protocol": {"kind": "leave_one_out", "inner_l": None, "count": None},
        })
        assert cfg.split["l"] == 20
        assert cfg.protocol == {"kind": "leave_one_out"}


class TestInvalidFlagValues:
    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "-1"], ["synth", "--n", "-1"], ["synth", "--n", "0"],
        ["synth", "--frequencies", "abc"], ["synth", "--frequencies", "2"],
        ["synth", "--noise", "nan"], ["synth", "--noise", "-1"],
        ["synth", "--label-noise", "nan"], ["synth", "--label-noise", "2"],
        ["synth", "--grid-length", "-3"],
        ["select", "--c-grid", "abc"], ["select", "--sigma-grid", "x"],
        ["select", "--d-range", "1:x"], ["select", "--d-range", "1:2:3"],
    ], ids=" ".join)
    def test_is_one_usage_error(self, tmp_path, synth_csv, capsys, argv):
        command, *flags = argv
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), *flags]
        else:
            argv = ["select", "--config", write_config(tmp_path, synth_csv),
                    "--out", str(out), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("FSVM-ERROR code=usage msg=")
        assert not out.exists()

    def test_predict_has_no_seed(self, tmp_path, synth_csv, capsys):
        # Accepted, the flag would reach the missing model file: exit 2.
        argv = ["predict", "--seed", "1", "--model", str(tmp_path / "missing.fsvm"),
                "--data", str(synth_csv)]
        assert main(argv) == 1
        assert "--seed" in capsys.readouterr().err


class TestTrain:
    def test_single_candidate_goes_direct(self, tmp_path, synth_csv):
        cfg = write_config(
            tmp_path, synth_csv,
            grid={"dimensions": [5],
                  "kernels": [{"kind": "gaussian", "sigma": 1.0}],
                  "C": [10.0]},
        )
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["mode"] == "direct"
        assert report["n_support"] > 0
        load_model(str(out / "model.fsvm"))

    def test_multi_candidate_selects(self, tmp_path, synth_csv):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["mode"] == "select"

    def test_train_and_select_report_the_same_grid_warnings(self, tmp_path, synth_csv):
        # Without split.l both split the 40 curves in half, which breaks the
        # growth condition; both must say so.
        cfg = write_config(tmp_path, synth_csv, split={"policy": "first_l"})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        assert main(["select", "--config", cfg, "--out", str(tmp_path / "select")]) == 0
        train = json.loads((tmp_path / "train" / "train_report.json").read_text())
        select = json.loads((tmp_path / "select" / "selection_report.json").read_text())
        assert any("growth condition" in w for w in select["grid_warnings"])
        assert train["grid_warnings"] == select["grid_warnings"]

    def test_direct_train_does_not_warn_about_a_split(self, tmp_path, synth_csv):
        # One candidate trains on all 40 curves; split.l 30 is never used,
        # so its growth condition (30*log(10)/10 > 1) must not be reported.
        cfg = write_config(
            tmp_path, synth_csv,
            grid={"dimensions": [5], "kernels": [{"kind": "gaussian", "sigma": 1.0}],
                  "C": [10.0]},
            split={"policy": "first_l", "l": 30},
        )
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "train_report.json").read_text())
        assert report["mode"] == "direct"
        assert not any("growth condition" in w for w in report["grid_warnings"])

    def test_empty_grid_exits_1(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv, grid={})
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("FSVM-ERROR code=usage msg=")


class TestEvaluate:
    def test_repeated_splits_and_determinism(self, tmp_path, synth_csv, capsys):
        cfg = write_config(
            tmp_path, synth_csv,
            protocol={"kind": "repeated_splits", "count": 2,
                      "train_size": 24, "inner_l": 12},
        )
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(["evaluate", "--config", cfg, "--out", str(out1)]) == 0
        assert capsys.readouterr().out.startswith("mean error:")
        assert main(["evaluate", "--config", cfg, "--out", str(out2)]) == 0
        r1 = (out1 / "evaluation_report.json").read_bytes()
        r2 = (out2 / "evaluation_report.json").read_bytes()
        assert r1 == r2

    def test_unknown_protocol_exits_1(self, tmp_path, synth_csv):
        cfg = write_config(tmp_path, synth_csv, protocol={"kind": "bootstrap"})
        rc = main(["evaluate", "--config", cfg, "--out", str(tmp_path / "e")])
        assert rc == 1


class TestOverridesAndInspect:
    def test_cli_overrides_reshape_the_grid(self, tmp_path, synth_csv):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out),
                     "--c-grid", "5.0", "--sigma-grid", "1.0",
                     "--d-range", "4:6"]) == 0
        report = json.loads((out / "selection_report.json").read_text())
        assert len(report["table"]) == 3  # d in {4,5,6} x 1 sigma x 1 C
        assert {row["dimension"] for row in report["table"]} == {4, 5, 6}
        assert {row["C"] for row in report["table"]} == {5.0}

    def test_inspect_model_and_report(self, tmp_path, synth_csv, capsys):
        cfg = write_config(tmp_path, synth_csv)
        out = tmp_path / "run"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out / "model.fsvm")]) == 0
        text = capsys.readouterr().out
        assert f"model file version {MODEL_VERSION}" in text
        assert "support vectors:" in text
        assert main(["inspect", str(out / "selection_report.json")]) == 0
        json.loads(capsys.readouterr().out)

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = main(["select", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("FSVM-ERROR code=usage")

    def test_bad_usage_exits_1(self, capsys):
        assert main(["select"]) == 1  # missing required flags
        capsys.readouterr()


def test_version_ignores_the_environment():
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "FUNCSVM_THREADS": "abc", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "funcsvm.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.1.0"
    assert proc.stderr == ""


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = "import sys, funcsvm.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _modules_after_main(argv):
    """The exit status of ``cli.main(argv)`` in a new interpreter, and the
    modules loaded when it returns."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import json, sys\n"
            "from funcsvm.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(modules)


class TestColdCommandImports:
    """Each command loads only the modules it runs."""

    def test_version_loads_no_numpy(self):
        rc, modules = _modules_after_main(["--version"])
        assert rc == 0
        assert "numpy" not in modules

    def test_select_loads_no_evaluation(self, tmp_path, synth_csv):
        rc, modules = _modules_after_main(["select", "--config",
                                           write_config(tmp_path, synth_csv),
                                           "--out", str(tmp_path / "run")])
        assert rc == 0
        assert modules.isdisjoint({"funcsvm.evaluation", "numpy.ma"})

    def test_predict_loads_no_search_code(self, tmp_path, synth_csv):
        out = tmp_path / "run"
        assert main(["select", "--config", write_config(tmp_path, synth_csv),
                     "--out", str(out)]) == 0
        assert load_model(str(out / "model.fsvm")).kernel.projection.family == "fourier"
        rc, modules = _modules_after_main(["predict", "--model", str(out / "model.fsvm"),
                                           "--data", str(synth_csv),
                                           "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        assert modules.isdisjoint({"funcsvm.config", "funcsvm.selection",
                                   "funcsvm.evaluation", "numpy.ma", "scipy"})

    def test_spline_derivative_commands_load_no_scipy(self, tmp_path, synth_csv):
        out = tmp_path / "run"
        rc, modules = _modules_after_main(["select", "--config",
                                           _spline_derivative_config(tmp_path, synth_csv),
                                           "--out", str(out)])
        assert rc == 0
        assert "scipy" not in modules
        assert load_model(str(out / "model.fsvm")).kernel.projection.family == "bspline"
        rc, modules = _modules_after_main(["predict", "--model", str(out / "model.fsvm"),
                                           "--data", str(synth_csv),
                                           "--out", str(tmp_path / "pred.csv")])
        assert rc == 0
        assert "scipy" not in modules


def _spline_derivative_config(tmp_path, data_path):
    """A config whose kernels are a B-spline projection of dimension 8 of
    the smoothed second derivative (spline dimension 10)."""
    return write_config(
        tmp_path, data_path,
        grid={"basis": "bspline", "dimensions": [8],
              "transforms": [{"kind": "derivative", "order": 2, "spline_dimension": 10}],
              "kernels": [{"kind": "gaussian", "sigma": [0.5, 2.0]}], "C": [1.0, 10.0]},
    )


def test_train_and_predict_run_with_scipy_blocked(tmp_path, synth_csv):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out, pred = tmp_path / "run", tmp_path / "pred.csv"
    code = ("import sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now fails\n"
            "from funcsvm.cli import main\n"
            "config, out, data, pred = sys.argv[1:]\n"
            "print(main(['train', '--config', config, '--out', out]),\n"
            "      main(['predict', '--model', out + '/model.fsvm', '--data', data,\n"
            "            '--out', pred]))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           _spline_derivative_config(tmp_path, synth_csv), str(out),
                           str(synth_csv), str(pred)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0"
    transforms = load_model(str(out / "model.fsvm")).kernel.transforms
    assert [t.kind for t in transforms] == ["derivative"]
    decisions = np.loadtxt(pred, delimiter=",", skiprows=1)[:, 1]
    assert decisions.shape == (40,) and np.isfinite(decisions).all()


def _curves_built_by_main(argv):
    """The exit status of ``cli.main(argv)`` in a new interpreter, and the
    number of ``SampledFunction`` objects it built."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import json, sys\n"
            "from funcsvm.cli import main\n"
            "from funcsvm.functions import SampledFunction\n"
            "built = [0]\n"
            "check = SampledFunction.__post_init__\n"
            "def counted(self):\n"
            "    built[0] += 1\n"
            "    check(self)\n"
            "SampledFunction.__post_init__ = counted\n"
            "rc = main(sys.argv[1:])\n"
            "print(json.dumps([rc, built[0]]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, built = json.loads(proc.stdout.splitlines()[-1])
    return rc, built


class TestNoCurveObjects:
    """A dataset is one value matrix: setting one up, and a cold ``select``
    or ``predict``, build no ``SampledFunction``."""

    def test_dataset_set_up_builds_none(self, monkeypatch):
        from funcsvm.evaluation import generate_synthetic
        from funcsvm.functions import LabeledDataset, SampledFunction, SamplingGrid
        from funcsvm.selection import split_sample

        built = []
        check = SampledFunction.__post_init__
        monkeypatch.setattr(SampledFunction, "__post_init__",
                            lambda self: (built.append(1), check(self)))
        data = generate_synthetic(40, seed=1)
        again = LabeledDataset.from_matrix(SamplingGrid.from_abscissae(data.grid.abscissae),
                                           data.value_matrix(), data.labels)
        split = split_sample(again, 20, policy="seeded_shuffle", seed=2)
        split.train.subset([3, 1]).value_matrix()
        assert built == []
        assert len(again.functions) == 40 and len(built) == 40  # the counter counts

    def test_cold_select_and_predict_build_none(self, tmp_path, synth_csv):
        out = tmp_path / "run"
        assert _curves_built_by_main(["select", "--config", write_config(tmp_path, synth_csv),
                                      "--out", str(out)]) == (0, 0)
        assert _curves_built_by_main(["predict", "--model", str(out / "model.fsvm"),
                                      "--data", str(synth_csv),
                                      "--out", str(tmp_path / "pred.csv")]) == (0, 0)


@pytest.mark.parametrize("transforms", [
    [{"kind": "normalize"}],
    [{"kind": "derivative", "order": 2, "spline_dimension": 20}, {"kind": "normalize"}],
], ids=["normalize", "derivative+normalize"])
def test_predict_on_curves_of_amplitude_1e200_exits_0(tmp_path, synth_csv, capsys, transforms):
    # Their squares overflow: the norms of a normalize are taken on the
    # curves divided by their largest value, so they predict as sin itself.
    grid = {"transforms": transforms, "dimensions": [5],
            "kernels": [{"kind": "gaussian", "sigma": [1.0]}], "C": [10.0]}
    out = tmp_path / "run"
    assert main(["select", "--config", write_config(tmp_path, synth_csv, grid=grid),
                 "--out", str(out)]) == 0
    t = load_model(str(out / "model.fsvm")).grid.abscissae
    decisions = {}
    for amplitude in (1e200, 1.0):
        rows = amplitude * np.sin(2 * np.pi * np.array([[2.0], [3.0]]) * t)
        path = tmp_path / f"curves-{amplitude:g}.csv"
        path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["predict", "--model", str(out / "model.fsvm"), "--data", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        decisions[amplitude] = np.array(
            [float(line.split(",")[1]) for line in captured.out.splitlines()[1:]])
    assert np.isfinite(decisions[1e200]).all()
    assert np.allclose(decisions[1e200], decisions[1.0], rtol=0.0, atol=1e-10)


def test_package_exports_resolve_on_first_use(monkeypatch):
    import funcsvm

    for name in funcsvm.__all__:  # as if not used yet in this interpreter
        monkeypatch.delitem(vars(funcsvm), name, raising=False)
    for name in funcsvm.__all__:
        value = getattr(funcsvm, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(funcsvm)
    star: dict = {}
    exec("from funcsvm import *", star)
    assert set(funcsvm.__all__) <= set(star)
    with pytest.raises(AttributeError):
        funcsvm.nope


def test_no_module_uses_a_private_name_of_another():
    # Each module goes through the public functions of the modules it calls,
    # so that a format (the csv_rows layout, say) is read in one module only.
    private = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "funcsvm").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("funcsvm")
            ):
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.endswith("__"):
                        private.append(f"{path.stem}: {alias.name}")
                    modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("funcsvm"):
                        private += [f"{path.stem}: {part}" for part in alias.name.split(".")
                                    if part.startswith("_")]
                        modules.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.endswith("__") and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                private.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert private == []


# -- The CLI contract under generated configs and flag strings ----------------

CONTRACT_CONFIG = {
    "dataset": {"path": None, "format": "csv_rows", "fat_threshold": 20.0},
    "grid": {
        "transforms": [{"kind": "derivative", "order": 2, "spline_dimension": 8},
                       {"kind": "normalize"}],
        "kernels": [{"kind": "gaussian", "sigma": [1.0]}, {"kind": "polynomial", "degree": 2}],
        "C": [1.0, 10.0],
        "dimensions": [0, 3],
        "basis": "fourier",
        "spline_degree": 3,
        "penalty": {"kind": "step", "cap": 100, "high": 1000.0},
    },
    "split": {"policy": "first_l", "l": 10},
    "seed": 0,
    "tol": 1e-3,
    "protocol": {},
}

# Where a generated value replaces the config's: every section and field the
# commands read, except the dataset path.
CONTRACT_PATHS = [
    (), ("grid",), ("grid", "C"), ("grid", "C", 0), ("grid", "dimensions"),
    ("grid", "dimensions", 1), ("grid", "kernels"), ("grid", "kernels", 0),
    ("grid", "kernels", 0, "kind"), ("grid", "kernels", 0, "sigma"),
    ("grid", "kernels", 0, "sigma", 0), ("grid", "kernels", 1, "degree"),
    ("grid", "transforms"), ("grid", "transforms", 0), ("grid", "transforms", 0, "kind"),
    ("grid", "transforms", 0, "order"), ("grid", "transforms", 0, "spline_dimension"),
    ("grid", "basis"), ("grid", "spline_degree"), ("grid", "penalty"),
    ("grid", "penalty", "kind"), ("grid", "penalty", "cap"), ("grid", "penalty", "high"),
    ("dataset",), ("dataset", "format"), ("dataset", "label_map"),
    ("dataset", "fat_threshold"), ("dataset", "interval"), ("dataset", "abscissae"),
    ("split",), ("split", "policy"), ("split", "l"), ("seed",), ("tol",), ("protocol",),
]

_json_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 10), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    st.sampled_from(["linear", "gaussian", "polynomial", "center", "normalize",
                     "derivative", "bspline", "haar_wavelet", "seeded_shuffle", "table"]),
)
# Numbers (NaN and +-Infinity too), wrong types, empty and 200-long lists,
# and nested nulls.
_json_values = st.one_of(
    st.recursive(_json_atoms, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "sigma", "degree", "l", "policy", "x"]),
                        inner, max_size=3)), max_leaves=6),
    _json_atoms.map(lambda atom: [atom] * 200),
    st.sampled_from([[], {}, [None], [[None]], {"kind": None}, [{"kind": None}]]),
)
# Each piece is small, so a range gives a few dimensions at most.
_flag_text = st.one_of(
    st.sampled_from(["", ":", ",", "1,,2", " 1", "1_000", "0x10", "٣", "1:2:3", "1:3",
                     "3:1", "0:0", "2,3", "99999999999999999999"]),
    st.tuples(st.lists(st.sampled_from(["0", "1", "2", "-1", "0.5", "nan", "inf", "-inf",
                                        "1e308", "1e400", "x", ""]), min_size=1, max_size=3),
              st.sampled_from([",", ":", ";"])).map(lambda t: t[1].join(t[0])),
)


@pytest.fixture(scope="module")
def contract_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-contract") / "data.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(path), "--n", "20", "--grid-length", "16",
                     "--noise", "0.3", "--seed", "2"]) == 0
    return path


def _replace(doc, path, value):
    """``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run_contract(config_doc, directory, flags=()):
    """``funcsvm select`` on ``config_doc`` through ``cli.main``: it ends in
    exit 0-3, with at most one ``FSVM-ERROR`` line and only that on stderr,
    no traceback and no warning, and with a loadable, finite model on exit 0."""
    config = directory / "config.json"
    config.unlink(missing_ok=True)
    config.write_text(json.dumps(config_doc))
    out = directory / "run"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["select", "--config", str(config), "--out", str(out), *flags])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err.getvalue()
    errors = [line for line in lines if line.startswith("FSVM-ERROR")]
    assert len(errors) <= 1 and (not errors or lines == errors)
    if rc == 0:
        assert lines == []
        model = load_model(str(out / "model.fsvm"))
        assert np.isfinite(model.support_vectors).all() and np.isfinite(model.bias)


class TestConfigAndFlagsThroughCli:
    """The CLI contract for generated configs and flag strings."""

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(CONTRACT_PATHS), value=_json_values)
    def test_generated_configs_keep_the_contract(self, contract_csv, path, value):
        # One change per run: two 200-long axes would make a grid of 80,000
        # candidates.
        doc = copy.deepcopy(CONTRACT_CONFIG)
        doc["dataset"]["path"] = str(contract_csv)
        _run_contract(_replace(doc, path, value), contract_csv.parent)

    @settings(max_examples=40, deadline=None)
    # A C of 1e20 or more with a projection of dimension 1 or 2 can spend the
    # solver's whole budget of 1,000,000 updates, 13-26 s a run (a fault
    # recorded in CHANGES.md): the contract holds, but the test would not
    # keep to its time.
    @given(flags=st.fixed_dictionaries({}, optional={
        "--c-grid": _flag_text.filter(lambda text: "1e308" not in text and "9999" not in text),
        "--sigma-grid": _flag_text, "--d-range": _flag_text,
        "--seed": st.one_of(st.integers(-2, 2**70).map(str), _flag_text)}))
    def test_generated_flag_strings_keep_the_contract(self, contract_csv, flags):
        doc = copy.deepcopy(CONTRACT_CONFIG)
        doc["dataset"]["path"] = str(contract_csv)
        _run_contract(doc, contract_csv.parent,
                      [f"{flag}={text}" for flag, text in flags.items()])


def test_an_old_fourier_model_off_a_uniform_grid_exits_2(tmp_path, synth_csv, capsys):
    # Format 3 took Fourier coefficients as L2 coordinates, which they are
    # only on uniform grids; on any other grid the model must be retrained.
    data = Path(__file__).parent / "data"
    doc = json.loads((data / "v3_fourier.fsvm").read_bytes()[5:].decode("utf-8"))
    doc["grid"]["abscissae"] = np.sort(
        np.random.default_rng(0).uniform(0.0, 1.0, 32)).tolist()
    model = tmp_path / "old.fsvm"
    model.write_bytes(b"FSVM" + bytes([3]) + json.dumps(doc).encode("utf-8"))
    assert main(["predict", "--model", str(model), "--data", str(synth_csv)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("FSVM-ERROR code=data msg=") and "retrain the model" in err[0]
