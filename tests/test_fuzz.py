"""In-process fuzzing of the public entry points.

``select``, ``train_svm``, ``decision_values``, ``gram_matrix``,
``kernel_eval``, ``load_model`` and ``LabeledDataset.from_matrix`` meet
mismatched grids, shapes and dtypes, non-finite values, empty batches,
fractional labels and extreme scales.  Each call returns finite values or
raises a ``funcsvm.errors`` class, and lets no warning out.  On valid
input a value matrix and the list of its rows as curves give the same
decision values, bit for bit.
"""

import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from funcsvm import (
    BaseKernel,
    BasisSpec,
    Candidate,
    CandidateGrid,
    FunctionalKernel,
    LabeledDataset,
    SampledFunction,
    SamplingGrid,
    Transform,
    gram_matrix,
    kernel_eval,
    load_model,
    save_model,
    select,
    train_svm,
)
from funcsvm.errors import FuncSvmError
from funcsvm.kernels import kernel_from_dict, kernel_to_dict
from funcsvm.persistence import MODEL_MAGIC, MODEL_VERSION
from funcsvm.solver import decision_values

N = 16
GRID = SamplingGrid.uniform(0.0, 1.0, N)
# Same length on another span, and another length.
OTHER_GRIDS = (SamplingGrid.uniform(0.0, 2.0, N), SamplingGrid.uniform(0.0, 1.0, N + 4))

SCALES = (1.0, 1.0, 1e-300, 1e-150, 1e150, 1e300)
ODD_CELLS = (np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 5e-324)
BASES = (BaseKernel.linear(), BaseKernel.gaussian(1.0), BaseKernel.gaussian(1e-300),
         BaseKernel.gaussian(1e308), BaseKernel.polynomial(2), BaseKernel.polynomial(121),
         BaseKernel.polynomial(3000))
CHAINS = ((), (Transform("center"),), (Transform("normalize"),),
          (Transform("derivative", order=2, spline_dimension=6), Transform("normalize")))
PROJECTIONS = (None, BasisSpec("fourier", 5), BasisSpec("haar_wavelet", 4),
               BasisSpec("bspline", 6))
kernels = st.builds(FunctionalKernel, transforms=st.sampled_from(CHAINS),
                    projection=st.sampled_from(PROJECTIONS), base=st.sampled_from(BASES))


def outcome(fn, *args):
    """``(result, None)`` or ``(None, error)`` of ``fn(*args)`` for a
    ``funcsvm.errors`` class; any other exception, or a warning, fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args), None
        except FuncSvmError as exc:
            return None, exc


def alternating(count: int) -> np.ndarray:
    return np.where(np.arange(count) % 2 == 0, 1, -1)


@st.composite
def curve_matrices(draw, min_rows=0, max_rows=6):
    """Finite (rows, N) float matrices, each row at its own scale."""
    rows = draw(st.integers(min_rows, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=rows, max_size=rows))
    return rng.standard_normal((rows, N)) * np.array(scales)[:, None]


@st.composite
def value_arrays(draw):
    """Curve values, mostly a finite float matrix as wide as ``GRID``, at
    times of another width or kind, with an odd cell, or ragged."""
    values = draw(curve_matrices())
    rows = values.shape[0]
    width = draw(st.sampled_from((N, N, N, N - 1, N + 1)))
    values = values[:, :width] if width <= N else np.hstack([values, values[:, :1]])
    if rows and draw(st.booleans()):
        values[draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(ODD_CELLS))
    kind = draw(st.sampled_from(("float", "float", "list", "int", "bool", "complex", "str",
                                 "object", "ragged")))
    if kind == "list":
        return values.tolist()
    if kind == "int":
        return np.rint(np.clip(np.nan_to_num(values), -1e6, 1e6)).astype(np.int64)
    if kind == "bool":
        return values > 0
    if kind == "complex":
        return values + 1j
    if kind == "str":
        return values.astype(str)
    if kind == "object":
        cells = values.astype(object)
        if rows:
            cells[0, 0] = None
        return cells
    if kind == "ragged" and rows:
        return [row.tolist() for row in values[:-1]] + [values[-1, 1:].tolist()]
    return values


@st.composite
def label_lists(draw, count):
    """``count`` labels, mostly -1 and +1 in some spelling, at times one
    that is not, or one too many or too few."""
    labels = [draw(st.sampled_from((1, -1, 1.0, -1.0, np.int8(1), np.float32(-1))))
              for _ in range(count)]
    if count and draw(st.booleans()):
        labels[draw(st.integers(0, count - 1))] = draw(
            st.sampled_from((0, 2, 1.5, -1.9, 1 + 1e-12, "1", None, np.nan, 1j, True)))
    if draw(st.integers(0, 9)) == 0:
        labels = labels[:-1] if labels and draw(st.booleans()) else [*labels, 1]
    return labels


@st.composite
def matrices_and_labels(draw):
    values = draw(value_arrays())
    return values, draw(label_lists(len(values)))


class TestFromMatrix:
    @settings(max_examples=120, deadline=None)
    @given(inputs=matrices_and_labels())
    @example(inputs=(np.zeros((2, N)), [1.5, -1]))
    def test_stores_the_values_and_signs_given_or_raises(self, inputs):
        values, labels = inputs
        dataset, error = outcome(LabeledDataset.from_matrix, GRID, values, labels)
        if error is not None:
            return
        stored = dataset.value_matrix()
        assert stored.dtype == float and stored.shape == (len(labels), N)
        assert np.isfinite(stored).all()
        assert stored.tobytes() == np.asarray(values).astype(float).tobytes()
        assert dataset.labels.tolist() == np.asarray(labels).astype(float).tolist()
        assert set(dataset.labels.tolist()) <= {-1, 1}


class TestKernelBuilders:
    @settings(max_examples=100, deadline=None)
    @given(kernel=kernels, values=curve_matrices(min_rows=1), off_grid=st.sampled_from(
        (None, None, *OTHER_GRIDS)))
    @example(kernel=FunctionalKernel(base=BaseKernel.polynomial(3000)),
             values=np.random.default_rng(0).standard_normal((3, N)), off_grid=None)
    @example(kernel=FunctionalKernel(base=BaseKernel.gaussian(1e308)),
             values=np.random.default_rng(0).standard_normal((3, N)), off_grid=None)
    def test_finite_symmetric_or_raises(self, kernel, values, off_grid):
        curves = [SampledFunction(GRID, row) for row in values]
        if off_grid is not None:
            curves.append(SampledFunction(off_grid, np.ones(len(off_grid))))
        K, error = outcome(gram_matrix, kernel, curves)
        if error is None:
            assert K.shape == (len(curves),) * 2 and np.isfinite(K).all()
            assert np.array_equal(K, K.T)
        k, error = outcome(kernel_eval, kernel, curves[0], curves[-1])
        if error is None:
            assert np.isfinite(k)
        _, error = outcome(kernel_eval, kernel, curves[0], values[0])
        assert error is not None  # a bare array is not a curve

    @pytest.mark.parametrize("chain", CHAINS + (
        (Transform("normalize", order=1, spline_dimension=12),),))
    def test_dict_round_trip_returns_an_equal_kernel(self, chain):
        kernel = FunctionalKernel(transforms=chain)
        assert kernel_from_dict(kernel_to_dict(kernel)) == kernel


def assert_finite_model(model):
    for array in (model.support_vectors, model.support_coeffs, model.bias):
        assert np.isfinite(array).all()


def assert_same_decisions(model, queries):
    """A matrix of queries and the list of its rows as curves: the same
    decision values, bit for bit, or the same error class."""
    by_matrix, matrix_error = outcome(decision_values, model, queries)
    if (isinstance(queries, np.ndarray) and queries.dtype == float and queries.ndim == 2
            and queries.shape[1] == N and np.isfinite(queries).all()):
        curves = [SampledFunction(GRID, row) for row in queries]
        by_list, list_error = outcome(decision_values, model, curves)
        assert type(matrix_error) is type(list_error)
        if matrix_error is None:
            assert by_matrix.tobytes() == by_list.tobytes()
    if matrix_error is None:
        assert by_matrix.shape == (len(queries),) and np.isfinite(by_matrix).all()


class TestTrainAndDecide:
    @settings(max_examples=80, deadline=None)
    @given(kernel=kernels, values=curve_matrices(min_rows=2, max_rows=8),
           C=st.sampled_from((1e-3, 1.0, 1e3)), queries=value_arrays(),
           off_grid=st.sampled_from(OTHER_GRIDS))
    @example(kernel=FunctionalKernel(base=BaseKernel.polynomial(3000)),
             values=np.random.default_rng(0).standard_normal((6, N)), C=1.0,
             queries=np.zeros((0, N)), off_grid=OTHER_GRIDS[0])
    @example(kernel=FunctionalKernel(), values=np.random.default_rng(0).standard_normal((6, N)),
             C=1.0, queries=[np.zeros(N)], off_grid=OTHER_GRIDS[0])
    def test_finite_model_and_decisions_or_raises(self, kernel, values, C, queries, off_grid):
        data = LabeledDataset.from_matrix(GRID, values, alternating(len(values)))
        model, error = outcome(train_svm, kernel, data, C)
        if error is not None:
            return
        assert_finite_model(model)
        assert_same_decisions(model, queries)
        assert_same_decisions(model, data.value_matrix())
        off = [SampledFunction(off_grid, np.ones(len(off_grid)))]
        _, error = outcome(decision_values, model, off)
        assert error is not None


MUTATIONS = (None, 0, -1, 1e308, -1e308, 1e-320, 10**400, "x", "", [], [[]], {}, [1e308] * 3,
             True, [None])


def _paths(node, prefix=()):
    """Key paths into a parsed model file: to every value of an object, and
    to the first and last item of each list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node:
        items = [(0, node[0]), (len(node) - 1, node[-1])]
    else:
        return [prefix]
    paths = [prefix] if prefix else []
    for key, child in items:
        paths += _paths(child, (*prefix, key))
    return paths


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("models")
    rng = np.random.default_rng(3)
    values = rng.standard_normal((12, N)) + np.where(np.arange(12) % 2 == 0, 1.0, -1.0)[:, None]
    data = LabeledDataset.from_matrix(GRID, values, alternating(12))
    docs = {}
    for name, kernel in {
        "raw": FunctionalKernel(base=BaseKernel.gaussian(1.0)),
        "bspline": FunctionalKernel(transforms=CHAINS[3], projection=BasisSpec("bspline", 6),
                                    base=BaseKernel.polynomial(2)),
    }.items():
        path = directory / f"{name}.fsvm"
        save_model(train_svm(kernel, data, 10.0), str(path))
        docs[name] = json.loads(path.read_bytes()[5:])
    return directory, docs, values


class TestLoadModel:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_mutated_model_loads_and_decides_finitely_or_raises(self, model_files, data):
        directory, docs, values = model_files
        doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)), label="model")])
        path = data.draw(st.sampled_from(_paths(doc)), label="field")
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(MUTATIONS), label="value")
        version = data.draw(st.sampled_from((1, 2, MODEL_VERSION)), label="version")
        target = directory / "mutated.fsvm"
        target.write_bytes(MODEL_MAGIC + bytes([version]) + json.dumps(doc).encode())
        model, error = outcome(load_model, str(target))
        if error is not None:
            return
        assert_finite_model(model)
        if model.grid == GRID:
            assert_same_decisions(model, values)


@st.composite
def selection_inputs(draw):
    """Rows at their own scales, a training size in or out of range, and
    one or two candidates."""
    train = draw(curve_matrices(min_rows=2, max_rows=8))
    validation = draw(curve_matrices(min_rows=1, max_rows=8))
    rows = np.vstack([train, validation])
    l = draw(st.sampled_from((len(train), 0, len(rows))))
    candidates = tuple(
        Candidate(k, C)
        for k, C in draw(st.lists(st.tuples(kernels, st.sampled_from((1e-3, 1.0, 1e3))),
                                  min_size=1, max_size=2)))
    return rows, l, candidates


def overflowing_validation():
    """Rows whose training Gram is finite under ``polynomial(121)`` while
    the validation decisions overflow: 20 curves, then 20 larger by 1e3."""
    rng = np.random.default_rng(1)
    return np.vstack([rng.normal(size=(20, N)), 1e3 * rng.normal(size=(20, N))])


class TestSelect:
    @settings(max_examples=60, deadline=None)
    @given(inputs=selection_inputs())
    @example(inputs=(overflowing_validation(), 20,
                     (Candidate(FunctionalKernel(base=BaseKernel.polynomial(121)), 1.0),)))
    def test_finite_scores_and_model_or_raises(self, inputs):
        rows, l, candidates = inputs
        data = LabeledDataset.from_matrix(GRID, rows, alternating(len(rows)))
        result, error = outcome(select, CandidateGrid(candidates), data, l)
        if error is not None:
            return
        for record in result.table:
            assert (record.score is None) == (record.error is not None)
            if record.score is not None:
                assert np.isfinite(record.score) and np.isfinite(record.validation_error)
        assert_finite_model(result.model)
        assert_same_decisions(result.model, rows)
