import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from funcsvm import DatasetDescriptor, SamplingGrid, datasets, load_dataset, write_csv
from funcsvm.datasets import TECATOR_RANGE, _parse_row, _read_table
from funcsvm.errors import FuncSvmError, ParseError, UsageError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCsvRows:
    def test_plain_numeric_labels(self, tmp_path):
        path = write(tmp_path, "a.csv", "0.0,1.0,2.0,1\n3.0,4.0,5.0,-1\n")
        data = load_dataset(DatasetDescriptor(path))
        assert len(data) == 2
        assert np.array_equal(data.labels, [1, -1])
        assert np.array_equal(data.functions[0].values, [0.0, 1.0, 2.0])
        # default domain is [0, 1]
        assert data.grid.abscissae[0] == 0.0
        assert data.grid.abscissae[-1] == 1.0

    def test_header_carries_the_abscissae(self, tmp_path):
        path = write(
            tmp_path, "b.csv",
            "0.0,0.5,2.0,label\n1.0,2.0,3.0,1\n4.0,5.0,6.0,-1\n",
        )
        data = load_dataset(DatasetDescriptor(path))
        assert np.array_equal(data.grid.abscissae, [0.0, 0.5, 2.0])

    def test_label_map(self, tmp_path):
        path = write(tmp_path, "c.csv", "0.0,1.0,A\n2.0,3.0,B\n")
        data = load_dataset(
            DatasetDescriptor(path, label_map={"A": 1, "B": -1})
        )
        assert np.array_equal(data.labels, [1, -1])

    def test_unmapped_label_cites_the_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "0.0,1.0,A\n2.0,3.0,C\n")
        with pytest.raises(ParseError) as info:
            load_dataset(DatasetDescriptor(path, label_map={"A": 1, "B": -1}))
        assert info.value.line == 2

    def test_ragged_row_cites_the_line(self, tmp_path):
        rows = ["0.0,1.0,2.0,1"] * 6 + ["0.0,1.0,1"] + ["0.0,1.0,2.0,-1"]
        path = write(tmp_path, "e.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as info:
            load_dataset(DatasetDescriptor(path))
        assert info.value.line == 7

    def test_non_numeric_cell_cites_the_line(self, tmp_path):
        path = write(tmp_path, "f.csv", "0.0,1.0,1\n0.0,oops,-1\n")
        with pytest.raises(ParseError) as info:
            load_dataset(DatasetDescriptor(path))
        assert info.value.line == 2

    def test_row_parse_matches_float_bit_for_bit(self):
        rng = np.random.default_rng(4)
        magnitudes = 10.0 ** rng.integers(-300, 300, 50)
        cells = [repr(float(x)) for x in rng.standard_normal(50) * magnitudes]
        cells += [" 1.25 ", "\t-3e-7", "2.5\n", "-0.0", "0.0", "5e-324",
                  "2.2250738585072009e-308", "1.7976931348623157e+308", "+.5"]
        parsed = _parse_row(cells, line=1)
        expected = [float(c) for c in cells]
        assert parsed.dtype == np.float64
        assert parsed.tobytes() == np.array(expected).tobytes()  # signs of zeros too

    def test_bad_cell_mid_row_cites_the_line(self, tmp_path):
        rows = ["0.0,1.0,2.0,3.0,1"] * 4 + ["0.0,1.0,2..0,3.0,-1", "0.0,1.0,2.0,3.0,1"]
        path = write(tmp_path, "g.csv", "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="line 5: non-numeric cell '2..0'") as info:
            load_dataset(DatasetDescriptor(path))
        assert info.value.line == 5

    def test_bad_numeric_label_rejected(self, tmp_path):
        path = write(tmp_path, "g.csv", "0.0,1.0,2\n")
        with pytest.raises(ParseError):
            load_dataset(DatasetDescriptor(path))

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "h.csv", "\n\n")
        with pytest.raises(ParseError):
            load_dataset(DatasetDescriptor(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(DatasetDescriptor(str(tmp_path / "nope.csv")))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            DatasetDescriptor("x.csv", format="arff")


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        from funcsvm import LabeledDataset, SamplingGrid

        g = SamplingGrid.uniform(0.0, 2.0, 16)
        rng = np.random.default_rng(0)
        data = LabeledDataset.from_matrix(
            g, rng.standard_normal((5, 16)), [1, -1, 1, -1, 1]
        )
        path = str(tmp_path / "round.csv")
        write_csv(data, path)
        back = load_dataset(DatasetDescriptor(path))
        assert np.array_equal(back.value_matrix(), data.value_matrix())
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.grid.abscissae, g.abscissae)


class TestTecator:
    def make_file(self, tmp_path, fats):
        rng = np.random.default_rng(1)
        lines = []
        for fat in fats:
            vals = rng.random(100)
            lines.append(",".join(repr(float(v)) for v in vals) + f",{fat}")
        return write(tmp_path, "tecator.csv", "\n".join(lines) + "\n")

    def test_fat_threshold_labels(self, tmp_path):
        path = self.make_file(tmp_path, [22.5, 12.0, 20.0])
        data = load_dataset(DatasetDescriptor(path, format="tecator"))
        # strictly above 20 is +1; exactly 20 is -1
        assert np.array_equal(data.labels, [1, -1, -1])
        assert data.grid.abscissae[0] == TECATOR_RANGE[0]
        assert data.grid.abscissae[-1] == TECATOR_RANGE[1]
        assert len(data.grid) == 100

    def test_custom_threshold(self, tmp_path):
        path = self.make_file(tmp_path, [15.0, 5.0])
        data = load_dataset(
            DatasetDescriptor(path, format="tecator", fat_threshold=10.0)
        )
        assert np.array_equal(data.labels, [1, -1])

    def test_wrong_width_rejected(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1.0,2.0,3.0,15.0\n")
        with pytest.raises(ParseError):
            load_dataset(DatasetDescriptor(path, format="tecator"))

    def test_non_finite_fat_cites_the_line(self, tmp_path):
        # nan > threshold is false, so without the check this row is labelled -1.
        path = self.make_file(tmp_path, ["nan", 30, 10, 25])
        with pytest.raises(ParseError, match="line 1: fat cell 'nan' is not a finite number"):
            load_dataset(DatasetDescriptor(path, format="tecator"))


class TestPhoneme:
    def test_class_names_map_to_signs(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = []
        for cls in ("aa", "ao", "aa"):
            vals = rng.random(256)
            lines.append(",".join(repr(float(v)) for v in vals) + f",{cls}")
        path = write(tmp_path, "phoneme.csv", "\n".join(lines) + "\n")
        data = load_dataset(DatasetDescriptor(path, format="phoneme"))
        assert np.array_equal(data.labels, [1, -1, 1])
        assert len(data.grid) == 256
        assert data.grid.interval == (0.0, 1.0)

    def test_unknown_class_rejected(self, tmp_path):
        vals = ",".join("0.5" for _ in range(256))
        path = write(tmp_path, "phoneme.csv", vals + ",iy\n")
        with pytest.raises(ParseError):
            load_dataset(DatasetDescriptor(path, format="phoneme"))


def _layout_lines(fmt, labels):
    """Data lines of a tecator or phoneme file, one per label cell."""
    width = 100 if fmt == "tecator" else 256
    rng = np.random.default_rng(3)
    return [",".join(repr(float(v)) for v in rng.random(width)) + f",{label}"
            for label in labels]


_LAYOUT_LABELS = {"tecator": ["22.5", "12.0", "30.0"], "phoneme": ["aa", "ao", "aa"]}


@pytest.mark.parametrize("fmt", ["tecator", "phoneme"])
class TestNamesHeader:
    """Tecator and phoneme share one header rule: the first row is a header
    only when none of its value cells reads as a number."""

    def names(self, fmt):
        return ",".join(f"x{i}" for i in range((100 if fmt == "tecator" else 256) + 1))

    def test_a_header_of_names_is_skipped(self, tmp_path, fmt):
        lines = _layout_lines(fmt, _LAYOUT_LABELS[fmt])
        bare = load_dataset(DatasetDescriptor(
            write(tmp_path, "bare.csv", "\n".join(lines) + "\n"), format=fmt))
        named = load_dataset(DatasetDescriptor(
            write(tmp_path, "named.csv", "\n".join([self.names(fmt)] + lines) + "\n"),
            format=fmt))
        assert len(named) == 3
        assert np.array_equal(named.value_matrix(), bare.value_matrix())
        assert np.array_equal(named.labels, bare.labels)

    def test_a_header_without_data_rows_is_a_parse_error(self, tmp_path, fmt):
        path = write(tmp_path, "h.csv", self.names(fmt) + "\n\n")
        with pytest.raises(ParseError, match="has a header but no data rows") as info:
            load_dataset(DatasetDescriptor(path, format=fmt))
        assert info.value.line == 1

    def test_a_typo_in_the_first_cell_is_a_parse_error(self, tmp_path, fmt):
        lines = _layout_lines(fmt, _LAYOUT_LABELS[fmt])
        lines[0] = "1.0x" + lines[0][lines[0].index(","):]
        path = write(tmp_path, "t.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 1: non-numeric cell '1.0x'"):
            load_dataset(DatasetDescriptor(path, format=fmt))


class TestCsvFaults:
    def test_a_header_past_the_float_range_is_a_parse_error(self, tmp_path):
        # Finite, increasing abscissae whose trapezoid weights overflow.
        path = write(tmp_path, "a.csv",
                     "-1.7e308,0.0,1.7e308,label\n0.1,0.2,0.3,1\n0.3,0.2,0.1,-1\n")
        with pytest.raises(ParseError, match="line 1: header abscissae give no sampling grid"):
            load_dataset(DatasetDescriptor(path))

    def test_non_utf8_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(b"0.0,1.0,1\n\xff\xfe,1.0,-1\n")
        with pytest.raises(ParseError, match="cannot decode"):
            load_dataset(DatasetDescriptor(str(path)))

    def test_a_cell_over_the_csv_field_limit_is_a_parse_error(self, tmp_path):
        path = write(tmp_path, "a.csv", "0.0,1.0,1\n" + "1" * 140_000 + ",1.0,-1\n")
        with pytest.raises(ParseError, match="line 2: field larger than field limit") as info:
            load_dataset(DatasetDescriptor(path))
        assert info.value.line == 2

    @pytest.mark.parametrize("label", ["nan", "inf", "-Infinity"])
    def test_a_non_finite_label_is_a_parse_error(self, tmp_path, label):
        path = write(tmp_path, "a.csv", f"0.0,1.0,1\n2.0,3.0,{label}\n")
        with pytest.raises(ParseError, match="expected -1 or \\+1") as info:
            load_dataset(DatasetDescriptor(path))
        assert info.value.line == 2

    @pytest.mark.parametrize("text", ["", "\n\n", "0.0,1.0,label\n", "\n0.0,1.0,label\n\n"])
    def test_no_data_rows_warn_nothing(self, tmp_path, text):
        path = write(tmp_path, "a.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _read_table(path) is None
            with pytest.raises(ParseError):
                load_dataset(DatasetDescriptor(path))


_CLEAN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3e}"),
    st.integers(-3, 3).map(str),
    st.sampled_from(["+.5", "1e5", "1E-300", "1e400", "-0.0", " 1.5 ", "\t2", "nan", "-inf"]),
)
_ODD_CELLS = st.sampled_from(["1_0", "١٢", '"1.5"', "#1", "# x", "", " ", "abc", "0x10",
                              "1,5", "Infinity", "\x0c3", "\xa04"])
_CLEAN_LABELS = st.sampled_from(["1", "-1", "1.0", "-1e0", " 1 "])
_ODD_LABELS = st.sampled_from(["0", "2", "1.5", "-1.9", "nan", "inf", "label", '"1"', "#", ""])


@st.composite
def csv_files(draw):
    """CSV bytes in the csv_rows layout, 1-4 value columns: clean files, and
    files with faults (odd cells and labels, ragged rows, blank lines, a
    non-UTF-8 row)."""
    width = draw(st.integers(1, 4))
    faulty = draw(st.booleans())
    # Faults stay rare within a faulty file, so that one fault meets clean rows.
    numbers = _CLEAN_NUMBERS
    labels = _CLEAN_LABELS
    if faulty:
        numbers = st.integers(0, 9).flatmap(lambda k: _ODD_CELLS if k == 0 else _CLEAN_NUMBERS)
        labels = st.integers(0, 4).flatmap(lambda k: _ODD_LABELS if k == 0 else _CLEAN_LABELS)
    widths = [width] * 4 + ([width - 1, width + 1] if faulty else [])
    header = draw(st.sampled_from([None, "grid", "random"]))
    lines = []
    if header == "grid":
        lines.append(",".join([repr(float(t)) for t in np.linspace(0.0, 1.0, width)]
                              + [draw(st.sampled_from(["label", " Label "]))]))
    elif header == "random":
        lines.append(",".join(draw(st.lists(numbers, min_size=width, max_size=width))
                              + ["label"]))
    for _ in range(draw(st.integers(0, 5))):
        row_width = draw(st.sampled_from(widths))
        cells = draw(st.lists(numbers, min_size=row_width, max_size=row_width))
        lines.append(",".join(cells + [draw(labels)]))
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", ",", "\t", "# note", "#,#"])))
    if draw(st.booleans()):
        lines.insert(0, "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    blob = (newline.join(lines) + draw(st.sampled_from([newline, ""]))).encode("utf-8")
    if faulty and draw(st.integers(0, 4)) == 0:
        blob += b"1.0,\xff\xfe,1\n"
    return blob


def _fresh_file(directory, blob):
    # A new file each time: rewriting one in place waits for the disk on ext4.
    path = directory / "data.csv"
    path.unlink(missing_ok=True)
    path.write_bytes(blob)
    return path


def _outcome(load):
    """What ``load`` returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = "ok", load()
        except FuncSvmError as exc:
            result = type(exc).__name__, str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


class TestTableMatchesRowByRow:
    """Both paths, whichever the file: bit-identical values or the same error,
    and the same warnings (``loadtxt`` adds none)."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=csv_files())
    def test_csv_rows(self, tmp_path, blob, monkeypatch):
        path = _fresh_file(tmp_path, blob)

        def load():
            data = load_dataset(DatasetDescriptor(str(path)))
            return (data.value_matrix().tobytes(), data.labels.tobytes(),
                    data.grid.abscissae.tobytes(), data.grid.weights.tobytes())

        fast = _outcome(load)
        with monkeypatch.context() as m:
            m.setattr(datasets, "_read_table", lambda p: None)
            assert _outcome(load) == fast

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=csv_files())
    def test_predict_curves(self, tmp_path, blob, monkeypatch):
        path = _fresh_file(tmp_path, blob)
        # the grid of the generated headers with 3 columns
        grid = SamplingGrid.from_abscissae(np.linspace(0.0, 1.0, 3))

        def load():
            curves = datasets.load_curves(str(path), grid)
            return b"".join(f.values.tobytes() for f in curves), len(curves)

        fast = _outcome(load)
        with monkeypatch.context() as m:
            m.setattr(datasets, "_read_table", lambda p: None)
            assert _outcome(load) == fast
