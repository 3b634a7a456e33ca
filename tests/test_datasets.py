import numpy as np
import pytest

from funcsvm import DatasetDescriptor, load_dataset, write_csv
from funcsvm.datasets import TECATOR_RANGE, _parse_row
from funcsvm.errors import ParseError, UsageError


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
