"""Dataset ingestion: generic CSV plus adapters for the two benchmark layouts.

Generic ``csv_rows`` format: one curve per row, value columns then a label
column.  An optional header row carries the abscissae for the value
columns (its last cell is the label column name).  Parsing is
locale-independent: decimal points only.

``tecator``: rows of 100 absorbance channels (wavelengths 850..1050 nm)
followed by the fat percentage; the label is +1 when fat exceeds the
threshold (default 20).

``phoneme``: rows of 256 log-periodogram values followed by a class name;
"aa" maps to +1 and "ao" to -1 (overridable), domain taken as [0, 1].
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ParseError, UsageError
from .functions import LabeledDataset, SamplingGrid

__all__ = ["DatasetDescriptor", "load_dataset", "write_csv"]

FORMATS = ("csv_rows", "tecator", "phoneme")

TECATOR_CHANNELS = 100
TECATOR_RANGE = (850.0, 1050.0)
TECATOR_FAT_THRESHOLD = 20.0
PHONEME_LENGTH = 256
PHONEME_CLASSES = {"aa": 1, "ao": -1}


@dataclass(frozen=True)
class DatasetDescriptor:
    path: str
    format: str = "csv_rows"
    label_map: dict | None = None
    fat_threshold: float = TECATOR_FAT_THRESHOLD
    interval: tuple[float, float] | None = None
    abscissae: tuple | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise UsageError(f"unknown dataset format {self.format!r}")


def _parse_float(cell: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"non-numeric cell {cell!r}", line=line) from None


def _parse_row(cells, line: int) -> np.ndarray:
    """Numeric cells of one row.  NumPy converts each string with ``float``;
    a cell it rejects is found by the per-cell path, which names the line."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array([_parse_float(c, line) for c in cells])


def _read_rows(path: str):
    # Stream the file: an in-memory copy of the text would raise peak memory.
    try:
        with open(path, newline="") as handle:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(handle))
                    if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    return rows


def _grid_for(desc: DatasetDescriptor, n_cols: int, default_interval=(0.0, 1.0)) -> SamplingGrid:
    if desc.abscissae is not None:
        t = np.asarray(desc.abscissae, dtype=float)
        if t.size != n_cols:
            raise ConfigurationError(
                f"declared grid length {t.size} does not match file columns {n_cols}"
            )
        return SamplingGrid.from_abscissae(t)
    a, b = desc.interval if desc.interval is not None else default_interval
    return SamplingGrid.uniform(a, b, n_cols)


def _map_label(raw: str, label_map: dict | None, line: int) -> int:
    raw = raw.strip()
    if label_map is not None:
        if raw not in label_map:
            raise ParseError(f"label {raw!r} not covered by the label mapping", line=line)
        mapped = int(label_map[raw])
    else:
        mapped = int(_parse_float(raw, line))
    if mapped not in (-1, 1):
        raise ParseError(f"label {raw!r} maps to {mapped}, expected -1 or +1", line=line)
    return mapped


def load_dataset(desc: DatasetDescriptor) -> LabeledDataset:
    """Parse the described file into curves on a shared grid, order preserved."""
    rows = _read_rows(desc.path)
    if desc.format == "csv_rows":
        return _load_csv_rows(desc, rows)
    if desc.format == "tecator":
        return _load_tecator(desc, rows)
    return _load_phoneme(desc, rows)


def _looks_like_header(row) -> bool:
    try:
        float(row[0])
        return False
    except ValueError:
        return True


def _load_csv_rows(desc: DatasetDescriptor, rows) -> LabeledDataset:
    abscissae = desc.abscissae
    first_line, first_row = rows[0]
    # Header row: abscissae for the value columns, then a 'label' column name.
    if first_row[-1].strip().lower() == "label":
        abscissae = _parse_row(first_row[:-1], first_line)
        rows = rows[1:]
        if not rows:
            raise ParseError("no data rows after the header")
    n_cols = len(rows[0][1]) - 1
    if n_cols < 2:
        raise ParseError("rows need at least two value columns plus a label",
                         line=rows[0][0])
    values = np.empty((len(rows), n_cols))
    labels = np.empty(len(rows), dtype=int)
    for i, (line, row) in enumerate(rows):
        if len(row) != n_cols + 1:
            raise ParseError(
                f"row has {len(row)} cells, expected {n_cols + 1}", line=line
            )
        values[i] = _parse_row(row[:-1], line)
        labels[i] = _map_label(row[-1], desc.label_map, line)
    grid = (
        SamplingGrid.from_abscissae(np.asarray(abscissae, dtype=float))
        if abscissae is not None and desc.abscissae is None
        else _grid_for(desc, n_cols)
    )
    return LabeledDataset.from_matrix(grid, values, labels)


def _load_tecator(desc: DatasetDescriptor, rows) -> LabeledDataset:
    if _looks_like_header(rows[0][1]):
        rows = rows[1:]
    expected = TECATOR_CHANNELS + 1
    values = np.empty((len(rows), TECATOR_CHANNELS))
    labels = np.empty(len(rows), dtype=int)
    for i, (line, row) in enumerate(rows):
        if len(row) != expected:
            raise ParseError(
                f"tecator row has {len(row)} cells, expected {expected} "
                "(100 absorbances + fat)", line=line,
            )
        values[i] = _parse_row(row[:-1], line)
        fat = _parse_float(row[-1], line)
        labels[i] = 1 if fat > desc.fat_threshold else -1
    grid = _grid_for(desc, TECATOR_CHANNELS, default_interval=TECATOR_RANGE)
    return LabeledDataset.from_matrix(grid, values, labels)


def _load_phoneme(desc: DatasetDescriptor, rows) -> LabeledDataset:
    if _looks_like_header(rows[0][1]) and rows[0][1][0].strip().lower() not in PHONEME_CLASSES:
        rows = rows[1:]
    mapping = desc.label_map or PHONEME_CLASSES
    expected = PHONEME_LENGTH + 1
    values = np.empty((len(rows), PHONEME_LENGTH))
    labels = np.empty(len(rows), dtype=int)
    for i, (line, row) in enumerate(rows):
        if len(row) != expected:
            raise ParseError(
                f"phoneme row has {len(row)} cells, expected {expected} "
                "(256 values + class)", line=line,
            )
        values[i] = _parse_row(row[:-1], line)
        labels[i] = _map_label(row[-1], mapping, line)
    grid = _grid_for(desc, PHONEME_LENGTH)
    return LabeledDataset.from_matrix(grid, values, labels)


def write_csv(data: LabeledDataset, path: str) -> None:
    """Write a dataset in the generic csv_rows layout (inverse of loading it)."""
    header = [repr(float(t)) for t in data.grid.abscissae] + ["label"]
    lines = [",".join(header)]
    for f, y in zip(data.functions, data.labels):
        lines.append(",".join([repr(float(v)) for v in f.values] + [str(int(y))]))
    Path(path).write_text("\n".join(lines) + "\n")
