"""Dataset ingestion: generic CSV plus adapters for the two benchmark layouts.

Generic ``csv_rows`` format: one curve per row, value columns then a label
column.  An optional header row carries the abscissae for the value
columns (its last cell is the label column name); they must be finite and
strictly increasing.  :func:`load_curves` reads the same layout, with or
without the label column, onto a given grid for prediction.  Parsing is
locale-independent: decimal points only.  A ``csv_rows`` file whose data
rows all parse in one ``np.loadtxt`` call is read that way; any other file
goes row by row through ``csv``, which names the line of a bad cell.

``tecator``: rows of 100 absorbance channels (wavelengths 850..1050 nm)
followed by the fat percentage; the label is +1 when fat exceeds the
threshold (default 20); a fat cell that is not a finite number is an error.

``phoneme``: rows of 256 log-periodogram values followed by a class name;
"aa" maps to +1 and "ao" to -1 (overridable), domain taken as [0, 1].
The first row of a tecator or phoneme file is a header of names when none
of its value cells reads as a number.  In every layout, a header with no
data row after it is a ``ParseError``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GridMismatchError, ParseError, UsageError
from .functions import (
    LabeledDataset, SampledFunction, SamplingGrid, is_finite_number, is_number,
)
from .persistence import atomic_write_bytes

__all__ = ["DatasetDescriptor", "load_dataset", "load_curves", "write_csv"]

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
        if not isinstance(self.path, str):
            raise UsageError(f"dataset path must be a string, got {self.path!r}")
        if self.label_map is not None and not (
            isinstance(self.label_map, dict)
            and all(is_number(v) and v in (-1, 1) for v in self.label_map.values())
        ):
            raise UsageError(f"label_map must map labels to -1 or +1, got {self.label_map!r}")
        if not _finite_numbers([self.fat_threshold]):
            raise UsageError(
                f"fat_threshold must be a finite number, got {self.fat_threshold!r}"
            )
        if self.interval is not None and not (
            _finite_numbers(self.interval) and len(self.interval) == 2
        ):
            raise UsageError(f"interval must be two finite numbers, got {self.interval!r}")
        if self.abscissae is not None and not _finite_numbers(self.abscissae):
            raise UsageError("abscissae must be finite numbers")


def _finite_numbers(values) -> bool:
    """Whether ``values`` is a sequence of numbers that are finite as floats."""
    try:
        return all(is_finite_number(v) for v in values)
    except TypeError:
        return False


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
    """``(line, cells)`` of each row that holds a non-blank cell."""
    rows = []
    line = 0
    # Stream the file: an in-memory copy of the text would raise peak memory.
    try:
        with open(path, newline="") as handle:
            for line, row in enumerate(csv.reader(handle), 1):
                if _has_data(row):
                    rows.append((line, row))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path}: {exc}") from None
    except csv.Error as exc:
        raise ParseError(str(exc), line=line + 1) from None
    if not rows:
        raise ParseError(f"{path} contains no data rows")
    return rows


def _has_data(row) -> bool:
    """Rows with no cell but blanks are skipped, wherever they are."""
    return any(c.strip() for c in row)


def _is_header(row) -> bool:
    # Header rows carry numeric abscissae, so detect them by the label column.
    return row[-1].strip().lower() == "label"


def _read_table(path: str):
    """``(header, table)`` of a CSV file whose data rows all parse as floats
    in one ``np.loadtxt`` call, where ``header`` is the ``(line, cells)`` of
    a header row or None; None when the file needs :func:`_read_rows`.

    The values equal those of the row-by-row path bit for bit: both end in
    ``PyOS_string_to_double``, and ``loadtxt`` rejects what only ``float``
    reads (``1_0``, other scripts' digits).  These files go to that path: a
    line that may hold a cell over the ``csv`` field limit, no data row
    (``loadtxt`` would warn), and any cell or byte ``loadtxt`` rejects
    (quotes, blanks, ragged rows, an undecodable byte).
    """
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                if len(raw) > limit and max(map(len, raw.split(b","))) > limit:
                    return None
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = ((line, row) for line, row in enumerate(reader, 1) if _has_data(row))
            first = next(rows, None)
            if first is None:
                return None
            header = first if _is_header(first[1]) else None
            skip = reader.line_num if header else 0
            if header and next(rows, None) is None:
                return None
        table = np.loadtxt(path, delimiter=",", skiprows=skip, comments=None, ndmin=2)
    except (OSError, csv.Error, ValueError):
        return None
    return header, table


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
        value = _parse_float(raw, line)
        mapped = int(value) if math.isfinite(value) else value
    if mapped not in (-1, 1):
        raise ParseError(f"label {raw!r} maps to {mapped}, expected -1 or +1", line=line)
    return mapped


def load_dataset(desc: DatasetDescriptor) -> LabeledDataset:
    """Parse the described file into curves on a shared grid, order preserved."""
    if desc.format == "csv_rows":
        return _load_csv_rows(desc)
    _, rows = _data_rows(desc.path, _is_names_header)
    if desc.format == "tecator":
        values = _value_rows(rows, TECATOR_CHANNELS + 1, "tecator row (100 absorbances + fat)")
        labels = [_fat_label(row[-1], desc.fat_threshold, line) for line, row in rows]
        grid = _grid_for(desc, TECATOR_CHANNELS, default_interval=TECATOR_RANGE)
    else:
        values = _value_rows(rows, PHONEME_LENGTH + 1, "phoneme row (256 values + class)")
        mapping = desc.label_map or PHONEME_CLASSES
        labels = [_map_label(row[-1], mapping, line) for line, row in rows]
        grid = _grid_for(desc, PHONEME_LENGTH)
    return LabeledDataset.from_matrix(grid, values, labels)


def _data_rows(path: str, is_header):
    """``(header, rows)`` of a CSV file: its first row when ``is_header``
    accepts that row's cells, else None, and the rows after it, each as
    ``(line, cells)``."""
    rows = _read_rows(path)
    if not is_header(rows[0][1]):
        return None, rows
    if len(rows) == 1:
        raise ParseError(f"{path} has a header but no data rows", line=rows[0][0])
    return rows[0], rows[1:]


def _is_names_header(row) -> bool:
    """The tecator and phoneme header rule: no value cell reads as a number."""
    for cell in row[:-1]:
        try:
            float(cell)
            return False
        except ValueError:
            pass
    return True


def _value_rows(rows, width: int, what: str) -> np.ndarray:
    """The (N, width - 1) matrix of all cells but the last of ``rows``, each
    of which must hold ``width`` cells; ``what`` names a row in that error."""
    values = np.empty((len(rows), width - 1))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{what} has {len(row)} cells, expected {width}", line=line)
        values[i] = _parse_row(row[:-1], line)
    return values


def _fat_label(cell: str, threshold: float, line: int) -> int:
    fat = _parse_float(cell, line)
    if not math.isfinite(fat):
        raise ParseError(f"fat cell {cell!r} is not a finite number", line=line)
    return 1 if fat > threshold else -1


def _header_grid(header) -> SamplingGrid:
    """The sampling grid at a header row's abscissae; a ``ParseError`` that
    names the header's line when they give none."""
    line, cells = header
    t = _parse_row(cells[:-1], line)
    if not (np.isfinite(t).all() and np.all(t[1:] > t[:-1])):
        raise ParseError("header abscissae must be finite and strictly increasing", line=line)
    try:
        return SamplingGrid.from_abscissae(t)
    except ConfigurationError as exc:
        raise ParseError(f"header abscissae give no sampling grid: {exc}", line=line) from None


def _load_csv_rows(desc: DatasetDescriptor) -> LabeledDataset:
    fast = _read_table(desc.path) if desc.label_map is None else None
    if fast is not None:
        header, table = fast
        header_grid = _header_grid(header) if header else None
        labels = table[:, -1]
        if table.shape[1] >= 3 and (np.abs(labels) == 1.0).all():
            return _csv_rows_dataset(desc, header_grid, table[:, :-1], labels.astype(int))
    # Header row: abscissae for the value columns, then a 'label' column name.
    header, rows = _data_rows(desc.path, _is_header)
    header_grid = _header_grid(header) if header else None
    width = len(rows[0][1])
    if width < 3:
        raise ParseError("rows need at least two value columns plus a label",
                         line=rows[0][0])
    values = _value_rows(rows, width, "row")
    labels = [_map_label(row[-1], desc.label_map, line) for line, row in rows]
    return _csv_rows_dataset(desc, header_grid, values, labels)


def _csv_rows_dataset(desc, header_grid, values, labels) -> LabeledDataset:
    grid = (
        header_grid
        if header_grid is not None and desc.abscissae is None
        else _grid_for(desc, values.shape[1])
    )
    return LabeledDataset.from_matrix(grid, values, labels)


def load_curves(path: str, grid: SamplingGrid) -> list[SampledFunction]:
    """Curves on ``grid`` from ``csv_rows`` rows with their labels or bare
    value rows; a header must hold the abscissae of ``grid`` exactly (both
    are written with ``repr``)."""
    n = len(grid)
    fast = _read_table(path)
    if fast is not None:
        header, table = fast
        if header:
            _check_header(header, grid)
        if table.shape[1] in (n, n + 1):
            return [SampledFunction(grid, values) for values in table[:, :n]]
    header, rows = _data_rows(path, _is_header)
    if header:
        _check_header(header, grid)
    curves = []
    for line, row in rows:
        if len(row) == n + 1:
            row = row[:-1]
        if len(row) != n:
            raise GridMismatchError(
                f"line {line}: row has {len(row)} values, model grid expects {n}"
            )
        curves.append(SampledFunction(grid, _parse_row(row, line)))
    return curves


def _check_header(header, grid: SamplingGrid) -> None:
    if not np.array_equal(_header_grid(header).abscissae, grid.abscissae):
        a, b = grid.interval
        raise GridMismatchError(
            f"line {header[0]}: header abscissae differ from the model grid "
            f"({len(grid)} points on [{a:g}, {b:g}])"
        )


def write_csv(data: LabeledDataset, path: str) -> None:
    """Write a dataset in the generic csv_rows layout (inverse of loading it)."""
    header = [repr(float(t)) for t in data.grid.abscissae] + ["label"]
    lines = [",".join(header)]
    for f, y in zip(data.functions, data.labels):
        lines.append(",".join([repr(float(v)) for v in f.values] + [str(int(y))]))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
