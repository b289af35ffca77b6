"""CSV input/output with type inference."""

from __future__ import annotations

import csv
import io as _io
from typing import Any, Iterable, Sequence

import numpy as np

from .column import Column
from .datetimes import parse_datetime_scalar
from .dtypes import DATETIME, FLOAT64, INT64, STRING
from .frame import DataFrame

__all__ = ["read_csv", "to_csv"]

_MISSING = {"", "na", "n/a", "nan", "null", "none", "-"}

#: Rows ``read_csv`` gathers before it transposes them and parses each
#: column's texts in one call: big enough that the per-column work
#: dominates, small enough that the row lists stay a fraction of the
#: parsed frame.
_CHUNK_ROWS = 4096


def _infer_cell(text: str) -> Any:
    """Parse one CSV cell into int/float/str or None (missing)."""
    stripped = text.strip()
    if stripped.lower() in _MISSING:
        return None
    try:
        return int(stripped)
    except ValueError:
        pass
    # float() also accepts words like "inf"/"infinity"; require a digit so
    # such words stay strings.
    if any(ch.isdigit() for ch in stripped):
        try:
            return float(stripped)
        except ValueError:
            pass
    return stripped


def _parse_cells(texts: Sequence[str]) -> list[Any]:
    """``[_infer_cell(t) for t in texts]``, converting the column at once.

    A column of numbers is one conversion (:func:`_parse_numbers`), and so
    is a column of numbers and missing markers: the markers (found among
    the distinct texts) are masked, the other texts converted, and
    ``None`` put back.  Anything else (words, ``inf``) is inferred once
    per distinct text, so equal text cells share one ``str``.
    """
    values = _parse_numbers(texts)
    if values is not None:
        return values
    distinct = set(texts)
    markers = {text for text in distinct if text.strip().lower() in _MISSING}
    if markers:
        values = _parse_numbers([text for text in texts if text not in markers])
        if values is not None:
            parsed = iter(values)
            return [None if text in markers else next(parsed) for text in texts]
    table = {text: _infer_cell(text) for text in distinct}
    return list(map(table.__getitem__, texts))


def _parse_numbers(texts: Sequence[str]) -> list[Any] | None:
    """``_infer_cell`` of each text if all are numbers, else None.

    Ints are one ``map(int, ...)``.  Finite floats are one
    ``map(float, ...)``; only their integral values can be texts ``int``
    accepts (``"3"``, ``"-0"``), and those take ``int`` as ``_infer_cell``
    would.
    """
    try:
        return list(map(int, texts))
    except ValueError:
        pass
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    floats = np.array(values)
    if not np.isfinite(floats).all():
        return None
    for i in np.flatnonzero(floats == np.floor(floats)).tolist():
        try:
            values[i] = int(texts[i])
        except ValueError:  # "3.0", "1e3", or past int's digit limit
            pass
    return values


def _build_column(cells: list[Any], parse_dates: bool) -> Column:
    # Cells are exactly int, float, str or None (see _infer_cell).
    kinds = set(map(type, cells))
    if str in kinds:
        as_str = [None if c is None else str(c) for c in cells]
        col = Column.from_data(as_str, STRING)
        if parse_dates:
            non_missing = [c for c in as_str if c is not None]
            if non_missing and all(
                parse_datetime_scalar(c) is not None for c in non_missing[:50]
            ):
                parsed = col.astype(DATETIME)
                # Only accept the parse when it did not create new missing.
                if parsed.null_count() == col.null_count():
                    return parsed
        return col
    if float in kinds or type(None) in kinds:
        return Column.from_data(cells, FLOAT64)
    return Column.from_data(cells, INT64)


def read_csv(
    path_or_buffer: Any,
    delimiter: str = ",",
    parse_dates: bool = True,
    frame_cls: type[DataFrame] | None = None,
) -> DataFrame:
    """Load a CSV file (path, file object, or string buffer) into a frame.

    Numeric and datetime types are inferred per column; cells matching common
    missing markers ("", "NA", "NaN", ...) become missing values, and a row
    shorter than the header is padded with them.  A row longer than the
    header, or a field the csv module rejects (e.g. one past its size
    limit), raises ``ValueError`` naming the line.
    """
    if hasattr(path_or_buffer, "read"):
        handle = path_or_buffer
        close = False
    else:
        handle = open(path_or_buffer, "r", newline="", encoding="utf-8")
        close = True
    try:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV input") from None
        names = _dedupe([h.strip() for h in header])
        raw: list[list[Any]] = [[] for _ in names]
        rows: list[list[str]] = []
        for row in reader:
            if not row:
                continue
            if len(row) > len(names):
                raise ValueError(
                    f"CSV line {reader.line_num}: expected {len(names)} "
                    f"fields, saw {len(row)}"
                )
            if len(row) < len(names):
                row += [""] * (len(names) - len(row))
            rows.append(row)
            if len(rows) == _CHUNK_ROWS:
                _parse_chunk(rows, raw)
                rows = []
        _parse_chunk(rows, raw)
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    finally:
        if close:
            handle.close()

    data = {
        name: _build_column(cells, parse_dates) for name, cells in zip(names, raw)
    }
    cls = frame_cls or DataFrame
    return cls(data)


def _parse_chunk(rows: list[list[str]], raw: list[list[Any]]) -> None:
    """Transpose one chunk of equal-length rows and parse it column by column."""
    for cells, texts in zip(raw, zip(*rows)):
        cells += _parse_cells(texts)


def _dedupe(names: Iterable[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for name in names:
        if name in seen:
            seen[name] += 1
            out.append(f"{name}.{seen[name]}")
        else:
            seen[name] = 0
            out.append(name)
    return out


def to_csv(frame: DataFrame, path: Any, delimiter: str = ",") -> None:
    """Write a frame to CSV; missing values are written as empty cells."""
    if hasattr(path, "write"):
        handle = path
        close = False
    else:
        handle = open(path, "w", newline="", encoding="utf-8")
        close = True
    try:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(frame.columns)
        cols = [frame.column(c) for c in frame.columns]
        for i in range(len(frame)):
            row = []
            for col in cols:
                v = col[i]
                row.append("" if v is None else v)
            writer.writerow(row)
    finally:
        if close:
            handle.close()


def read_csv_string(text: str, **kwargs: Any) -> DataFrame:
    """Convenience: parse CSV from an in-memory string."""
    return read_csv(_io.StringIO(text), **kwargs)
