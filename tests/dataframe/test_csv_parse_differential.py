"""Differential tests: ``read_csv``'s column parse against the per-cell loop.

``read_csv`` gathers rows in chunks, transposes each chunk once and
parses each column's texts with one call (``io._parse_cells``): one
``map(int, ...)``, or one ``map(float, ...)`` with ints put back (either
after masking missing markers), or ``_infer_cell`` once per distinct
text.  The row loop it replaced, which
called ``_infer_cell`` on every cell before ``_build_column``, is kept
here as the reference.  CSV texts are drawn from ints and floats in
their odd spellings, missing markers, words that ``float`` reads
(``inf``, ``nan``), 5,000-digit numbers, dates and empty cells, with
short, blank and over-long rows, and with a chunk size small enough that
every example spans several chunks.  The two must agree on the column
names, each column's dtype, mask and values (byte for byte, or type and
repr of every element of an object array), and on the type and message
of any exception raised.
"""

from __future__ import annotations

import csv
import io as _io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import DataFrame, io, read_csv_string


# ----------------------------------------------------------------------
# The per-cell row loop, as it was
# ----------------------------------------------------------------------
def loop_read_csv(text: str, parse_dates: bool = True) -> DataFrame:
    reader = csv.reader(_io.StringIO(text))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty CSV input") from None
        names = io._dedupe([h.strip() for h in header])
        raw = [[] for _ in names]
        for row in reader:
            if not row:
                continue
            if len(row) > len(names):
                raise ValueError(
                    f"CSV line {reader.line_num}: expected {len(names)} "
                    f"fields, saw {len(row)}"
                )
            for j in range(len(names)):
                cell = row[j] if j < len(row) else ""
                raw[j].append(io._infer_cell(cell))
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    return DataFrame(
        {name: io._build_column(cells, parse_dates) for name, cells in zip(names, raw)}
    )


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
INTS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.integers().map(str),
    st.sampled_from(
        ["0", "-0", "+0", "007", "-007", "+5", "1_000", "-1_000_000", " 42 ", "\t-3 ",
         "٣", "١٢", "-۴۲", " 7 ", "2_0", "0_0"]
    ),
)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["-0.0", "0.0", "-0", "5e-324", "-5e-324", "1e999", "-1e999", "1e5", "1E-3", "3", "-3",
         "2.5e+10", ".5", "5.", " 1.5 ", "1_0.5", "1.7976931348623157e308", "1e308",
         "١.٥"]
    ),
)
MARKERS = st.builds(
    lambda marker, upper, pad: pad
    + "".join(ch.upper() if up else ch for ch, up in zip(marker, upper))
    + pad[::-1],
    st.sampled_from(sorted(io._MISSING)),
    st.lists(st.booleans(), min_size=4, max_size=4),
    st.sampled_from(["", " ", "\t", " \t"]),
)
WORDS = st.one_of(
    st.sampled_from(
        ["inf", "-inf", "+inf", "Infinity", "-Infinity", "INF", "nan", "NaN", "-nan",
         "0x10", "1e", "e5", "1.2.3", "abc", "Brooklyn", "²", "x1", "1,5", " a "]
    ),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=4),
)
HUGE = st.sampled_from(
    ["9" * 5000, "0" * 4999 + "1", "-" + "1" * 5000, "1" * 5000 + ".5", "1" * 4300]
)
DATES = st.sampled_from(
    ["2020-01-01", "2021-12-31", "2022-02-03T04:05:06", "2020-02-30", "1999-01-01 00:00"]
)
EMPTY = st.just("")

#: Families a column's texts are drawn from: the int and float paths'
#: own texts, their mixes with everything that must fall back, and all.
FAMILIES = [
    INTS,
    FLOATS,
    st.one_of(INTS, FLOATS),
    st.one_of(FLOATS, MARKERS, EMPTY),
    st.one_of(INTS, HUGE),
    st.one_of(FLOATS, WORDS),
    st.one_of(WORDS, MARKERS, EMPTY),
    st.one_of(DATES, EMPTY, MARKERS),
    st.one_of(INTS, FLOATS, MARKERS, WORDS, HUGE, DATES, EMPTY),
]
COLUMNS = st.sampled_from(FAMILIES).flatmap(lambda texts: st.lists(texts, max_size=14))


@st.composite
def numbers_with_markers(draw) -> list[str]:
    """Ints, floats or both, with a marker in every ``every``-th cell:
    dense (every cell) to sparse (one in 20), padded and in any case."""
    numbers = draw(st.sampled_from([INTS, FLOATS, st.one_of(INTS, FLOATS)]))
    texts = draw(st.lists(numbers, min_size=1, max_size=40))
    every = draw(st.integers(1, 20))
    start = draw(st.integers(0, every - 1))
    for i in range(start, len(texts), every):
        texts[i] = draw(MARKERS)
    return texts
NAMES = st.lists(st.sampled_from(["a", "b", "a.1", " c ", ""]), min_size=1, max_size=4)
#: What happens to a data row: kept, cut short, left blank, or made too long.
SHAPES = st.sampled_from(["keep"] * 6 + ["short", "blank", "long"])


@st.composite
def csv_texts(draw) -> str:
    names = draw(NAMES)
    columns = [draw(COLUMNS) for _ in names]
    n_rows = max(map(len, columns))
    rows = [[column[i % len(column)] if column else "" for column in columns]
            for i in range(n_rows)]
    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(names)
    for row in rows:
        shape = draw(SHAPES)
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "blank":
            writer.writerow([])
        elif shape == "long":
            row = row + draw(st.lists(INTS, min_size=1, max_size=2))
        writer.writerow(row)
    return out.getvalue()


# ----------------------------------------------------------------------
def outcome(fn, *args, **kwargs):
    """``("ok", frame)`` or ``("raised", (exception type, message))``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the type and message are what is compared
        return "raised", (type(exc), str(exc))


def typed(values) -> list:
    """Each value with its type; repr tells -0.0 from 0.0 and 3 from 3.0."""
    return [(type(v), repr(v)) for v in values]


def assert_same_frame(got: DataFrame, want: DataFrame) -> None:
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        col, ref = got.column(name), want.column(name)
        assert col.dtype is ref.dtype, name
        assert col.mask.tobytes() == ref.mask.tobytes(), name
        assert col.values.dtype == ref.values.dtype, name
        if ref.values.dtype == object:
            assert typed(col.values.tolist()) == typed(ref.values.tolist()), name
        else:
            assert col.values.tobytes() == ref.values.tobytes(), name


def assert_same_outcome(text: str, parse_dates: bool) -> None:
    got = outcome(read_csv_string, text, parse_dates=parse_dates)
    want = outcome(loop_read_csv, text, parse_dates)
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1] == want[1]
    else:
        assert_same_frame(got[1], want[1])


# ----------------------------------------------------------------------
@given(texts=COLUMNS)
@settings(max_examples=600, deadline=None)
def test_parse_cells_matches_infer_cell(texts):
    want = typed([io._infer_cell(t) for t in texts])
    assert typed(io._parse_cells(texts)) == want
    assert typed(io._parse_cells(tuple(texts))) == want


@given(texts=numbers_with_markers())
@settings(max_examples=300, deadline=None)
def test_numbers_with_markers_match_infer_cell(texts):
    assert typed(io._parse_cells(texts)) == typed([io._infer_cell(t) for t in texts])


def test_markers_keep_numbers_on_the_column_path():
    """Sparse and dense markers, padded, upper-case and literal ``nan``,
    leave a number column's parse one conversion: no cell is inferred."""
    rng = np.random.default_rng(3)
    floats = [repr(v) for v in rng.normal(0.0, 1.0, 1_000).tolist()]
    ints = [str(v) for v in rng.integers(-50, 50, 1_000).tolist()]
    markers = ["", " NA ", "NaN", "nan", "N/A", "NULL", "None", " - ", "\tna"]
    for numbers in (floats, ints):
        for every in (100, 3, 1):
            texts = [
                markers[i % len(markers)] if i % every == 0 else text
                for i, text in enumerate(numbers)
            ]
            want = typed([io._infer_cell(t) for t in texts])
            with mock.patch.object(io, "_infer_cell", side_effect=AssertionError):
                got = typed(io._parse_cells(texts))
            assert got == want, every


@given(text=csv_texts(), chunk=st.integers(1, 5), parse_dates=st.booleans())
@settings(max_examples=400, deadline=None)
def test_read_csv_matches_the_row_loop(text, chunk, parse_dates):
    with mock.patch.object(io, "_CHUNK_ROWS", chunk):
        assert_same_outcome(text, parse_dates)


def test_rows_past_one_chunk_match_the_row_loop():
    """Two and a half chunks at the shipped size, each column's path
    changing between chunks, a short row and a blank line on a boundary."""
    n = 2 * io._CHUNK_ROWS + io._CHUNK_ROWS // 2
    rng = np.random.default_rng(7)
    ints = [str(v) for v in rng.integers(-50, 50, n)]
    floats = [repr(v) for v in rng.normal(0.0, 1.0, n)]
    # ints, then floats with int-like texts, then a word at the very end
    drift = ints[: io._CHUNK_ROWS] + ["-0", "3"] + floats[io._CHUNK_ROWS + 2 :]
    drift[-1] = "inf"
    words = [f"v{v}" for v in rng.integers(0, 12, n)]
    rows = [list(row) for row in zip(ints, floats, drift, words)]
    rows[io._CHUNK_ROWS - 1] = rows[io._CHUNK_ROWS - 1][:2]
    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["i", "f", "drift", "w"])
    for i, row in enumerate(rows):
        if i == io._CHUNK_ROWS:
            writer.writerow([])
        writer.writerow(row)
    text = out.getvalue()
    assert_same_outcome(text, True)
    frame = read_csv_string(text)
    assert len(frame) == n
    assert frame.column("drift").values[io._CHUNK_ROWS] == "0"  # int 0, not -0.0


def test_column_paths_keep_int_cells_int():
    """The float path puts back the ints ``_infer_cell`` would read."""
    assert typed(io._parse_cells(["-0", "1.5", "3", "-0.0"])) == typed([0, 1.5, 3, -0.0])
    assert typed(io._parse_cells(["1", "inf"])) == typed([1, "inf"])
    words = io._parse_cells(["abc", "abc", "NA"])
    assert words == ["abc", "abc", None] and words[0] is words[1]
