"""Differential tests: the list-to-column kernels against their per-cell loops.

``dtypes.infer_dtype`` and ``dtypes.coerce`` decide from a list's
distinct types and build each container in one comprehension;
``Column.unique``, ``nunique`` and ``value_counts`` count in C;
``io._build_column`` checks its cells' types once; a text column's
``==`` and ``!=`` against a scalar compare the object array in one numpy
call (``Column._compare``).  The per-cell loops they replaced are kept
here, comments aside, as the reference.  Lists
are drawn from missing markers, extreme floats, bools, large ints, numpy
scalars, numeric and other strings, datetimes and mixes of them all.
For every target dtype the two must agree on the dtype, the mask, the
values (byte for byte for numeric containers; type and value for every
element of an object array) and the type of any exception raised.
"""

from __future__ import annotations

import datetime as dt
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dataframe import dtypes, io
from repro.dataframe.column import Column
from repro.dataframe.datetimes import parse_datetime_scalar
from repro.dataframe.dtypes import BOOL, DATETIME, FLOAT64, INT64, STRING

# ----------------------------------------------------------------------
# The per-cell loops, as they were
# ----------------------------------------------------------------------
_DATETIME_TYPES = (np.datetime64, dt.datetime, dt.date)


def loop_infer_dtype(values):
    saw_float = saw_int = saw_bool = saw_dt = False
    for v in values:
        if v is None:
            continue
        if isinstance(v, (bool, np.bool_)):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            if not np.isnan(v):
                saw_float = True
            else:
                saw_float = saw_float or False
        elif isinstance(v, _DATETIME_TYPES):
            saw_dt = True
        else:
            return STRING
    if saw_dt and not (saw_float or saw_int or saw_bool):
        return DATETIME
    if saw_dt:
        return STRING
    if saw_float:
        return FLOAT64
    if saw_int:
        return INT64
    if saw_bool:
        return BOOL
    return FLOAT64


def loop_coerce(data, dtype=None):
    target = dtypes.lookup(dtype) if dtype is not None else None
    data = list(data)
    if target is None:
        target = loop_infer_dtype(data)
    n = len(data)
    mask = np.zeros(n, dtype=bool)
    if target is STRING:
        values = np.empty(n, dtype=object)
        for i, v in enumerate(data):
            if v is None or (isinstance(v, float) and np.isnan(v)):
                mask[i] = True
                values[i] = None
            else:
                values[i] = v if isinstance(v, str) else str(v)
        return values, mask, STRING
    if target is DATETIME:
        values = np.empty(n, dtype="datetime64[ns]")
        for i, v in enumerate(data):
            if v is None or (isinstance(v, float) and np.isnan(v)):
                mask[i] = True
                values[i] = np.datetime64("NaT")
            else:
                values[i] = np.datetime64(v, "ns")
        mask |= np.isnat(values)
        return values, mask, DATETIME
    values_f = np.empty(n, dtype=np.float64)
    for i, v in enumerate(data):
        if v is None:
            mask[i] = True
            values_f[i] = np.nan
        else:
            fv = float(v)
            values_f[i] = fv
            if np.isnan(fv):
                mask[i] = True
    if target is FLOAT64:
        return values_f, mask, FLOAT64
    if mask.any() and target is INT64:
        out = np.zeros(n, dtype=np.int64)
        ok = ~mask
        out[ok] = values_f[ok].astype(np.int64)
        return out, mask, INT64
    if target is INT64:
        return values_f.astype(np.int64), mask, INT64
    if target is BOOL:
        out = np.zeros(n, dtype=bool)
        ok = ~mask
        out[ok] = values_f[ok] != 0.0
        return out, mask, BOOL
    raise TypeError(f"cannot coerce to {target!r}")


def loop_unique(col):
    seen = {}
    ok = ~col.mask
    if col.dtype is STRING:
        for v in col.values[ok]:
            seen.setdefault(v)
    elif col.dtype is DATETIME:
        for v in col.values[ok]:
            seen.setdefault(v)
    else:
        for v in col.values[ok]:
            key = v.item() if hasattr(v, "item") else v
            seen.setdefault(key)
    return list(seen.keys())


def loop_value_counts(col):
    counts = {}
    ok = ~col.mask
    for v in col.values[ok]:
        key = v.item() if hasattr(v, "item") and col.dtype is not DATETIME else v
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[1])


def loop_compare(col, other, op):
    n = len(col)
    out = np.zeros(n, dtype=bool)
    right = other.values if isinstance(other, Column) else None
    mask = col.mask | (other.mask if isinstance(other, Column) else False)
    for i in range(n):
        if mask if isinstance(mask, bool) else mask[i]:
            continue
        rv = right[i] if right is not None else other
        try:
            out[i] = bool(op(col.values[i], rv))
        except TypeError:
            out[i] = False
    m = mask if isinstance(mask, np.ndarray) else col.mask.copy()
    return Column(out, m.copy(), BOOL)


def loop_build_column(cells, parse_dates):
    saw_str = any(isinstance(c, str) for c in cells if c is not None)
    if saw_str:
        as_str = [None if c is None else str(c) for c in cells]
        col = Column.from_data(as_str, STRING)
        if parse_dates:
            non_missing = [c for c in as_str if c is not None]
            if non_missing and all(
                parse_datetime_scalar(c) is not None for c in non_missing[:50]
            ):
                parsed = col.astype(DATETIME)
                if parsed.null_count() == col.null_count():
                    return parsed
        return col
    saw_float = any(isinstance(c, float) for c in cells if c is not None)
    has_missing = any(c is None for c in cells)
    if saw_float or has_missing:
        return Column.from_data(cells, FLOAT64)
    return Column.from_data(cells, INT64)


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
NAN = float("nan")
MISSING = st.sampled_from([None, NAN, -NAN, np.float64("nan"), np.float32("nan")])
EXTREME_FLOATS = st.sampled_from([np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.5])
FLOATS = st.one_of(EXTREME_FLOATS, st.floats())
BOOLS = st.one_of(st.booleans(), st.sampled_from([np.bool_(True), np.bool_(False)]))
BIG_INTS = st.sampled_from([2**53 + 1, 2**63, -(2**64), 2**1100])
INTS = st.one_of(st.integers(-3, 3), st.integers(), BIG_INTS)
NUMPY_NUMBERS = st.sampled_from(
    [
        np.float64(-2.5),
        np.float32(0.1),
        np.float16(-0.0),
        np.longdouble(1e300),
        np.int64(-7),
        np.int8(3),
        np.uint64(2**64 - 1),
        np.int64(2**62 + 1),
    ]
)
NUMERIC_STRINGS = st.sampled_from(["1.5", "-2", "1e400", " 3 ", "nan", "-inf", "1_000", "0x1"])
WORDS = st.one_of(
    st.sampled_from(["abc", "", "Brooklyn", np.str_("a"), np.str_("2.5")]),
    st.text(max_size=3),
)
DATETIMES = st.sampled_from(
    [
        np.datetime64("2020-01-01"),
        np.datetime64("2020-01-01T12:30:00.5"),
        np.datetime64("NaT"),
        dt.date(2021, 5, 6),
        dt.datetime(2022, 1, 2, 3, 4, 5),
        "2023-07-08",
    ]
)

#: Families of cells a list is drawn from: each dtype's own values with
#: missing markers, the numeric mixes, and everything at once.
FAMILIES = [
    st.one_of(MISSING, FLOATS),
    st.one_of(MISSING, INTS),
    st.one_of(MISSING, BOOLS),
    st.one_of(MISSING, FLOATS, INTS, BOOLS, NUMPY_NUMBERS),
    st.one_of(MISSING, NUMERIC_STRINGS, FLOATS, INTS),
    st.one_of(MISSING, WORDS, NUMERIC_STRINGS),
    st.one_of(MISSING, DATETIMES),
    st.one_of(MISSING, FLOATS, INTS, BOOLS, NUMPY_NUMBERS, NUMERIC_STRINGS, WORDS, DATETIMES),
]
LISTS = st.sampled_from(FAMILIES).flatmap(lambda cells: st.lists(cells, max_size=12))
TARGETS = [None, FLOAT64, INT64, BOOL, STRING, DATETIME]


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", exception type)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # out-of-range casts warn on both sides
        try:
            return "ok", fn(*args)
        except Exception as exc:  # the type is what is compared
            return "raised", type(exc)


def elements(values: np.ndarray) -> list:
    """An object array's elements, each with its type."""
    return [(type(v), v) for v in values.tolist()]


def assert_same_triple(got, want) -> None:
    (values, mask, dtype), (ref_values, ref_mask, ref_dtype) = got, want
    assert dtype is ref_dtype
    assert mask.dtype == ref_mask.dtype == np.bool_
    assert mask.tobytes() == ref_mask.tobytes()
    assert values.dtype == ref_values.dtype
    if values.dtype == object:
        assert elements(values) == elements(ref_values)
    else:
        assert values.tobytes() == ref_values.tobytes()


def typed(items: list) -> list:
    """Items with each value's type; repr tells -0.0 from 0.0 and NaNs apart."""
    out = []
    for item in items:
        value, count = item if isinstance(item, tuple) else (item, None)
        out.append((type(value), repr(value), count))
    return out


def assert_same_counts(col: Column) -> None:
    assert typed(col.unique()) == typed(loop_unique(col))
    assert col.nunique() == len(loop_unique(col))
    assert typed(col.value_counts()) == typed(loop_value_counts(col))
    # factorize keys its labels the way unique does.
    codes, labels = col.factorize()
    assert typed(labels) == typed(col.unique())
    assert ((codes == -1) == col.mask).all()


# ----------------------------------------------------------------------
@given(values=LISTS)
@settings(max_examples=600, deadline=None)
def test_infer_dtype_matches_the_loop(values):
    want = loop_infer_dtype(values)
    assert dtypes.infer_dtype(values) is want
    # A one-shot iterator reads like the list it yields.
    assert dtypes.infer_dtype(iter(values)) is want


@given(values=LISTS)
@settings(max_examples=600, deadline=None)
def test_coerce_and_counts_match_the_loops(values):
    for target in TARGETS:
        got = outcome(dtypes.coerce, values, target)
        want = outcome(loop_coerce, values, target)
        assert got[0] == want[0], (target, got, want)
        if got[0] == "raised":
            assert got[1] is want[1], target
            continue
        assert_same_triple(got[1], want[1])
        assert_same_counts(Column(*got[1]))


SHAPES = hnp.array_shapes(max_dims=1, max_side=12)
DATETIME_CELLS = st.sampled_from(
    [np.datetime64("2020-01-01", "ns"), np.datetime64("NaT", "ns"), np.datetime64(5, "ns")]
)
ARRAYS = st.one_of(
    hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.int16, np.uint8, np.bool_]),
        SHAPES,
    ),
    hnp.arrays(hnp.unicode_string_dtypes(max_len=2), SHAPES),
    hnp.arrays("datetime64[ns]", SHAPES, elements=DATETIME_CELLS),
)


@given(arr=ARRAYS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_counts_of_array_columns_match_the_loops(arr, data):
    """Columns over numpy arrays: coerce's, and the raw array under an
    arbitrary mask (unmasked NaN, a numpy unicode array for strings)."""
    col = Column.from_data(arr)
    assert_same_counts(col)
    mask = data.draw(hnp.arrays(np.bool_, len(arr)))
    assert_same_counts(Column(arr, mask, col.dtype))


CSV_CELLS = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.sampled_from([0.5, -2.25, 1e300]),
    st.sampled_from(["a", "b", "2020-01-01", "2021-02-03T04:05"]),
)


@given(cells=st.lists(CSV_CELLS, max_size=12), parse_dates=st.booleans())
@settings(max_examples=300, deadline=None)
def test_build_column_matches_the_loop(cells, parse_dates):
    got = io._build_column(cells, parse_dates)
    want = loop_build_column(cells, parse_dates)
    assert_same_triple((got.values, got.mask, got.dtype), (want.values, want.mask, want.dtype))


def test_ints_beyond_float_range_still_overflow():
    with pytest.raises(OverflowError):
        dtypes.coerce([1, 2**1100])
    with pytest.raises(OverflowError):
        dtypes.coerce([1.5, 2**1100], FLOAT64)
    values, _, dtype = dtypes.coerce([2**1100, "a"])
    assert dtype is STRING and values[0] == str(2**1100)


def test_nan_only_floats_do_not_make_an_int_list_float():
    assert dtypes.infer_dtype([1, NAN, None]) is INT64
    assert dtypes.infer_dtype([True, np.float32("nan")]) is BOOL
    assert dtypes.infer_dtype([np.datetime64("2020-01-01"), NAN]) is DATETIME
    assert dtypes.infer_dtype([1, NAN, 0.5]) is FLOAT64


TEXT_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["a", "b", "", "Brooklyn", "1", np.str_("a"), np.str_("b")]),
    st.text(max_size=2),
)
#: What a text column is compared with: values it may hold (as ``str``
#: and ``np.str_``), values it cannot hold, and non-text scalars.
SCALARS = st.one_of(
    st.sampled_from(["a", "b", "", "absent", np.str_("a"), np.str_("zz")]),
    st.text(max_size=2),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.sampled_from([2**70, np.int64(1), np.float64("nan"), b"a", None, dt.date(2020, 1, 1)]),
)
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


@given(cells=st.lists(TEXT_CELLS, max_size=12), other=SCALARS, data=st.data())
@settings(max_examples=400, deadline=None)
def test_text_comparisons_match_the_loop(cells, other, data):
    """Object columns from cells, and numpy unicode arrays under any mask."""
    col = Column.from_data(cells, STRING)
    text = [c for c in cells if c is not None]
    mask = data.draw(hnp.arrays(np.bool_, len(text)))
    unicode = Column(np.array(text, dtype=str), mask, STRING)
    for column in (col, unicode):
        for op in COMPARISONS:
            got = outcome(op, column, other)
            want = outcome(loop_compare, column, other, op)
            assert got[0] == want[0], (op, got, want)
            if got[0] == "raised":
                assert got[1] is want[1], op
                continue
            assert got[1].dtype is want[1].dtype is BOOL
            assert got[1].values.dtype == want[1].values.dtype == np.bool_
            assert got[1].values.tobytes() == want[1].values.tobytes(), op
            assert got[1].mask.tobytes() == want[1].mask.tobytes(), op


def test_text_equality_clears_missing_rows():
    values = np.array(["a", None, "a", "b"], dtype=object)
    col = Column(values, np.array([False, True, True, False]), STRING)
    assert (col == "a").values.tolist() == [True, False, False, False]
    assert (col != "a").values.tolist() == [False, False, False, True]
    assert (col != "a").mask.tolist() == [False, True, True, False]

