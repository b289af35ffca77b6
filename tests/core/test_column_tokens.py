"""The computation cache's ``tokens`` section: a frame column's JSON, once.

The vega-lite writer takes a table column's tokens from the cache when the
column is the very object the pass's frame holds under the table's name
(scatter tables hold the frame's own columns).  These tests pin:

- an edit of ``q0`` keeps ``q1``'s tuple (the same object, a hit) and
  drops ``q0``'s; a row-set change drops the whole slot;
- with the cache off nothing is stored and the bytes do not change;
- a column that is not the frame's current column of its name (a filtered
  subframe's, or one the frame has since replaced) is formatted where it
  is written, never served from the cache;
- two threads encoding passes over one frame format each column once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.core.executor.cache import computation_cache
from repro.service.session import encode_recommendations
from repro.vis import ColumnTable, Encoding, VisSpec
from repro.vis import vegalite

MEASURES = [f"q{i}" for i in range(6)]


def measure_frame(rows: int = 500) -> LuxDataFrame:
    """Six normal measures and three nominal dimensions (6, 12, 24 values)."""
    rng = np.random.default_rng(0)
    data: dict = {name: rng.normal(0.0, 1.0, rows) for name in MEASURES}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        data[name] = [f"v{i % card}" for i in range(rows)]
    return LuxDataFrame(data)


def recommendations(frame: LuxDataFrame):
    with config_overlay(streaming=False):
        return frame.recommendations


def held(frame) -> dict:
    """The token tuples ``frame``'s live slot holds, by column name."""
    slot = computation_cache._slots.get(id(frame))
    if slot is None or slot.ref() is not frame:
        return {}
    with slot.lock:
        return dict(slot.tokens)


@pytest.fixture
def formats(monkeypatch):
    """Every column ``vegalite._tokens`` formats, in call order."""
    seen: list = []
    lock = threading.Lock()
    original = vegalite._tokens

    def counted(col):
        with lock:
            seen.append(col)
        return original(col)

    monkeypatch.setattr(vegalite, "_tokens", counted)
    return seen


def same(columns: list, expected: list) -> bool:
    """Whether ``columns`` are the ``expected`` objects, in order."""
    return len(columns) == len(expected) and all(a is b for a, b in zip(columns, expected))


def scatter(frame, x: str, y: str) -> VisSpec:
    spec = VisSpec("point", [Encoding("x", x, "quantitative"), Encoding("y", y, "quantitative")])
    spec.data = ColumnTable({x: frame.column(x), y: frame.column(y)})
    return spec


# ----------------------------------------------------------------------
def test_an_edit_keeps_the_tokens_of_untouched_columns():
    frame = measure_frame()
    encode_recommendations(recommendations(frame), frame)
    before = held(frame)
    assert set(before) == set(MEASURES)  # the Correlation scatters' columns
    frame["q0"] = frame["q0"].to_numpy()[::-1]
    after = held(frame)
    assert "q0" not in after
    assert all(after[name] is before[name] for name in MEASURES[1:])
    slot = computation_cache._slots[id(frame)]
    hits = slot.hits
    assert computation_cache.tokens(frame, "q1", vegalite._tokens) is before["q1"]
    assert slot.hits == hits + 1
    assert computation_cache.tokens(frame, "q0", vegalite._tokens) == tuple(
        vegalite._tokens(frame.column("q0"))
    )


def test_a_row_set_change_drops_the_slot():
    frame = measure_frame()
    encode_recommendations(recommendations(frame), frame)
    slot = computation_cache._slots[id(frame)]
    assert slot.tokens
    values = frame["q5"].to_list()
    values[7] = None
    frame["q5"] = values  # a column edit: the slot migrates
    assert computation_cache._slots[id(frame)] is slot and "q1" in held(frame)
    frame.dropna(inplace=True)
    assert len(frame) == 499
    assert computation_cache._slots.get(id(frame)) is not slot
    assert held(frame) == {}
    assert len(computation_cache.tokens(frame, "q1", vegalite._tokens)) == 499


def test_cache_off_stores_nothing_and_writes_the_same_bytes():
    frame = measure_frame()
    recs = recommendations(frame)
    with config_overlay(computation_cache=False):
        uncached = encode_recommendations(recs, frame)
        assert held(frame) == {}
    assert uncached == encode_recommendations(recs) == encode_recommendations(recs, frame)
    assert set(held(frame)) == set(MEASURES)


def test_other_columns_of_the_name_are_formatted_where_written(formats):
    frame = measure_frame()
    # A filtered subframe's columns: same names, other objects.
    subset = frame[frame["d0"] == "v0"]
    shown = scatter(subset, "q0", "q1")
    alone = vegalite.spec_payload(shown, 0.5)
    formats.clear()
    assert vegalite.spec_payload(shown, 0.5, frame) == alone
    assert same(formats, [subset.column("q0"), subset.column("q1")])
    assert held(frame) == {}
    # A column the frame has replaced since the spec was executed.
    shown = scatter(frame, "q0", "q1")
    old_q0 = frame.column("q0")
    alone = vegalite.spec_payload(shown, 0.5)
    frame["q0"] = frame["q0"].to_numpy()[::-1]
    formats.clear()
    assert vegalite.spec_payload(shown, 0.5, frame) == alone
    assert same(formats, [old_q0, frame.column("q1")])
    assert set(held(frame)) == {"q1"}
    formats.clear()
    assert vegalite.spec_payload(shown, 0.5, frame) == alone
    assert same(formats, [old_q0])


def test_two_threads_format_each_column_once(formats):
    frame = measure_frame(2_000)
    recs = recommendations(frame)
    expected = encode_recommendations(recs)
    formats.clear()
    start = threading.Barrier(2)
    results: list = [None, None]

    def encode(i: int) -> None:
        start.wait()
        results[i] = encode_recommendations(recs, frame)

    threads = [threading.Thread(target=encode, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert results == [expected, expected]
    columns = [frame.column(name) for name in MEASURES]
    for column in columns:
        assert sum(col is column for col in formats) == 1
    assert set(held(frame)) == set(MEASURES)
