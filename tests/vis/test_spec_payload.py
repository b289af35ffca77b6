"""The vega-lite writer: bytes written straight from a spec's columns.

``spec_payload`` writes each spec's payload without building row dicts.
Its bytes must be exactly ``json.dumps`` of the values they decode to (the
wire splices them into responses as such), and ``to_vegalite`` must be the
decoded vega-lite part.  This holds on the service benchmark's frame
shapes (6 measures x 3 dimensions; 500 rows under each intent of a
steering cycle, and 2k rows without intent) and on every synthetic load
scenario.  Cell-level cases (numpy types, missing and non-finite values,
dates, filter literals) are pinned below, and a differential test holds
the bytes written with the frame's cached column tokens equal to the bytes
written without them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.core.executor.cache import computation_cache
from repro.data.synthetic import SCENARIOS, make_scenario
from repro.dataframe import Column, DataFrame
from repro.dataframe.dtypes import INT64
from repro.vis import ColumnTable, Encoding, VisSpec
from repro.vis.vegalite import json_safe, spec_payload, to_vegalite

INTENTS = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]


def measure_frame(rows: int) -> LuxDataFrame:
    rng = np.random.default_rng(0)
    columns: dict = {f"q{i}": rng.normal(0.0, 1.0, rows) for i in range(6)}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        columns[name] = [f"v{i % card}" for i in range(rows)]
    return LuxDataFrame(columns)


def strict_loads(text: "bytes | str") -> object:
    """``json.loads`` that rejects ``NaN`` and ``Infinity`` (RFC 8259)."""

    def reject(name: str) -> None:
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def assert_canonical_payloads(frame: LuxDataFrame) -> int:
    checked = 0
    with config_overlay(streaming=False):
        for _, vislist in frame.recommendations.items():
            for vis in vislist:
                if vis.spec is None:
                    continue
                blob = spec_payload(vis.spec, vis.score)
                decoded = strict_loads(blob)
                assert blob == json.dumps(decoded).encode("utf-8"), vis.spec.title
                assert to_vegalite(vis.spec) == decoded["vegalite"]
                checked += 1
    return checked


@pytest.mark.parametrize("intent", INTENTS, ids=lambda i: "+".join(i) or "none")
def test_steering_cycle_shape(intent):
    frame = measure_frame(500)
    if intent:
        frame.intent = intent
    assert assert_canonical_payloads(frame) > 0


def test_incremental_shape():
    assert assert_canonical_payloads(measure_frame(2_000)) > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_load_scenarios(scenario):
    assert assert_canonical_payloads(make_scenario(scenario, n_rows=300)) > 0


def rows(records: list) -> ColumnTable:
    """A table of the row dicts' columns, as a frame would type them."""
    return ColumnTable.from_frame(DataFrame(records))


def values_json(spec: VisSpec) -> str:
    return json.dumps(strict_loads(spec_payload(spec))["vegalite"]["data"]["values"])


def count_bar() -> VisSpec:
    return VisSpec(
        "bar",
        [Encoding("x", "flag", "nominal"), Encoding("y", "", "quantitative", aggregate="count")],
    )


def test_numpy_cells_become_plain_json():
    spec = count_bar()
    spec.data = ColumnTable(
        {
            "flag": Column.from_data(np.array([True, False])),
            "count": Column(np.array([3, 0]), np.array([False, True]), INT64),
        }
    )
    assert values_json(spec) == '[{"flag": true, "count": 3}, {"flag": false, "count": null}]'


def test_non_finite_floats_are_null():
    spec = VisSpec("point", [Encoding("x", "A", "quantitative")])
    spec.data = ColumnTable({"A": Column.from_data(np.array([1.5, np.inf, -np.inf, np.nan]))})
    blob = spec_payload(spec, score=float("inf"))
    assert b"Infinity" not in blob and b"NaN" not in blob
    payload = strict_loads(blob)
    assert payload["score"] is None
    assert payload["vegalite"]["data"]["values"] == [
        {"A": 1.5}, {"A": None}, {"A": None}, {"A": None},
    ]


def test_text_and_dates_are_json_strings():
    spec = VisSpec("line", [Encoding("x", "t", "temporal"), Encoding("y", "v", "quantitative")])
    spec.data = rows([{"t": np.datetime64("2020-01-02T03:04:05.9"), "v": 1}, {"t": None, "v": 2}])
    assert values_json(spec) == '[{"t": "2020-01-02T03:04:05", "v": 1}, {"t": null, "v": 2}]'
    spec = VisSpec("bar", [Encoding("x", "100% \"q\"", "nominal")])
    spec.data = rows([{'100% "q"': "café\n"}, {'100% "q"': None}])
    assert values_json(spec) == '[{"100% \\"q\\"": "caf\\u00e9\\n"}, {"100% \\"q\\"": null}]'


def test_rows_are_the_tables_records():
    table = rows([{"a": 1, "b": "x"}, {"a": None, "b": "y"}])
    assert list(table) == [{"a": 1, "b": "x"}, {"a": None, "b": "y"}] and len(table) == 2
    assert table[1] == {"a": None, "b": "y"}
    # A repeated name keeps its first position and its last column.
    twice = ColumnTable([("a", table.columns["a"]), ("b", table.columns["b"]),
                         ("a", table.columns["b"])])
    assert list(twice) == [{"a": "x", "b": "x"}, {"a": "y", "b": "y"}]


def filter_expr(filters: list) -> str:
    spec = VisSpec("point", [Encoding("x", "A", "quantitative")], filters=filters)
    return to_vegalite(spec)["transform"][0]["filter"]


def test_filter_literals_escape_quotes_and_backslashes():
    assert filter_expr([("name", "=", "O'Brien")]) == "datum['name'] == 'O\\'Brien'"
    assert filter_expr([("path", "!=", "a\\b")]) == "datum['path'] != 'a\\\\b'"
    assert filter_expr([("it's", "=", "x")]) == "datum['it\\'s'] == 'x'"
    # Values with neither character are written as before.
    assert filter_expr([("Dept", "=", "Sales")]) == "datum['Dept'] == 'Sales'"
    assert filter_expr([("Age", ">", 30)]) == "datum['Age'] > 30"


# ----------------------------------------------------------------------
# With the frame's cached tokens, without them, and json.dumps: one text
# ----------------------------------------------------------------------
DATES = [
    np.datetime64("2020-01-02T03:04:05.9"),
    None,
    np.datetime64("1969-12-31"),
    np.datetime64("2020-02-29T23:59:59"),
]
TABLES = {
    "typed cells": {
        "f": [1.5, float("nan"), float("inf"), -float("inf")],
        "g": [None, -0.0, 1e300, 2.5e-8],
        "i": [1, None, -3, 2**40],
        "b": [True, None, False, True],
        "t": DATES,
    },
    "escaped text": {
        "100% \"q\"": ["50% off", 'say "hi"', "back\\slash", None],
        "caf\u00e9 \u4e2d": ["caf\u00e9", "\u4e2d\u6587 \U0001f600", "%s %d %%", "tab\tnewline\n"],
    },
    "single column": {"only": [3.25, None, 7.0, -1.0]},
    "no rows": {"a": np.array([], dtype=float), "b": np.array([], dtype=np.int64)},
}


@pytest.mark.parametrize("name", list(TABLES))
def test_cached_tokens_write_the_same_bytes(name):
    frame = DataFrame(TABLES[name])
    table = ColumnTable.from_frame(frame)
    spec = VisSpec("point", [Encoding("x", frame.columns[0], "quantitative")])
    spec.data = table
    alone = spec_payload(spec, 0.5)
    cached = spec_payload(spec, 0.5, frame)
    decoded = strict_loads(alone)
    assert cached == alone == json.dumps(decoded).encode("utf-8")
    assert decoded["vegalite"]["data"]["values"] == json_safe(list(table))
    # The cached write formatted each column once; the next takes them all
    # from the cache.
    slot = computation_cache._slots.get(id(frame))
    held = dict(slot.tokens) if slot is not None else {}
    assert set(held) == (set(frame.columns) if len(table) else set())
    assert spec_payload(spec, 0.5, frame) == alone
    assert all(slot.tokens[column] is tokens for column, tokens in held.items())
    with config_overlay(computation_cache=False):
        assert spec_payload(spec, 0.5, frame) == alone
