"""Golden digests of the recommendation payload bytes the store holds.

Every action's stored JSON bytes are hashed (sha256) for a fixed set of
passes and compared with ``payload_digests.json``:

- the ``cold_read`` shape: 500 rows, six normal measures and three nominal
  dimensions, read under five intents with precompute off (foreground
  passes);
- the ``edit_read`` shape: 2,000 rows, after its first background pass and
  after reversing ``q0`` and then ``d0`` (incremental passes);
- the same 2,000 rows under the intent ``["q1", "d1"]``, after its first
  background pass and after reversing ``d1`` and then ``q4``, so the
  intent-driven actions' incremental passes are pinned too;
- the five synthetic load scenarios at 300 rows;
- the 20k-row service benchmark frame, which is sampled.

The shapes are generated here, not imported from the benchmarks.  The
table pins the bytes of the Python and numpy versions it was recorded
under; on other versions float formatting or random draws may differ, so
the comparison skips.  Re-record with::

    PYTHONPATH=src python tests/service/test_payload_digests.py --record

A differential test runs on every version: for each displayed spec of
those passes, the column writer's bytes equal ``json.dumps`` of the
row-dict writer that preceded it (copied verbatim at the end of this
module as the reference).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import io
import json
import platform
import sys
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.data.synthetic import SCENARIOS, make_scenario
from repro.dataframe import read_csv_string
from repro.service import SessionManager
from repro.vis import VisSpec, vegalite
from repro.vis.spec import candidate_key

TABLE = Path(__file__).with_name("payload_digests.json")

MEASURES = [f"q{i}" for i in range(6)]
DIMENSIONS = {"d0": 6, "d1": 12, "d2": 24}
INTENTS: list[list[str]] = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]
EDITS = ["q0", "d0"]
EDIT_INTENT = ["q1", "d1"]
INTENT_EDITS = ["d1", "q4"]


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


# ----------------------------------------------------------------------
# Input shapes
# ----------------------------------------------------------------------
def measure_columns(rows: int, seed: int = 1) -> dict[str, list[Any]]:
    """Six normal measures and three nominal dimensions, each column
    drawn from base seed 0 and then permuted on its own by ``seed``."""
    rng = np.random.default_rng(0)
    columns: dict[str, list[Any]] = {
        name: rng.normal(0.0, 1.0, rows).tolist() for name in MEASURES
    }
    for name, card in DIMENSIONS.items():
        columns[name] = [f"v{i % card}" for i in range(rows)]
    shuffle = np.random.default_rng(seed)
    return {
        name: [values[i] for i in shuffle.permutation(rows)]
        for name, values in columns.items()
    }


def to_csv(columns: dict[str, list[Any]]) -> str:
    """CSV text with floats written by ``repr``, so they parse back exactly."""
    out = io.StringIO()
    names = list(columns)
    out.write(",".join(names) + "\n")
    for row in zip(*(columns[n] for n in names)):
        out.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        out.write("\n")
    return out.getvalue()


def bench_frame(rows: int = 20_000, seed: int = 0) -> LuxDataFrame:
    """The service benchmark's frame: six measures, three dimensions."""
    rng = np.random.default_rng(seed)
    data: dict[str, Any] = {f"q{i}": rng.normal(0, 1, rows) for i in range(6)}
    for j, card in enumerate((6, 12, 24)):
        data[f"d{j}"] = rng.choice([f"v{v}" for v in range(card)], rows).tolist()
    return LuxDataFrame(data)


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def stored_pass(manager: SessionManager, session: Any) -> dict[str, bytes]:
    """Every action's stored bytes at the session's current version."""
    stored = manager.store.get_pass(session.id, session.version)
    assert stored is not None, "no complete pass stored"
    return {name: bytes(record["payload"]) for name, record in stored[0].items()}


def displayed(session: Any) -> list[tuple[Any, Any]]:
    """``(spec, score)`` of every displayed vis of the session's last pass."""
    with session.lock, session.overlay():
        recs = session.frame.recommendations
        return [
            (vis.spec, vis.score)
            for name in recs.keys()
            for vis in recs[name]
            if vis.spec is not None
        ]


def run_passes() -> Iterator[tuple[str, dict[str, bytes], list[tuple[Any, Any]]]]:
    """``(case, stored bytes per action, displayed specs)`` per pass."""
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        try:
            frame = read_csv_string(to_csv(measure_columns(500)), frame_cls=LuxDataFrame)
            session = manager.create(frame, overrides={"precompute": False})
            for intent in INTENTS:
                session.set_intent(intent)
                session.recommendations(raw=True)
                case = "cold_read/" + ("+".join(intent) or "none")
                yield case, stored_pass(manager, session), displayed(session)

            columns = measure_columns(2_000)
            frame = read_csv_string(to_csv(columns), frame_cls=LuxDataFrame)
            session = manager.create(frame)
            assert manager.engine.wait_idle(120)
            yield "edit_read/first", stored_pass(manager, session), displayed(session)
            for name in EDITS:
                session.mutate(name, columns[name][::-1])
                assert manager.engine.wait_idle(120)
                case = f"edit_read/{name}"
                yield case, stored_pass(manager, session), displayed(session)

            frame = read_csv_string(to_csv(columns), frame_cls=LuxDataFrame)
            session = manager.create(frame, intent=EDIT_INTENT)
            assert manager.engine.wait_idle(120)
            prefix = "edit_read/" + "+".join(EDIT_INTENT)
            yield f"{prefix}/first", stored_pass(manager, session), displayed(session)
            for name in INTENT_EDITS:
                session.mutate(name, columns[name][::-1])
                assert manager.engine.wait_idle(120)
                yield f"{prefix}/{name}", stored_pass(manager, session), displayed(session)

            for name in sorted(SCENARIOS):
                session = manager.create(
                    make_scenario(name, n_rows=300), overrides={"precompute": False}
                )
                session.recommendations(raw=True)
                yield f"scenario/{name}", stored_pass(manager, session), displayed(session)

            session = manager.create(bench_frame(), overrides={"precompute": False})
            session.recommendations(raw=True)
            yield "bench_service/20k", stored_pass(manager, session), displayed(session)
        finally:
            manager.shutdown()


def digests(payloads: dict[str, bytes]) -> list[list[str]]:
    return [[name, hashlib.sha256(blob).hexdigest()] for name, blob in payloads.items()]


@pytest.fixture(scope="module")
def passes() -> dict[str, tuple[dict[str, bytes], list[tuple[Any, Any]]]]:
    return {case: (payloads, specs) for case, payloads, specs in run_passes()}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_stored_bytes_match_the_golden_digests(passes):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["versions"] != versions():
        pytest.skip(
            f"digests recorded under {table['versions']}, running under {versions()}"
        )
    got = {case: digests(payloads) for case, (payloads, _) in passes.items()}
    assert list(got) == list(table["digests"])
    for case, expected in table["digests"].items():
        assert got[case] == expected, case


def test_every_shape_displays_specs(passes):
    edit_read = 1 + len(EDITS) + 1 + len(INTENT_EDITS)
    assert len(passes) == len(INTENTS) + edit_read + len(SCENARIOS) + 1
    for case, (payloads, specs) in passes.items():
        assert payloads and specs, case


def test_writer_bytes_equal_the_row_dict_writer(passes):
    checked = 0
    for case, (_, specs) in passes.items():
        for spec, score in specs:
            expected = json.dumps(spec_payload(spec, score)).encode("utf-8")
            assert vegalite.spec_payload(spec, score) == expected, (case, spec.title)
            checked += 1
    assert checked > 0


def record() -> None:
    table = {
        "versions": versions(),
        "digests": {case: digests(payloads) for case, payloads, _ in run_passes()},
    }
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Reference: the row-dict writer, verbatim.  It builds one dict per row,
# sanitizes every cell and leaves the encoding to ``json.dumps``.
# ----------------------------------------------------------------------
_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"


def _json_safe(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, np.datetime64):
        return str(value.astype("datetime64[s]"))
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def to_vegalite(spec: VisSpec) -> dict[str, Any]:
    """Build the Vega-Lite spec; processed data is embedded inline."""
    encoding: dict[str, Any] = {}
    for enc in spec.encodings:
        encoding[enc.channel] = enc.to_vegalite()

    mark: Any = {"bar": "bar", "histogram": "bar"}.get(spec.mark, spec.mark)
    if spec.mark == "point":
        mark = {"type": "point", "filled": True, "opacity": 0.7}
    if spec.mark == "geoshape":
        mark = {"type": "geoshape"}

    out: dict[str, Any] = {
        "$schema": _SCHEMA,
        "title": spec.title,
        "mark": mark,
        "encoding": encoding,
    }
    if spec.data is not None:
        out["data"] = {
            "values": [
                {k: _json_safe(v) for k, v in row.items()} for row in spec.data
            ]
        }
    else:
        out["data"] = {"name": "table"}
    if spec.filters:
        out["transform"] = [
            {"filter": _filter_expr(attr, op, value)}
            for attr, op, value in spec.filters
        ]
    return out


def json_safe(value: Any) -> Any:
    """Deep-sanitize ``value`` into plain JSON types (dicts/lists walked)."""
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    return _json_safe(value)


def spec_payload(spec: VisSpec, score: float | None = None) -> dict[str, Any]:
    """The service's wire format for one recommended visualization.

    Everything the API needs to render and rank: the vega-lite spec (data
    inline), the interestingness score, and enough summary fields (mark,
    title, fields, filters) for clients that only list recommendations
    without rendering them.  ``key`` is the stable candidate identity
    (:func:`~repro.vis.spec.candidate_key`) that per-vis provenance maps
    are keyed on; it is a pure function of the spec's signature, so the
    foreground and background paths emit identical keys.  Guaranteed
    ``json.dumps``-able.
    """
    vegalite = to_vegalite(spec)
    # to_vegalite already sanitized every ``data.values`` cell; the deep
    # walk covers the rest of the spec (the data slot keeps its key order).
    data, vegalite["data"] = vegalite["data"], None
    vegalite = json_safe(vegalite)
    vegalite["data"] = data
    return {
        "key": candidate_key(spec),
        "title": spec.title,
        "mark": spec.mark,
        "fields": spec.fields(),
        "filters": json_safe([list(f) for f in spec.filters]),
        "score": None if score is None else round(float(score), 6),
        "vegalite": vegalite,
    }


def _filter_expr(attr: str, op: str, value: Any) -> str:
    literal = f"'{value}'" if isinstance(value, str) else repr(value)
    js_op = {"=": "==", "!=": "!=", ">": ">", "<": "<", ">=": ">=", "<=": "<="}[op]
    return f"datum['{attr}'] {js_op} {literal}"

if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_payload_digests.py --record")
    record()
