"""One pass formats each chart column it shares once.

The dataframe executor hands a frame's own ``Column`` objects to scatter
tables, so the Correlation scatters of a pass show each measure column
several times.  A pass counts the columns of the specs it writes
(``vegalite.SharedColumns``): a shared column is formatted into JSON
tokens on its first use and dropped after its last, and a column shown
once is formatted as when its spec is written alone.  These tests pin:

- the foreground pass (five intents) and an engine pass (after a ``q0``
  edit) format each distinct column object of the specs they write once;
- every spec's bytes equal ``spec_payload(spec, score)`` written alone;
- the count holds only shared columns, until their last use, and nothing
  outlives the pass;
- a pass the store cannot hold is written once per read, under the
  session's lock and overlay, with the same actions as an unbounded store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.service import ResultStore, SessionManager
from repro.service import session as session_module
from repro.service.session import encode_recommendations
from repro.service.wire import encode_action
from repro.vis import vegalite
from repro.vis.spec import candidate_key

MEASURES = [f"q{i}" for i in range(6)]
INTENTS: list[list[str]] = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]


def cold_read_frame(rows: int = 500) -> LuxDataFrame:
    """Six normal measures and three nominal dimensions (6, 12, 24 values)."""
    rng = np.random.default_rng(0)
    data: dict = {name: rng.normal(0.0, 1.0, rows) for name in MEASURES}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        data[name] = [f"v{i % card}" for i in range(rows)]
    return LuxDataFrame(data)


@pytest.fixture
def formats(monkeypatch):
    """Every column ``vegalite._tokens`` formats, in call order."""
    seen: list = []
    original = vegalite._tokens

    def counted(col):
        seen.append(col)
        return original(col)

    monkeypatch.setattr(vegalite, "_tokens", counted)
    return seen


def shown_columns(specs) -> list:
    """Every use of a column by the specs' non-empty tables, in order."""
    return [
        col
        for spec in specs
        if spec.data is not None and len(spec.data)
        for col in spec.data.columns.values()
    ]


def distinct(columns) -> int:
    return len({id(col) for col in columns})


def displayed(recs) -> dict:
    """Action name -> ``(spec, score)`` of each displayed vis."""
    return {
        name: [(vis.spec, vis.score) for vis in recs[name] if vis.spec is not None]
        for name in recs.keys()
    }


def written_alone(count: int, shown) -> bytes:
    """An action's bytes with every spec written by itself."""
    return encode_action(count, [vegalite.spec_payload(s, score) for s, score in shown])[0]


# ----------------------------------------------------------------------
# Foreground pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("intent", INTENTS, ids=lambda i: "+".join(i) or "none")
def test_foreground_pass_formats_each_distinct_column_once(intent, formats):
    manager = SessionManager()
    try:
        session = manager.create(cold_read_frame(), overrides={"precompute": False})
        session.set_intent(intent)
        formats.clear()
        stored = session.recommendations(raw=True)["actions"]
        formatted = list(formats)
        with session.lock, session.overlay():
            recs = session.frame.recommendations
        shown = displayed(recs)
        specs = [spec for pairs in shown.values() for spec, _ in pairs]
        uses = shown_columns(specs)
        assert len(formatted) == distinct(formatted) == distinct(uses)
        assert len(uses) > distinct(uses)  # the scatters share measure columns
        for name, pairs in shown.items():
            assert stored[name] == written_alone(len(recs[name]), pairs), name
    finally:
        manager.shutdown()


def test_correlation_scatters_share_the_frames_columns():
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        scatters = [vis.spec for vis in frame.recommendations["Correlation"]]
    assert len(scatters) == 15
    for name in MEASURES:
        column = frame.column(name)
        showing = [s for s in scatters if any(c is column for c in s.data.columns.values())]
        assert len(showing) == 5, name


# ----------------------------------------------------------------------
# Engine pass
# ----------------------------------------------------------------------
def test_engine_pass_formats_each_distinct_written_column_once(formats):
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        try:
            frame = cold_read_frame()
            session = manager.create(frame)
            assert manager.engine.wait_idle(60)
            formats.clear()
            session.mutate("q0", frame["q0"].to_numpy()[::-1].tolist())
            assert manager.engine.wait_idle(60)
            formatted = list(formats)
            stored = manager.store.get_pass(session.id, session.version)
            assert stored is not None
            records, _ = stored
            recs = frame.recommendations  # the engine memoized its pass
            shown = displayed(recs)
            written = []
            for name, record in records.items():
                origins = record.get("vis_origins") or {}
                if record["origin"] == "carried":
                    continue
                written += [
                    spec
                    for spec, _ in shown[name]
                    if origins.get(candidate_key(spec), "precompute") == "precompute"
                ]
                assert bytes(record["payload"]) == written_alone(len(recs[name]), shown[name])
            q0 = frame.column("q0")
            rerun = [
                spec
                for spec, _ in shown["Correlation"]
                if any(col is q0 for col in spec.data.columns.values())
            ]
            assert len(rerun) == 5
            assert all(spec in written for spec in rerun)
            uses = shown_columns(written)
            assert len(formatted) == distinct(formatted) == distinct(uses)
            assert len(uses) > distinct(uses)
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# What the count holds
# ----------------------------------------------------------------------
def test_holds_shared_columns_only_until_their_last_use(formats):
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        recs = frame.recommendations
    specs = [spec for pairs in displayed(recs).values() for spec, _ in pairs]
    uses = shown_columns(specs)
    counts: dict = {}
    for col in uses:
        counts[id(col)] = counts.get(id(col), 0) + 1
    shared = vegalite.SharedColumns(specs)
    held = {id(entry[0]) for entry in shared._entries.values()}
    assert held == {key for key, n in counts.items() if n > 1}
    assert held == {id(frame.column(name)) for name in MEASURES}
    for spec in specs:
        vegalite.spec_payload(spec, None, shared)
    assert not shared._entries
    assert len(formats) == distinct(uses)


def test_nothing_outlives_a_pass(formats):
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        recs = frame.recommendations
    first = encode_recommendations(recs)
    once = len(formats)
    assert encode_recommendations(recs) == first
    assert len(formats) == 2 * once


def test_a_spec_written_alone_formats_every_column(formats):
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        scatter = frame.recommendations["Correlation"][0].spec
    blob = vegalite.spec_payload(scatter, 0.5)
    assert len(formats) == 2
    assert vegalite.spec_payload(scatter, 0.5, vegalite.SharedColumns([scatter])) == blob
    assert len(formats) == 4


# ----------------------------------------------------------------------
# A pass the store cannot hold
# ----------------------------------------------------------------------
def test_unstorable_pass_is_written_once_per_read(monkeypatch):
    written: list = []
    original = session_module.spec_payload

    def counted(*args, **kwargs):
        written.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(session_module, "spec_payload", counted)
    bounded = SessionManager(store=ResultStore(budget_bytes=200_000))
    unbounded = SessionManager()
    try:
        session = bounded.create(cold_read_frame(), overrides={"precompute": False})
        for _ in range(3):
            written.clear()
            response = session.recommendations(raw=True)
            assert response["provenance"]["origin"] == "foreground"
            assert bounded.store.get_pass(session.id, session.version) is None
            with session.lock, session.overlay():
                recs = session.frame.recommendations
            shown = sum(len(pairs) for pairs in displayed(recs).values())
            assert len(written) == shown == 24
            assert response["data_version"] == list(session.version)
        reference = unbounded.create(cold_read_frame(), overrides={"precompute": False})
        assert response["actions"] == reference.recommendations(raw=True)["actions"]
        assert session.recommendations()["actions"] == reference.recommendations()["actions"]
    finally:
        bounded.shutdown()
        unbounded.shutdown()


def test_unstorable_pass_answers_at_its_own_version(monkeypatch):
    """A frame written between the pass and the answer changes neither the
    version answered nor the session overlay the answer was computed under."""
    manager = SessionManager(store=ResultStore(budget_bytes=20_000))
    try:
        session = manager.create(
            cold_read_frame(), overrides={"precompute": False, "top_k": 3}
        )
        read_store = session_module.Session._read_store
        reads: list = []

        def write_after_the_pass(self, version, action, raw):
            reads.append(version)
            if len(reads) == 2:  # the pass ran; the store could not hold it
                self.frame["q5"] = self.frame["q5"]  # outside the lock and overlay
            return read_store(self, version, action, raw)

        monkeypatch.setattr(session_module.Session, "_read_store", write_after_the_pass)
        ran_at = session.version
        response = session.recommendations()
        assert len(reads) == 2
        assert session.version != ran_at
        assert response["data_version"] == list(ran_at)
        assert manager.store.get_pass(session.id, ran_at) is None
        assert max(payload["count"] for payload in response["actions"].values()) == 3
    finally:
        manager.shutdown()
