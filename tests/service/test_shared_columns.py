"""A frame column is formatted once per column version, across passes.

The dataframe executor hands a frame's own ``Column`` objects to scatter
tables, so the Correlation scatters of a pass show each measure column
several times.  The writer takes the tokens of such a column from the
computation cache's ``tokens`` section, formatted once per column version
and shared by every spec and pass that shows it; every other column is
formatted where it is written.  These tests pin:

- the foreground pass (five intents) formats each distinct column of the
  specs it writes once, and a repeated intent formats no frame column;
- the engine pass after a ``q0`` edit on a 2,000-row frame formats the
  2,000 cells of ``q0`` and 20 aggregate cells (12,020 before the cache
  held tokens: the five other measures were formatted again);
- every spec's bytes equal ``spec_payload(spec, score)`` written alone;
- the cache holds the frame columns the scatters show, and a pass or
  spec written without its frame holds nothing;
- a pass the store cannot hold is written once per read, under the
  session's lock and overlay, with the same actions as an unbounded store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LuxDataFrame, config_overlay
from repro.core.executor.cache import computation_cache
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


def frame_columns(frame, columns) -> list:
    """The ``columns`` that are one of ``frame``'s own columns."""
    own = [frame.column(name) for name in frame.columns]
    return [col for col in columns if any(col is c for c in own)]


def held(frame) -> dict:
    """The token tuples ``frame``'s live cache slot holds, by column name."""
    slot = computation_cache._slots.get(id(frame))
    if slot is None or slot.ref() is not frame:
        return {}
    with slot.lock:
        return dict(slot.tokens)


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
        # Steer away and back: the frame's columns come from the cache.
        other = INTENTS[(INTENTS.index(intent) + 1) % len(INTENTS)]
        session.set_intent(other)
        session.recommendations(raw=True)
        session.set_intent(intent)
        formats.clear()
        assert session.recommendations(raw=True)["actions"] == stored
        assert not frame_columns(session.frame, formats)
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
def test_engine_pass_after_a_measure_edit_formats_2020_cells(formats):
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        try:
            frame = cold_read_frame(2_000)
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
            # Of the measures the rerun scatters show, only q0 is formatted.
            (edited,) = frame_columns(frame, formatted)
            assert edited is q0
            assert sum(map(len, formatted)) == 2_020
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# What the cache holds
# ----------------------------------------------------------------------
def test_cache_holds_the_frame_columns_the_scatters_show(formats):
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        recs = frame.recommendations
    specs = [spec for pairs in displayed(recs).values() for spec, _ in pairs]
    uses = shown_columns(specs)
    assert encode_recommendations(recs, frame) == encode_recommendations(recs)
    # With the frame, its columns are formatted once and every other use
    # where it is written; without it, every use.
    shared = frame_columns(frame, uses)
    assert len(formats) == distinct(shared) + (len(uses) - len(shared)) + len(uses)
    cached = held(frame)
    assert set(cached) == set(MEASURES)
    for name, tokens in cached.items():
        assert tokens == tuple(vegalite._tokens(frame.column(name)))


def test_nothing_outlives_a_pass(formats):
    """A pass written without its frame formats every column where it is
    written and leaves nothing in the cache."""
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        recs = frame.recommendations
    first = encode_recommendations(recs)
    once = len(formats)
    specs = [spec for pairs in displayed(recs).values() for spec, _ in pairs]
    assert once == len(shown_columns(specs))
    assert encode_recommendations(recs) == first
    assert len(formats) == 2 * once
    assert held(frame) == {}


def test_a_spec_written_alone_formats_every_column(formats):
    frame = cold_read_frame()
    with config_overlay(streaming=False):
        scatter = frame.recommendations["Correlation"][0].spec
    blob = vegalite.spec_payload(scatter, 0.5)
    assert len(formats) == 2
    assert held(frame) == {}
    assert vegalite.spec_payload(scatter, 0.5, frame) == blob
    assert len(formats) == 4
    assert vegalite.spec_payload(scatter, 0.5, frame) == blob
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
