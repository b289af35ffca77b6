"""Precompute scheduling at the shipped debounce: preemption and idle waits.

A write runs inside :meth:`PrecomputeEngine.writing`: it sets the cancel
event of its session's live pass before it waits on the session lock, so
a burst of writes ends in one pass and no write waits out a whole pass.
A write that fails after preempting re-arms the session.  A pass checks
its cancel event after its metadata phase, before it enumerates any
action's candidates, and before it writes each spec, so a preempting
write waits for one spec's encode, not a whole action's.
:meth:`PrecomputeEngine.wait_idle` is woken by the engine, not polled.
``lux_precompute_passes_total`` counts each pass's outcome once.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro import LuxDataFrame, config, register_action, remove_action
from repro.core import metadata as metadata_module
from repro.core import telemetry
from repro.core.vislist import VisList
from repro.service import SessionManager, make_server
from repro.service import precompute as precompute_module
from repro.service import session as session_module
from repro.service.metrics import register_service_gauges
from repro.service.shard import ShardService

ROWS = 2_000


def make_frame() -> LuxDataFrame:
    """Four measures and two dimensions over 2,000 rows, as in perfbench's edit_read."""
    rng = np.random.default_rng(5)
    columns = {f"q{i}": np.round(rng.normal(0, 1, ROWS), 6) for i in range(4)}
    columns["d0"] = [f"v{i % 6}" for i in range(ROWS)]
    columns["d1"] = [f"w{i % 12}" for i in range(ROWS)]
    return LuxDataFrame(columns)


@pytest.fixture
def manager():
    m = SessionManager()
    yield m
    m.shutdown()


@pytest.fixture
def parked():
    """A registered action that parks the next pass inside it, once armed.

    Yields ``(arm, entered, release)``: set ``arm`` and the next pass sets
    ``entered`` and waits for ``release`` inside the action, holding its
    session's lock.
    """
    arm, entered, release = threading.Event(), threading.Event(), threading.Event()

    def park(ldf):
        if arm.is_set():
            arm.clear()
            entered.set()
            release.wait(30)
        return VisList(visualizations=[])

    register_action("Parker", park, condition=lambda ldf: "q0" in ldf.columns)
    try:
        yield arm, entered, release
    finally:
        release.set()
        remove_action("Parker")


def test_burst_of_http_writes_completes_one_pass(manager):
    """Ten back-to-back 2,000-value writes coalesce into one pass."""
    session = manager.create(make_frame())
    server = make_server(manager, port=0).serve_background()
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        assert manager.engine.wait_idle(60)
        completed = manager.engine.stats()["completed"]
        values = session.frame["q0"].to_list()
        bodies = [
            json.dumps({"column": "q0", "values": values[::-1] if i % 2 == 0 else values})
            for i in range(10)
        ]
        statuses = []
        for body in bodies:
            conn.request(
                "POST",
                f"/v1/sessions/{session.id}/mutate",
                body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            statuses.append(response.status)
        assert statuses == [200] * 10
        assert manager.engine.wait_idle(60)
        assert manager.engine.stats()["completed"] == completed + 1
        stored = session.recommendations(compute=False)
        assert stored is not None
        assert stored["data_version"] == list(session.version)
    finally:
        conn.close()
        server.stop()


def test_write_preempts_the_running_pass(manager, parked):
    arm, entered, release = parked
    service = ShardService(manager)
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    arm.set()
    service.request("mutate", {"session": session.id, "column": "q0"})
    assert entered.wait(30)  # the edit's pass is parked, holding the lock
    running = manager.engine._inflight[session.id]
    completed = manager.engine.stats()["completed"]
    answers: list = []
    writer = threading.Thread(
        target=lambda: answers.append(
            service.request("mutate", {"session": session.id, "column": "q1"})
        )
    )
    writer.start()
    try:
        # The write cancels the pass before it waits on the session lock,
        # which the parked pass still holds.
        assert running.cancel.wait(30)
        assert writer.is_alive() and not answers
    finally:
        release.set()
        writer.join(30)
    assert answers, "the write never answered"
    assert manager.engine.wait_idle(60)
    # Only the write's own pass completed: the parked one published nothing.
    assert manager.engine.stats()["completed"] == completed + 1
    stored = session.recommendations(compute=False)
    assert stored is not None
    assert stored["data_version"] == answers[0]["data_version"] == list(session.version)


def test_failed_write_after_preempting_rearms_the_pass(manager, parked):
    arm, entered, release = parked
    service = ShardService(manager)
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    arm.set()
    service.request("mutate", {"session": session.id, "column": "q0"})
    assert entered.wait(30)
    version = session.version
    running = manager.engine._inflight[session.id]
    errors: list = []

    def unknown_column() -> None:
        try:
            service.request("mutate", {"session": session.id, "column": "nope"})
        except KeyError as exc:  # 404 over HTTP, raised under the session lock
            errors.append(exc)

    writer = threading.Thread(target=unknown_column)
    writer.start()
    try:
        assert running.cancel.wait(30)
    finally:
        release.set()
        writer.join(30)
    assert errors, "the write to an unknown column did not fail"
    assert manager.engine.wait_idle(60)
    assert session.version == version
    assert manager.store.get_pass(session.id, version) is not None
    stored = session.recommendations(compute=False)
    assert stored is not None and stored["data_version"] == list(version)


def test_wait_idle_is_woken_not_polled(manager, monkeypatch):
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)

    def no_sleep(_seconds: float) -> None:
        raise AssertionError("wait_idle slept")

    completed = manager.engine.stats()["completed"]
    monkeypatch.setattr(time, "sleep", no_sleep)
    session.mutate("q0", session.frame["q0"].to_list()[::-1])
    assert manager.engine.wait_idle(60)
    assert manager.engine.stats()["completed"] == completed + 1
    stored = session.recommendations(compute=False)
    assert stored is not None and stored["data_version"] == list(session.version)


def test_a_cancelled_pass_stops_before_its_next_spec(manager, monkeypatch):
    # Reusing nothing, the edit's pass writes every spec of every action.
    config.incremental_precompute = False
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    before = manager.engine.stats()
    version = session.version
    write = session_module.spec_payload
    written: list = []

    def cancel_on_first_write(*args, **kwargs):
        if not written:
            manager.engine._inflight[session.id].cancel.set()
        written.append(args[0])
        return write(*args, **kwargs)

    monkeypatch.setattr(session_module, "spec_payload", cancel_on_first_write)
    session.mutate("q0", session.frame["q0"].to_list()[::-1])
    assert manager.engine.wait_idle(60)
    after = manager.engine.stats()
    assert len(written) == 1  # not the rest of the action
    assert after["cancelled"] == before["cancelled"] + 1
    assert after["completed"] == before["completed"]
    assert after["stale"] == before["stale"]
    # The cancelled pass published nothing: the store still holds the
    # pass before the edit.
    assert manager.store.get_pass(session.id, session.version) is None
    assert manager.store.get_pass(session.id, version) is not None


def test_a_pass_cancelled_in_its_metadata_phase_enumerates_nothing(manager, monkeypatch):
    service = ShardService(manager)
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    arm, entered, release = threading.Event(), threading.Event(), threading.Event()
    scan = metadata_module.compute_attribute_meta

    def parking_scan(frame, name):
        # Only a pass parks: pool threads run them.
        if arm.is_set() and threading.current_thread().name.startswith("lux-worker"):
            arm.clear()
            entered.set()
            release.wait(30)
        return scan(frame, name)

    enumerated: list = []  # the frame version of each candidate enumeration
    enumerate_action = precompute_module._enumerate

    def recording_enumerate(action, frame, metadata, digest):
        enumerated.append(frame._data_version)
        return enumerate_action(action, frame, metadata, digest)

    monkeypatch.setattr(metadata_module, "compute_attribute_meta", parking_scan)
    monkeypatch.setattr(precompute_module, "_enumerate", recording_enumerate)
    before = _passes(manager.engine)
    arm.set()
    values = session.frame["q0"].to_list()[::-1]
    service.request("mutate", {"session": session.id, "column": "q0", "values": values})
    assert entered.wait(30)  # the edit's pass is rescanning q0, holding the lock
    parked_version = session.frame._data_version
    running = manager.engine._inflight[session.id]
    answers: list = []
    writer = threading.Thread(
        target=lambda: answers.append(
            service.request("mutate", {"session": session.id, "column": "q1"})
        )
    )
    writer.start()
    try:
        assert running.cancel.wait(30)
    finally:
        release.set()
        writer.join(30)
    assert not writer.is_alive() and answers, "the write never answered"
    assert manager.engine.wait_idle(60)
    assert parked_version not in enumerated
    after = _passes(manager.engine)
    assert after["cancelled"] == before["cancelled"] + 1
    assert after["completed"] == before["completed"] + 1
    stored = session.recommendations(compute=False)
    assert stored is not None
    assert stored["data_version"] == answers[0]["data_version"] == list(session.version)


def _passes(engine) -> dict:
    stats = engine.stats()
    return {key: stats[key] for key in ("scheduled", "completed", "cancelled", "stale")}


def test_a_superseded_running_pass_is_counted_once(manager, parked):
    arm, entered, release = parked
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    before = _passes(manager.engine)
    arm.set()
    session.mutate("q0")
    assert entered.wait(30)
    running = manager.engine._inflight[session.id]
    try:
        # An in-process write that does not wait for the session lock:
        # its pass supersedes the parked one.
        session.frame["q1"] = session.frame["q1"]
        assert running.cancel.wait(30)
    finally:
        release.set()
    assert manager.engine.wait_idle(60)
    after = _passes(manager.engine)
    delta = {key: after[key] - before[key] for key in after}
    assert delta["scheduled"] == 2
    assert delta["completed"] == 1
    assert delta["cancelled"] + delta["stale"] == 1, delta


def test_shed_series_reads_the_shed_passes(manager, parked):
    arm, entered, release = parked
    register_service_gauges(manager)
    config.precompute_queue_limit = 1
    session = manager.create(make_frame())
    assert manager.engine.wait_idle(60)
    arm.set()
    session.mutate("q0")
    assert entered.wait(30)
    try:
        # With precompute off the next edit schedules nothing, so the
        # parked pass is stale and holds the only backlog slot.
        config.precompute = False
        session.frame["q1"] = session.frame["q1"]
        manager.engine.admit()  # sheds the parked pass
    finally:
        release.set()
    assert manager.engine.wait_idle(60)
    assert manager.engine.stats()["shed_stale"] == 1
    series = telemetry.gauge("lux_precompute_passes_total").snapshot()["values"]
    assert series["shed"] == 1.0
