"""Shard routing, the worker RPC vocabulary, and the supervisor tier.

Fast tests drive :class:`~repro.service.shard.ShardService` in-process
(no sockets, no spawn) — the dispatcher and its error encoding are pure
functions of one SessionManager.  The ``slow`` tests spawn real worker
processes through :class:`~repro.service.supervisor.Supervisor` and
exercise the full story: routing, pre-serialized payload passthrough,
dead-worker health reporting, and crash → warm recovery from snapshots.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro.core.config import config, config_overlay
from repro.core.errors import LuxError
from repro.data.synthetic import make_scenario
from repro.service import (
    SessionManager,
    ShardService,
    Supervisor,
    WorkerUnreachable,
    shard_for,
)
from repro.service.precompute import QueueSaturated
from repro.service.shard import (
    RequestError,
    decode_frame,
    encode_error,
    encode_frame,
    raise_error,
)


# ----------------------------------------------------------------------
# Routing hash
# ----------------------------------------------------------------------
def test_shard_for_is_deterministic_and_in_range():
    for n in (1, 2, 3, 8):
        for i in range(50):
            sid = f"session-{i:04d}"
            shard = shard_for(sid, n)
            assert 0 <= shard < n
            assert shard == shard_for(sid, n)  # same process
    assert shard_for("anything", 1) == 0


def test_shard_for_spreads_sessions():
    counts = collections.Counter(
        shard_for(f"s{i}", 4) for i in range(400)
    )
    assert set(counts) == {0, 1, 2, 3}
    assert min(counts.values()) > 400 // 4 // 3  # no starved shard


def test_shard_for_survives_interpreter_restart():
    """The routing hash is keyed content, not salted ``hash()``.

    These pinned values must hold in every process that ever routes or
    restores a session — a change here orphans existing snapshots.
    """
    assert shard_for("abc123", 4) == 1
    assert shard_for("session-0001", 4) == 3
    assert shard_for("ffffffffffff", 8) == 6


# ----------------------------------------------------------------------
# Error encoding across the pipe
# ----------------------------------------------------------------------
def test_error_round_trip_preserves_types():
    with pytest.raises(RequestError) as excinfo:
        raise_error(encode_error(RequestError(404, "gone")))
    assert excinfo.value.status == 404
    with pytest.raises(QueueSaturated) as excinfo:
        raise_error(encode_error(QueueSaturated(retry_after_s=7)))
    assert excinfo.value.retry_after_s == 7
    with pytest.raises(KeyError):
        raise_error(encode_error(KeyError("no such session")))
    with pytest.raises(ValueError):
        raise_error(encode_error(ValueError("bad clause")))
    with pytest.raises(ValueError):  # LuxError maps to a 400 shape
        raise_error(encode_error(LuxError("bad intent")))
    with pytest.raises(WorkerUnreachable):
        raise_error({"kind": "unreachable", "message": "died"})
    with pytest.raises(RuntimeError):
        raise_error(encode_error(ZeroDivisionError("boom")))


# ----------------------------------------------------------------------
# Frame codec: raw payload hoisting
# ----------------------------------------------------------------------
def test_frame_codec_round_trips_plain_responses():
    for response in (
        {"id": 1, "ok": True, "result": {"session": "abc", "rows": 10}},
        {"id": 2, "ok": False, "error": {"kind": "not_found",
                                         "message": "gone"}},
        {"id": 3, "ok": True, "result": {"payload_json": "x",
                                         "extra": 1}},  # not hoistable
    ):
        assert decode_frame(encode_frame(response)) == response


def test_frame_codec_hoists_payload_without_reencoding():
    """A pre-serialized payload rides after the envelope verbatim —
    never JSON-escaped a second time (the whole point: reads move
    megabyte payloads and double serialization dominated warm reads) —
    and stays bytes on the decoding side."""
    payload = json.dumps({"actions": ["Correlation"], "quote": 'a"b'}).encode()
    frame = encode_frame(
        {"id": 7, "ok": True, "result": {"payload_json": payload}}
    )
    envelope, sep, tail = frame.partition(b"\x00")
    assert sep and tail == payload  # verbatim bytes
    assert len(envelope) < 64  # payload not embedded in the envelope
    assert decode_frame(frame) == {
        "id": 7, "ok": True, "result": {"payload_json": payload},
    }


def test_frame_codec_payload_may_contain_nul_bytes():
    weird = b'text with a \\u0000 escape and a " quote'
    frame = encode_frame(
        {"id": 1, "ok": True, "result": {"payload_json": weird + b"\x00tail"}}
    )
    decoded = decode_frame(frame)
    assert decoded["result"]["payload_json"] == weird + b"\x00tail"


# ----------------------------------------------------------------------
# In-process dispatcher
# ----------------------------------------------------------------------
@pytest.fixture
def service():
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        yield ShardService(manager, shard_index=1, n_shards=2)
        manager.shutdown()


def call(service, method, **params):
    return service.handle({"method": method, "params": params})


def test_dispatcher_create_read_close(service):
    created = call(
        service,
        "create",
        dataset="synthetic-wide",
        rows=100,
        config={"top_k": 3},
    )
    assert created["ok"], created
    sid = created["result"]["session"]
    assert call(service, "list")["result"]["sessions"] == [sid]
    assert call(service, "info", session=sid)["result"]["rows"] == 100

    read = call(service, "recommendations", session=sid)
    assert read["ok"]
    payload = json.loads(read["result"]["payload_json"])  # passthrough
    assert payload["actions"]

    assert call(service, "close", session=sid)["ok"]
    assert call(service, "list")["result"]["sessions"] == []


def test_dispatcher_error_mapping(service):
    assert call(service, "nope")["error"]["kind"] == "bad_request"
    assert call(service, "info", session="ghost")["error"]["kind"] == "not_found"
    both = call(service, "create", dataset="hpi", csv="a,b\n1,2")
    assert both["error"] == {
        "kind": "api",
        "status": 400,
        "message": "provide exactly one of 'dataset' or 'csv'",
    }
    unknown = call(service, "create", dataset="no-such-set")
    assert unknown["error"]["kind"] == "api"
    assert unknown["error"]["status"] == 404

    sid = call(service, "create", dataset="synthetic-wide", rows=80)[
        "result"
    ]["session"]
    bad_mutate = call(service, "mutate", session=sid, column=7)
    assert bad_mutate["error"]["status"] == 400
    bad_action = call(
        service, "recommendations", session=sid, action="NoSuchAction"
    )
    assert bad_action["error"] == {
        "kind": "api",
        "status": 404,
        "message": "no such action: 'NoSuchAction'",
    }


def test_dispatcher_healthz_and_ping(service):
    health = call(service, "healthz")["result"]
    assert health["status"] == "ok"
    assert health["shard"] == 1
    assert "precompute" in health and "store" in health
    ping = call(service, "ping")["result"]
    assert ping["shard"] == 1 and ping["n_shards"] == 2


# ----------------------------------------------------------------------
# Real worker processes
# ----------------------------------------------------------------------
def read(sup, sid):
    """The recommendations body the supervisor forwards, as bytes."""
    return sup.request("recommendations", {"session": sid})["payload_json"]


def strip_provenance(response):
    return json.dumps(
        {k: v for k, v in response.items() if k != "provenance"},
        sort_keys=True,
    )


@pytest.mark.slow
def test_supervisor_routes_and_aggregates(tmp_path):
    base = config.snapshot()
    config.restore({**base, "precompute_debounce_s": 0.0})
    try:
        with Supervisor(n_workers=2, snapshot_dir=str(tmp_path)) as sup:
            infos = [
                sup.request(
                    "create",
                    {
                        "dataset": "synthetic-wide",
                        "rows": 100,
                        "config": {"top_k": 3},
                    },
                )
                for _ in range(4)
            ]
            ids = sorted(info["session"] for info in infos)
            assert sup.request("list") == {"sessions": ids}
            for sid in ids:
                assert sup.request("info", {"session": sid})["rows"] == 100
            assert sup.wait_idle(30)
            health = sup.healthz()
            assert health["status"] == "ok"
            assert health["shards"] == 2
            assert health["sessions"] == 4
            assert len(health["workers"]) == 2
            payload = json.loads(read(sup, ids[0]))
            assert payload["actions"]
            sup.request("close", {"session": ids[0]})
            assert sup.request("list") == {"sessions": ids[1:]}
    finally:
        config.restore(base)


@pytest.mark.slow
def test_supervisor_restart_preserves_routing(tmp_path):
    """The same session lands on the same shard across supervisor restarts
    — a restarted worker restores exactly the sessions the new router
    sends it."""
    base = config.snapshot()
    config.restore({**base, "precompute_debounce_s": 0.0})
    try:
        with Supervisor(n_workers=2, snapshot_dir=str(tmp_path)) as sup:
            info = sup.request(
                "create",
                {
                    "dataset": "synthetic-skewed",
                    "rows": 150,
                    "config": {"top_k": 3},
                },
            )
            sid = info["session"]
            sup.request("mutate", {"session": sid, "column": "heavy_tail"})
            assert sup.wait_idle(30)
            reference = json.loads(read(sup, sid))
        # Whole tier torn down (flushes snapshots); a fresh supervisor
        # must route the session to the worker that restored it.
        with Supervisor(n_workers=2, snapshot_dir=str(tmp_path)) as sup:
            assert sup.request("list") == {"sessions": [sid]}
            restored = json.loads(read(sup, sid))
            assert restored["provenance"]["origin"] != "foreground"
            assert strip_provenance(restored) == strip_provenance(reference)
    finally:
        config.restore(base)


@pytest.mark.slow
def test_dead_worker_healthz_and_warm_recovery(tmp_path):
    base = config.snapshot()
    config.restore({**base, "precompute_debounce_s": 0.0})
    try:
        with Supervisor(n_workers=2, snapshot_dir=str(tmp_path)) as sup:
            info = sup.request(
                "create",
                {
                    "dataset": "synthetic-skewed",
                    "rows": 150,
                    "config": {"top_k": 3},
                },
            )
            sid = info["session"]
            sup.request("mutate", {"session": sid, "column": "heavy_tail"})
            assert sup.wait_idle(30)
            reference = json.loads(read(sup, sid))
            victim = shard_for(sid, 2)

            sup.kill_worker(victim)
            health = sup.healthz()  # must answer despite the dead worker
            assert health["status"] == "degraded"
            stanzas = {w.get("shard"): w for w in health["workers"]}
            assert stanzas[victim]["status"] == "worker_unreachable"
            survivor = 1 - victim
            assert stanzas[survivor]["status"] == "ok"
            with pytest.raises(WorkerUnreachable):
                read(sup, sid)

            sup.restart_worker(victim)
            recovered = json.loads(read(sup, sid))
            # Warm: served from the restored snapshot pass, not recomputed.
            assert recovered["provenance"]["origin"] != "foreground"
            assert strip_provenance(recovered) == strip_provenance(reference)
            assert sup.healthz()["status"] == "ok"
    finally:
        config.restore(base)
