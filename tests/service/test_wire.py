"""Serialize once: stored payload bytes, spliced responses, decoded views.

The contract under test: a pass encodes each action payload to JSON bytes
exactly once (``ResultStore.put``), the store holds only those bytes and
accounts for exactly their length, and every wire reader — the HTTP
handler, the shard RPC, snapshot files — splices them into the response
with :func:`repro.service.wire.dumps`, producing the same bytes
``json.dumps`` would produce for the decoded response.  In-process reads
keep getting dicts, from the session's view of its last published pass.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.core.config import config_overlay
from repro.data.synthetic import make_scenario
from repro.service import (
    ResultStore,
    SessionManager,
    ShardService,
    SnapshotStore,
    make_server,
    wire,
)
from repro.service.http_api import MAX_BODY_BYTES
from repro.service.persist import read_results
from repro.service.shard import decode_frame, encode_frame

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(300))


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
class TestWriter:
    def test_splice_equals_json_dumps_of_decoded(self):
        payloads = {
            "A": {"count": 2, "specs": [{"title": "café \"q\"", "v": float("nan")}]},
            "B": {"count": 0, "specs": []},
        }
        decoded = {
            "session": "s1",
            "data_version": [3, 1],
            "actions": payloads,
            "provenance": {"origin": "mixed", "actions": {"A": {"vis": None}}},
        }
        spliced = dict(decoded, actions={k: wire.encode(v) for k, v in payloads.items()})
        assert wire.dumps(spliced) == json.dumps(decoded).encode("utf-8")
        assert wire.dumps(decoded) == json.dumps(decoded).encode("utf-8")

    def test_raw_bytes_pass_through(self):
        assert wire.dumps(b'{"x": 1}') == b'{"x": 1}'
        assert wire.dumps({"outer": {"inner": b"[1, 2]"}}) == b'{"outer": {"inner": [1, 2]}}'
        assert wire.dumps({}) == b"{}"


# ----------------------------------------------------------------------
# Store accounting: the entries are the bytes
# ----------------------------------------------------------------------
def live_bytes(store: ResultStore) -> int:
    with store._lock:
        return sum(len(entry.payload) for entry in store._entries.values())


class TestStoreBytes:
    def test_entries_are_wire_bytes(self):
        store = ResultStore()
        blob = wire.encode({"count": 1, "specs": [{"score": 0.5, "title": "x"}]})
        store.put("s", (1, 0), "A", blob)
        # The store keeps the bytes it was handed; it encodes nothing.
        assert store.get("s", (1, 0), "A")["payload"] is blob

    def test_stats_bytes_equal_live_entry_lengths(self):
        store = ResultStore()
        store.put_pass(
            "s", (1, 0), {"A": wire.encode({"n": 1}), "B": wire.encode({"blob": "x" * 50})}
        )
        store.put_pass("s", (2, 0), {"A": wire.encode({"n": 2})}, manifest=["A", "B"])
        assert store.stats()["bytes"] == live_bytes(store)
        store.drop_session("s")
        assert store.stats()["bytes"] == live_bytes(store) == 0

    def test_budget_rejects_on_byte_length(self):
        payload = wire.encode({"blob": "x" * 100})
        size = len(payload)
        assert ResultStore(budget_bytes=size - 1).put("s", (1, 0), "A", payload) is False
        store = ResultStore(budget_bytes=size)
        assert store.put("s", (1, 0), "A", payload) is True
        assert store.stats()["bytes"] == size

    def test_eviction_keeps_bytes_within_budget(self):
        payloads = {name: wire.encode({"blob": name * 90}) for name in "ABC"}
        size = len(payloads["A"])
        store = ResultStore(budget_bytes=2 * size)
        for name, payload in payloads.items():
            store.put("s", (1, 0), name, payload)
        assert store.get("s", (1, 0), "A") is None  # LRU went first
        assert store.stats()["evictions"] == 1
        assert store.stats()["bytes"] == live_bytes(store) == 2 * size


# ----------------------------------------------------------------------
# The in-process view
# ----------------------------------------------------------------------
def _forbid_loads(monkeypatch):
    def loads(*args, **kwargs):
        raise AssertionError("a store-hit read decoded stored bytes")

    monkeypatch.setattr(json, "loads", loads)


class TestSessionView:
    def test_store_hit_read_does_not_decode(self, monkeypatch):
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                session = manager.create(make_scenario("wide", n_rows=120))
                assert manager.engine.wait_idle(30)
                with monkeypatch.context() as patch:
                    _forbid_loads(patch)
                    response = session.recommendations(compute=False)
                assert response["provenance"]["origin"] == "precompute"
                # Incremental pass: carried actions come from the prior view.
                session.mutate("q_int_0")
                assert manager.engine.wait_idle(30)
                with monkeypatch.context() as patch:
                    _forbid_loads(patch)
                    response = session.recommendations(compute=False)
                    one = session.recommendations(action="Distribution", compute=False)
                origins = {a["origin"] for a in response["provenance"]["actions"].values()}
                assert "carried" in origins
                assert one["actions"]["Distribution"] == response["actions"]["Distribution"]
            finally:
                manager.shutdown()

    def test_foreground_pass_is_decoded_once(self, monkeypatch):
        """A foreground pass stores bytes only: the first in-process read
        decodes them into the view, later reads are lookups."""
        manager = SessionManager()
        try:
            session = manager.create(
                make_scenario("skewed", n_rows=120), overrides={"precompute": False}
            )
            raw = session.recommendations(raw=True)
            assert raw["provenance"]["origin"] == "foreground"
            assert session._view is None  # the wire read decoded nothing
            first = session.recommendations()["actions"]
            assert first == {k: json.loads(v) for k, v in raw["actions"].items()}
            with monkeypatch.context() as patch:
                _forbid_loads(patch)
                assert session.recommendations()["actions"] == first
        finally:
            manager.shutdown()

    def test_view_mismatch_decodes_from_store(self):
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                session = manager.create(make_scenario("skewed", n_rows=120))
                assert manager.engine.wait_idle(30)
                expected = session.recommendations(compute=False)["actions"]
                with session.lock:
                    session._view = None
                decoded = session.recommendations(compute=False)["actions"]
                assert decoded == expected
                raw = session.recommendations(compute=False, raw=True)["actions"]
                assert {k: json.loads(v) for k, v in raw.items()} == expected
            finally:
                manager.shutdown()


# ----------------------------------------------------------------------
# Snapshot results files carry the stored bytes verbatim
# ----------------------------------------------------------------------
def test_snapshot_results_round_trip_store_bytes(tmp_path):
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager(snapshots=SnapshotStore(str(tmp_path)))
        session = manager.create(make_scenario("skewed", n_rows=120))
        assert manager.engine.wait_idle(30)
        stored = manager.store.get_pass(session.id, session.version)
        manager.shutdown()
        payloads = {name: record["payload"] for name, record in stored.items()}

        (path,) = (tmp_path / session.id).glob("results-*.jsonl")
        manifest, records = read_results(path)
        assert manifest == list(payloads)
        assert {name: record["payload"] for name, record in records.items()} == payloads

        restored = SessionManager(snapshots=SnapshotStore(str(tmp_path)))
        try:
            assert restored.restore_sessions() == [session.id]
            response = restored.get(session.id).recommendations(raw=True)
            assert response["provenance"]["origin"] == "precompute"
            assert response["actions"] == payloads
        finally:
            restored.shutdown()


# ----------------------------------------------------------------------
# Golden wire bodies: spliced == json.dumps(decoded), on every surface
# ----------------------------------------------------------------------
def assert_canonical(body: bytes) -> dict:
    """The body is exactly ``json.dumps`` of what it decodes to."""
    decoded = json.loads(body)
    assert body == json.dumps(decoded).encode("utf-8")
    return decoded


def get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def post(conn: http.client.HTTPConnection, path: str, body: dict) -> tuple[int, bytes]:
    conn.request("POST", path, json.dumps(body).encode(), {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


@pytest.fixture
def served():
    with config_overlay(precompute_debounce_s=0.0):
        server = make_server().serve_background()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        yield server, conn
        conn.close()
        server.manager.shutdown()
        server.stop()


@pytest.mark.slow
class TestGoldenWire:
    def test_http_bodies_are_canonical(self, served):
        server, conn = served
        manager = server.manager
        _, info = post(conn, "/v1/sessions", {"csv": CSV})
        stored_sid = json.loads(info)["session"]
        _, info = post(conn, "/v1/sessions", {"csv": CSV, "config": {"precompute": False}})
        fg_sid = json.loads(info)["session"]
        assert manager.engine.wait_idle(30)

        expected = manager.get(stored_sid).recommendations()["actions"]
        for query, names in (("", list(expected)), ("?action=Distribution", ["Distribution"])):
            status, body = get(conn, f"/v1/sessions/{stored_sid}/recommendations{query}")
            assert status == 200
            decoded = assert_canonical(body)
            assert decoded["provenance"]["origin"] == "precompute"
            assert decoded["actions"] == {name: expected[name] for name in names}

        # Foreground: an intent change on a no-precompute session, read
        # first through a foreground pass and then from the store entries
        # that pass back-filled.
        assert post(conn, f"/v1/sessions/{fg_sid}/intent", {"intent": ["b"]})[0] == 200
        bodies = []
        for _ in range(2):
            status, body = get(conn, f"/v1/sessions/{fg_sid}/recommendations")
            assert status == 200
            bodies.append(assert_canonical(body))
        assert bodies[0]["provenance"]["origin"] == "foreground"
        in_process = manager.get(fg_sid).recommendations()
        assert bodies[0] == bodies[1] == in_process

    def test_shard_rpc_bodies_are_canonical(self):
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                service = ShardService(manager)
                created = service.handle(
                    {"method": "create", "params": {"dataset": "synthetic-wide", "rows": 100}}
                )
                sid = created["result"]["session"]
                assert manager.engine.wait_idle(30)
                expected = manager.get(sid).recommendations()["actions"]
                for params in ({}, {"action": "Distribution"}):
                    response = service.handle(
                        {"method": "recommendations", "params": {"session": sid, **params}}
                    )
                    body = response["result"]["payload_json"]
                    decoded = assert_canonical(body)
                    names = [params["action"]] if "action" in params else list(expected)
                    assert decoded["actions"] == {name: expected[name] for name in names}
                    # The frame codec carries the bytes after the envelope verbatim.
                    frame = encode_frame({"id": 1, **response})
                    assert frame.endswith(b"\x00" + body)
                    assert decode_frame(frame)["result"]["payload_json"] == body

                # Foreground: an intent change on a no-precompute session.
                created = service.handle(
                    {
                        "method": "create",
                        "params": {
                            "dataset": "synthetic-wide",
                            "rows": 100,
                            "config": {"precompute": False},
                        },
                    }
                )
                sid = created["result"]["session"]
                assert manager.engine.wait_idle(30)
                service.handle({"method": "intent", "params": {"session": sid, "intent": []}})
                bodies = []
                for _ in range(2):
                    response = service.handle(
                        {"method": "recommendations", "params": {"session": sid}}
                    )
                    bodies.append(assert_canonical(response["result"]["payload_json"]))
                assert bodies[0]["provenance"]["origin"] == "foreground"
                assert bodies[0]["actions"] == expected
                assert bodies[0] == bodies[1] == manager.get(sid).recommendations()
            finally:
                manager.shutdown()


# ----------------------------------------------------------------------
# Transport: keep-alive latency, malformed and over-cap Content-Length
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestTransport:
    def test_keep_alive_small_replies_do_not_stall(self, served):
        """Small replies are not held back by Nagle + delayed ACK (~40 ms)."""
        server, conn = served
        _, info = post(conn, "/v1/sessions", {"csv": CSV, "config": {"precompute": False}})
        sid = json.loads(info)["session"]
        samples = []
        for i in range(20):
            started = time.perf_counter()
            status, _ = post(conn, f"/v1/sessions/{sid}/intent", {"intent": ["a"] if i % 2 else []})
            samples.append(time.perf_counter() - started)
            assert status == 200
        assert statistics.median(samples) < 0.025, samples

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), (str(MAX_BODY_BYTES + 1), 413)],
        ids=["abc", "-5", "over-cap"],
    )
    def test_malformed_content_length_answers_400(self, served, length, status):
        """A bad length answers 400, one above the cap 413, and both close
        the connection without the server waiting for a body."""
        server, _ = served
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/sessions HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {length}\r\n\r\n".encode()
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:  # the server closed the connection
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
