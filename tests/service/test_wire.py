"""Serialize once: stored payload bytes, spliced responses, decoded views.

The contract under test: a pass encodes each action payload to JSON bytes
exactly once (``ResultStore.put_pass``), the store holds only those bytes
and accounts for exactly their length, and every wire reader — the HTTP
handler, the shard RPC, snapshot files — splices them into the response
with :func:`repro.service.wire.pieces`, producing the same bytes
``json.dumps`` would produce for the decoded response.  Building the
pieces copies no stored payload byte, and ``_Handler._send`` writes status
line, headers and the body's pieces in one ``sendmsg`` loop, at most
``SC_IOV_MAX`` buffers a call; a client that goes away mid-response gets
no second response.  In-process reads keep getting
dicts, from the session's view; a session whose latest read took bytes,
or that was created through the service, has its passes stored as bytes
only, and holds about their size.
"""

from __future__ import annotations

import builtins
import errno
import http.client
import io
import json
import socket
import statistics
import struct
import sys
import time
import tracemalloc
from email.message import Message
from types import SimpleNamespace

import numpy as np
import pytest

from repro import LuxDataFrame
from repro.core import telemetry
from repro.core.config import config_overlay
from repro.data.synthetic import make_scenario
from repro.dataframe import read_csv_string
from repro.service import (
    ResultStore,
    SessionManager,
    ShardService,
    SnapshotStore,
    make_server,
    wire,
)
from repro.service import metrics as service_metrics
from repro.service.http_api import IOV_MAX, MAX_BODY_BYTES, _Handler
from repro.service.persist import read_results
from repro.service.session import encode_recommendations
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

    def test_pieces_copy_no_payload_byte(self):
        """A response's pieces hold a stored payload by reference: building
        them allocates under 64 KiB around a 4 MiB payload."""
        payload = b'{"count": 1, "specs": ["' + b"x" * (4 << 20) + b'"]}'
        response = {
            "session": "s1",
            "data_version": [3, 1],
            "actions": {"A": payload, "B": wire.encode({"count": 0, "specs": []})},
            "provenance": {"origin": "precompute", "actions": {"A": {"vis": None}}},
        }
        tracemalloc.start()
        try:
            pieces = wire.pieces(response)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        assert any(piece is payload for piece in pieces)
        decoded = dict(response, actions={k: json.loads(v) for k, v in response["actions"].items()})
        assert b"".join(pieces) == wire.dumps(response) == json.dumps(decoded).encode("utf-8")


# ----------------------------------------------------------------------
# The sender: one sendmsg per response, no second response to a dead client
# ----------------------------------------------------------------------
DATE = "Sat, 17 Oct 2026 12:00:00 GMT"


class FakeConnection:
    """A socket stand-in that records ``sendmsg`` calls.

    It accepts at most ``limit`` bytes a call (all of them when None), or
    raises ``error`` on every call.
    """

    def __init__(self, limit: int | None = None, error: OSError | None = None):
        self.limit = limit
        self.error = error
        self.calls: list[list[bytes]] = []
        self.received = b""

    def sendmsg(self, buffers):
        buffers = [bytes(buffer) for buffer in buffers]
        self.calls.append(buffers)
        if len(buffers) > IOV_MAX:
            raise OSError(errno.EMSGSIZE, "Message too long")
        if self.error is not None:
            raise self.error
        offered = b"".join(buffers)
        taken = offered if self.limit is None else offered[: self.limit]
        self.received += taken
        return len(taken)


def fake_handler(connection: FakeConnection, path: str = "/v1/healthz") -> _Handler:
    """A ``_Handler`` over ``connection`` for a bodiless ``GET path``."""
    handler = _Handler.__new__(_Handler)
    backend = SimpleNamespace(request=lambda method, params=None: {"status": "ok"})
    handler.server = SimpleNamespace(verbose=False, auth_token="", backend=backend)
    handler.connection = connection
    handler.rfile = io.BytesIO()
    handler.headers = Message()
    handler.command, handler.path = "GET", path
    handler.request_version = "HTTP/1.1"
    handler.requestline = f"GET {path} HTTP/1.1"
    handler.close_connection = False
    handler._body_cache = None
    handler._request_id = "0123456789abcdef"
    return handler


def expected_response(handler: _Handler, body: bytes) -> bytes:
    """Status line, headers in the order the server writes them, CRLF, body."""
    head = (
        "HTTP/1.1 200 OK\r\n"
        f"Server: {handler.version_string()}\r\n"
        f"Date: {DATE}\r\n"
        "Content-Type: application/json\r\n"
        "X-Request-Id: 0123456789abcdef\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


@pytest.fixture
def fixed_date(monkeypatch):
    monkeypatch.setattr(_Handler, "date_time_string", lambda self, timestamp=None: DATE)


class TestSend:
    def test_one_sendmsg_per_response(self, fixed_date):
        connection = FakeConnection()
        handler = fake_handler(connection)
        body = wire.encode({"count": 1, "specs": [{"title": "x"}]})
        handler._send(200, body)
        assert len(connection.calls) == 1
        assert b"".join(connection.calls[0]) == expected_response(handler, body)
        assert connection.calls[0][-1] == body

    @pytest.mark.parametrize("limit", [1, 7, 100, 4096])
    def test_short_sends_complete(self, fixed_date, limit):
        connection = FakeConnection(limit=limit)
        handler = fake_handler(connection)
        body = b'{"blob": "' + b"y" * 10_000 + b'"}'
        handler._send(200, body)
        expected = expected_response(handler, body)
        assert connection.received == expected
        assert len(connection.calls) == -(-len(expected) // limit)

    @pytest.mark.parametrize("limit", [1, 7, 4096])
    def test_multi_piece_short_sends_complete(self, fixed_date, limit):
        """Short sends resume across piece boundaries, without a join."""
        connection = FakeConnection(limit=limit)
        handler = fake_handler(connection)
        pieces = [b'{"a": ', b"1" * 5_000, b', "b": ', b"[", b"2" * 3, b"]", b"}"]
        handler._send(200, pieces)
        expected = expected_response(handler, b"".join(pieces))
        assert connection.received == expected
        assert len(connection.calls) == -(-len(expected) // limit)

    def test_more_pieces_than_iov_max(self, fixed_date):
        """Each ``sendmsg`` offers at most ``SC_IOV_MAX`` buffers."""
        connection = FakeConnection()
        handler = fake_handler(connection)
        pieces = [b"["] + [b"%d, " % i for i in range(2 * IOV_MAX + 5)] + [b"0]"]
        handler._send(200, pieces)
        assert connection.received == expected_response(handler, b"".join(pieces))
        # The status line and headers are one more buffer.
        assert [len(call) for call in connection.calls] == [IOV_MAX, IOV_MAX, 8]

    def test_dead_client_gets_no_second_response(self):
        """A send error closes the connection; the request is observed
        once, as the status it was sending, and its span names the error."""
        telemetry.reset()
        try:
            connection = FakeConnection(error=BrokenPipeError(32, "Broken pipe"))
            handler = fake_handler(connection)
            handler._route("GET")
            assert len(connection.calls) == 1
            assert handler.close_connection
            requests = service_metrics.collect_process()["lux_http_requests_total"]
            assert requests["values"] == {"healthz\x1fGET\x1f200": 1.0}
            (root,) = [s for s in telemetry.spans() if s["name"] == "http.request"]
            assert root["attrs"]["route"] == "healthz"
            assert root["attrs"]["status"] == 200
            assert root["attrs"]["error"] == "BrokenPipeError"
        finally:
            telemetry.reset()


# ----------------------------------------------------------------------
# Store accounting: the entries are the bytes
# ----------------------------------------------------------------------
def live_bytes(store: ResultStore) -> int:
    with store._lock:
        return sum(
            len(record["payload"])
            for stored in store._passes.values()
            for record in stored.records.values()
        )


def records(payloads):
    return {
        name: {"payload": blob, "origin": "precompute", "computed_at": 1.0}
        for name, blob in payloads.items()
    }


class TestStoreBytes:
    def test_entries_are_wire_bytes(self):
        store = ResultStore()
        blob = wire.encode({"count": 1, "specs": [{"score": 0.5, "title": "x"}]})
        store.put_pass("s", (1, 0), records({"A": blob}))
        # The store keeps the bytes it was handed; it encodes nothing.
        assert store.get_pass("s", (1, 0))[0]["A"]["payload"] is blob

    def test_stats_bytes_equal_live_entry_lengths(self):
        store = ResultStore()
        pair = {"A": wire.encode({"n": 1}), "B": wire.encode({"blob": "x" * 50})}
        store.put_pass("s", (1, 0), records(pair))
        store.put_pass("t", (1, 0), records({"A": wire.encode({"n": 2})}))
        assert store.stats()["bytes"] == live_bytes(store)
        store.put_pass("s", (2, 0), records({"A": wire.encode({"n": 3})}))
        assert store.stats()["bytes"] == live_bytes(store)
        store.drop_session("s")
        store.drop_session("t")
        assert store.stats()["bytes"] == live_bytes(store) == 0

    def test_budget_rejects_on_byte_length(self):
        payload = wire.encode({"blob": "x" * 100})
        size = len(payload)
        one = records({"A": payload})
        assert ResultStore(budget_bytes=size - 1).put_pass("s", (1, 0), one) is False
        store = ResultStore(budget_bytes=size)
        assert store.put_pass("s", (1, 0), one) is True
        assert store.stats()["bytes"] == size

    def test_eviction_keeps_bytes_within_budget(self):
        payloads = {name: wire.encode({"blob": name * 90}) for name in "ABC"}
        size = len(payloads["A"])
        store = ResultStore(budget_bytes=2 * size)
        for name, payload in payloads.items():
            store.put_pass(name, (1, 0), records({name: payload}))
        assert store.get_pass("A", (1, 0)) is None  # LRU went first
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


    def test_view_answers_only_for_the_bytes_it_decoded(self):
        """A view decoded from one pass never answers for another's bytes."""
        manager = SessionManager()
        try:
            session = manager.create(
                make_scenario("skewed", n_rows=120), overrides={"precompute": False}
            )
            first = session.recommendations()["actions"]
            session.mutate("heavy_tail", session.frame["heavy_tail"].to_list()[::-1])
            second = session.recommendations()["actions"]
            raw = session.recommendations(compute=False, raw=True)["actions"]
            assert second == {k: json.loads(v) for k, v in raw.items()}
            assert second != first
        finally:
            manager.shutdown()

    def test_bytes_reader_passes_store_bytes_only(self, monkeypatch):
        """A pass for a session whose latest read took bytes decodes nothing.

        A later dict read decodes the stored bytes, and the session's next
        pass decodes into its view again.
        """
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                session = manager.create(make_scenario("skewed", n_rows=120))
                assert manager.engine.wait_idle(30)
                assert session._view  # not yet read: counted as a dict reader
                session.recommendations(compute=False, raw=True)
                session.mutate("heavy_tail")
                assert manager.engine.wait_idle(30)
                assert session._view is None
                raw = session.recommendations(compute=False, raw=True)["actions"]
                decoded = session.recommendations(compute=False)["actions"]
                assert decoded == {k: json.loads(v) for k, v in raw.items()}
                session.mutate("normal_ref")
                assert manager.engine.wait_idle(30)
                with monkeypatch.context() as patch:
                    _forbid_loads(patch)
                    response = session.recommendations(compute=False)
                raw = session.recommendations(compute=False, raw=True)["actions"]
                assert response["actions"] == {k: json.loads(v) for k, v in raw.items()}
            finally:
                manager.shutdown()

    def test_wire_session_first_pass_is_bytes_only(self, monkeypatch):
        """A session created through the service never decodes its first pass.

        Its raw read is a cold encode of the same CSV, and a later dict
        read decodes the stored bytes.  A session created in-process is
        still a dict reader until read, so its first dict read is a lookup.
        """
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                sid = ShardService(manager).request("create", {"csv": CSV})["session"]
                assert manager.engine.wait_idle(30)
                session = manager.get(sid)
                assert session._view is None
                table = manager.engine._tables[sid]
                held = [*table.values()]
                held += [c for result in table.values() for c in result.candidates if c]
                assert table and held
                for item in held:
                    slots = [n for cls in type(item).__mro__ for n in getattr(cls, "__slots__", ())]
                    assert not any(isinstance(getattr(item, n), dict) for n in slots), item
                raw = session.recommendations(compute=False, raw=True)["actions"]
                cold = read_csv_string(CSV, frame_cls=LuxDataFrame)
                assert raw == encode_recommendations(cold.recommendations)
                decoded = session.recommendations(compute=False)["actions"]
                assert decoded == {k: json.loads(v) for k, v in raw.items()}

                local = manager.create(read_csv_string(CSV, frame_cls=LuxDataFrame))
                assert manager.engine.wait_idle(30)
                assert local._view
                with monkeypatch.context() as patch:
                    _forbid_loads(patch)
                    assert local.recommendations(compute=False)["actions"] == decoded
            finally:
                manager.shutdown()

    def test_bytes_reader_holds_about_its_stored_bytes(self):
        """A session read as bytes grows by less than twice its stored pass.

        Two measure edits on the 2,000-row shape of perfbench's edit_read,
        traced from the first raw read: decoding each pass into dicts
        would keep about four times its bytes.
        """
        with config_overlay(precompute_debounce_s=0.0):
            manager = SessionManager()
            try:
                session = manager.create(measure_frame(2_000))
                assert manager.engine.wait_idle(60)
                session.recommendations(raw=True)
                tracemalloc.start()
                try:
                    for name in ("q0", "q1"):
                        session.mutate(name, session.frame[name].to_list()[::-1])
                        assert manager.engine.wait_idle(60)
                    grown = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                stored, _ = manager.store.get_pass(session.id, session.version)
                held = sum(len(record["payload"]) for record in stored.values())
                assert grown < 2 * held, (grown, held)
            finally:
                manager.shutdown()


def measure_frame(rows: int) -> LuxDataFrame:
    """Six normal measures and three nominal dimensions, as in perfbench's edit_read."""
    rng = np.random.default_rng(3)
    columns = {f"q{i}": rng.normal(0.0, 1.0, rows) for i in range(6)}
    for name, cardinality in {"d0": 6, "d1": 12, "d2": 24}.items():
        columns[name] = [f"v{i}" for i in rng.integers(0, cardinality, rows)]
    return LuxDataFrame(columns)


# ----------------------------------------------------------------------
# Snapshot results files carry the stored bytes verbatim
# ----------------------------------------------------------------------
def test_snapshot_results_round_trip_store_bytes(tmp_path):
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager(snapshots=SnapshotStore(str(tmp_path)))
        session = manager.create(make_scenario("skewed", n_rows=120))
        assert manager.engine.wait_idle(30)
        stored, _ = manager.store.get_pass(session.id, session.version)
        manager.shutdown()
        payloads = {name: record["payload"] for name, record in stored.items()}

        (path,) = (tmp_path / session.id).glob("results-*.jsonl")
        saved = read_results(path)
        assert list(saved) == list(payloads)
        assert {name: record["payload"] for name, record in saved.items()} == payloads

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


# ----------------------------------------------------------------------
# Large bodies over real sockets: slow readers and clients that leave
# ----------------------------------------------------------------------
def measure_frame(rows: int) -> LuxDataFrame:
    """Six normal measures and three nominal dimensions (the edit_read shape)."""
    rng = np.random.default_rng(0)
    data = {f"q{i}": rng.normal(0.0, 1.0, rows) for i in range(6)}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        data[name] = [f"v{i % card}" for i in range(rows)]
    return LuxDataFrame(data)


def small_buffer_socket(server) -> socket.socket:
    """A client socket whose receive buffer is 4 KiB, connected to ``server``."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(60)
    sock.connect(server.server_address[:2])
    return sock


def request_count(route: str, status: int) -> float:
    values = service_metrics.collect_process().get("lux_http_requests_total", {})
    return values.get("values", {}).get(f"{route}\x1fGET\x1f{status}", 0.0)


@pytest.fixture(scope="class")
def large_read():
    """A server holding one stored ~4 MB recommendations body (5,000 rows)."""
    server = make_server().serve_background()
    try:
        sid = server.manager.create(measure_frame(5_000)).id
        assert server.manager.engine.wait_idle(120)
        params = {"session": sid, "action": None}
        body = b"".join(server.backend.request("recommendations", params)["payload_json"])
        yield server, f"/v1/sessions/{sid}/recommendations", body
    finally:
        server.manager.shutdown()
        server.stop()


@pytest.mark.slow
class TestLargeBody:
    def test_slow_reader_receives_the_whole_body(self, large_read):
        server, path, expected = large_read
        assert len(expected) > 3_000_000
        with small_buffer_socket(server) as sock:
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
            with sock.makefile("rb") as reader:
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                headers = {}
                for line in iter(reader.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.lower()] = value.strip()
                body = reader.read(int(headers["content-length"]))
        assert body == expected

    def test_client_gone_mid_response(self, large_read, capsys):
        """Three clients read 100 bytes and reset: each request is observed
        once, as the 200 it was sending, no 500 is attempted, no traceback
        is printed, and the next client is served."""
        server, path, expected = large_read
        before = request_count("recommendations", 200)
        for _ in range(3):
            with small_buffer_socket(server) as sock:
                sock.sendall(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
                assert sock.recv(100)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        deadline = time.monotonic() + 30
        while request_count("recommendations", 200) < before + 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert request_count("recommendations", 200) == before + 3
        assert request_count("recommendations", 500) == 0

        roots = [s for s in telemetry.spans() if s["attrs"].get("path") == path][-3:]
        assert [root["name"] for root in roots] == ["http.request"] * 3
        for root in roots:
            assert root["attrs"]["route"] == "recommendations"
            assert root["attrs"]["status"] == 200
            # Whether the send fails depends on the kernel's send buffer;
            # when it does, the span names the socket error.
            if "error" in root["attrs"]:
                assert issubclass(getattr(builtins, root["attrs"]["error"]), ConnectionError)

        conn = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
        try:
            status, body = get(conn, path)
        finally:
            conn.close()
        assert status == 200 and body == expected
        assert "Traceback" not in capsys.readouterr().err

    def test_client_reset_between_requests_is_quiet(self, large_read, capsys, monkeypatch):
        """A client that resets its idle keep-alive connection is dropped
        without a traceback."""
        server, _, _ = large_read
        dropped = []
        handle_error = server.handle_error

        def recording(request, client_address):
            handle_error(request, client_address)
            dropped.append(sys.exc_info()[0])

        monkeypatch.setattr(server, "handle_error", recording)
        with small_buffer_socket(server) as sock:
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=60)
            conn.sock = sock
            assert get(conn, "/v1/healthz")[0] == 200
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        deadline = time.monotonic() + 10
        while not dropped and time.monotonic() < deadline:
            time.sleep(0.05)
        assert dropped and all(issubclass(error, ConnectionError) for error in dropped)
        assert "Traceback" not in capsys.readouterr().err
