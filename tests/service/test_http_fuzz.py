"""Malformed requests answer 4xx, never a 500 or a stuck connection.

One table of bad requests against the ``/v1/`` API.  Over HTTP, every row
is sent to a single-process server (``ShardService`` in-process) and to
one in front of a one-worker ``Supervisor`` (the same service behind a
pipe).  Each must answer 4xx with a JSON ``error``, and the same
keep-alive connection must then serve the next request.  Every row that a
router would forward to a worker is also sent through
``ShardService.handle``, which must report a client error, never error
kind ``internal``.  No row may leave a session behind.  Oversized bodies
are checked in ``test_wire.py``: they close the connection, so they
cannot share this table's keep-alive check.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import parse_qsl

import pytest

from repro.service import SessionManager, ShardService, Supervisor, make_server

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(120))

CREATE = "/v1/sessions"
INTENT = "/v1/sessions/{sid}/intent"
MUTATE = "/v1/sessions/{sid}/mutate"

#: (id, method, path, body, RPC method or None).  A ``bytes`` body is sent
#: as is; any other body is JSON-encoded.  Rows with RPC method None never
#: reach a worker: the router rejects them first.
ROWS = [
    ("create-not-utf8", "POST", CREATE, b'{"csv": "\xff"}', None),
    ("create-invalid-json", "POST", CREATE, b'{"csv": ', None),
    ("create-not-an-object", "POST", CREATE, [1, 2], "create"),
    ("create-intent-int", "POST", CREATE, {"csv": CSV, "intent": 5}, "create"),
    ("create-intent-object", "POST", CREATE, {"csv": CSV, "intent": {"a": 1}}, "create"),
    ("create-intent-int-item", "POST", CREATE, {"csv": CSV, "intent": [5]}, "create"),
    ("create-intent-null-item", "POST", CREATE, {"csv": CSV, "intent": [None]}, "create"),
    ("create-intent-unknown-column", "POST", CREATE, {"csv": CSV, "intent": ["nope"]}, "create"),
    ("create-csv-int", "POST", CREATE, {"csv": 5}, "create"),
    ("create-csv-list", "POST", CREATE, {"csv": ["x"]}, "create"),
    ("create-dataset-list", "POST", CREATE, {"dataset": ["hpi"]}, "create"),
    ("create-rows-list", "POST", CREATE, {"dataset": "hpi", "rows": [20]}, "create"),
    ("create-rows-zero", "POST", CREATE, {"dataset": "synthetic-wide", "rows": 0}, "create"),
    ("create-rows-negative", "POST", CREATE, {"dataset": "hpi", "rows": -3}, "create"),
    ("create-rows-minus-one", "POST", CREATE, {"dataset": "airbnb", "rows": -1}, "create"),
    ("create-rows-bool", "POST", CREATE, {"dataset": "hpi", "rows": True}, "create"),
    ("create-config-int", "POST", CREATE, {"csv": CSV, "config": 5}, "create"),
    ("create-session-id-traversal", "POST", CREATE, {"csv": CSV, "session_id": "../escaped"},
     "create"),
    ("create-session-id-int", "POST", CREATE, {"csv": CSV, "session_id": 5}, "create"),
    ("create-session-id-empty", "POST", CREATE, {"csv": CSV, "session_id": ""}, "create"),
    ("create-session-id-newline", "POST", CREATE, {"csv": CSV, "session_id": "a\n"}, "create"),
    ("create-csv-huge-field", "POST", CREATE, {"csv": "a,b\n1," + "x" * 131_073}, "create"),
    ("create-csv-long-row", "POST", CREATE, {"csv": "a,b\n1,2\n3,4,5"}, "create"),
    ("intent-not-utf8", "POST", INTENT, b"\xff\xfe", None),
    ("intent-not-an-object", "POST", INTENT, "b", "intent"),
    ("intent-int", "POST", INTENT, {"intent": 5}, "intent"),
    ("intent-object", "POST", INTENT, {"intent": {"a": 1}}, "intent"),
    ("intent-int-item", "POST", INTENT, {"intent": [5]}, "intent"),
    ("intent-null-item", "POST", INTENT, {"intent": [None]}, "intent"),
    ("intent-unknown-column", "POST", INTENT, {"intent": ["nope"]}, "intent"),
    ("mutate-no-column", "POST", MUTATE, {}, "mutate"),
    ("mutate-column-int", "POST", MUTATE, {"column": 5}, "mutate"),
    ("mutate-unknown-column", "POST", MUTATE, {"column": "ghost"}, "mutate"),
    ("mutate-values-not-a-list", "POST", MUTATE, {"column": "a", "values": "x"}, "mutate"),
    ("mutate-values-wrong-length", "POST", MUTATE, {"column": "a", "values": [1, 2]}, "mutate"),
    ("unknown-action", "GET", "/v1/sessions/{sid}/recommendations?action=Bogus", None,
     "recommendations"),
    ("limit-not-an-int", "GET", "/v1/sessions/{sid}/trace?limit=abc", None, "trace"),
    ("limit-negative", "GET", "/v1/sessions/{sid}/trace?limit=-1", None, "trace"),
    ("unprefixed-path", "GET", "/sessions/{sid}/recommendations", None, None),
]

ROW_IDS = [row[0] for row in ROWS]
RPC_ROWS = [row for row in ROWS if row[4]]


def encode(body) -> bytes | None:
    if body is None or isinstance(body, bytes):
        return body
    return json.dumps(body).encode("utf-8")


@pytest.fixture(scope="module")
def served():
    """A single-process server and a one-worker sharded one, each with a session."""
    supervisor = Supervisor(n_workers=1)
    servers = [make_server(), make_server(supervisor=supervisor)]
    try:
        out = []
        for server in servers:
            server.serve_background()
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=60)
            conn.request("POST", CREATE, encode({"csv": CSV}), {"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 201
            out.append((server, json.loads(response.read())["session"]))
            conn.close()
            assert server.backend.request("wait_idle", {"timeout": 60})["idle"]
        yield out
    finally:
        for server in servers:
            server.stop()
        servers[0].manager.shutdown()
        supervisor.stop()


@pytest.mark.slow
@pytest.mark.parametrize("name, method, path, body, rpc", ROWS, ids=ROW_IDS)
def test_http_answers_4xx_and_keeps_the_connection(served, name, method, path, body, rpc):
    for server, sid in served:
        mode = "sharded" if server.manager is None else "single-process"
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)

        def sessions() -> list[str]:
            conn.request("GET", "/v1/sessions")
            response = conn.getresponse()
            assert response.status == 200, mode
            return json.loads(response.read())["sessions"]

        try:
            before = sessions()
            headers = {"Content-Type": "application/json"}
            conn.request(method, path.format(sid=sid), encode(body), headers)
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
            assert 400 <= response.status < 500, (mode, response.status, error)
            assert isinstance(error, str) and error
            # The same connection serves the next request, and a failed
            # create left no session behind.
            assert sessions() == before, mode
        finally:
            conn.close()


@pytest.fixture(scope="module")
def service():
    manager = SessionManager()
    service = ShardService(manager)
    created = service.handle({"method": "create", "params": {"csv": CSV}})
    assert manager.engine.wait_idle(60)
    yield service, created["result"]["session"]
    manager.shutdown()


@pytest.mark.parametrize(
    "name, method, path, body, rpc", RPC_ROWS, ids=[row[0] for row in RPC_ROWS]
)
def test_shard_service_reports_client_errors(service, name, method, path, body, rpc):
    shard, sid = service
    params = body  # a body that is not an object is sent as it is
    if body is None or isinstance(body, dict):
        query = dict(parse_qsl(path.partition("?")[2]))
        params = {"session": sid, **query, **(body or {})}
    before = shard.manager.ids()
    response = shard.handle({"method": rpc, "params": params})
    assert response["ok"] is False
    assert response["error"]["kind"] != "internal", response["error"]
    assert shard.manager.ids() == before
