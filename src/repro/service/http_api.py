"""Stdlib-only HTTP JSON API over the recommendation service.

No framework, no new dependencies: :class:`http.server.ThreadingHTTPServer`
with one handler class that turns each route into one
``backend.request(method, params)`` call.  The backend is a
:class:`~repro.service.shard.ShardService` over one in-process
:class:`~repro.service.session.SessionManager` (the default; no pipe, no
frame codec), or a :class:`~repro.service.supervisor.Supervisor` that
routes each request to the worker process owning the session, where the
same ``ShardService`` runs.  Validation, admission, the 404 mapping and
the payload splice therefore exist once, in :mod:`repro.service.shard`,
and the HTTP surface is identical in both modes — clients cannot tell
how many processes serve them.

Endpoints
---------
Every route lives under ``/v1/``; any other path answers 404.

``POST /v1/sessions``
    Create a session.  JSON body fields: ``dataset`` (a bundled generator:
    hpi | airbnb | covid | communities, or a load-test scenario
    ``synthetic-{wide,highcard,skewed,datetime,nullheavy}``) *or*
    ``csv`` (inline CSV text);
    optional ``rows`` (airbnb size), ``config`` (per-session overlay, e.g.
    ``{"top_k": 5}``), ``intent``, ``session_id``.  Returns the session
    info.
``GET /v1/sessions`` / ``GET /v1/sessions/{id}``
    List session ids / one session's info.
``POST /v1/sessions/{id}/intent``
    Body ``{"intent": [...]}`` (empty/null clears).  Steers the session
    and re-arms its background pass.
``POST /v1/sessions/{id}/mutate``
    Body ``{"column": name}`` touches the column (content no-op that
    bumps the data version — the load harness's write op); with
    ``"values": [...]`` the column is assigned (or created) from the
    list.  Returns the session info at the new version.
``GET /v1/sessions/{id}/recommendations[?action=Enhance]``
    Specs + scores + ``provenance``.  Served from the versioned store when
    the precompute engine already ran at the current version, computed in
    the foreground otherwise.  ``provenance.origin`` is ``precompute`` /
    ``foreground`` / ``carried`` / ``mixed`` (see
    :mod:`repro.service.provenance`); ``provenance.actions`` gives each
    action its own origin and, for a partly reused action, per-vis ones.
``GET /v1/sessions/{id}/trace[?limit=N]``
    The session's last ``N`` spans (default 100; 0 returns none).
``DELETE /v1/sessions/{id}``
    Close the session, freeing its store entries and watches.
``GET /v1/metrics``
    Prometheus text exposition (merged across workers in shard mode).
``GET /v1/healthz``
    Liveness + pool / computation-cache / store / engine statistics,
    including the precompute backlog depth against its bound and the
    pool's per-band/per-tag queue depths.  In shard mode the top-level
    aggregates sum across workers, a ``workers`` list carries each
    worker's stanza, and a dead worker appears as a
    ``worker_unreachable`` stanza (probed under a short timeout — a
    crashed worker can never hang the health check) with the aggregate
    ``status`` degraded.

Request bodies: a ``Content-Length`` above :data:`MAX_BODY_BYTES`
answers **413** without the body being read, and a malformed one answers
400; both close the connection.  A create's ``session_id``, when given,
must match the route's id grammar (:data:`~repro.service.shard.SESSION_ID`),
and CSV text that the reader rejects (a row longer than the header, a
field past the csv module's size limit) answers 400.

Backpressure: every mutation-facing write (session create, intent,
mutate) passes the precompute engine's admission check *before* touching
any state.  At saturation (``config.precompute_queue_limit``) the API
answers **429** with a ``Retry-After`` header instead of queueing
unboundedly; rejected writes have no side effects, so a client simply
retries after the indicated delay.  In shard mode a request routed to a
dead worker answers **503** with ``Retry-After: 1`` — the supervisor
restarts crashed workers, which recover warm from session snapshots.

Authentication: when ``config.service_auth_token`` (or the explicit
``auth_token`` constructor/CLI override) is non-empty, every route except
``/v1/healthz`` and ``/v1/metrics`` requires ``Authorization: Bearer
<token>`` and answers 401 otherwise.  An empty token (the default)
disables the check for local, single-user notebooks.

Run standalone::

    PYTHONPATH=src python -m repro.service.http_api --port 8080
    PYTHONPATH=src python -m repro.service.http_api --port 8080 \\
        --shards 4 --snapshot-dir /var/lib/lux/snapshots

or embed: ``server = make_server(manager, port=0); server.serve_background()``.
"""

from __future__ import annotations

import functools
import hmac
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import parse_qsl

from ..core import telemetry
from ..core.config import config
from ..core.errors import LuxError
from . import metrics as service_metrics
from . import wire
from .precompute import QueueSaturated
from .session import SessionManager
from .shard import SESSION_ID, RequestError, ShardService, WorkerUnreachable

if TYPE_CHECKING:  # pragma: no cover
    from .supervisor import Supervisor

__all__ = [
    "MAX_BODY_BYTES",
    "ServiceServer",
    "main",
    "make_server",
]

_SESSION_PATH = re.compile(rf"^/sessions/({SESSION_ID})(/[a-z_]+)?$")

#: The API prefix: every route lives under ``/v1/``, and any other path
#: answers 404 like an unknown route.
V1_PREFIX = "/v1"

#: The largest request body the server reads (64 MiB).  A longer declared
#: ``Content-Length`` answers 413 without the body being read.
MAX_BODY_BYTES = 64 << 20

#: The most buffers one ``sendmsg`` call takes.
IOV_MAX = os.sysconf("SC_IOV_MAX")


def authenticated(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Route decorator: reject the request unless it bears the token.

    Every handler ``_resolve`` can return must carry this or :func:`public`
    — an explicit per-route decision that ``tools/check`` (rule
    ``route-auth``) enforces, so a new endpoint cannot silently ship open.
    """

    @functools.wraps(handler)
    def guarded(self: "_Handler", *args: Any) -> Any:
        self._require_auth()
        return handler(self, *args)

    return guarded


def public(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Route decorator marking an endpoint as deliberately unauthenticated."""
    return handler


def measured(route: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Route decorator naming the request metric's route label.

    Every handler ``_resolve`` can return must carry this — an explicit
    per-route decision ``tools/check`` (rule ``telemetry-hygiene``)
    enforces, mirroring ``route-auth``.  The decorator only records the
    label; the count/latency/status observation happens centrally in
    ``_route`` once the final status is known, so error statuses (401,
    404, 429, 503...) are attributed to the route that produced them.
    Keep it outermost (above the auth decorator) so even rejected
    requests carry their route label.
    """

    def wrap(handler: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(handler)
        def labelled(self: "_Handler", *args: Any) -> Any:
            self._route_name = route
            return handler(self, *args)

        return labelled

    return wrap


class _Handler(BaseHTTPRequestHandler):
    """Routes one request onto the server's backend."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response is one send, but a body larger than the
    # socket buffer still leaves in several segments, and with Nagle on
    # the last one waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: "dict[str, Any] | list[bytes] | bytes | str",
        headers: dict[str, str] | None = None,
    ) -> None:
        """Write one response: status line, headers and body in one send.

        A list is an encoded recommendations body as byte pieces (stored
        payloads among them by reference), and bytes one the supervisor
        forwarded (the shard RPC frame is the only place the pieces are
        joined); both are sent as they are.  A str is the /metrics
        exposition text; a dict goes through the one wire writer
        (:func:`repro.service.wire.pieces`).  The status line and headers
        are built by ``send_response``/``send_header`` and leave with the
        body's pieces in one ``socket.sendmsg`` loop, so no body byte is
        copied here.  This is the only method that writes to the client
        (``tools/check`` rule ``one-writer``).

        A socket error means the client is gone: the connection is closed
        and nothing more is written on it.  The request is still observed
        once, by ``_route``, under the status it was sending, and its span
        names the error.
        """
        # Keep-alive discipline: any declared request body must be fully
        # consumed before the response, or its bytes would be parsed as
        # the connection's next request line (error paths can respond
        # before the route ever called _body()).
        self._read_body_bytes()
        if isinstance(body, str):
            pieces = [body.encode("utf-8")]
        elif isinstance(body, list):
            pieces = body
        else:
            pieces = wire.pieces(body)
        length = sum(map(len, pieces))
        self._status_sent = status
        self._body_bytes = length
        extra = dict(headers or {})
        if self.close_connection:
            extra.setdefault("Connection", "close")
        content_type = extra.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        request_id = getattr(self, "_request_id", "")
        if request_id:
            self.send_header("X-Request-Id", request_id)
        self.send_header("Content-Length", str(length))
        for name, value in extra.items():
            self.send_header(name, value)
        # What end_headers() would write, taken from the buffer instead.
        self._headers_buffer.append(b"\r\n")
        head = b"".join(self._headers_buffer)
        self._headers_buffer = []
        try:
            _send_all(self.connection, [head, *pieces])
        except OSError as exc:
            self.close_connection = True
            self._send_error = type(exc).__name__

    def _read_body_bytes(self) -> bytes:
        """The raw request body, read exactly once per request.

        A malformed or negative ``Content-Length`` answers 400 and closes
        the connection: the body's extent is unknown, so whatever follows
        cannot be framed as the next request.  One above
        :data:`MAX_BODY_BYTES` answers 413 and closes the connection
        without reading the body.
        """
        cached = getattr(self, "_body_cache", None)
        if cached is None:
            # Cached before validating, so the error response's own call
            # here does not raise again.
            self._body_cache = b""
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                self.close_connection = True
                raise RequestError(400, f"invalid Content-Length: {declared!r}")
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise RequestError(
                    413, f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte cap"
                )
            cached = self.rfile.read(length) if length else b""
            self._body_cache = cached
        return cached

    def _body(self) -> dict[str, Any]:
        raw = self._read_body_bytes()
        if not raw:
            return {}
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise RequestError(400, "request body is not valid JSON") from None
        if not isinstance(parsed, dict):
            raise RequestError(400, "request body must be a JSON object")
        return parsed

    def _require_auth(self) -> None:
        """Raise 401 unless the request bears the configured token."""
        token = self.server.auth_token
        if not token:
            return
        header = self.headers.get("Authorization") or ""
        if not hmac.compare_digest(header, f"Bearer {token}"):
            raise RequestError(401, "missing or invalid bearer token")

    def _route(self, method: str) -> None:
        # One handler instance serves every request on a keep-alive
        # connection; the body cache (and the per-request telemetry
        # state) is strictly per-request.
        self._body_cache = None
        self._route_name = "unrouted"
        self._status_sent = 0
        self._body_bytes = 0
        self._send_error = ""
        started = time.perf_counter()
        with telemetry.span(
            "http.request", method=method, path=self.path
        ) as root:
            # The trace id doubles as the request id (X-Request-Id
            # response header), correlating client logs with spans.
            self._request_id = root.trace_id
            try:
                handler, args = self._resolve(method)
                if args and isinstance(args[0], str):
                    root.attrs["session"] = args[0]
                self._send(*handler(*args))
            except RequestError as exc:
                self._send(exc.status, {"error": str(exc)})
            except QueueSaturated as exc:
                # Backpressure: the precompute backlog is at its bound, so the
                # write was refused before any state changed.  Degrade
                # gracefully — tell the client when to come back.
                self._send(
                    429,
                    {"error": str(exc), "retry_after_s": exc.retry_after_s},
                    headers={"Retry-After": str(exc.retry_after_s)},
                )
            except WorkerUnreachable as exc:
                # Shard mode: the owning worker is dead or timed out.  The
                # supervisor restarts crashed workers (warm, from snapshots),
                # so tell the client to retry shortly rather than erroring.
                self._send(
                    503,
                    {"error": str(exc), "retry_after_s": 1},
                    headers={"Retry-After": "1"},
                )
            except KeyError as exc:
                self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
            except (LuxError, ValueError) as exc:
                self._send(400, {"error": str(exc)})
            except Exception as exc:  # never let a bug kill the connection
                self._send(500, {"error": f"{type(exc).__name__}: {exc}"})
            root.attrs["route"] = self._route_name
            root.attrs["status"] = self._status_sent
            if self._send_error:
                root.attrs["error"] = self._send_error
        # Central per-route observation: runs after the except-ladder so
        # error statuses land in the same labelled series as successes.
        service_metrics.observe_request(
            self._route_name,
            method,
            self._status_sent,
            time.perf_counter() - started,
            self._body_bytes,
        )

    def _resolve(self, method: str) -> tuple[Callable[..., Any], tuple]:
        path, _, query_string = self.path.partition("?")
        query = _parse_query(query_string)
        if not path.startswith(V1_PREFIX + "/"):
            raise RequestError(404, f"no route for {method} {path}")
        path = path[len(V1_PREFIX):]
        if path == "/healthz" and method == "GET":
            return self._healthz, ()
        if path == "/metrics" and method == "GET":
            return self._metrics, ()
        if path == "/sessions":
            if method == "GET":
                return self._list_sessions, ()
            if method == "POST":
                return self._create_session, ()
        match = _SESSION_PATH.match(path)
        if match:
            session_id, sub = match.group(1), match.group(2)
            if sub is None:
                if method == "GET":
                    return self._session_info, (session_id,)
                if method == "DELETE":
                    return self._close_session, (session_id,)
            elif sub == "/intent" and method == "POST":
                return self._set_intent, (session_id,)
            elif sub == "/mutate" and method == "POST":
                return self._mutate, (session_id,)
            elif sub == "/recommendations" and method == "GET":
                return self._recommendations, (session_id, query)
            elif sub == "/trace" and method == "GET":
                return self._session_trace, (session_id, query)
        raise RequestError(404, f"no route for {method} {path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    @measured("healthz")
    @public
    def _healthz(self) -> tuple[int, dict[str, Any]]:
        return 200, self.server.backend.request("healthz")

    @measured("metrics")
    @public
    def _metrics(self) -> tuple[int, str, dict[str, str]]:
        # Public like /healthz: the exposition carries no session data
        # and scrapers rarely support per-target auth headers cleanly.
        snapshot = self.server.backend.request("metrics")["snapshot"]
        return (
            200,
            service_metrics.render_prometheus(snapshot),
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
        )

    @measured("sessions_list")
    @authenticated
    def _list_sessions(self) -> tuple[int, dict[str, Any]]:
        return 200, self.server.backend.request("list")

    @measured("sessions_create")
    @authenticated
    def _create_session(self) -> tuple[int, dict[str, Any]]:
        return 201, self.server.backend.request("create", self._body())

    @measured("session_info")
    @authenticated
    def _session_info(self, session_id: str) -> tuple[int, dict[str, Any]]:
        return 200, self.server.backend.request("info", {"session": session_id})

    @measured("session_close")
    @authenticated
    def _close_session(self, session_id: str) -> tuple[int, dict[str, Any]]:
        return 200, self.server.backend.request("close", {"session": session_id})

    @measured("intent")
    @authenticated
    def _set_intent(self, session_id: str) -> tuple[int, dict[str, Any]]:
        params = {**self._body(), "session": session_id}
        return 200, self.server.backend.request("intent", params)

    @measured("mutate")
    @authenticated
    def _mutate(self, session_id: str) -> tuple[int, dict[str, Any]]:
        params = {**self._body(), "session": session_id}
        return 200, self.server.backend.request("mutate", params)

    @measured("recommendations")
    @authenticated
    def _recommendations(
        self, session_id: str, query: dict[str, str]
    ) -> "tuple[int, list[bytes] | bytes]":
        params = {"session": session_id, "action": query.get("action")}
        return 200, self.server.backend.request("recommendations", params)["payload_json"]

    @measured("trace")
    @authenticated
    def _session_trace(
        self, session_id: str, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        params = {"session": session_id, "limit": query.get("limit", "100")}
        return 200, self.server.backend.request("trace", params)


def _parse_query(query: str) -> dict[str, str]:
    return dict(parse_qsl(query))


def _send_all(sock: Any, buffers: "list[bytes]") -> None:
    """``sendmsg`` ``buffers`` in order until every byte is sent.

    Each call offers at most :data:`IOV_MAX` buffers, the most one
    ``sendmsg`` takes.  A short send (a signal, or a socket with a
    timeout) resumes from the first unsent byte through memoryview
    slices, so nothing is copied.
    """
    views = [memoryview(buffer) for buffer in buffers if buffer]
    first = 0
    while first < len(views):
        sent = sock.sendmsg(views[first : first + IOV_MAX])
        while sent:
            size = len(views[first])
            if sent < size:
                views[first] = views[first][sent:]
                break
            sent -= size
            first += 1


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one backend (in-process or sharded)."""

    daemon_threads = True

    def __init__(
        self,
        manager: SessionManager | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        auth_token: str | None = None,
        supervisor: "Supervisor | None" = None,
    ) -> None:
        super().__init__((host, port), _Handler)
        # Tests and benches reach the in-process manager through the
        # server.  None when running sharded.
        self.manager: SessionManager | None = None
        if supervisor is not None:
            self.backend: "ShardService | Supervisor" = supervisor
        else:
            self.manager = manager or SessionManager()
            service_metrics.register_service_gauges(self.manager)
            self.backend = ShardService(self.manager)
        self.verbose = verbose
        # Resolved once at construction: handler threads are spawned by the
        # server, so a thread-local config overlay on the caller would never
        # reach them anyway — the explicit parameter is the override path.
        self.auth_token = (
            config.service_auth_token if auth_token is None else auth_token
        )
        self._thread: threading.Thread | None = None

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that resets its connection while its handler waits for
        # the next request is not a server error: drop it without the
        # default traceback.  Errors inside a request never get here:
        # _route answers them, and _send closes a dead connection.
        if isinstance(sys.exc_info()[1], ConnectionError):
            return
        super().handle_error(request, client_address)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> "ServiceServer":
        """Serve on a daemon thread (tests, notebooks); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="lux-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def make_server(
    manager: SessionManager | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    auth_token: str | None = None,
    supervisor: "Supervisor | None" = None,
) -> ServiceServer:
    """Build a server (port 0 picks an ephemeral port; see ``.address``).

    Pass ``supervisor`` to serve a sharded multi-process tier; otherwise
    the server wraps an in-process ``manager`` (created when omitted).
    """
    return ServiceServer(manager, host, port, verbose, auth_token, supervisor)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Always-on recommendation service (stdlib HTTP JSON API)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--auth-token",
        default=None,
        help="Bearer token required on every route except /v1/healthz and "
        "/v1/metrics (default: config.service_auth_token; empty disables auth)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="Number of worker processes (default: config.service_shards; "
        "0 serves single-process)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="Session snapshot directory for warm restarts "
        "(default: config.service_snapshot_dir; empty disables)",
    )
    args = parser.parse_args(argv)
    shards = args.shards if args.shards is not None else int(config.service_shards)
    supervisor = None
    if shards > 0:
        from .supervisor import Supervisor

        supervisor = Supervisor(
            n_workers=shards, snapshot_dir=args.snapshot_dir
        )
    elif args.snapshot_dir:
        # Single-process with persistence: route the knob through config
        # so the default SessionManager below picks it up.  Base mutation
        # is deliberate — this CLI owns the process and its threads.
        config.service_snapshot_dir = args.snapshot_dir  # check: ignore[config-mutation]
    server = make_server(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        auth_token=args.auth_token,
        supervisor=supervisor,
    )
    mode = f"{shards} shard workers" if supervisor else "single-process"
    print(f"serving on {server.address} ({mode}; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if supervisor is not None:
            supervisor.stop()
        else:
            server.manager.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
