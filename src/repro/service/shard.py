"""The service's request vocabulary, and the worker side of the shard tier.

:class:`ShardService` is the one dispatcher over a
:class:`~repro.service.session.SessionManager`: create (with admission),
list, info, close, intent, mutate, recommendations, healthz, metrics and
trace, each a ``request(method, params)`` call.  Request validation,
admission, the 404 mapping and the recommendations payload splice live
here and nowhere else.  The single-process HTTP server calls
:meth:`ShardService.request` in-process (no pipe, no frame codec); in
shard mode each worker process runs the same dispatcher behind a pipe,
and :class:`~repro.service.supervisor.Supervisor` makes the same
``request(method, params)`` call on the router side.

This module holds, besides the dispatcher:

- :func:`shard_for` — the routing hash.  Deliberately **not** Python's
  builtin ``hash`` (salted per process by ``PYTHONHASHSEED``): routing
  must agree between a supervisor and every worker it ever spawns, across
  restarts, or a restarted worker would restore sessions the router sends
  elsewhere.
- :meth:`ShardService.handle` — one RPC frame's request to its response:
  the ``rpc.handle`` span, the ``lux_rpc_handle_seconds`` histogram, and
  every service exception encoded as a structured error
  (:func:`encode_error`) that the supervisor re-raises verbatim
  (:func:`raise_error`), so the HTTP status mapping is identical whether
  a request ran in-process or crossed a process boundary.
- :func:`serve_connection` — the worker's RPC loop: length-prefixed JSON
  frames over a ``multiprocessing`` pipe (``send_bytes``/``recv_bytes``
  do the framing), requests dispatched onto a small thread pool so one
  slow foreground pass cannot head-of-line-block the worker's reads,
  responses written under a lock and matched by request id.
- :func:`worker_main` — the spawn entry point: applies the supervisor's
  config snapshot, restores this shard's slice of the snapshot directory
  (warm recovery), and serves until a ``shutdown`` request (which flushes
  snapshots) or pipe EOF (supervisor died).

A recommendations result is ``{"payload_json": pieces}``: the response
envelope as byte pieces, with the stored payload bytes in it by reference
(:func:`repro.service.wire.pieces`), which the in-process HTTP handler
sends as they are.  An RPC response (:meth:`ShardService.handle`) joins
them into one bytes object, which crosses the pipe after the frame's JSON
envelope (:func:`encode_frame`) and stays bytes on the router side
(:func:`decode_frame`), so the supervisor forwards it to the HTTP client
without decoding or parsing the (potentially large) payloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, NoReturn

from ..core import pool, telemetry
from ..core.config import config
from ..core.errors import LuxError
from ..core.executor.cache import computation_cache
from ..dataframe.io import read_csv_string
from . import metrics as service_metrics
from . import wire
from .precompute import QueueSaturated
from .session import Session, SessionManager, check_overrides

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

__all__ = [
    "SESSION_ID",
    "RequestError",
    "ShardService",
    "WorkerUnreachable",
    "check_body",
    "serve_connection",
    "shard_for",
    "worker_main",
]

#: The session id grammar: what ``/v1/sessions/{id}`` routes match and
#: what a create body's ``session_id`` must match.  Ids name snapshot
#: directories, so the grammar also keeps them inside the snapshot root.
SESSION_ID = r"[0-9a-zA-Z_-]+"
_SESSION_ID = re.compile(SESSION_ID)


def shard_for(session_id: str, n_shards: int) -> int:
    """Stable shard index for a session id (identical in every process)."""
    if n_shards <= 1:
        return 0
    digest = hashlib.blake2b(
        session_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_shards


class RequestError(Exception):
    """A client error with an HTTP status, transport-independent.

    Raised by :class:`ShardService` and the HTTP handler; the HTTP layer
    maps it straight to ``(status, {"error": message})``.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class WorkerUnreachable(LuxError):
    """A worker process did not answer (dead, or past the RPC timeout).

    The HTTP layer maps this to **503** with a short ``Retry-After`` —
    the supervisor restarts crashed workers, so the shard usually comes
    back warm within seconds.
    """


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
def _datasets() -> dict[str, Callable[..., Any]]:
    """Bundled dataset name -> generator taking an optional row cap."""
    from ..data import (
        make_airbnb,
        make_communities,
        make_covid_stringency,
        make_hpi,
    )
    from ..data.synthetic import SCENARIOS, make_scenario

    def airbnb(rows: int | None = None) -> Any:
        return make_airbnb(n_rows=int(rows or 10_000))

    def wrap(maker: Callable[[], Any]) -> Callable[..., Any]:
        def build(rows: int | None = None) -> Any:
            frame = maker()
            if rows and len(frame) > int(rows):
                frame = frame.head(int(rows))
            return frame

        return build

    def scenario(name: str) -> Callable[..., Any]:
        def build(rows: int | None = None) -> Any:
            return make_scenario(name, n_rows=int(rows) if rows else None)

        return build

    makers: dict[str, Callable[..., Any]] = {
        "hpi": wrap(make_hpi),
        "covid": wrap(make_covid_stringency),
        "communities": wrap(make_communities),
        "airbnb": airbnb,
    }
    # The load-harness scenario matrix rides along as synthetic-<name>
    # datasets (optional ``rows`` sets the frame size).
    for name in SCENARIOS:
        makers[f"synthetic-{name}"] = scenario(name)
    return makers


def check_body(body: dict[str, Any]) -> dict[str, Any]:
    """Answer 400 unless the body's fields have their JSON types.

    ``parse_intent`` raises ``TypeError`` for a malformed intent, which
    suits in-process callers but must not answer 500 over the wire.
    ``rows`` sizes a dataset's frame, so it must be an integer of at least
    1 (not a boolean, which JSON decodes to an ``int`` subclass).  A
    ``session_id`` must match :data:`SESSION_ID`: it names the session's
    route and its snapshot directory, and the supervisor hashes it.
    """
    for name, kind, label in _TYPED_FIELDS:
        if body.get(name) is not None and not isinstance(body[name], kind):
            raise RequestError(400, f"'{name}' must be {label}")
    rows = body.get("rows")
    if rows is not None and (type(rows) is not int or rows < 1):
        raise RequestError(400, "'rows' must be a positive integer")
    if not _is_intent(body.get("intent")):
        raise RequestError(
            400, "'intent' must be a string or a list of strings and string lists"
        )
    session_id = body.get("session_id")
    if session_id is not None and not (
        isinstance(session_id, str) and _SESSION_ID.fullmatch(session_id)
    ):
        raise RequestError(400, f"'session_id' must match {SESSION_ID}")
    return body


_TYPED_FIELDS = (
    ("dataset", str, "a string"),
    ("csv", str, "a string"),
    ("config", dict, "an object"),
)


def _is_intent(value: Any) -> bool:
    """Null, a string, or a list of strings and lists of strings."""
    if value is None or isinstance(value, str):
        return True
    return isinstance(value, list) and all(
        isinstance(item, str)
        or (isinstance(item, list) and all(isinstance(part, str) for part in item))
        for item in value
    )


# ----------------------------------------------------------------------
# Error encoding across the pipe
# ----------------------------------------------------------------------
def encode_error(exc: BaseException) -> dict[str, Any]:
    """Exception -> JSON-safe error record (mirrors the HTTP mapping)."""
    if isinstance(exc, RequestError):
        return {"kind": "api", "status": exc.status, "message": str(exc)}
    if isinstance(exc, QueueSaturated):
        return {
            "kind": "saturated",
            "retry_after_s": exc.retry_after_s,
            "message": str(exc),
        }
    if isinstance(exc, KeyError):
        message = str(exc.args[0]) if exc.args else "not found"
        return {"kind": "not_found", "message": message}
    if isinstance(exc, (LuxError, ValueError)):
        return {"kind": "bad_request", "message": str(exc)}
    return {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}


def raise_error(error: dict[str, Any]) -> NoReturn:
    """Re-raise a worker's encoded error in the supervisor process.

    The reconstructed exception types are exactly what the HTTP layer's
    except-ladder already maps, so shard mode needs no parallel status
    table that could drift from the single-process one.
    """
    kind = error.get("kind")
    message = error.get("message", "worker error")
    if kind == "api":
        raise RequestError(int(error.get("status", 500)), message)
    if kind == "saturated":
        raise QueueSaturated(int(error.get("retry_after_s", 1)))
    if kind == "not_found":
        raise KeyError(message)
    if kind == "bad_request":
        raise ValueError(message)
    if kind == "unreachable":
        raise WorkerUnreachable(message)
    raise RuntimeError(message)


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class ShardService:
    """Dispatches ``(method, params)`` requests onto one SessionManager.

    Transport-free by design: the single-process HTTP server and tests
    call :meth:`request` in-process, and a worker's
    :func:`serve_connection` feeds :meth:`handle` the frames from the
    supervisor pipe.
    """

    def __init__(
        self,
        manager: SessionManager,
        shard_index: int = 0,
        n_shards: int = 1,
    ) -> None:
        self.manager = manager
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._methods: dict[str, Callable[[dict[str, Any]], Any]] = {
            "ping": self._ping,
            "create": self._create,
            "list": self._list,
            "info": self._info,
            "close": self._close,
            "intent": self._intent,
            "mutate": self._mutate,
            "recommendations": self._recommendations,
            "healthz": self._healthz,
            "wait_idle": self._wait_idle,
            "metrics": self._metrics,
            "trace": self._trace,
            "shutdown": self._shutdown,
        }

    def request(self, method: str, params: dict[str, Any] | None = None) -> Any:
        """Run one request in this process; service exceptions propagate.

        The exceptions are the ones the HTTP layer's except-ladder maps:
        :class:`RequestError`, ``QueueSaturated`` (429), ``KeyError``
        (404), ``LuxError`` and ``ValueError`` (400).
        """
        return self._methods[method](params or {})

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """One RPC frame's request -> ``{"ok": True, "result": ...}`` or
        ``{"ok": False, "error": {...}}`` (see :func:`encode_error`),
        recorded as an ``rpc.handle`` span and in ``lux_rpc_handle_seconds``.
        """
        method = request.get("method")
        params = request.get("params") or {}
        if method not in self._methods or not isinstance(params, dict):
            problem = (
                f"unknown RPC method {method!r}"
                if method not in self._methods
                else "RPC params must be a JSON object"
            )
            return {"ok": False, "error": {"kind": "bad_request", "message": problem}}
        # Adopt the caller's trace context (propagated inside the request
        # frame) so worker-side spans stitch to the supervisor's request.
        trace_ctx = request.get("trace")
        if not isinstance(trace_ctx, dict):
            trace_ctx = None
        started = time.perf_counter()
        with telemetry.trace_context(trace_ctx):
            with telemetry.span(
                "rpc.handle", method=str(method), shard=self.shard_index
            ) as rpc_span:
                session_id = params.get("session")
                if session_id:
                    rpc_span.attrs["session"] = str(session_id)
                try:
                    result = self.request(method, params)
                    if method == "recommendations":
                        # A frame carries the body as one bytes object.
                        result = {"payload_json": b"".join(result["payload_json"])}
                    response = {"ok": True, "result": result}
                except Exception as exc:
                    response = {"ok": False, "error": encode_error(exc)}
                trace_id = rpc_span.trace_id
        telemetry.histogram(
            "lux_rpc_handle_seconds",
            "worker-side RPC handling latency by method",
            ("method",),
        ).observe(time.perf_counter() - started, (str(method),))
        if trace_ctx is not None and trace_ctx.get("id"):
            # Echo the trace id in the response envelope; the frame codec
            # preserves envelope keys on both the embedded and raw paths.
            response["trace"] = trace_id
        return response

    # -- methods -------------------------------------------------------
    def _session(self, params: dict[str, Any]) -> Session:
        return self.manager.get(str(params.get("session")))

    def _ping(self, _params: dict[str, Any]) -> dict[str, Any]:
        return {
            "pid": os.getpid(),
            "shard": self.shard_index,
            "n_shards": self.n_shards,
            "sessions": len(self.manager.ids()),
        }

    def _create(self, params: dict[str, Any]) -> dict[str, Any]:
        """The ``POST /v1/sessions`` body -> the new session's info.

        ``session_id`` is the supervisor's pre-assigned id in shard mode
        (it must pick the id *before* routing — the id determines the
        shard); absent, the manager generates one.  Every read of a
        session created here is a wire read, so it starts as a bytes
        reader and its first pass decodes nothing.
        """
        check_body(params)
        # Admission and the override check before any work: a refused
        # create must not even build the frame, let alone register a session.
        self.manager.engine.admit()
        dataset = params.get("dataset")
        csv_text = params.get("csv")
        if bool(dataset) == bool(csv_text):
            raise RequestError(400, "provide exactly one of 'dataset' or 'csv'")
        check_overrides(params.get("config"))
        if dataset:
            makers = _datasets()
            if dataset not in makers:
                raise RequestError(
                    404,
                    f"unknown dataset {dataset!r}; available: {sorted(makers)}",
                )
            frame = makers[dataset](params.get("rows"))
        else:
            from ..core.frame import LuxDataFrame

            frame = read_csv_string(csv_text, frame_cls=LuxDataFrame)
        return self.manager.create(
            frame,
            overrides=params.get("config"),
            intent=params.get("intent"),
            session_id=params.get("session_id"),
            reads_bytes=True,
        ).info()

    def _list(self, _params: dict[str, Any]) -> dict[str, Any]:
        return {"sessions": self.manager.ids()}

    def _info(self, params: dict[str, Any]) -> dict[str, Any]:
        return self._session(params).info()

    def _close(self, params: dict[str, Any]) -> dict[str, Any]:
        session_id = str(params.get("session"))
        if not self.manager.close(session_id):
            raise RequestError(404, f"no such session: {session_id!r}")
        return {"closed": session_id}

    def _intent(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session(params)
        intent = check_body(params).get("intent")
        with self.manager.engine.writing(session):
            session.set_intent(intent)
        return session.info()

    def _mutate(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session(params)
        column = params.get("column")
        if not isinstance(column, str) or not column:
            raise RequestError(400, "provide 'column' (string) to mutate")
        values = params.get("values")
        if values is not None and not isinstance(values, list):
            raise RequestError(400, "'values' must be a JSON array")
        with self.manager.engine.writing(session):
            session.mutate(column, values)
        return session.info()

    def _recommendations(self, params: dict[str, Any]) -> "dict[str, list[bytes]]":
        session = self._session(params)
        action = params.get("action")
        try:
            response = session.recommendations(action=action, raw=True)
        except KeyError:
            raise RequestError(404, f"no such action: {action!r}") from None
        # The response's byte pieces hold the stored payload bytes by
        # reference; the HTTP layer sends them without a copy, and an RPC
        # response joins them once (see handle).
        return {"payload_json": wire.pieces(response)}

    def _healthz(self, _params: dict[str, Any]) -> dict[str, Any]:
        """This process's liveness stanza (pool / caches / manager stats)."""
        return {
            "status": "ok",
            "pid": os.getpid(),
            "pool": pool.stats(),
            "computation_cache": computation_cache.stats(),
            # Per-route / per-pass latency summaries from the live histograms
            # (this process only; the supervisor adds its own router-side view).
            "telemetry": service_metrics.summaries(),
            **self.manager.stats(),
            "shard": self.shard_index,
        }

    def _wait_idle(self, params: dict[str, Any]) -> dict[str, Any]:
        timeout = float(params.get("timeout", 30.0))
        return {"idle": self.manager.engine.wait_idle(timeout)}

    def _metrics(self, _params: dict[str, Any]) -> dict[str, Any]:
        """This process's full registry snapshot (merged by the supervisor)."""
        return {"snapshot": service_metrics.collect_process(), "shard": self.shard_index}

    def _trace(self, params: dict[str, Any]) -> dict[str, Any]:
        """Recent spans for one session (or the whole ring) in this process."""
        limit = int(params.get("limit", 100))
        session_id = params.get("session")
        if session_id:
            self.manager.get(str(session_id))  # KeyError -> not_found
        return {
            "session": session_id,
            "spans": telemetry.spans(
                session_id=str(session_id) if session_id else None, limit=limit
            ),
        }

    def _shutdown(self, _params: dict[str, Any]) -> dict[str, Any]:
        # The actual manager shutdown happens in serve_connection after
        # the acknowledgement is written (the flush can take a while and
        # the supervisor should not block on it to learn we heard it).
        return {"stopping": True}


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
#: Separator between a response envelope and a raw pre-serialized payload
#: within one pipe frame.  ``json.dumps`` escapes every control character,
#: so an encoded envelope can never contain a literal NUL byte.
_RAW_SEP = b"\x00"


def encode_frame(response: dict[str, Any]) -> bytes:
    """Encode one response frame, hoisting a pre-serialized payload.

    A result of exactly ``{"payload_json": <bytes>}`` is framed as
    ``envelope NUL payload`` instead of being embedded in the envelope.
    Embedding would JSON-escape the (potentially megabytes-large) payload
    as a string and force the supervisor to parse it back out — doubling
    the serialization cost of every recommendation read, the tier's
    hottest path.
    """
    result = response.get("result")
    if (
        isinstance(result, dict)
        and len(result) == 1
        and isinstance(result.get("payload_json"), bytes)
    ):
        envelope = {k: v for k, v in response.items() if k != "result"}
        return (
            json.dumps(envelope, separators=(",", ":")).encode("utf-8")
            + _RAW_SEP
            + result["payload_json"]
        )
    return json.dumps(response, separators=(",", ":")).encode("utf-8")


def decode_frame(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_frame`; the hoisted payload stays bytes."""
    head, sep, tail = data.partition(_RAW_SEP)
    response = json.loads(head)
    if sep:
        response["result"] = {"payload_json": tail}
    return response


# ----------------------------------------------------------------------
# RPC loop
# ----------------------------------------------------------------------
def serve_connection(
    conn: "Connection", service: ShardService, threads: int | None = None
) -> None:
    """Serve length-prefixed JSON RPC frames until shutdown or EOF.

    Requests run on a small thread pool so reads and healthz probes are
    answered while a foreground pass occupies another request thread;
    responses are written under a lock (frames must not interleave) and
    carry the request's ``id`` back for the supervisor to match.
    """
    write_lock = threading.Lock()

    def reply(request_id: Any, response: dict[str, Any]) -> None:
        data = encode_frame({"id": request_id, **response})
        with write_lock:
            conn.send_bytes(data)

    def dispatch(request: dict[str, Any]) -> None:
        try:
            reply(request.get("id"), service.handle(request))
        except (OSError, ValueError):  # pipe gone: the supervisor died
            pass

    executor = ThreadPoolExecutor(
        max_workers=threads or 4, thread_name_prefix="shard-rpc"
    )
    try:
        while True:
            try:
                raw = conn.recv_bytes()
            except (EOFError, OSError):
                break  # supervisor closed its end (or died): exit quietly
            try:
                request = json.loads(raw.decode("utf-8"))
            except ValueError:
                continue  # a torn frame is dropped, never fatal
            if request.get("method") == "shutdown":
                reply(request.get("id"), service.handle(request))
                break
            executor.submit(dispatch, request)
    finally:
        executor.shutdown(wait=True)
        try:
            service.manager.shutdown()  # flushes snapshots when configured
        finally:
            conn.close()


def worker_main(
    conn: "Connection",
    shard_index: int,
    n_shards: int,
    base_config: dict[str, Any],
    snapshot_dir: str | None = None,
) -> None:
    """Spawn entry point for one worker process.

    Applies the supervisor's config snapshot (spawned children start from
    defaults, not the parent's live settings), restores this shard's
    slice of the snapshot directory — warm recovery — and serves RPC
    until shutdown.  SIGINT is ignored: a Ctrl-C on the supervisor's
    process group must tear down top-down (graceful shutdown RPC), not
    kill workers mid-snapshot.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    config.restore(base_config)
    snapshots = None
    if snapshot_dir:
        from .persist import SnapshotStore

        snapshots = SnapshotStore(snapshot_dir)
    manager = SessionManager(snapshots=snapshots)
    service_metrics.register_service_gauges(manager)
    if snapshots is not None:
        manager.restore_sessions(shard=shard_index, n_shards=n_shards)
    service = ShardService(manager, shard_index=shard_index, n_shards=n_shards)
    serve_connection(conn, service)
