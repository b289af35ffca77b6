"""Worker side of the sharded service tier.

The horizontal story (ROADMAP item 1): sessions are partitioned across N
worker *processes* by a consistent hash of the session id
(:func:`shard_for`), each worker owning a full single-process service
stack — one :class:`~repro.service.session.SessionManager`, one
:class:`~repro.service.precompute.PrecomputeEngine`, one
:class:`~repro.service.store.ResultStore`, its own worker pool — so heavy
recommendation passes for different sessions land on different cores
instead of different threads behind one GIL.

This module is everything that runs *inside* a worker (plus the request
vocabulary the single-process HTTP backend shares):

- :func:`shard_for` — the routing hash.  Deliberately **not** Python's
  builtin ``hash`` (salted per process by ``PYTHONHASHSEED``): routing
  must agree between a supervisor and every worker it ever spawns, across
  restarts, or a restarted worker would restore sessions the router sends
  elsewhere.
- :class:`ShardService` — a dict-request → dict-response dispatcher over
  one SessionManager.  It is transport-free (unit tests drive it
  in-process, no sockets, no spawn), with every service exception encoded
  as a structured error the supervisor re-raises verbatim — so the HTTP
  status mapping is identical whether a request ran locally or crossed a
  process boundary.
- :func:`serve_connection` — the worker's RPC loop: length-prefixed JSON
  frames over a ``multiprocessing`` pipe (``send_bytes``/``recv_bytes``
  do the framing), requests dispatched onto a small thread pool so one
  slow foreground pass cannot head-of-line-block the worker's reads,
  responses written under a lock and matched by request id.
- :func:`worker_main` — the spawn entry point: applies the supervisor's
  config snapshot, restores this shard's slice of the snapshot directory
  (warm recovery), and serves until a ``shutdown`` request (which flushes
  snapshots) or pipe EOF (supervisor died).

Recommendation payloads cross the pipe pre-serialized (``payload_json``,
the stored payload bytes spliced into the response envelope by
:func:`repro.service.wire.dumps`): the supervisor forwards the bytes to
the HTTP client without ever parsing the (potentially large) spec
payloads, keeping the router thin enough that reads/s scale with worker
count instead of saturating the parent's GIL.
"""

from __future__ import annotations

import hashlib
import json
import os
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
from .session import Session, SessionManager

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

__all__ = [
    "RequestError",
    "ShardService",
    "WorkerUnreachable",
    "create_session_from_body",
    "healthz_payload",
    "serve_connection",
    "shard_for",
    "worker_main",
]


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

    Raised by the shared request helpers and by backends; the HTTP layer
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
# Request vocabulary shared by the local backend and the worker
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


def create_session_from_body(
    manager: SessionManager, body: dict[str, Any]
) -> Session:
    """The ``POST /sessions`` body -> a registered session.

    Shared by the single-process backend and the worker so a create
    behaves identically on both sides of the pipe.  ``session_id`` is the
    supervisor's pre-assigned id (it must pick the id *before* routing —
    the id determines the shard); absent, the manager generates one.
    """
    dataset = body.get("dataset")
    csv_text = body.get("csv")
    if bool(dataset) == bool(csv_text):
        raise RequestError(400, "provide exactly one of 'dataset' or 'csv'")
    if dataset:
        makers = _datasets()
        if dataset not in makers:
            raise RequestError(
                404,
                f"unknown dataset {dataset!r}; available: {sorted(makers)}",
            )
        frame = makers[dataset](body.get("rows"))
    else:
        from ..core.frame import LuxDataFrame

        frame = read_csv_string(str(csv_text), frame_cls=LuxDataFrame)
    return manager.create(
        frame,
        overrides=body.get("config"),
        intent=body.get("intent"),
        session_id=body.get("session_id"),
    )


def apply_mutate_body(session: Session, body: dict[str, Any]) -> None:
    """Validate and apply a ``/mutate`` body (shared both sides)."""
    column = body.get("column")
    if not isinstance(column, str) or not column:
        raise RequestError(400, "provide 'column' (string) to mutate")
    values = body.get("values")
    if values is not None and not isinstance(values, list):
        raise RequestError(400, "'values' must be a JSON array")
    session.mutate(column, values)


def healthz_payload(manager: SessionManager) -> dict[str, Any]:
    """One process's liveness stanza (pool / caches / manager stats)."""
    return {
        "status": "ok",
        "pid": os.getpid(),
        "pool": pool.stats(),
        "computation_cache": computation_cache.stats(),
        # Per-route / per-pass latency summaries from the live histograms
        # (this process only; the supervisor adds its own router-side view).
        "telemetry": service_metrics.summaries(),
        **manager.stats(),
    }


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
# The worker service
# ----------------------------------------------------------------------
class ShardService:
    """Dispatches dict requests onto one worker's SessionManager.

    Transport-free by design: :func:`serve_connection` feeds it frames
    from the supervisor pipe, tests call :meth:`handle` directly.  Every
    response is ``{"ok": True, "result": ...}`` or ``{"ok": False,
    "error": {...}}`` (see :func:`encode_error`).
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

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        method = request.get("method")
        handler = self._methods.get(method)  # type: ignore[arg-type]
        if handler is None:
            return {
                "ok": False,
                "error": {
                    "kind": "bad_request",
                    "message": f"unknown RPC method {method!r}",
                },
            }
        params = request.get("params") or {}
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
                    response = {"ok": True, "result": handler(params)}
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
        # Admission before any work, same as the HTTP route: a rejected
        # create must not even build the frame.
        self.manager.engine.admit()
        return create_session_from_body(self.manager, params).info()

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
        self.manager.engine.admit()
        session.set_intent(params.get("intent"))
        return session.info()

    def _mutate(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session(params)
        self.manager.engine.admit()
        apply_mutate_body(session, params)
        return session.info()

    def _recommendations(self, params: dict[str, Any]) -> dict[str, Any]:
        session = self._session(params)
        action = params.get("action")
        try:
            response = session.recommendations(
                action=action, v1=bool(params.get("v1")), raw=True
            )
        except KeyError:
            raise RequestError(404, f"no such action: {action!r}") from None
        # Pre-serialized passthrough: the stored payload bytes are spliced
        # into the envelope here, and the supervisor forwards the result
        # to the HTTP client without parsing the payload structure.
        return {"payload_json": wire.dumps(response)}

    def _healthz(self, _params: dict[str, Any]) -> dict[str, Any]:
        return {**healthz_payload(self.manager), "shard": self.shard_index}

    def _wait_idle(self, params: dict[str, Any]) -> dict[str, Any]:
        timeout = float(params.get("timeout", 30.0))
        return {"idle": self.manager.engine.wait_idle(timeout)}

    def _metrics(self, _params: dict[str, Any]) -> dict[str, Any]:
        """This worker's full registry snapshot (merged by the supervisor)."""
        return {"snapshot": service_metrics.collect_process(), "shard": self.shard_index}

    def _trace(self, params: dict[str, Any]) -> dict[str, Any]:
        """Recent spans for one session (or the whole ring) on this worker."""
        session_id = params.get("session")
        if session_id:
            self.manager.get(str(session_id))  # KeyError -> not_found
        limit = int(params.get("limit", 100))
        return {
            "spans": telemetry.spans(
                session_id=str(session_id) if session_id else None, limit=limit
            ),
            "shard": self.shard_index,
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

    A result of exactly ``{"payload_json": <json text or bytes>}`` is
    framed as ``envelope NUL payload`` instead of being embedded in the
    envelope.  Embedding would JSON-escape the (potentially
    megabytes-large) payload string a second time and force the
    supervisor to parse it back out — doubling the serialization cost of
    every recommendation read, the tier's hottest path.
    """
    result = response.get("result")
    if (
        isinstance(result, dict)
        and len(result) == 1
        and isinstance(result.get("payload_json"), (str, bytes))
    ):
        envelope = {k: v for k, v in response.items() if k != "result"}
        envelope["raw"] = "payload_json"
        payload = result["payload_json"]
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        return (
            json.dumps(envelope, separators=(",", ":")).encode("utf-8")
            + _RAW_SEP
            + payload
        )
    return json.dumps(response, separators=(",", ":")).encode("utf-8")


def decode_frame(data: bytes) -> dict[str, Any]:
    """Inverse of :func:`encode_frame`; the raw payload stays unparsed."""
    head, sep, tail = data.partition(_RAW_SEP)
    response = json.loads(head.decode("utf-8"))
    if sep:
        key = response.pop("raw", "payload_json")
        response["result"] = {key: tail.decode("utf-8")}
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
