"""Process-wide telemetry: metrics registry, tracing spans, structured logs.

Three cooperating facilities, all stdlib-only and safe to use from any
thread in any process of the service tier:

* **Metrics** — a process-global :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket latency histograms.  Bucket bounds are derived
  deterministically from ``config.telemetry_histogram_buckets``, so every
  process in a sharded deployment uses *identical* edges and merging
  histograms across processes is plain bucket-wise addition (associative
  and commutative — see ``service/metrics.py::merge_snapshots``).

* **Tracing** — ``span(name, **attrs)`` is a context manager producing
  parent-linked spans with monotonic timings.  Finished spans land in a
  per-process ring buffer (``collections.deque`` with ``maxlen``, whose
  ``append`` is atomic under the GIL — span ``__exit__`` never takes a
  lock; the ``telemetry-hygiene`` check rule enforces this).  Sampling is
  decided once per trace from a hash of the trace id, so the decision is
  deterministic and propagates across process boundaries together with
  the id itself (``current_trace()`` / ``trace_context()``).

* **Logging** — ``get_logger(name)`` returns a structured JSON logger
  whose records automatically carry the active trace id and session id,
  letting operators correlate log lines with spans and metrics.

Nothing here imports service code; the service layer builds exposition
and cross-process merging on top (``src/repro/service/metrics.py``).
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Tuple

from .config import config

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Span",
    "bucket_bounds",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "span",
    "spans",
    "current_trace",
    "current_trace_id",
    "trace_context",
    "new_trace_id",
    "get_logger",
    "add_log_handler",
    "remove_log_handler",
    "configure_logging",
    "reset",
]

# Label values for one metric are capped at this many distinct tuples;
# further tuples collapse into a single overflow series so unbounded
# inputs (session ids as tags) cannot grow the registry without bound.
MAX_LABEL_SETS = 64
OVERFLOW_LABEL = "_other"

# Smallest histogram bucket upper bound, in seconds (0.5 ms).  Buckets
# grow by powers of two: 0.5ms, 1ms, 2ms, ... — with the default of 20
# buckets the largest finite bound is ~262s, far beyond any request.
BUCKET_BASE_S = 0.0005


def bucket_bounds(n: Optional[int] = None) -> Tuple[float, ...]:
    """Finite histogram bucket upper bounds (seconds), smallest first.

    Derived only from the bucket-count knob, so every process configured
    alike produces identical edges — the property that makes cross-process
    histogram merge exact.
    """

    if n is None:
        n = int(config.telemetry_histogram_buckets)
    n = max(1, int(n))
    return tuple(BUCKET_BASE_S * (2.0**i) for i in range(n))


def _label_key(labels: Iterable[Any]) -> Tuple[str, ...]:
    return tuple(str(v) for v in labels)


class Counter:
    """Monotonic counter, optionally labelled."""

    def __init__(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}  # guarded-by: _lock

    def inc(self, amount: float = 1.0, labels: Iterable[Any] = ()) -> None:
        key = _label_key(labels)
        with self._lock:
            if key not in self._values and len(self._values) >= MAX_LABEL_SETS:
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, labels: Iterable[Any] = ()) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = {"\x1f".join(k): v for k, v in self._values.items()}
        return {
            "type": "counter",
            "help": self.help,
            "labels": list(self.labelnames),
            "values": values,
        }


class Gauge:
    """Callback-backed gauge: evaluated at collection time.

    Callbacks must be lock-free reads of plain attributes (ints under the
    GIL are torn-free); the ``telemetry-hygiene`` rule rejects callbacks
    that acquire locks or perform I/O.  Re-registering the same label set
    replaces the callback, so long-lived registries don't pin dead
    objects after a server restart within one process.
    """

    def __init__(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._callbacks: Dict[Tuple[str, ...], Callable[[], float]] = {}  # guarded-by: _lock

    def set_function(self, fn: Callable[[], float], labels: Iterable[Any] = ()) -> None:
        key = _label_key(labels)
        with self._lock:
            if key not in self._callbacks and len(self._callbacks) >= MAX_LABEL_SETS:
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
            self._callbacks[key] = fn

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            items = list(self._callbacks.items())
        values: Dict[str, float] = {}
        for key, fn in items:
            try:
                values["\x1f".join(key)] = float(fn())
            except Exception:
                continue
        return {
            "type": "gauge",
            "help": self.help,
            "labels": list(self.labelnames),
            "values": values,
        }


class Histogram:
    """Fixed-bucket latency histogram (seconds).

    Bucket bounds are frozen at creation from :func:`bucket_bounds`; the
    per-label state is ``(per-bucket counts, total count, sum)``.  Counts
    have one extra slot for observations above the largest finite bound
    (the implicit ``+Inf`` bucket).
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Tuple[str, ...] = (),
        bounds: Optional[Iterable[float]] = None,
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds is not None else bucket_bounds()
        self._lock = threading.Lock()
        # label tuple -> [counts list, total count, sum]  guarded-by: _lock
        self._values: Dict[Tuple[str, ...], List[Any]] = {}

    def observe(self, value: float, labels: Iterable[Any] = ()) -> None:
        idx = bisect.bisect_left(self.bounds, value)
        key = _label_key(labels)
        with self._lock:
            row = self._values.get(key)
            if row is None:
                if len(self._values) >= MAX_LABEL_SETS:
                    key = (OVERFLOW_LABEL,) * len(self.labelnames)
                    row = self._values.get(key)
                if row is None:
                    row = [[0] * (len(self.bounds) + 1), 0, 0.0]
                    self._values[key] = row
            row[0][idx] += 1
            row[1] += 1
            row[2] += value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            values = {
                "\x1f".join(k): {"counts": list(row[0]), "count": row[1], "sum": row[2]}
                for k, row in self._values.items()
            }
        return {
            "type": "histogram",
            "help": self.help,
            "labels": list(self.labelnames),
            "bounds": list(self.bounds),
            "values": values,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}  # guarded-by: _lock

    def _get_or_create(self, cls: type, name: str, help: str, labelnames: Tuple[str, ...]) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, tuple(labelnames))
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames)

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """JSON-safe snapshot of every metric: ``{name: {type, help, ...}}``."""

        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def counter(name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Counter:
    return _REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Gauge:
    return _REGISTRY.gauge(name, help, labelnames)


def histogram(name: str, help: str = "", labelnames: Tuple[str, ...] = ()) -> Histogram:
    return _REGISTRY.histogram(name, help, labelnames)


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------

_ACTIVE = threading.local()  # .span: active Span; .remote: propagated trace ctx
_SPANS: Optional[deque] = None  # per-process ring; deque.append is GIL-atomic
_ID_COUNTER = [0]
_ID_LOCK = threading.Lock()


def new_trace_id() -> str:
    """16-hex-char id, unique per process and collision-resistant across."""

    with _ID_LOCK:
        _ID_COUNTER[0] += 1
        n = _ID_COUNTER[0]
    seed = os.urandom(4).hex()
    return f"{seed}{os.getpid() & 0xFFFF:04x}{n & 0xFFFFFFFF:08x}"


def _sampled(trace_id: str) -> bool:
    rate = float(config.telemetry_sample_rate)
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    # Deterministic in the trace id, so every process in a sharded tier
    # makes the same decision for the same trace.
    return (int(trace_id[:8], 16) & 0xFFFFFF) / float(0x1000000) < rate


def _ring() -> deque:
    global _SPANS
    ring = _SPANS
    if ring is None:
        ring = deque(maxlen=max(1, int(config.telemetry_span_buffer)))
        _SPANS = ring
    return ring


class Span:
    """One timed unit of work; used via the ``span()`` context manager.

    ``__exit__`` is deliberately lock-free: it computes the duration and
    appends a plain dict to the process ring buffer (atomic deque append).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "sampled",
        "start",
        "duration_ms",
        "_t0",
        "_parent_span",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.sampled = True
        self.start = 0.0
        self.duration_ms = 0.0
        self._t0 = 0.0
        self._parent_span: Optional[Span] = None

    def __enter__(self) -> "Span":
        parent = getattr(_ACTIVE, "span", None)
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
            self.sampled = parent.sampled
        else:
            remote = getattr(_ACTIVE, "remote", None)
            if remote:
                self.trace_id = str(remote.get("id") or new_trace_id())
                self.parent_id = remote.get("span")
                self.sampled = bool(remote.get("sampled", True))
            else:
                self.trace_id = new_trace_id()
                self.sampled = _sampled(self.trace_id)
        self.span_id = new_trace_id()[:12]
        self._parent_span = parent
        self.start = time.time()
        self._t0 = time.perf_counter()
        _ACTIVE.span = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        _ACTIVE.span = self._parent_span
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self.sampled:
            ring = _ring()
            ring.append(
                {
                    "trace_id": self.trace_id,
                    "span_id": self.span_id,
                    "parent_id": self.parent_id,
                    "name": self.name,
                    "start": self.start,
                    "duration_ms": self.duration_ms,
                    "attrs": self.attrs,
                }
            )


def span(name: str, **attrs: Any) -> Span:
    """Context manager: time a unit of work, linked to the active trace."""

    return Span(name, attrs)


def current_trace() -> Optional[Dict[str, Any]]:
    """Propagatable context of the active trace, or ``None``.

    The returned dict is JSON-safe and is what crosses process boundaries
    (inside the shard RPC request/response envelopes).
    """

    active = getattr(_ACTIVE, "span", None)
    if active is not None:
        return {"id": active.trace_id, "span": active.span_id, "sampled": active.sampled}
    remote = getattr(_ACTIVE, "remote", None)
    if remote:
        return dict(remote)
    return None


def current_trace_id() -> Optional[str]:
    ctx = current_trace()
    return str(ctx["id"]) if ctx and ctx.get("id") else None


class _TraceContext:
    """Adopt a propagated trace context for the current thread."""

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx: Optional[Dict[str, Any]]):
        self._ctx = ctx
        self._prev: Any = None

    def __enter__(self) -> None:
        self._prev = getattr(_ACTIVE, "remote", None)
        _ACTIVE.remote = self._ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.remote = self._prev


def trace_context(ctx: Optional[Dict[str, Any]]) -> _TraceContext:
    return _TraceContext(ctx)


def spans(
    session_id: Optional[str] = None,
    trace_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Most-recent-last snapshot of the span ring, optionally filtered.

    ``limit`` keeps the last ``limit`` records (0 keeps none); a negative
    one raises ``ValueError``.
    """

    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    ring = _SPANS
    if ring is None:
        return []
    records = list(ring)  # atomic snapshot under the GIL
    if session_id is not None:
        records = [r for r in records if r["attrs"].get("session") == session_id]
    if trace_id is not None:
        records = [r for r in records if r["trace_id"] == trace_id]
    if limit is not None:
        records = records[-limit:] if limit else []
    return records


# --------------------------------------------------------------------------
# Structured logging
# --------------------------------------------------------------------------

_LOG_LOCK = threading.Lock()
_LOG_STREAM: Optional[TextIO] = None  # guarded-by: _LOG_LOCK
_LOG_HANDLERS: List[Callable[[Dict[str, Any]], None]] = []
_LOGGERS: Dict[str, "JsonLogger"] = {}
_LOGGERS_LOCK = threading.Lock()


def configure_logging(stream: Optional[TextIO]) -> None:
    """Direct JSON log lines at ``stream`` (``None`` disables emission)."""

    global _LOG_STREAM
    with _LOG_LOCK:
        _LOG_STREAM = stream


def add_log_handler(fn: Callable[[Dict[str, Any]], None]) -> None:
    _LOG_HANDLERS.append(fn)


def remove_log_handler(fn: Callable[[Dict[str, Any]], None]) -> None:
    try:
        _LOG_HANDLERS.remove(fn)
    except ValueError:
        pass


class JsonLogger:
    """Structured logger: one JSON object per record, trace-correlated.

    ``info()`` et al. return the enriched record so callers (``usage_log``)
    can reuse the exact emitted payload.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _emit(self, level: str, event: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        active = getattr(_ACTIVE, "span", None)
        if active is not None:
            record["trace_id"] = active.trace_id
            record["span_id"] = active.span_id
            node: Optional[Span] = active
            while node is not None:
                session = node.attrs.get("session")
                if session is not None:
                    record["session_id"] = session
                    break
                node = node._parent_span
        else:
            remote = getattr(_ACTIVE, "remote", None)
            if remote and remote.get("id"):
                record["trace_id"] = str(remote["id"])
        for key, value in fields.items():
            if key not in record:
                record[key] = value
        for handler in list(_LOG_HANDLERS):
            try:
                handler(record)
            except Exception:
                pass
        with _LOG_LOCK:
            stream = _LOG_STREAM
            if stream is not None:
                try:
                    stream.write(json.dumps(record, default=str) + "\n")
                    stream.flush()
                except Exception:
                    pass
        return record

    def debug(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self._emit("debug", event, fields)

    def info(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self._emit("info", event, fields)

    def warning(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self._emit("warning", event, fields)

    def error(self, event: str, **fields: Any) -> Dict[str, Any]:
        return self._emit("error", event, fields)


def get_logger(name: str) -> JsonLogger:
    with _LOGGERS_LOCK:
        logger = _LOGGERS.get(name)
        if logger is None:
            logger = JsonLogger(name)
            _LOGGERS[name] = logger
        return logger


def reset() -> None:
    """Test hook: drop all metrics and spans, re-read config knobs."""

    global _SPANS
    _REGISTRY.clear()
    _SPANS = None
