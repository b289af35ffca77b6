"""The process-wide worker pool shared by every parallel subsystem.

One set of pool threads serves every consumer of background parallelism:

- the action scheduler streams laggard actions through it
  (``optimizer/scheduler.py``),
- the batch executor fans ``execute_many`` out across filter groups
  (``executor/df_exec.py``), and
- the service's precompute engine schedules whole recommendation passes
  (``service/precompute.py``).

Unifying them matters: independent pools would multiply steady-state
thread count and let one subsystem oversubscribe the host while the others
idle.  The pool is sized by ``config.action_pool_workers``.

Fair-share admission
--------------------
Each submission lands in a two-band fair queue, and pool threads pop from
it directly:

- **Bands**: interactive (default) before background.  Background items —
  the service's always-on precompute passes — only run while no
  interactive work is queued, so a print or an API read is never stuck
  behind another session's speculative pass.
- **Tags**: within a band, queues are keyed by tag (the service uses the
  session id) and drained round-robin across tags, so one session
  enqueueing a hundred items cannot starve a session that enqueued one.

Nested submissions inherit the running item's tag and band through a
thread-local context, so a pass's internal fan-out stays attributed to its
session.  Submissions also capture the caller's config overlay
(:func:`repro.core.config.current_overlay`) and re-apply it on the worker,
so per-session config isolation survives fan-out.

Threads
-------
Pool threads are daemon threads named ``lux-worker-<n>`` that wait on one
condition for queued items.  A submission starts a thread while queued
items outnumber idle threads and fewer than :func:`worker_count` threads
are live, so the pool grows on submission.  A thread that finds more live
threads than :func:`worker_count` exits before popping, so the pool
shrinks as threads finish their items.  A queued item never leaves the
fair queue until a thread runs it, so a resize strands nothing.  Exiting
the interpreter does not wait for pool threads: ``SessionManager.shutdown``
and ``scheduler.drain_all`` are the flush points.

Deadlock rule
-------------
Code running *on* a pool thread must never block on pool futures: a
saturated pool would then wait on itself.  :func:`in_worker` lets nested
fan-out points (``execute_many`` called from a streamed action) detect
this and degrade to inline execution instead.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Any, Callable

from . import telemetry
from .config import config, current_overlay, thread_overlay

__all__ = ["submit", "worker_count", "in_worker", "stats"]

#: Thread-name prefix identifying pool threads (see :func:`in_worker`).
_THREAD_PREFIX = "lux-worker"

#: Band indices: interactive drains strictly before background.
INTERACTIVE, BACKGROUND = 0, 1

_LOCK = threading.Lock()

#: Idle pool threads wait here; every submission notifies it.
_WAKE = threading.Condition(_LOCK)

#: Live pool threads, and how many of them are waiting on ``_WAKE``.
_THREADS: set[threading.Thread] = set()  # guarded-by: _LOCK
_IDLE = 0  # guarded-by: _LOCK

_NAMES = itertools.count()  # guarded-by: _LOCK

#: The tag/band the *currently running* work item was submitted under;
#: nested submissions inherit it so fan-out stays attributed.
_CONTEXT = threading.local()


class _FairQueue:
    """Two priority bands of per-tag deques with round-robin drain."""

    def __init__(self) -> None:
        self._bands: tuple[
            "OrderedDict[str, deque[Callable[[], None]]]", ...
        ] = (OrderedDict(), OrderedDict())

    def push(self, band: int, tag: str, item: Callable[[], None]) -> None:
        ring = self._bands[band]
        bucket = ring.get(tag)
        if bucket is None:
            bucket = deque()
            ring[tag] = bucket
        bucket.append(item)

    def pop(self) -> Callable[[], None] | None:
        """Next item: interactive first; round-robin across tags in a band."""
        for ring in self._bands:
            while ring:
                tag, bucket = next(iter(ring.items()))
                if not bucket:
                    del ring[tag]
                    continue
                item = bucket.popleft()
                if bucket:
                    ring.move_to_end(tag)  # rotate: next tag gets a turn
                else:
                    del ring[tag]
                return item
        return None

    def counts(self) -> tuple[int, int]:
        return tuple(
            sum(len(b) for b in ring.values()) for ring in self._bands
        )  # type: ignore[return-value]

    def depths(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-tag queued-item counts, one dict per band (empty tags elided)."""
        return tuple(
            {tag: len(bucket) for tag, bucket in ring.items() if bucket}
            for ring in self._bands
        )  # type: ignore[return-value]

    def tags(self) -> list[str]:
        seen: list[str] = []
        for ring in self._bands:
            for tag in ring:
                if tag not in seen:
                    seen.append(tag)
        return seen


_QUEUE = _FairQueue()  # guarded-by: _LOCK


def worker_count() -> int:
    """The number of pool threads the pool keeps live at most."""
    return max(int(config.action_pool_workers), 1)


def in_worker() -> bool:
    """True when the calling thread belongs to the shared pool.

    Fan-out helpers use this to run inline rather than submit-and-wait
    from inside the pool, which could deadlock a saturated pool.
    """
    return threading.current_thread().name.startswith(_THREAD_PREFIX)


def current_tag() -> str:
    """The tag of the work item running on this thread ("" outside one)."""
    return getattr(_CONTEXT, "tag", "")


def submit(
    fn: Callable[[], Any],
    tag: str | None = None,
    background: bool | None = None,
) -> "Future[Any]":
    """Run ``fn`` on the shared pool; returns its future.

    ``tag`` buckets the item for round-robin fair-share (the service
    passes the session id); ``background`` demotes it to the band drained
    only when no interactive work is queued.  Both default to the
    submitting work item's own values (thread-local context), so nested
    fan-out inherits its parent's attribution; outside the pool the
    defaults are ``""`` and interactive.

    The caller's config overlay is captured here and re-applied around
    ``fn`` on the worker, so per-session settings survive fan-out.
    Cancelling the returned future before the item starts prevents ``fn``
    from running at all.
    """
    if tag is None:
        tag = getattr(_CONTEXT, "tag", "")
    if background is None:
        background = bool(getattr(_CONTEXT, "background", False))
    overlay = current_overlay()
    # Trace context crosses the thread hand-off alongside the config
    # overlay, so spans opened inside pool work stitch to the submitter's
    # trace (a foreground read's pass shares the HTTP request's trace id).
    trace_ctx = telemetry.current_trace()
    band_label = "background" if background else "interactive"
    enqueued = time.perf_counter()
    outer: "Future[Any]" = Future()

    def run() -> None:
        if not outer.set_running_or_notify_cancel():
            return
        started = time.perf_counter()
        telemetry.histogram(
            "lux_pool_queue_wait_seconds",
            "pool queue wait (push to start) by band and tag",
            ("band", "tag"),
        ).observe(started - enqueued, (band_label, tag or "untagged"))
        prev_tag = getattr(_CONTEXT, "tag", "")
        prev_bg = getattr(_CONTEXT, "background", False)
        _CONTEXT.tag, _CONTEXT.background = tag, background
        try:
            with thread_overlay(overlay), telemetry.trace_context(trace_ctx):
                outer.set_result(fn())
        except BaseException as exc:
            outer.set_exception(exc)
        finally:
            _CONTEXT.tag, _CONTEXT.background = prev_tag, prev_bg
            telemetry.histogram(
                "lux_pool_run_seconds",
                "pool item run time by band and tag",
                ("band", "tag"),
            ).observe(time.perf_counter() - started, (band_label, tag or "untagged"))

    with _LOCK:
        _QUEUE.push(BACKGROUND if background else INTERACTIVE, tag, run)
        _WAKE.notify()
        _grow_locked()
    return outer


def _grow_locked() -> None:  # requires-lock: _LOCK
    """Start threads while queued items outnumber the idle threads."""
    unserved = sum(_QUEUE.counts()) - _IDLE
    while unserved > 0 and len(_THREADS) < worker_count():
        thread = threading.Thread(
            target=_work, name=f"{_THREAD_PREFIX}-{next(_NAMES)}", daemon=True
        )
        thread.start()  # it waits for _LOCK before looking at _THREADS
        _THREADS.add(thread)
        unserved -= 1  # a new thread pops before it ever waits


def _next_locked(me: threading.Thread) -> Callable[[], None] | None:  # requires-lock: _LOCK
    """The next queued item, or None once the pool has shrunk past ``me``."""
    global _IDLE
    while len(_THREADS) <= worker_count():
        item = _QUEUE.pop()
        if item is not None:
            return item
        _IDLE += 1
        _WAKE.wait()
        _IDLE -= 1
    _THREADS.discard(me)
    # This thread may have taken the wake-up meant for a queued item.
    _WAKE.notify()
    return None


def _work() -> None:
    """A pool thread: run queued items until the pool shrinks past it."""
    me = threading.current_thread()
    try:
        while True:
            with _LOCK:
                item = _next_locked(me)
            if item is None:
                return
            item()
            # Waiting must not keep the finished item's closure (its future's
            # result, a batch's tables) alive until the next item arrives.
            del item
    finally:
        # Whatever ended the loop, free this thread's slot, and replace
        # it if queued items would otherwise wait for the next submission.
        with _LOCK:
            _THREADS.discard(me)
            _grow_locked()


def stats() -> dict[str, Any]:
    """Queue/pool introspection for the service's ``/healthz`` endpoint."""
    with _LOCK:
        interactive, background = _QUEUE.counts()
        depth_interactive, depth_background = _QUEUE.depths()
        return {
            "workers": worker_count(),
            "alive": bool(_THREADS),
            "queued_interactive": interactive,
            "queued_background": background,
            "queued_tags": _QUEUE.tags(),
            # Per-band, per-tag queue depths: the operator's view of who
            # is waiting where (the service tags items with session ids).
            "queues": {
                "interactive": depth_interactive,
                "background": depth_background,
            },
        }
