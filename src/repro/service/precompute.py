"""Background precomputation: the paper's always-on promise, made literal.

The engine subscribes to each watched session's frame through
``repro.dataframe.observe`` (fired by ``DataFrame._notify_mutation`` /
``LuxDataFrame._expire`` on every ``_data_version`` bump, and by intent
changes).  A mutation arms a debounce timer; when it fires, a
recommendation pass is submitted to the shared worker pool **tagged with
the session id and demoted to the background band**, so precompute work
round-robins fairly across sessions and never delays interactive prints
or API reads.

Scheduling discipline per session:

- **Debounce** (``config.precompute_debounce_s``): a burst of mutations
  (a loop writing row-by-row) coalesces into one pass.
- **In-flight dedup**: while a pass for the current version is queued or
  running, further triggers at that version are no-ops.
- **Stale cancellation**: when the version moves, the superseded pass is
  cancelled — before start via ``Future.cancel``, mid-run cooperatively
  via the cancel event ``run_actions`` polls between actions
  (:class:`~repro.core.errors.PassCancelled`) — and a fresh pass is
  scheduled.

Incremental recomputation (``config.incremental_precompute``)
-------------------------------------------------------------
Reuse is keyed by content.  The engine keeps one table per watched
session: the results of its last published pass, keyed by what they were
computed from.  A pass enumerates every applicable action's candidates
(the :class:`~repro.core.actions.base.CandidateFootprint` entries its
footprint declares) and keys each one by a tuple of

- the action name and the candidate's ``vis_key``;
- ``(column, stamp)`` for each column the candidate reads, the stamp
  being :attr:`~repro.core.metadata.Metadata.column_versions`;
- the frame's intent epoch, for candidates that depend on intent;
- a digest of the effective config (``incremental_precompute`` aside).

An action's key is the tuple of its candidates' keys in enumeration
order.  An action whose key is in the table is not run: its VisList,
payload dict and stored bytes are published as they are (provenance
``carried``, original ``computed_at``).  Any other action runs with the
table's hits as :class:`~repro.core.optimizer.sampling.CandidatePrior`
state — their sample and exact scores are reused, and a displayed hit
also brings its Vis, its wire bytes and their decoded dict — so only
the misses are executed, scored, written and decoded; an action whose
displayed Vis were partly reused lands as ``mixed`` with a per-vis
origin map.
Because every input of a result is in its key, a hit is bit-identical to
what a cold pass would recompute, and there is no delta to accumulate
between passes.  An action without candidate entries (an unknown read
set, or duplicate ``vis_key``) gets no key and reruns whole.  With the
switch off a pass looks nothing up but still records its results, so
switching it back on reuses them.

A completed pass lands in the :class:`~repro.service.store.ResultStore`
as one unit, replacing the session's previous pass there, at the version
it computed — *only* if that version is still current, so the store can
never be populated with results for data that no longer exists.  Each
missed spec is written to its JSON wire bytes once, by the vega-lite
writer (a column several missed specs show is formatted once for all of
them), and each action's bytes are joined from its specs' bytes.
Publishing decodes the new spec bytes for the session's view of the pass
(:meth:`~repro.service.session.Session.publish_view`); the view, the
frame's own memoized recommendation set and the session's table are
replaced under the same guard, making in-process reads and prints free
too.

Backpressure (``config.precompute_queue_limit``)
------------------------------------------------
The *backlog* — armed debounce timers plus queued/in-flight passes,
summed across sessions — is bounded.  At the limit the engine degrades
in three graduated steps rather than queueing unboundedly:

1. **Shed stale** (:meth:`~PrecomputeEngine._shed_stale_locked`): oldest
   first, cancel in-flight passes whose version the session has already
   moved past (their results would be discarded at publish anyway) and
   timers made redundant by a live pass at the current version.  Shedding
   never loses information: the next pass keys its candidates on the
   frame's current state.
2. **Defer**: a trigger that cannot be admitted parks the session in a
   FIFO; when any pass completes (freeing a slot) the oldest deferred
   session is resumed.  A deferred session's store goes stale, and reads
   fall back to a correct foreground pass in the meantime.
3. **Reject writes**: :meth:`~PrecomputeEngine.admit` is the admission
   check mutation-facing HTTP writes make *before* touching the frame;
   at saturation it raises :class:`QueueSaturated` (HTTP 429 with a
   ``Retry-After`` estimated from the backlog and an EWMA of recent pass
   durations).  The check and the shed happen under one lock acquisition,
   so a slot freed between "is it full?" and "enqueue" is observed rather
   than spuriously rejected.

Because rejected writes never mutate, shed work is always superseded, and
deferred work resumes on drain, results after the backlog drains are
bit-identical to an unloaded run — the property
``benchmarks/bench_load.py`` gates end-to-end.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from ..core import pool, telemetry
from ..core.actions.registry import default_registry
from ..core.config import config
from ..core.errors import LuxError, LuxWarning, PassCancelled
from ..core.optimizer.sampling import CandidatePrior
from ..core.optimizer.scheduler import (
    RecommendationSet,
    run_actions,
    schedule_actions,
)
from ..dataframe import observe
from .session import encode_pass

if TYPE_CHECKING:  # pragma: no cover
    from ..core.actions.base import Action
    from ..core.vislist import VisList
    from .persist import SnapshotStore
    from .session import Session
    from .store import ResultStore

__all__ = ["PrecomputeEngine", "QueueSaturated"]


def _observe_phase(phase: str, seconds: float) -> None:
    """Record one pass-phase duration into the shared phase histogram."""
    telemetry.histogram(
        "lux_precompute_phase_seconds",
        "precompute pass phase breakdown (debounce_wait/metadata/actions/publish)",
        ("phase",),
    ).observe(seconds, (phase,))


class QueueSaturated(LuxError):
    """The precompute backlog is at its bound; the write should be retried.

    Raised by :meth:`PrecomputeEngine.admit` — the HTTP layer maps it to
    429 with a ``Retry-After`` header carrying :attr:`retry_after_s`.
    """

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(
            f"precompute backlog is full; retry after {retry_after_s}s"
        )
        self.retry_after_s = retry_after_s


class _Inflight:
    __slots__ = ("version", "future", "cancel", "session", "shed")

    def __init__(
        self,
        version: tuple,
        future: Any,
        cancel: threading.Event,
        session: "Session",
    ):
        self.version = version
        self.future = future
        self.cancel = cancel
        self.session = session
        #: Shed passes abort at their next cancel checkpoint; they stop
        #: counting toward the backlog the moment they are shed.
        self.shed = False


class _Candidate(CandidatePrior):
    """One candidate's result in a session's table.

    The ranker reads the scores and the displayed Vis through the
    :class:`CandidatePrior` interface; a displayed candidate also keeps
    its wire bytes (a slice of its action's stored bytes) and their
    decoded spec payload dict, so reusing it writes and decodes nothing.
    """

    __slots__ = ("payload", "wire")

    def __init__(
        self,
        approx: "float | None",
        score: "float | None",
        vis: Any = None,
        payload: "dict[str, Any] | None" = None,
        wire: "memoryview | None" = None,
    ) -> None:
        super().__init__(approx=approx, score=score, vis=vis)
        self.payload = payload
        self.wire = wire


class _ActionResult:
    """One action's published result in a session's table.

    Reused whole on an action-key hit.  ``candidates`` aligns with
    ``key``: each candidate's result, or None where the run left nothing
    to reuse, looked up one by one when the action key differs.
    """

    __slots__ = ("key", "vislist", "payload", "wire", "computed_at", "candidates")

    def __init__(
        self,
        key: tuple,
        vislist: "VisList",
        payload: dict[str, Any],
        wire: bytes,
        computed_at: float,
        candidates: "tuple[_Candidate | None, ...]",
    ) -> None:
        self.key = key
        self.vislist = vislist
        self.payload = payload
        self.wire = wire
        self.computed_at = computed_at
        self.candidates = candidates


def _config_digest() -> str:
    """Digest of this thread's effective config, minus the ablation switch."""
    settings = config.effective()
    settings.pop("incremental_precompute", None)
    text = repr(sorted(settings.items())).encode("utf-8")
    return hashlib.blake2b(text, digest_size=16).hexdigest()


def _action_key(
    action: "Action", frame: Any, metadata: Any, digest: str
) -> "tuple | None":
    """The tuple of the action's candidate keys, in enumeration order.

    None when the action declares no candidate entries, an entry's read
    set is unknown, or two entries share a ``vis_key``: such an action
    reruns whole.
    """
    try:
        entries = action.footprint(frame, metadata).candidates()
    except Exception:  # a broken declaration degrades to "rerun"
        return None
    if entries is None or any(e.columns is None for e in entries):
        return None
    if len({e.vis_key for e in entries}) != len(entries):
        return None
    stamps = metadata.column_versions
    epoch = frame._intent_epoch
    return tuple(
        (
            action.name,
            e.vis_key,
            frozenset((c, stamps.get(c)) for c in e.columns),
            epoch if e.intent else None,
            digest,
        )
        for e in entries
    )


def _lookup(
    table: "dict[str, _ActionResult] | None", keys: "dict[str, tuple | None]"
) -> "tuple[dict[str, _ActionResult], dict[str, dict[str, _Candidate]]]":
    """Action-key hits, and the candidate hits of every other keyed action
    (``action name -> {vis_key: candidate result}``).

    A candidate key names its action, so only that action's previous
    result can hold it.
    """
    hits: dict[str, _ActionResult] = {}
    priors: dict[str, dict[str, _Candidate]] = {}
    for name, key in keys.items():
        prev = table.get(name) if table is not None else None
        if key is None or prev is None:
            continue
        if prev.key == key:
            hits[name] = prev
            continue
        current = set(key)
        found = {
            k[1]: candidate
            for k, candidate in zip(prev.key, prev.candidates)
            if candidate is not None and k in current
        }
        if found:
            priors[name] = found
    return hits, priors


def _record(
    key: "tuple | None",
    vislist: "VisList",
    payload: dict[str, Any],
    blob: bytes,
    slices: "list[memoryview]",
    recmap: "dict[str, dict] | None",
    computed_at: float,
) -> "_ActionResult | None":
    """The table entry of one executed action, or None if it has no key.

    A failed action discards its candidate records and is not recorded
    either.  A displayed candidate keeps its Vis, its spec payload dict
    and its slice of the action's bytes.
    """
    if key is None or recmap is None or (key and not recmap):
        return None
    visible = [vis for vis in vislist if vis.spec is not None]
    displayed = {
        spec["key"]: (vis, spec, view)
        for vis, spec, view in zip(visible, payload["specs"], slices)
    }
    candidates: list[_Candidate | None] = []
    for k in key:
        rec = recmap.get(k[1])
        if rec is None:
            candidates.append(None)
            continue
        shown = displayed.get(k[1]) if rec["displayed"] else None
        candidates.append(_Candidate(rec["approx"], rec["score"], *(shown or ())))
    return _ActionResult(key, vislist, payload, blob, computed_at, tuple(candidates))


class PrecomputeEngine:
    """Schedules and runs background recommendation passes per session."""

    def __init__(
        self,
        store: "ResultStore",
        debounce_s: float | None = None,
        snapshots: "SnapshotStore | None" = None,
    ) -> None:
        self.store = store
        #: When set, every published pass persists the session (rate-
        #: limited by ``config.service_snapshot_interval_s``) so a
        #: restarted worker recovers warm state.
        self._snapshots = snapshots
        self._debounce_override = debounce_s
        #: Reentrant: ``schedule`` decides admission and submits under one
        #: acquisition (no check-then-act window), which nests into
        #: ``_submit_locked``.
        self._lock = threading.RLock()
        self._unsubscribe: dict[str, Any] = {}  # guarded-by: _lock
        self._timers: dict[str, threading.Timer] = {}  # guarded-by: _lock
        self._inflight: dict[str, _Inflight] = {}  # guarded-by: _lock
        #: Each watched session's last published pass: action name ->
        #: result, whose key must match for reuse.  Built whole by one
        #: pass and never changed afterwards.
        self._tables: dict[str, dict[str, _ActionResult]] = {}  # guarded-by: _lock
        #: Sessions whose trigger arrived at saturation, FIFO; resumed as
        #: passes complete and free backlog slots.
        self._deferred: "OrderedDict[str, Session]" = OrderedDict()  # guarded-by: _lock
        #: EWMA of completed pass wall-clock, feeding Retry-After.
        self._avg_pass_s: float | None = None  # guarded-by: _lock
        #: When each session's debounce first armed, for the
        #: debounce-wait phase histogram (arm -> submit).
        self._debounce_armed: dict[str, float] = {}  # guarded-by: _lock
        self._counters = {  # guarded-by: _lock
            "scheduled": 0,
            "completed": 0,
            "cancelled": 0,
            "stale": 0,
            "failed": 0,
            "incremental_passes": 0,
            "actions_rerun": 0,
            "actions_carried": 0,
            "candidates_rerun": 0,
            "candidates_carried": 0,
            "rejected": 0,
            "shed_stale": 0,
            "deferred": 0,
            "resumed": 0,
        }

    def debounce_s(self) -> float:
        if self._debounce_override is not None:
            return self._debounce_override
        return max(float(config.precompute_debounce_s), 0.0)

    def queue_limit(self) -> int:
        """The backlog bound (0 = unbounded)."""
        return max(int(config.precompute_queue_limit), 0)

    def _bump(self, name: str, by: int = 1) -> None:
        """Increment one stats counter; pass workers race the stats reader."""
        with self._lock:
            self._counters[name] += by

    # ------------------------------------------------------------------
    # Watch / unwatch
    # ------------------------------------------------------------------
    def watch(self, session: "Session") -> None:
        """Schedule a pass after every future mutation of the session frame."""
        with self._lock:
            if session.id in self._unsubscribe:
                return

            def on_mutation(
                _frame: Any, _op: str, _delta: Any, s: "Session" = session
            ) -> None:
                if s.precompute:
                    self.schedule(s)

            self._unsubscribe[session.id] = observe.register(
                session.frame, on_mutation
            )

    def unwatch(self, session: "Session") -> None:
        with self._lock:
            unsubscribe = self._unsubscribe.pop(session.id, None)
            timer = self._timers.pop(session.id, None)
            inflight = self._inflight.pop(session.id, None)
            self._tables.pop(session.id, None)
            self._deferred.pop(session.id, None)
            self._debounce_armed.pop(session.id, None)
        if unsubscribe is not None:
            unsubscribe()
        if timer is not None:
            timer.cancel()
        if inflight is not None:
            inflight.cancel.set()
            inflight.future.cancel()
        self._resume_deferred()

    # ------------------------------------------------------------------
    # Backpressure (the bounded half)
    # ------------------------------------------------------------------
    def backlog_depth(self) -> int:
        """Armed timers + live (unshed) passes, across all sessions."""
        with self._lock:
            return self._backlog_locked()

    def _backlog_locked(self) -> int:  # requires-lock: _lock
        live = sum(
            1
            for i in self._inflight.values()
            if not i.future.done() and not i.shed
        )
        return len(self._timers) + live

    def _holds_slot_locked(self, session_id: str) -> bool:  # requires-lock: _lock
        """Whether the session already occupies a backlog slot.

        Re-arming or superseding its own slot never grows the backlog, so
        such triggers bypass the admission check.
        """
        if session_id in self._timers:
            return True
        inflight = self._inflight.get(session_id)
        return (
            inflight is not None
            and not inflight.future.done()
            and not inflight.shed
        )

    def _shed_stale_locked(self) -> None:  # requires-lock: _lock
        """Shed superseded backlog, oldest first, to free slots.

        Sheds (a) in-flight passes whose version the session has moved
        past — their publish would be discarded anyway — and (b) timers
        made redundant by a live pass already running at the session's
        current version.  The next pass keys its work on the frame's
        current state, so shedding defers work without ever losing it.
        """
        for inflight in list(self._inflight.values()):
            if inflight.future.done() or inflight.shed:
                continue
            if inflight.version != inflight.session.version:
                inflight.shed = True
                inflight.cancel.set()
                inflight.future.cancel()
                self._counters["shed_stale"] += 1
        for sid in list(self._timers):
            inflight = self._inflight.get(sid)
            if (
                inflight is not None
                and not inflight.future.done()
                and not inflight.shed
                and inflight.version == inflight.session.version
            ):
                self._timers.pop(sid).cancel()
                self._counters["shed_stale"] += 1

    def _saturated_locked(self) -> bool:  # requires-lock: _lock
        """Whether the backlog is at its bound, after shedding stale work.

        The shed happens under the same lock acquisition as the check, so
        a slot that frees between "is it full?" and "enqueue" is used
        rather than spuriously rejected.
        """
        limit = self.queue_limit()
        if limit <= 0:
            return False
        if self._backlog_locked() < limit:
            return False
        self._shed_stale_locked()
        return self._backlog_locked() >= limit

    def admit(self) -> None:
        """Admission check for mutation-facing writes.

        Call *before* mutating: raises :class:`QueueSaturated` when the
        backlog (including deferred sessions) is at its bound, carrying a
        ``Retry-After`` estimate.  A no-op when the bound is disabled.
        """
        if self.queue_limit() <= 0:
            return
        with self._lock:
            if self._deferred or self._saturated_locked():
                self._counters["rejected"] += 1
                raise QueueSaturated(self._retry_after_locked())

    def _retry_after_locked(self) -> int:  # requires-lock: _lock
        """Seconds until a retry plausibly finds a free slot."""
        pending = self._backlog_locked() + len(self._deferred)
        per_pass = max(self._avg_pass_s or 0.0, self.debounce_s(), 0.05)
        return max(1, min(60, math.ceil(pending * per_pass)))

    def _resume_deferred(self) -> None:
        """Submit deferred sessions while backlog slots are free (FIFO)."""
        while True:
            with self._lock:
                if not self._deferred or self._saturated_locked():
                    return
                _, session = self._deferred.popitem(last=False)
                self._counters["resumed"] += 1
                self._submit_locked(session)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, session: "Session", immediate: bool = False) -> None:
        """Arm (or re-arm) the session's debounce; submit when it fires.

        At saturation a session not already holding a backlog slot is
        deferred instead (resumed FIFO as passes complete), so the
        backlog bound holds even for triggers that raced past
        :meth:`admit` — the deferred pass covers the mutation, and a
        read meanwhile falls back to a correct foreground pass.
        """
        delay = 0.0 if immediate else self.debounce_s()
        pending: threading.Timer | None = None
        with self._lock:
            pending = self._timers.pop(session.id, None)
            if (
                pending is None
                and not self._holds_slot_locked(session.id)
                and self._saturated_locked()
            ):
                if session.id not in self._deferred:
                    self._deferred[session.id] = session
                    self._counters["deferred"] += 1
            elif delay <= 0:
                self._submit_locked(session)
            else:
                timer = threading.Timer(delay, self._submit, args=(session,))
                timer.daemon = True
                self._timers[session.id] = timer
                self._debounce_armed.setdefault(session.id, time.perf_counter())
                timer.start()
        if pending is not None:
            pending.cancel()

    def _submit(self, session: "Session") -> None:
        with self._lock:
            self._submit_locked(session)

    def _submit_locked(self, session: "Session") -> None:  # requires-lock: _lock
        self._timers.pop(session.id, None)
        armed = self._debounce_armed.pop(session.id, None)
        if armed is not None:
            _observe_phase("debounce_wait", time.perf_counter() - armed)
        version = session.version
        inflight = self._inflight.get(session.id)
        if inflight is not None and not inflight.future.done():
            if inflight.version == version and not inflight.shed:
                return  # dedup: same state already queued/running
            # Stale: the version moved while a pass was in flight.
            inflight.cancel.set()
            inflight.future.cancel()
            self._counters["cancelled"] += 1
        cancel = threading.Event()
        future = pool.submit(
            lambda: self._run_pass(session, version, cancel),
            tag=session.id,
            background=True,
        )
        self._inflight[session.id] = _Inflight(version, future, cancel, session)
        self._counters["scheduled"] += 1
        # A completing (or cancelled) pass frees a backlog slot: resume
        # the oldest deferred session.  Runs on whatever thread completes
        # the future, never while it still counts toward the backlog.
        future.add_done_callback(lambda _f: self._resume_deferred())

    # ------------------------------------------------------------------
    # The pass itself (runs on a pool worker, background band)
    # ------------------------------------------------------------------
    def _run_pass(
        self, session: "Session", version: tuple, cancel: threading.Event
    ) -> str:
        """One recommendation pass at ``version``, reusing what it can."""
        started = time.perf_counter()
        with telemetry.span("precompute.pass", session=session.id) as pass_span:
            result = self._run_pass_inner(session, version, cancel, pass_span)
            pass_span.attrs["result"] = result
        if result == "completed":
            telemetry.histogram(
                "lux_precompute_pass_seconds",
                "completed precompute pass wall-clock",
            ).observe(time.perf_counter() - started)
        return result

    def _run_pass_inner(
        self,
        session: "Session",
        version: tuple,
        cancel: threading.Event,
        pass_span: telemetry.Span,
    ) -> str:
        if cancel.is_set() or session.version != version:
            self._bump("stale")
            return "stale"
        started = time.perf_counter()
        with session.lock:
            if cancel.is_set() or session.version != version:
                self._bump("stale")
                return "stale"
            frame = session.frame
            with self._lock:
                table = self._tables.get(session.id)
            try:
                with session.overlay():
                    phase_t0 = time.perf_counter()
                    metadata = frame.metadata
                    _observe_phase("metadata", time.perf_counter() - phase_t0)
                    phase_t0 = time.perf_counter()
                    ordered = schedule_actions(
                        default_registry.applicable(frame), metadata
                    )
                    digest = _config_digest()
                    keys = {
                        a.name: _action_key(a, frame, metadata, digest)
                        for a in ordered
                    }
                    if not config.incremental_precompute:
                        table = None  # look nothing up; still record
                    hits, priors = _lookup(table, keys)
                    pass_span.attrs["rerun"] = len(keys) - len(hits)
                    pass_span.attrs["carried"] = len(hits)
                    records: dict[str, dict] = {
                        name: {}
                        for name, key in keys.items()
                        if key is not None and name not in hits
                    }
                    recs = run_actions(
                        ordered,
                        frame,
                        metadata,
                        cancel=cancel,
                        priors=priors or None,
                        records=records or None,
                        done={n: r.vislist for n, r in hits.items()} or None,
                    )
                    fresh = {
                        name: written
                        for name, *written in encode_pass(
                            recs, [name for name in recs.keys() if name not in hits], priors
                        )
                    }
                    _observe_phase("actions", time.perf_counter() - phase_t0)
            except PassCancelled:
                self._bump("cancelled")
                return "cancelled"
            except Exception as exc:
                self._bump("failed")
                telemetry.get_logger("precompute").warning(
                    "pass_failed", session=session.id, error=str(exc)
                )
                warnings.warn(f"precompute pass failed: {exc}", LuxWarning)
                return "failed"
            if cancel.is_set() or session.version != version:
                # Cancelled late (e.g. the session closed mid-pass — its
                # store entries were already dropped and must not be
                # re-inserted) or completed against data that no longer
                # exists (the mutation's own trigger scheduled a redo).
                self._bump("stale")
                return "stale"
            phase_t0 = time.perf_counter()
            self._publish(session, version, recs, keys, hits, priors, records, fresh)
            if self._snapshots is not None:
                # Still under session.lock (reentrant), so the snapshot
                # captures exactly the state this pass published; save()
                # handles the interval rate limit and contains failures.
                self._snapshots.save(session)
            _observe_phase("publish", time.perf_counter() - phase_t0)
            self._record_pass_duration(time.perf_counter() - started)
            self._bump("completed")
            return "completed"

    def _record_pass_duration(self, duration_s: float) -> None:
        """Fold one completed pass into the Retry-After EWMA."""
        with self._lock:
            if self._avg_pass_s is None:
                self._avg_pass_s = duration_s
            else:
                self._avg_pass_s = 0.7 * self._avg_pass_s + 0.3 * duration_s

    def _publish(
        self,
        session: "Session",
        version: tuple,
        recs: RecommendationSet,
        keys: "dict[str, tuple | None]",
        hits: "dict[str, _ActionResult]",
        priors: "dict[str, dict[str, _Candidate]]",
        records: "dict[str, dict]",
        fresh: "dict[str, tuple[bytes, list[memoryview], list[Any]]]",
    ) -> None:
        """Land one completed pass: store, view, memo and table.

        ``fresh`` holds each executed action's bytes, each spec's slice of
        them and the table candidate each spec was reused from (see
        :func:`~repro.service.session.encode_pass`).  The action's view
        dict is built from the reused specs' dicts plus the decoded new
        spec bytes.
        """
        now = time.time()
        table: dict[str, _ActionResult] = {}
        stored: dict[str, dict[str, Any]] = {}
        views: dict[str, Any] = {}
        for name in recs.keys():
            hit = hits.get(name)
            if hit is not None:
                # The bytes object and computed_at an earlier pass stored.
                stored[name] = {
                    "payload": hit.wire,
                    "origin": "carried",
                    "computed_at": hit.computed_at,
                }
                views[name] = hit.payload
                table[name] = hit
                continue
            blob, slices, reused = fresh[name]
            specs = [
                json.loads(bytes(view)) if prior is None else prior.payload
                for view, prior in zip(slices, reused)
            ]
            payload = views[name] = {"count": len(recs[name]), "specs": specs}
            record = stored[name] = {"payload": blob, "origin": "precompute", "computed_at": now}
            if any(prior is not None for prior in reused):
                record["origin"] = "mixed"
                record["vis_origins"] = {
                    spec["key"]: "precompute" if prior is None else "carried"
                    for spec, prior in zip(specs, reused)
                }
            result = _record(
                keys.get(name), recs[name], payload, blob, slices,
                records.get(name), now,
            )
            if result is not None:
                table[name] = result
        self.store.put_pass(session.id, version, stored)
        session.publish_view(version, views)
        if session.shares_frame_memo:
            # Memoize on the frame so in-process prints are free.
            frame = session.frame
            frame._recs_cache = recs
            frame._recs_version = version
        reused = sum(len(found) for found in priors.values())
        keyed = sum(len(keys[name]) for name in records)
        with self._lock:
            if session.id in self._unsubscribe:
                self._tables[session.id] = table
            self._counters["actions_rerun"] += len(keys) - len(hits)
            self._counters["actions_carried"] += len(hits)
            self._counters["candidates_rerun"] += keyed - reused
            self._counters["candidates_carried"] += reused + sum(
                len(hit.key) for hit in hits.values()
            )
            if hits or reused:
                self._counters["incremental_passes"] += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no timer is armed and no pass is in flight."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            with self._lock:
                busy = (
                    bool(self._timers)
                    or bool(self._deferred)
                    or any(
                        not i.future.done() for i in self._inflight.values()
                    )
                )
            if not busy:
                return True
            time.sleep(0.005)
        return False

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "watched": len(self._unsubscribe),
                "timers_armed": len(self._timers),
                "in_flight": sum(
                    1 for i in self._inflight.values() if not i.future.done()
                ),
                "backlog_depth": self._backlog_locked(),
                "queue_limit": self.queue_limit(),
                "deferred_pending": len(self._deferred),
                "avg_pass_ms": round((self._avg_pass_s or 0.0) * 1e3, 3),
                **self._counters,
            }

    def close(self) -> None:
        """Cancel all timers and in-flight passes, drop all watches."""
        with self._lock:
            unsubs = list(self._unsubscribe.values())
            timers = list(self._timers.values())
            inflight = list(self._inflight.values())
            self._unsubscribe.clear()
            self._timers.clear()
            self._inflight.clear()
            self._tables.clear()
            self._deferred.clear()
            self._debounce_armed.clear()
        for unsubscribe in unsubs:
            unsubscribe()
        for timer in timers:
            timer.cancel()
        for item in inflight:
            item.cancel.set()
            item.future.cancel()
