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

- **Debounce** (``config.precompute_debounce_s``, 5 ms): a pass starts
  once the session's writes pause that long.  The window is short so an
  edit's pass is stored soon after the edit, and long enough that the
  pass does not compete with the write's reply for the interpreter.
- **Preemption**: a mutation-facing write runs inside
  :meth:`PrecomputeEngine.writing`, which sets the cancel event of the
  session's live pass before the write waits on the session lock.  The
  pass stops at its next checkpoint (after its metadata phase, between
  actions in ``run_actions`` and before each spec it writes in
  :func:`~repro.service.session.encode_pass`, raising
  :class:`~repro.core.errors.PassCancelled`), so a burst of writes
  coalesces into the pass after its last write instead of each write
  waiting out a whole pass.  A timer that fires while a write is in
  progress submits nothing, so no pass runs at the version the write is
  replacing.  A write that fails leaves the version where it was and
  re-arms the session, so the cancelled pass is redone.
- **In-flight dedup**: while an uncancelled pass for the current version
  is queued or running, further triggers at that version are no-ops.
- **Stale cancellation**: when the version moves, the superseded pass is
  cancelled (before start via ``Future.cancel``, mid-run through its
  cancel event) and a fresh pass is scheduled.  A pass cancelled before
  it started is counted ``cancelled`` here; a started one counts its own
  outcome.
- **Idle**: :meth:`PrecomputeEngine.wait_idle` waits on a condition the
  engine notifies as pending work goes (a pass's future completes, a
  timer or deferred session is dropped without a pass, or a write
  settles the pass it held back).

Incremental recomputation (``config.incremental_precompute``)
-------------------------------------------------------------
Reuse is keyed by content.  The engine keeps one table per watched
session: the results of its last published pass, keyed by what they were
computed from.  A pass enumerates the candidates of every applicable
keyed action (:attr:`~repro.core.actions.base.Action.keyed`) once, and
keys each one by a tuple of

- the action name and the candidate's ``vis_key``
  (:func:`~repro.vis.spec.candidate_key` of its compiled spec);
- ``(column, stamp)`` for each column the candidate reads (its spec's
  fields and filter attributes), the stamp being
  :attr:`~repro.core.metadata.Metadata.column_versions`;
- the frame's intent epoch, for an action that reads the intent
  (:attr:`~repro.core.actions.base.Action.reads_intent`);
- a digest of the effective config (``incremental_precompute`` aside).

An action's key is the tuple of its candidates' keys in enumeration
order.  An action whose key is in the table is not run: its VisList
and stored bytes are published as they are (provenance ``carried``,
original ``computed_at``).  Any other keyed action runs on the
candidates the pass enumerated, with their keys and the table's hits as
:class:`~repro.core.optimizer.sampling.CandidatePrior` state (one
:class:`~repro.core.actions.base.KeyedCandidates` per action), so
nothing enumerates or keys them again.  The hits' sample and exact
scores are reused, and a displayed hit also brings its Vis and its wire
bytes, so only the misses are executed, scored and written; an action
whose displayed Vis were partly reused lands as ``mixed`` with a per-vis
origin map.
Because every input of a result is in its key, a hit is bit-identical to
what a cold pass would recompute, and there is no delta to accumulate
between passes.  An action that is not keyed, whose enumeration raised,
that enumerated two candidates with one ``vis_key``, or that reads an
intent holding an attribute wildcard gets no key and reruns whole.
With the switch off a pass looks nothing up but still records its
results, so switching it back on reuses them.

A completed pass lands in the :class:`~repro.service.store.ResultStore`
as one unit, replacing the session's previous pass there, at the version
it computed — *only* if that version is still current, so the store can
never be populated with results for data that no longer exists.  Each
missed spec is written to its JSON wire bytes once, by the vega-lite
writer (a column several missed specs show is formatted once for all of
them), and each action's bytes are joined from its specs' bytes.
The table holds no decoded dicts: only a session whose latest read took
dicts (:attr:`~repro.service.session.Session.reads_bytes` False, as for
an in-process session not yet read) gets its pass decoded into its view
(:meth:`~repro.service.session.Session.publish_view`).  The new spec
bytes are decoded, and the dicts of reused bytes are taken from the
previous view where it holds those very bytes.  Any other session's
view is dropped, since its readers splice the stored bytes.  The view,
the frame's own memoized recommendation set and the session's table are
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
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ..core import pool, telemetry
from ..core.actions.base import KeyedCandidates, intent_has_wildcard
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
from ..vis.spec import candidate_key
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
    its wire bytes (a slice of its action's stored bytes), so reusing it
    writes nothing.
    """

    __slots__ = ("wire",)

    def __init__(
        self,
        approx: "float | None",
        score: "float | None",
        vis: Any = None,
        wire: "memoryview | None" = None,
    ) -> None:
        super().__init__(approx=approx, score=score, vis=vis)
        self.wire = wire


class _ActionResult:
    """One action's published result in a session's table.

    Reused whole on an action-key hit.  ``candidates`` aligns with
    ``key``: each candidate's result, or None where the run left nothing
    to reuse, looked up one by one when the action key differs.
    """

    __slots__ = ("key", "vislist", "wire", "computed_at", "candidates")

    def __init__(
        self,
        key: tuple,
        vislist: "VisList",
        wire: bytes,
        computed_at: float,
        candidates: "tuple[_Candidate | None, ...]",
    ) -> None:
        self.key = key
        self.vislist = vislist
        self.wire = wire
        self.computed_at = computed_at
        self.candidates = candidates


def _config_digest() -> str:
    """Digest of this thread's effective config, minus the ablation switch."""
    settings = config.effective()
    settings.pop("incremental_precompute", None)
    text = repr(sorted(settings.items())).encode("utf-8")
    return hashlib.blake2b(text, digest_size=16).hexdigest()


def _enumerate(
    action: "Action", frame: Any, metadata: Any, digest: str
) -> "tuple[tuple, KeyedCandidates] | None":
    """The action's key, and its candidates with each one's ``vis_key``.

    The action's key is the tuple of its candidates' keys, in
    enumeration order.  None when the action is not keyed, reads an
    intent holding an attribute wildcard, raised while enumerating, or
    enumerated two candidates with one ``vis_key``: such an action
    reruns whole.
    """
    if not action.keyed or (action.reads_intent and intent_has_wildcard(frame)):
        return None
    try:
        candidates = action.candidates(frame)
    except Exception:  # rerun whole: the run reports the failure
        return None
    vis_keys = [candidate_key(cand.spec) for cand in candidates]
    if len(set(vis_keys)) != len(vis_keys):
        return None
    stamps = metadata.column_versions
    epoch = frame._intent_epoch if action.reads_intent else None
    key = []
    for vis_key, cand in zip(vis_keys, candidates):
        reads = {str(c) for c in cand.spec.fields()}
        reads.update(str(attr) for attr, _, _ in cand.spec.filters)
        columns = frozenset((c, stamps.get(c)) for c in reads)
        key.append((action.name, vis_key, columns, epoch, digest))
    return tuple(key), KeyedCandidates(candidates, vis_keys, {}, {})


def _lookup(
    table: "dict[str, _ActionResult] | None",
    enumerated: "dict[str, tuple[tuple, KeyedCandidates] | None]",
) -> "tuple[dict[str, _ActionResult], dict[str, KeyedCandidates]]":
    """Action-key hits, and the candidates every other keyed action runs.

    Such an action's prior is filled with its candidate hits (``vis_key
    -> candidate result``).  A candidate key names its action, so only
    that action's previous result can hold it.
    """
    hits: dict[str, _ActionResult] = {}
    keyed: dict[str, KeyedCandidates] = {}
    for name, entry in enumerated.items():
        if entry is None:
            continue
        key, run = entry
        prev = table.get(name) if table is not None else None
        if prev is not None and prev.key == key:
            hits[name] = prev
            continue
        if prev is not None:
            current = set(key)
            run.prior.update(
                (k[1], candidate)
                for k, candidate in zip(prev.key, prev.candidates)
                if candidate is not None and k in current
            )
        keyed[name] = run
    return hits, keyed


def _record(
    key: "tuple | None",
    vislist: "VisList",
    blob: bytes,
    slices: "list[memoryview]",
    spec_keys: "list[str]",
    run: "KeyedCandidates | None",
    computed_at: float,
) -> "_ActionResult | None":
    """The table entry of one executed action, or None if it has no key.

    A failed action discards its candidate records and is not recorded
    either.  A displayed candidate keeps its Vis and its slice of the
    action's bytes, found by the spec's key.
    """
    if key is None or run is None or (key and not run.records):
        return None
    visible = [vis for vis in vislist if vis.spec is not None]
    displayed = {spec_key: (vis, view) for vis, spec_key, view in zip(visible, spec_keys, slices)}
    candidates: list[_Candidate | None] = []
    for k in key:
        rec = run.records.get(k[1])
        if rec is None:
            candidates.append(None)
            continue
        shown = displayed.get(k[1]) if rec["displayed"] else None
        candidates.append(_Candidate(rec["approx"], rec["score"], *(shown or ())))
    return _ActionResult(key, vislist, blob, computed_at, tuple(candidates))


def _decode_action(
    count: int,
    slices: "list[memoryview]",
    reused: "list[_Candidate | None]",
    spec_keys: "list[str]",
    previous: "dict[str, Any] | None",
) -> dict[str, Any]:
    """One written action's payload dict, for a dict-reading session's view.

    ``previous`` is the previous view's dict of the action bytes the
    reused specs were sliced from, if the view holds it: a reused spec's
    dict is taken from it.  Every other spec's bytes are decoded.
    """
    carried = {spec["key"]: spec for spec in previous["specs"]} if previous else {}
    specs = [
        carried[key] if prior is not None and key in carried else json.loads(bytes(view))
        for view, prior, key in zip(slices, reused, spec_keys)
    ]
    return {"count": count, "specs": specs}


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
        #: Notified under ``_lock`` as pending work goes: a pass's future
        #: completes, a timer or deferred session is dropped without a
        #: pass, or the last write to a session settles what it was owed.
        #: :meth:`wait_idle` waits on it.
        self._settled = threading.Condition(self._lock)
        self._unsubscribe: dict[str, Any] = {}  # guarded-by: _lock
        self._timers: dict[str, threading.Timer] = {}  # guarded-by: _lock
        self._inflight: dict[str, _Inflight] = {}  # guarded-by: _lock
        #: Writes in progress per session (inside :meth:`writing`).
        self._writes: dict[str, int] = {}  # guarded-by: _lock
        #: Sessions owed a pass by their writes in progress: a write
        #: cancelled the session's pass, or its timer fired mid-write.
        self._owed: set[str] = set()  # guarded-by: _lock
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
            self._owed.discard(session.id)
            self._settled.notify_all()
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
                self._settled.notify_all()

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

    @contextmanager
    def writing(self, session: "Session") -> Iterator[None]:
        """Scope of one mutation-facing write to ``session``.

        Runs :meth:`admit`, then sets the cancel event of the session's
        live pass before the write waits on the session lock, so the pass
        stops at its next checkpoint instead of holding the write up.  A
        debounce timer that fires inside the scope submits nothing (see
        :meth:`_submit`).  The last write to leave re-arms the session if
        such a timer fired or a pass was cancelled, and the write armed no
        timer of its own (it failed, leaving the version where it was).
        """
        self.admit()
        with self._lock:
            self._writes[session.id] = self._writes.get(session.id, 0) + 1
            inflight = self._inflight.get(session.id)
            if (
                inflight is not None
                and not inflight.future.done()
                and not inflight.cancel.is_set()
            ):
                inflight.cancel.set()
                self._owed.add(session.id)
        try:
            yield
        finally:
            with self._lock:
                left = self._writes.pop(session.id) - 1
                if left:
                    self._writes[session.id] = left
                elif session.id in self._owed:
                    self._owed.discard(session.id)
                    if session.id not in self._timers and session.id in self._unsubscribe:
                        with session.overlay():
                            self.schedule(session)
                    self._settled.notify_all()

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
        """A debounce timer fired (on its own thread): submit the pass.

        A timer that is no longer the session's armed one was superseded
        or dropped while it fired, and does nothing.  While a write to the
        session is in progress the timer leaves the pass to the write (see
        :meth:`writing`): a pass submitted now would run at the version
        the write is about to replace, or take the session lock ahead of it.
        """
        with self._lock:
            if self._timers.get(session.id) is not threading.current_thread():
                return
            if session.id in self._writes:
                del self._timers[session.id]
                self._owed.add(session.id)
            else:
                self._submit_locked(session)

    def _submit_locked(self, session: "Session") -> None:  # requires-lock: _lock
        self._timers.pop(session.id, None)
        armed = self._debounce_armed.pop(session.id, None)
        if armed is not None:
            _observe_phase("debounce_wait", time.perf_counter() - armed)
        version = session.version
        inflight = self._inflight.get(session.id)
        if inflight is not None and not inflight.future.done():
            if inflight.version == version and not inflight.cancel.is_set():
                return  # dedup: same state already queued/running
            # Stale: the version moved, or a write (or a shed) cancelled it.
            # A started pass counts its own outcome when it stops.
            inflight.cancel.set()
            if inflight.future.cancel():
                self._counters["cancelled"] += 1
        cancel = threading.Event()
        future = pool.submit(
            lambda: self._run_pass(session, version, cancel),
            tag=session.id,
            background=True,
        )
        self._inflight[session.id] = _Inflight(version, future, cancel, session)
        self._counters["scheduled"] += 1
        future.add_done_callback(lambda _f: self._pass_done())

    def _pass_done(self) -> None:
        """A pass's future completed or was cancelled, freeing its slot.

        Resumes the oldest deferred session and wakes :meth:`wait_idle`.
        Runs on whatever thread completes the future, never while it
        still counts toward the backlog.
        """
        self._resume_deferred()
        with self._lock:
            self._settled.notify_all()

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
                    if cancel.is_set():
                        # Before every action's candidates are enumerated.
                        raise PassCancelled("pass cancelled after its metadata phase")
                    phase_t0 = time.perf_counter()
                    ordered = schedule_actions(
                        default_registry.applicable(frame), metadata
                    )
                    digest = _config_digest()
                    enumerated = {
                        a.name: _enumerate(a, frame, metadata, digest)
                        for a in ordered
                    }
                    keys = {
                        name: None if entry is None else entry[0]
                        for name, entry in enumerated.items()
                    }
                    if not config.incremental_precompute:
                        table = None  # look nothing up; still record
                    hits, keyed = _lookup(table, enumerated)
                    pass_span.attrs["rerun"] = len(keys) - len(hits)
                    pass_span.attrs["carried"] = len(hits)
                    recs = run_actions(
                        ordered,
                        frame,
                        metadata,
                        cancel=cancel,
                        keyed=keyed or None,
                        done={n: r.vislist for n, r in hits.items()} or None,
                    )
                    fresh = {
                        name: written
                        for name, *written in encode_pass(
                            recs,
                            [n for n in recs.keys() if n not in hits],
                            {name: run.prior for name, run in keyed.items()},
                            cancel,
                            frame,
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
            self._publish(session, version, recs, keys, hits, keyed, fresh)
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
        keyed: "dict[str, KeyedCandidates]",
        fresh: "dict[str, tuple[bytes, list[memoryview], list[Any], list[str]]]",
    ) -> None:
        """Land one completed pass: store, view, memo and table.

        ``fresh`` holds each executed action's bytes, each spec's slice of
        them, the table candidate each spec was reused from and each
        spec's key (see :func:`~repro.service.session.encode_pass`).  Only
        a session whose latest read took dicts gets a view of the pass;
        any other session's view is dropped.
        """
        now = time.time()
        decode = not session.reads_bytes
        table: dict[str, _ActionResult] = {}
        stored: dict[str, dict[str, Any]] = {}
        views: dict[str, tuple[bytes, dict[str, Any]]] = {}
        for name in recs.keys():
            hit = hits.get(name)
            if hit is not None:
                # The bytes object and computed_at an earlier pass stored.
                stored[name] = {
                    "payload": hit.wire,
                    "origin": "carried",
                    "computed_at": hit.computed_at,
                }
                if decode:
                    payload = session.decoded(name, hit.wire) or json.loads(hit.wire)
                    views[name] = (hit.wire, payload)
                table[name] = hit
                continue
            blob, slices, reused, spec_keys = fresh[name]
            record = stored[name] = {"payload": blob, "origin": "precompute", "computed_at": now}
            if any(prior is not None for prior in reused):
                record["origin"] = "mixed"
                record["vis_origins"] = {
                    key: "precompute" if prior is None else "carried"
                    for key, prior in zip(spec_keys, reused)
                }
            if decode:
                # Reused specs are slices of the previous pass's bytes of this action.
                source = next((prior.wire.obj for prior in reused if prior is not None), None)
                previous = session.decoded(name, source)
                views[name] = (
                    blob,
                    _decode_action(len(recs[name]), slices, reused, spec_keys, previous),
                )
            result = _record(
                keys.get(name), recs[name], blob, slices, spec_keys, keyed.get(name), now
            )
            if result is not None:
                table[name] = result
        self.store.put_pass(session.id, version, stored)
        session.publish_view(views if decode else None)
        if session.shares_frame_memo:
            # Memoize on the frame so in-process prints are free.
            frame = session.frame
            frame._recs_cache = recs
            frame._recs_version = version
        reused = sum(len(run.prior) for run in keyed.values())
        enumerated = sum(len(keys[name]) for name in keyed)
        with self._lock:
            if session.id in self._unsubscribe:
                self._tables[session.id] = table
            self._counters["actions_rerun"] += len(keys) - len(hits)
            self._counters["actions_carried"] += len(hits)
            self._counters["candidates_rerun"] += enumerated - reused
            self._counters["candidates_carried"] += reused + sum(
                len(hit.key) for hit in hits.values()
            )
            if hits or reused:
                self._counters["incremental_passes"] += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no pass is pending (no timer armed, no session
        deferred or owed a pass by a write) or in flight; False if
        ``timeout`` passes first.

        Woken by the engine as work leaves the backlog, not by polling.
        """
        with self._lock:
            return self._settled.wait_for(self._idle_locked, timeout)

    def _idle_locked(self) -> bool:  # requires-lock: _lock
        return not (
            self._timers
            or self._owed
            or self._deferred
            or any(not i.future.done() for i in self._inflight.values())
        )

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
            self._owed.clear()
            self._settled.notify_all()
        for unsubscribe in unsubs:
            unsubscribe()
        for timer in timers:
            timer.cancel()
        for item in inflight:
            item.cancel.set()
            item.future.cancel()
