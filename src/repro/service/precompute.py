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
Mutation events carry a column-level :class:`~repro.dataframe.observe.
Delta`; the engine accumulates them per session between stored passes.
When a pass runs, the applicable actions are partitioned against the
accumulated delta using each action's declared input
:class:`~repro.core.actions.base.Footprint` (unioned with the footprint
recorded at the previous pass, so a column *leaving* an action's space
still reruns it): actions whose inputs intersect the delta — or that
depend on intent when intent changed — are **rerun**; everything else is
**carried forward** from the previous stored pass via
:meth:`~repro.service.store.ResultStore.carry` (provenance ``carried``,
original ``computed_at``).  Rerun actions whose footprint declares
per-candidate entries are scoped one level finer: only the candidate vis
whose declared read set the delta touches recompute; the rest carry
their previous sample/exact scores (stored as per-candidate records
under the store's reserved :func:`~repro.service.store.candidate_entry`
namespace) and their previous displayed Vis, merged back in enumeration
order so the two-pass ranking — including stable-sort ties — replays
exactly.  Steady-state background work is therefore proportional to what
changed, not to the whole action set; a carried result is by
construction bit-identical to what a cold pass would recompute, because
its inputs did not change.  Row-set changes, unknown deltas, wildcard
intents, duplicate candidate identities, and evicted previous entries
all degrade to coarser granularity — never to a wrong result.

A completed pass lands in the :class:`~repro.service.store.ResultStore`
keyed on the version it computed — *only* if that version is still
current, so the store can never be populated with results for data that
no longer exists.  Publishing is where each recomputed payload is
encoded to its JSON wire bytes, once; the session's view of the pass
(:meth:`~repro.service.session.Session.publish_view`, carried actions
merged in from the previous view) and the frame's own memoized
recommendation cache are refreshed under the same guard (the latter
merging carried VisLists from the previous memoized set on incremental
passes), making in-process reads and prints free too.

Backpressure (``config.precompute_queue_limit``)
------------------------------------------------
The *backlog* — armed debounce timers plus queued/in-flight passes,
summed across sessions — is bounded.  At the limit the engine degrades
in three graduated steps rather than queueing unboundedly:

1. **Shed stale** (:meth:`~PrecomputeEngine._shed_stale_locked`): oldest
   first, cancel in-flight passes whose version the session has already
   moved past (their results would be discarded at publish anyway) and
   timers made redundant by a live pass at the current version.  Shedding
   never loses information — the accumulated delta survives, so the next
   pass still covers the change.
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

import json
import math
import threading
import time
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from ..core import pool, telemetry
from ..core.actions.base import Footprint
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
from ..dataframe.observe import Delta
from ..vis.spec import candidate_key
from .session import serialize_recommendations
from .store import candidate_entry

if TYPE_CHECKING:  # pragma: no cover
    from ..core.actions.base import Action
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


class _SessionState:
    """Incremental bookkeeping for one watched session.

    ``last_version``/``footprints`` describe the engine's last *stored*
    pass; ``delta``/``delta_version`` accumulate every mutation observed
    since (the union of a burst, stamped with the newest version it
    covers).  Publishing a pass clears the accumulator only when the
    stored version covers it — a mutation racing the publish keeps its
    delta for the next pass (conservative, never lossy).
    """

    __slots__ = ("last_version", "footprints", "delta", "delta_version")

    def __init__(self) -> None:
        self.last_version: tuple | None = None
        self.footprints: dict[str, Footprint] = {}
        self.delta: Delta | None = None
        self.delta_version: tuple | None = None


class _PartialPlan:
    """Candidate-level carry plan for one rerun action.

    ``prior`` maps unaffected candidates' ``vis_key`` to their carried
    state (scores + displayed Vis); ``rerun`` counts the candidates
    actually recomputed.  Fresh per-candidate records land in the owning
    :class:`_Plan`'s ``records`` sink for the action.
    """

    __slots__ = ("prior", "rerun")

    def __init__(self, prior: "dict[str, CandidatePrior]", rerun: int) -> None:
        self.prior = prior
        self.rerun = rerun


class _Plan:
    """One pass's partition: what to rerun, what to carry, in what order.

    ``partial`` scopes some rerun actions down to candidate granularity
    (action name -> :class:`_PartialPlan`); ``records`` holds one output
    dict per executed action that declared candidate entries, collecting
    the per-candidate score records the next pass's prior is built from.
    """

    __slots__ = (
        "prev_version",
        "ordered_names",
        "affected",
        "carried",
        "footprints",
        "partial",
        "records",
    )

    def __init__(
        self,
        prev_version: tuple | None,
        ordered_names: list[str],
        affected: "list[Action]",
        carried: list[str],
        footprints: dict[str, Footprint],
        partial: "dict[str, _PartialPlan] | None" = None,
        records: "dict[str, dict] | None" = None,
    ) -> None:
        self.prev_version = prev_version
        self.ordered_names = ordered_names
        self.affected = affected
        self.carried = carried
        self.footprints = footprints
        self.partial = partial or {}
        self.records = records or {}


def _covers(version: tuple, other: tuple) -> bool:
    """Componentwise: has ``version`` advanced at least to ``other``?"""
    return all(v >= o for v, o in zip(version, other))


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
        self._states: dict[str, _SessionState] = {}  # guarded-by: _lock
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
            "carry_misses": 0,
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
            self._states[session.id] = _SessionState()

            def on_mutation(
                _frame: Any, _op: str, delta: Delta, s: "Session" = session
            ) -> None:
                # Record the delta unconditionally (partitioning must see
                # every change, even ones made while precompute was off);
                # only the scheduling is gated on the master switch.
                self._record_delta(s, delta)
                if config.precompute:
                    self.schedule(s)

            self._unsubscribe[session.id] = observe.register(
                session.frame, on_mutation
            )

    def unwatch(self, session: "Session") -> None:
        with self._lock:
            unsubscribe = self._unsubscribe.pop(session.id, None)
            timer = self._timers.pop(session.id, None)
            inflight = self._inflight.pop(session.id, None)
            self._states.pop(session.id, None)
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

    def _record_delta(self, session: "Session", delta: Delta) -> None:
        """Fold one mutation into the session's accumulated delta."""
        version = session.version  # post-bump: emit runs after the bump
        with self._lock:
            state = self._states.get(session.id)
            if state is None:
                return
            state.delta = delta if state.delta is None else state.delta.union(delta)
            if state.delta_version is None or _covers(
                version, state.delta_version
            ):
                state.delta_version = version

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
        current version.  Accumulated deltas survive, so shedding defers
        work without ever losing it.
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
        :meth:`admit` — the mutation's delta is already recorded, and a
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
    # Partitioning (the incremental half)
    # ------------------------------------------------------------------
    def _plan(
        self,
        session: "Session",
        version: tuple,
        frame: Any,
        metadata: Any,
        applicable: "list[Action]",
        prev_recs: "RecommendationSet | None" = None,
        prev_recs_version: "tuple | None" = None,
    ) -> _Plan:
        """Partition ``applicable`` into rerun vs carry-forward.

        The ordered name list mirrors exactly what a full pass would
        produce (``schedule_actions`` on current metadata), so the
        manifest — and therefore the response — of an incremental pass is
        indistinguishable from a cold one.  Rerun actions whose footprint
        declares per-candidate entries are scoped further: only the
        candidates the delta touches recompute, the rest carry their
        previous scores (from the store's candidate records) and displayed
        Vis (from the previous memoized set) — see :class:`_PartialPlan`.
        """
        ordered = schedule_actions(applicable, metadata)
        ordered_names = [a.name for a in ordered]
        footprints: dict[str, Footprint] = {}
        for action in ordered:
            try:
                footprints[action.name] = action.footprint(frame, metadata)
            except Exception:  # a broken declaration degrades to "rerun"
                footprints[action.name] = Footprint(None, True)

        def record_sinks(actions: "list[Action]") -> dict[str, dict]:
            # One output dict per executed action that declared candidate
            # entries — even full passes collect records, seeding the
            # first partial pass after a mutation.
            if not config.incremental_precompute:
                return {}
            return {
                a.name: {}
                for a in actions
                if footprints[a.name].candidates() is not None
            }

        with self._lock:
            state = self._states.get(session.id)
            prev_version = state.last_version if state is not None else None
            prev_footprints = dict(state.footprints) if state is not None else {}
            delta = state.delta if state is not None else None

        full = _Plan(
            None,
            ordered_names,
            list(ordered),
            [],
            footprints,
            records=record_sinks(ordered),
        )
        if not config.incremental_precompute or prev_version is None:
            return full
        if delta is None or delta.columns_changed is None or delta.rows_changed:
            # Nothing recorded for a moved version (shouldn't happen, but
            # never guess), or a change column-level reasoning can't scope.
            return full

        # Previous displayed Vis by (action, vis_key), for vis-granularity
        # carry inside partially rerun actions.  Only trusted when the
        # memoized set provably belongs to the previous stored pass under
        # stock config — otherwise partial plans fall back to score-only
        # carry (still correct, just re-executes display data).
        prev_vis: "dict[str, dict[str, Any]]" = {}
        if (
            prev_recs is not None
            and prev_recs_version == prev_version
            and not session.overrides
            and prev_recs._done.is_set()
        ):
            for name, vislist in prev_recs.items():
                by_key: dict[str, Any] = {}
                for vis in vislist:
                    try:
                        by_key[candidate_key(vis.spec)] = vis
                    except Exception:
                        continue
                prev_vis[name] = by_key

        affected: "list[Action]" = []
        carried: list[str] = []
        partial: "dict[str, _PartialPlan]" = {}
        for action in ordered:
            prev_fp = prev_footprints.get(action.name)
            if prev_fp is None:
                affected.append(action)  # not part of the previous pass
                continue
            fp = footprints[action.name].union(prev_fp)
            if (delta.intent_changed and fp.intent) or delta.touches(fp.columns):
                affected.append(action)
            elif self.store.get(session.id, prev_version, action.name) is None:
                affected.append(action)  # previous result already evicted
            else:
                carried.append(action.name)
                continue
            pp = self._plan_candidates(
                session.id,
                prev_version,
                action.name,
                footprints[action.name],
                prev_fp,
                delta,
                prev_vis.get(action.name, {}),
            )
            if pp is not None:
                partial[action.name] = pp
        if not carried and not partial:
            return full
        return _Plan(
            prev_version,
            ordered_names,
            affected,
            carried,
            footprints,
            partial=partial,
            records=record_sinks(affected),
        )

    def _plan_candidates(
        self,
        session_id: str,
        prev_version: tuple,
        name: str,
        fp: Footprint,
        prev_fp: Footprint,
        delta: Delta,
        prev_vis: "dict[str, Any]",
    ) -> "_PartialPlan | None":
        """Candidate-level partition for one rerun action, or None.

        Degrades to whole-action granularity (None) when either pass's
        footprint lacks candidate entries or an entry set contains
        duplicate identities (two candidates hashing to one ``vis_key``
        would make the carry ambiguous).  A candidate is carried only when
        both its previous and current declared column sets miss the delta,
        its intent flag is clear (or intent did not change), and at least
        one piece of prior state — a score record or a displayed Vis — is
        actually available to reuse.
        """
        entries = fp.candidates()
        prev_entries = prev_fp.candidates()
        if entries is None or prev_entries is None:
            return None
        keys = [e.vis_key for e in entries]
        if len(set(keys)) != len(keys):
            return None
        prev_by_key: dict[str, Any] = {}
        for e in prev_entries:
            if e.vis_key in prev_by_key:
                return None
            prev_by_key[e.vis_key] = e
        prior: "dict[str, CandidatePrior]" = {}
        rerun = 0
        for e in entries:
            pe = prev_by_key.get(e.vis_key)
            if pe is None:
                rerun += 1  # new to the search space this pass
                continue
            if delta.intent_changed and (e.intent or pe.intent):
                rerun += 1
                continue
            if e.columns is None or pe.columns is None:
                rerun += 1  # unknown read set: never carry
                continue
            if delta.touches(e.columns | pe.columns):
                rerun += 1
                continue
            approx = score = None
            record = self.store.get(
                session_id, prev_version, candidate_entry(name, e.vis_key)
            )
            if record is not None:
                payload = json.loads(record["payload"])
                approx = payload.get("approx")
                score = payload.get("score")
            vis = prev_vis.get(e.vis_key)
            if approx is None and score is None and vis is None:
                rerun += 1  # nothing reusable: same cost as affected
                continue
            prior[e.vis_key] = CandidatePrior(approx=approx, score=score, vis=vis)
        if not prior:
            return None
        return _PartialPlan(prior, rerun)

    # ------------------------------------------------------------------
    # The pass itself (runs on a pool worker, background band)
    # ------------------------------------------------------------------
    def _run_pass(
        self, session: "Session", version: tuple, cancel: threading.Event
    ) -> str:
        """One (possibly partial) recommendation pass at ``version``."""
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
            prev_recs = frame._recs_cache
            prev_recs_version = frame._recs_version
            try:
                with session.overlay():
                    phase_t0 = time.perf_counter()
                    metadata = frame.metadata
                    _observe_phase("metadata", time.perf_counter() - phase_t0)
                    applicable = default_registry.applicable(frame)
                    plan = self._plan(
                        session,
                        version,
                        frame,
                        metadata,
                        applicable,
                        prev_recs,
                        prev_recs_version,
                    )
                    pass_span.attrs["rerun"] = len(plan.affected)
                    pass_span.attrs["carried"] = len(plan.carried)
                    pass_span.attrs["partial"] = len(plan.partial)
                    phase_t0 = time.perf_counter()
                    recs = run_actions(
                        plan.affected,
                        frame,
                        metadata,
                        cancel=cancel,
                        priors={
                            n: pp.prior for n, pp in plan.partial.items()
                        }
                        or None,
                        records=plan.records or None,
                    )
                    payloads = serialize_recommendations(recs)
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
            self._publish(session, version, plan, recs, payloads, prev_recs,
                          prev_recs_version)
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
        plan: _Plan,
        recs: RecommendationSet,
        payloads: dict[str, Any],
        prev_recs: "RecommendationSet | None",
        prev_recs_version: tuple,
    ) -> None:
        """Land one completed pass: carry, store, memoize, reset deltas."""
        carried_ok = True
        for name in plan.carried:
            if not self.store.carry(session.id, plan.prev_version, version, name):
                # Evicted between planning and publish: the pass cannot be
                # served whole at this version (put_pass skips the
                # manifest), so reads fall back to a foreground pass.
                carried_ok = False
                self._bump("carry_misses")
        # Partially rerun actions land as origin "mixed" with a per-vis
        # provenance map ("carried" for candidates reused from the prior).
        origins: dict[str, str] = {}
        vis_origins: dict[str, dict[str, str]] = {}
        for name, pp in plan.partial.items():
            recmap = plan.records.get(name) or {}
            shown = {
                key: ("carried" if key in pp.prior else "precompute")
                for key, rec in recmap.items()
                if rec.get("displayed")
            }
            if "carried" in shown.values():
                origins[name] = "mixed"
                vis_origins[name] = shown
        self.store.put_pass(
            session.id,
            version,
            payloads,
            origin="precompute",
            manifest=plan.ordered_names,
            origins=origins or None,
            vis_origins=vis_origins or None,
        )
        session.publish_view(version, payloads, carried=(plan.prev_version, plan.carried))
        # Per-candidate score records: fresh ones for every executed
        # action, carried ones for fully carried actions (best effort —
        # these are advisory, so misses are not counted or retried).
        for name, recmap in plan.records.items():
            for key, rec in recmap.items():
                self.store.put(
                    session.id, version, candidate_entry(name, key), rec
                )
        if plan.prev_version is not None:
            for name in plan.carried:
                fp = plan.footprints.get(name)
                entries = fp.candidates() if fp is not None else None
                for e in entries or ():
                    self.store.carry(
                        session.id,
                        plan.prev_version,
                        version,
                        candidate_entry(name, e.vis_key),
                    )
        self._refresh_memoized(
            session, version, plan, recs, prev_recs, prev_recs_version
        )
        with self._lock:
            self._counters["actions_rerun"] += len(plan.affected)
            self._counters["actions_carried"] += len(plan.carried)
            for pp in plan.partial.values():
                self._counters["candidates_rerun"] += pp.rerun
                self._counters["candidates_carried"] += len(pp.prior)
            if plan.carried or plan.partial:
                self._counters["incremental_passes"] += 1
            state = self._states.get(session.id)
            if state is not None and carried_ok:
                state.last_version = version
                state.footprints = plan.footprints
                if state.delta_version is not None and _covers(
                    version, state.delta_version
                ):
                    # Everything accumulated is covered by this pass; a
                    # mutation racing the publish keeps its delta.
                    state.delta = None
                    state.delta_version = None

    def _refresh_memoized(
        self,
        session: "Session",
        version: tuple,
        plan: _Plan,
        recs: RecommendationSet,
        prev_recs: "RecommendationSet | None",
        prev_recs_version: tuple,
    ) -> None:
        """Refresh the frame's memoized set so in-process prints are free.

        Only when the session runs under stock config: overlay-shaped
        results (say top_k=5) must not masquerade as the frame's plain
        recommendations to non-service readers holding the adopted frame.
        On incremental passes the carried VisLists are merged in from the
        previous memoized set; if that is unavailable, memoization is
        simply skipped (store reads stay warm regardless).
        """
        if session.overrides:
            return
        frame = session.frame
        if not plan.carried:
            merged = recs
        else:
            if prev_recs is None or prev_recs_version != plan.prev_version:
                return
            if not all(name in prev_recs._results for name in plan.carried):
                return
            merged = RecommendationSet()
            merged._expected = len(plan.ordered_names)
            for name in plan.ordered_names:
                if name in recs._results:
                    merged._put(name, recs._results[name])
                elif name in prev_recs._results:
                    merged._put(name, prev_recs._results[name])
                else:  # pragma: no cover - ordered ⊆ affected ∪ carried
                    merged._expected -= 1
        frame._recs_cache = merged
        frame._recs_version = version
        frame._recs_fresh = True

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
            self._states.clear()
            self._deferred.clear()
            self._debounce_armed.clear()
        for unsubscribe in unsubs:
            unsubscribe()
        for timer in timers:
            timer.cancel()
        for item in inflight:
            item.cancel.set()
            item.future.cancel()
