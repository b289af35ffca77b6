"""Cost-based action scheduling (§8.2, async).

Actions are ordered cheapest-first using the cost model, so early results
reach the user quickly; with ``config.streaming`` the remaining (laggard)
actions run on a background thread pool and stream into the result object
as they complete.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Callable

from .. import pool
from ..config import config
from ..errors import PassCancelled
from ..metadata import Metadata

if TYPE_CHECKING:  # pragma: no cover
    from ..actions.base import Action
    from ..vislist import VisList

__all__ = ["RecommendationSet", "drain_all", "schedule_actions"]

#: Live streaming result sets; ``drain_all`` blocks until they finish so
#: benchmarks can fence background work between measured conditions.
_LIVE: "weakref.WeakSet[RecommendationSet]" = weakref.WeakSet()

# Laggard actions run on the process-wide shared pool (``repro.core.pool``),
# the same pool ``execute_many`` fans out on — one global bound on
# background parallelism instead of one per subsystem.  A submitted action
# stays in the pool's queue until a pool thread runs it, resizes included,
# so a RecommendationSet can never be stranded short of its expected put
# count.


def drain_all(timeout: float | None = 120.0) -> None:
    """Block until every in-flight streaming recommendation completes."""
    for result in list(_LIVE):
        result.wait(timeout)


class RecommendationSet:
    """Ordered action name -> VisList mapping that may fill in over time.

    Synchronous runs are complete on construction; streaming runs expose
    ``ready`` (names computed so far), ``wait()`` (block until done), and
    ``time_to_first`` measurements are possible by polling ``ready``.
    """

    def __init__(self) -> None:
        self._results: dict[str, "VisList"] = {}  # guarded-by: _lock
        self._order: list[str] = []  # guarded-by: _lock
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._expected = 0  # guarded-by: _lock
        self._received = 0  # guarded-by: _lock

    def _put(self, name: str, vislist: "VisList") -> None:
        # Completion counts *puts*, not dict entries: two actions sharing a
        # name dedupe in ``_results``, and a size check would leave ``_done``
        # unset forever, hanging every ``wait()``-backed accessor.
        with self._lock:
            self._results[name] = vislist
            if name not in self._order:
                self._order.append(name)
            self._received += 1
            if self._received >= self._expected:
                self._done.set()

    # Mapping-style access -------------------------------------------------
    # ``wait()`` orders these reads after the last expected ``_put``, but a
    # straggler put (a superseded streaming action completing late) can
    # still be writing — reads take the lock, not just the event.
    def __getitem__(self, name: str) -> "VisList":
        self.wait()
        with self._lock:
            return self._results[name]

    def __contains__(self, name: str) -> bool:
        self.wait()
        with self._lock:
            return name in self._results

    def __iter__(self):
        self.wait()
        with self._lock:
            return iter(list(self._order))

    def __len__(self) -> int:
        self.wait()
        with self._lock:
            return len(self._results)

    def keys(self) -> list[str]:
        self.wait()
        with self._lock:
            return list(self._order)

    def items(self):
        self.wait()
        with self._lock:
            return [(k, self._results[k]) for k in self._order]

    @property
    def ready(self) -> list[str]:
        """Actions whose results are available right now (non-blocking)."""
        with self._lock:
            return list(self._order)

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def __repr__(self) -> str:
        state = "complete" if self._done.is_set() else "streaming"
        return f"<RecommendationSet {self.ready} [{state}]>"


def schedule_actions(
    actions: list["Action"],
    metadata: Metadata,
    cost_of: Callable[["Action"], float] | None = None,
) -> list["Action"]:
    """Order actions cheapest-first when cost-based scheduling is enabled."""
    if not config.cost_based_scheduling:
        return list(actions)
    def cost(action: "Action") -> float:
        if cost_of is not None:
            return cost_of(action)
        return action.estimated_cost(metadata)

    return sorted(actions, key=cost)


def run_actions(
    actions: list["Action"],
    ldf,
    metadata: Metadata,
    cancel: "threading.Event | None" = None,
    priors: "dict[str, dict] | None" = None,
    records: "dict[str, dict] | None" = None,
    done: "dict[str, VisList] | None" = None,
) -> RecommendationSet:
    """Execute actions in scheduled order, synchronously or streaming.

    ``cancel`` makes the synchronous path cooperatively cancellable: the
    event is polled between actions and :class:`~repro.core.errors.
    PassCancelled` is raised the moment it is set, so a background pass
    whose data version moved on stops after its current action instead of
    finishing a whole stale pass.  Streaming runs ignore it (their whole
    point is returning control immediately; staleness is handled by the
    version checks of whoever consumes the results).

    ``priors`` maps action name to ``vis_key -> CandidatePrior`` state
    reused from a previous pass and ``records`` maps action name to an
    output dict of per-candidate
    score records — actions present in either run through
    :meth:`~repro.core.actions.base.Action.generate_cached` (bit-identical
    to ``generate``); absent actions run plainly.  Each per-action record
    dict is written by exactly one worker, so the streaming path needs no
    extra locking.  ``done`` maps action name to a VisList the caller
    already holds for this exact state (the precompute engine's reused
    results); those actions are published as they are, not generated.
    """
    ordered = schedule_actions(actions, metadata)
    result = RecommendationSet()
    result._expected = len(ordered)
    if not ordered:
        result._done.set()
        return result

    def generate(action: "Action") -> "VisList":
        if done is not None and action.name in done:
            return done[action.name]
        return _generate_safely(
            action,
            ldf,
            priors.get(action.name) if priors is not None else None,
            records.get(action.name) if records is not None else None,
        )

    if not config.streaming:
        for action in ordered:
            if cancel is not None and cancel.is_set():
                raise PassCancelled(
                    f"recommendation pass cancelled before {action.name!r}"
                )
            result._put(action.name, generate(action))
        return result

    # Streaming: run the cheapest action inline so something is ready when
    # control returns, then stream the rest from a background pool.
    _LIVE.add(result)
    first, rest = ordered[0], ordered[1:]
    result._put(first.name, generate(first))
    if not rest:
        return result
    for action in rest:
        pool.submit(lambda a=action: result._put(a.name, generate(a)))
    return result


def _generate_safely(
    action: "Action",
    ldf,
    prior: "dict | None" = None,
    records: "dict | None" = None,
) -> "VisList":
    """Run one action, containing failures (§10.3 failproofing).

    A broken action (most often a user UDF) yields an empty tab plus a
    warning instead of taking down the whole dashboard.  On failure any
    partially collected candidate records are discarded — they would
    otherwise seed the next pass's prior with state from an action whose
    published result is the empty tab.
    """
    try:
        if prior is not None or records is not None:
            return action.generate_cached(ldf, prior or {}, records)
        return action.generate(ldf)
    except Exception as exc:
        import warnings

        from ..errors import LuxWarning
        from ..vislist import VisList

        if records is not None:
            records.clear()
        warnings.warn(
            f"action {action.name!r} failed ({exc}); showing an empty tab.",
            LuxWarning,
        )
        return VisList(visualizations=[])
