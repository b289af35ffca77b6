"""Mutation observers: column-level change events for a frame's consumers.

The substrate keeps cache coherence *pull*-based: every in-place mutation
bumps ``DataFrame._data_version`` and consumers compare versions on read.
The always-on service needs a *push* signal too — a background
precomputation pass must start when the analyst edits the frame, not when
they next look — so :meth:`DataFrame._notify_mutation` (and
``LuxDataFrame``'s richer expiry path) additionally emits through this
registry.

Events carry a structured :class:`Delta`, not just an opaque version bump:
which columns changed, whether the row set or the schema changed, and
whether the change was *intent-only* (recommendation state) versus data.
Consumers use the delta to do work proportional to what changed — the
executor's computation cache keeps entries for untouched columns across a
bump, and ``LuxDataFrame`` rescans metadata only for the named columns
(whose per-column stamps then key the precompute engine's reuse).

The registry holds frames weakly (by id + weakref, never by hash: frames
compare elementwise) and drops a frame's callback list the moment the
frame is collected.  Callbacks run synchronously on the mutating thread as
``callback(frame, op, delta)`` and must be cheap and non-raising; the
service's engine only arms a debounce timer here.
Exceptions are contained so a broken observer can never turn a dataframe
mutation into a crash.
"""

from __future__ import annotations

import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .frame import DataFrame

__all__ = ["Delta", "register", "unregister", "emit", "observer_count"]


@dataclass(frozen=True)
class Delta:
    """What one mutation (or one coalesced burst) actually touched.

    ``columns_changed`` is the set of column names whose *values* are no
    longer what a pre-mutation reader saw — including columns added,
    dropped, or renamed (both old and new names).  ``None`` means unknown:
    consumers must assume everything changed.  ``rows_changed`` marks any
    change to the row set (length or order), which invalidates even
    untouched columns' row-aligned derivations.  ``schema_changed`` marks
    column add/drop/rename and semantic-type overrides.  ``intent_changed``
    marks recommendation-state changes (intent edits, type overrides); an
    *intent-only* delta leaves the data completely untouched.
    """

    columns_changed: "frozenset[str] | None" = None
    rows_changed: bool = False
    schema_changed: bool = False
    intent_changed: bool = False

    @property
    def intent_only(self) -> bool:
        """True when no data changed at all (pure recommendation-state)."""
        return (
            self.intent_changed
            and self.columns_changed is not None
            and not self.columns_changed
            and not self.rows_changed
            and not self.schema_changed
        )

    @property
    def full(self) -> bool:
        """True when column-level reasoning is impossible (assume all)."""
        return self.columns_changed is None or self.rows_changed

    def union(self, other: "Delta") -> "Delta":
        """Coalesce two deltas (a debounced burst of mutations)."""
        if self.columns_changed is None or other.columns_changed is None:
            columns = None
        else:
            columns = self.columns_changed | other.columns_changed
        return Delta(
            columns_changed=columns,
            rows_changed=self.rows_changed or other.rows_changed,
            schema_changed=self.schema_changed or other.schema_changed,
            intent_changed=self.intent_changed or other.intent_changed,
        )

    @staticmethod
    def unknown() -> "Delta":
        """The conservative delta: everything may have changed."""
        return Delta(
            columns_changed=None,
            rows_changed=True,
            schema_changed=True,
            intent_changed=True,
        )

    @staticmethod
    def data(
        columns: Iterable[str],
        rows_changed: bool = False,
        schema_changed: bool = False,
    ) -> "Delta":
        return Delta(
            columns_changed=frozenset(str(c) for c in columns),
            rows_changed=rows_changed,
            schema_changed=schema_changed,
        )

    @staticmethod
    def intent() -> "Delta":
        """An intent-only change: data untouched, recommendations stale."""
        return Delta(columns_changed=frozenset(), intent_changed=True)


#: frame id -> (weakref to the frame, ordered callback list).
_OBSERVERS: dict[int, tuple["weakref.ref", list[Callable[..., None]]]] = {}  # guarded-by: _LOCK
_LOCK = threading.Lock()


def register(
    frame: "DataFrame", callback: Callable[[Any, str, Delta], None]
) -> Callable[[], None]:
    """Call ``callback(frame, op, delta)`` after every mutation of ``frame``.

    Returns an unsubscribe function (idempotent).  Registration keeps no
    strong reference to the frame; when the frame dies the entry
    disappears with it.
    """
    # Identity key is weakref-validated on read and dropped on collection,
    # so a recycled id never aliases.  check: ignore[unstable-key]
    key = id(frame)
    with _LOCK:
        entry = _OBSERVERS.get(key)
        if entry is None or entry[0]() is not frame:
            ref = weakref.ref(frame, lambda _, k=key: _drop(k))
            callbacks: list[Callable[..., None]] = []
            _OBSERVERS[key] = (ref, callbacks)
        else:
            callbacks = entry[1]
        callbacks.append(callback)

    def unsubscribe() -> None:
        unregister(frame, callback)

    return unsubscribe


def unregister(frame: "DataFrame", callback: Callable[..., None]) -> None:
    # Weakref-validated identity key (see register).  check: ignore[unstable-key]
    key = id(frame)
    with _LOCK:
        entry = _OBSERVERS.get(key)
        if entry is None:
            return
        callbacks = entry[1]
        if callback in callbacks:
            callbacks.remove(callback)
        if not callbacks:
            _OBSERVERS.pop(key, None)


def _drop(key: int) -> None:
    with _LOCK:
        _OBSERVERS.pop(key, None)


def observer_count(frame: "DataFrame") -> int:
    with _LOCK:
        # Weakref-validated identity key (see register).  check: ignore[unstable-key]
        entry = _OBSERVERS.get(id(frame))
        return len(entry[1]) if entry is not None and entry[0]() is frame else 0


def emit(frame: "DataFrame", op: str, delta: Delta | None = None) -> None:
    """Notify ``frame``'s observers; cheap no-op when none are registered.

    ``delta`` defaults to :meth:`Delta.unknown` so emitters that cannot
    describe their change stay safe (consumers assume everything moved).
    """
    # Deliberately unlocked fast-path probe: the common case (no observers)
    # must not serialize every mutation on _LOCK; the worst case is a stale
    # answer, re-checked under the lock below before anything is used.
    # check: ignore[guarded-by, unstable-key]
    entry = _OBSERVERS.get(id(frame))
    if entry is None:
        return
    with _LOCK:
        # Weakref-validated identity key (see register).  check: ignore[unstable-key]
        entry = _OBSERVERS.get(id(frame))
        if entry is None or entry[0]() is not frame:
            return
        callbacks = list(entry[1])
    if delta is None:
        delta = Delta.unknown()
    for callback in callbacks:
        try:
            callback(frame, op, delta)
        except Exception as exc:  # observers must never break mutations
            warnings.warn(f"mutation observer failed: {exc}", RuntimeWarning)
