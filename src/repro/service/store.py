"""Recommendation result store: one pass per session, the always-on read path.

The store's unit is a session's *pass*: every action computed against one
version, where ``version`` is the frame's ``(_data_version,
_intent_epoch)`` pair.  A session holds at most one pass, stored, read
and evicted whole.  :meth:`ResultStore.put_pass` replaces the session's
previous pass, so a superseded version never holds budget and a stored
pass is complete by construction.  :meth:`ResultStore.get_pass` answers
only at exactly the stored version: readers key their lookup on the
frame's *current* version, so staleness is impossible by construction,
not by invalidation (the same contract the executor's computation cache
uses).  When the background precompute engine wins the race against the
analyst's next look, a read is a dictionary lookup; when it loses (or
the pass was evicted), the caller falls back to a foreground pass and
back-fills the store.

A pass's records hold each action's payload as its JSON wire bytes, in
display order, with its provenance: ``origin``, ``computed_at`` and, for
an action whose displayed vis were partly reused (``mixed``), a per-vis
``vis_origins`` map.  An action the engine carried from its previous
pass (see :mod:`repro.service.precompute`) keeps that pass's bytes
object and ``computed_at``.  The store encodes nothing: both kinds of
pass hand it bytes joined from the vega-lite writer's per-spec bytes
(:func:`repro.service.wire.encode_action`), HTTP responses splice them
into a small envelope by reference (:func:`repro.service.wire.pieces`),
and shard RPC frames and snapshot results files carry them through
untouched.
In-process readers that want dicts get them from the session's view of
its last published pass (see :mod:`repro.service.session`).

The store is byte-budgeted (``config.service_store_budget_mb``) with
exact accounting: a pass's size is the total length of its payload
bytes, so the budget bounds the resident payload memory itself.  Over
budget, whole passes are evicted least-recently-used first.  A pass
whose size alone exceeds the budget is not stored: caching it would
evict everything else and then be evicted itself.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Mapping

from ..core.config import config

__all__ = ["ResultStore"]


class _Pass:
    __slots__ = ("version", "records", "origin", "nbytes")

    def __init__(
        self, version: tuple, records: "dict[str, dict[str, Any]]", origin: str
    ) -> None:
        self.version = version
        #: ``action -> record`` in display order.
        self.records = records
        #: The origin a read of the pass reports when it has no actions.
        self.origin = origin
        self.nbytes = sum(len(record["payload"]) for record in records.values())


class ResultStore:
    """Byte-budgeted LRU over each session's latest pass."""

    def __init__(self, budget_bytes: int | None = None) -> None:
        self._passes: "OrderedDict[str, _Pass]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._budget_override = budget_bytes
        self._nbytes = 0  # guarded-by: _lock
        self._bytes_peak = 0  # guarded-by: _lock
        #: Action payloads resident, summed over the stored passes.
        self._entries = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    def budget_bytes(self) -> int:
        """The active byte budget; 0 means unbounded."""
        if self._budget_override is not None:
            return self._budget_override
        return max(int(config.service_store_budget_mb), 0) << 20

    # ------------------------------------------------------------------
    def put_pass(
        self,
        session_id: str,
        version: tuple,
        records: Mapping[str, Mapping[str, Any]],
        origin: str = "precompute",
    ) -> bool:
        """Store a session's pass at ``version``, replacing its previous one.

        ``records`` maps each action, in display order, to its record:
        ``payload`` (the JSON bytes), ``origin``, ``computed_at`` and an
        optional ``vis_origins``.  ``origin`` is what a read of a pass
        with no actions reports.  False when the pass alone busts the
        budget: it is not stored, and the session's old pass is dropped
        all the same.

        Every caller holds the session's lock and has checked that
        ``version`` is still the session's current version, so a replace
        can never drop a newer pass.
        """
        stored = _Pass(tuple(version), dict(records), origin)
        budget = self.budget_bytes()
        with self._lock:
            self._drop_locked(session_id)
            if budget and stored.nbytes > budget:
                return False
            self._passes[session_id] = stored
            self._nbytes += stored.nbytes
            self._entries += len(stored.records)
            self._bytes_peak = max(self._bytes_peak, self._nbytes)
            while budget and self._nbytes > budget:
                # The new pass fits alone, so it is never its own victim.
                _, evicted = self._passes.popitem(last=False)
                self._nbytes -= evicted.nbytes
                self._entries -= len(evicted.records)
                self._evictions += 1
        return True

    def get_pass(
        self, session_id: str, version: tuple
    ) -> "tuple[dict[str, dict[str, Any]], str] | None":
        """``(records, origin)`` of the session's pass at exactly ``version``.

        None when the session has no pass at that version.  One call is
        one hit or one miss.  The records are the stored ones, shared
        with every reader: read them, never mutate them.
        """
        with self._lock:
            stored = self._passes.get(session_id)
            if stored is None or stored.version != tuple(version):
                self._misses += 1
                return None
            self._passes.move_to_end(session_id)
            self._hits += 1
            return stored.records, stored.origin

    # ------------------------------------------------------------------
    def _drop_locked(self, session_id: str) -> int:  # requires-lock: _lock
        stored = self._passes.pop(session_id, None)
        if stored is None:
            return 0
        self._nbytes -= stored.nbytes
        self._entries -= len(stored.records)
        return len(stored.records)

    def drop_session(self, session_id: str) -> int:
        """Eagerly free a closed session's pass; the entries it held."""
        with self._lock:
            return self._drop_locked(session_id)

    def clear(self) -> None:
        with self._lock:
            self._passes.clear()
            self._nbytes = 0
            self._entries = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": self._entries,
                "bytes": self._nbytes,
                "bytes_peak": self._bytes_peak,
                "budget_bytes": self.budget_bytes(),
                "sessions": len(self._passes),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
