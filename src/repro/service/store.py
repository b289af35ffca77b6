"""Versioned recommendation result store: the always-on read path.

Holds each action's payload as its JSON wire bytes, keyed on
``(session, version, action)`` where ``version`` is the frame's
``(_data_version, _intent_epoch)`` pair.  The store encodes nothing: both
kinds of pass hand :meth:`ResultStore.put` bytes already joined from the
vega-lite writer's per-spec bytes
(:func:`repro.service.wire.encode_action`), and from then on the entry
*is* the bytes: HTTP responses splice them into a small envelope
(:func:`repro.service.wire.dumps`), shard RPC frames and snapshot
results files carry them through untouched, and :meth:`ResultStore.get`
hands them out as ``bytes``.
In-process readers that want dicts get them from the session's view of
its last published pass (see :mod:`repro.service.session`), not from the
store.

When the background precompute engine wins the race against the
analyst's next look, a read is a dictionary lookup; when it loses (or an
entry was evicted), the caller falls back to a foreground pass and
back-fills the store.

Staleness is impossible by construction, not by invalidation: readers key
their lookup on the frame's *current* version, so entries recorded at any
older version are simply unreachable (the same contract the executor's
computation cache uses).  Old entries age out of the byte-budgeted LRU
instead of being chased by invalidation hooks; closing a session drops its
entries eagerly.

The store is byte-budgeted (``config.service_store_budget_mb``) with exact
accounting: an entry's size is ``len()`` of its bytes, so the budget
bounds the resident payload memory itself.  Entries whose size alone
exceeds the whole budget are rejected rather than stored: caching one
would evict everything else and then be evicted itself.

A *pass* (all actions computed against one version) is stored atomically:
per-action entries plus a manifest (the JSON list of action names), so a
whole-dashboard read can distinguish "pass complete" from "some actions
evicted" and recompute only in the latter case.  Evicting a pass member
also purges the pass's manifest (a manifest naming missing entries would
otherwise dangle forever), and a manifest is only written when every
member it names is resident.

Each entry also records its provenance.  Next to ``precompute`` and
``foreground``, the engine's reuse (see :mod:`repro.service.precompute`)
stores an action it did not rerun with ``origin == "carried"`` and the
original ``computed_at`` — its bytes object is the one stored before, not
a copy — and an action whose displayed vis were partly reused with
``origin == "mixed"`` plus a per-vis ``vis_origins`` map.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Mapping, Sequence

from ..core.config import config
from .wire import encode

__all__ = ["ResultStore"]

#: Reserved pseudo-action naming the per-(session, version) manifest.
MANIFEST = "_manifest"


class _Entry:
    __slots__ = ("payload", "origin", "computed_at", "vis_origins")

    def __init__(
        self,
        payload: bytes,
        origin: str,
        computed_at: float | None = None,
        vis_origins: "dict[str, str] | None" = None,
    ) -> None:
        #: The JSON wire bytes; ``len(payload)`` is the entry's size.
        self.payload = payload
        self.origin = origin
        self.computed_at = time.time() if computed_at is None else computed_at
        #: Per-vis provenance for mixed-origin entries (actions whose
        #: displayed vis were partly reused): ``vis_key -> origin``.  None
        #: means every vis shares the entry's ``origin``.
        self.vis_origins = vis_origins


class _Manifest(_Entry):
    """A pass manifest: sized as its JSON bytes, read as the names."""

    __slots__ = ("names",)

    def __init__(self, names: "list[str]", origin: str) -> None:
        super().__init__(encode(names), origin)
        self.names = tuple(names)


class ResultStore:
    """Byte-budgeted LRU over recommendation payloads' JSON bytes."""

    def __init__(self, budget_bytes: int | None = None) -> None:
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.RLock()
        self._budget_override = budget_bytes
        self._nbytes = 0  # guarded-by: _lock
        self._bytes_peak = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    def budget_bytes(self) -> int:
        """The active byte budget; 0 means unbounded."""
        if self._budget_override is not None:
            return self._budget_override
        return max(int(config.service_store_budget_mb), 0) << 20

    # ------------------------------------------------------------------
    @staticmethod
    def _key(session_id: str, version: tuple, action: str) -> tuple:
        return (session_id, tuple(version), action)

    def put(
        self,
        session_id: str,
        version: tuple,
        action: str,
        payload: bytes,
        origin: str = "precompute",
        computed_at: float | None = None,
        vis_origins: "dict[str, str] | None" = None,
    ) -> bool:
        """Insert one action's payload JSON bytes.

        False when the bytes alone bust the budget.
        """
        entry = _Entry(payload, origin, computed_at=computed_at, vis_origins=vis_origins)
        return self._insert(self._key(session_id, version, action), entry)

    def _insert(self, key: tuple, entry: _Entry) -> bool:
        """Insert an entry and enforce the byte budget."""
        budget = self.budget_bytes()
        if budget and len(entry.payload) > budget:
            return False
        with self._lock:
            self._insert_locked(key, entry, budget)
        return True

    def _insert_locked(  # requires-lock: _lock
        self, key: tuple, entry: _Entry, budget: int
    ) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= len(old.payload)
        self._entries[key] = entry
        self._nbytes += len(entry.payload)
        self._bytes_peak = max(self._bytes_peak, self._nbytes)
        if budget:
            while self._nbytes > budget and len(self._entries) > 1:
                self._evict_lru()

    def _evict_lru(self) -> None:  # requires-lock: _lock
        """Drop the LRU entry — and, when it is an action payload, the
        manifest that lists it.

        Without the purge, evicting a pass member mid-insertion (or later
        under byte pressure) left a dangling manifest row: a pass that can
        never be served whole again, whose manifest sat in the LRU
        consuming bytes and answering action-existence probes for payloads
        that no longer exist.  The caller holds ``self._lock``.
        """
        key, evicted = self._entries.popitem(last=False)
        self._nbytes -= len(evicted.payload)
        self._evictions += 1
        if key[2] != MANIFEST:
            manifest = self._entries.pop((key[0], key[1], MANIFEST), None)
            if manifest is not None:
                self._nbytes -= len(manifest.payload)

    def put_pass(
        self,
        session_id: str,
        version: tuple,
        payloads: Mapping[str, bytes],
        origin: str = "precompute",
        manifest: "Sequence[str] | None" = None,
        origins: "Mapping[str, str] | None" = None,
        vis_origins: "Mapping[str, dict[str, str]] | None" = None,
        computed_at: float | None = None,
    ) -> None:
        """Store a whole pass: one entry per action plus the manifest.

        ``manifest`` overrides the listed action names — the engine
        passes the *full* ordered action set when some entries were
        carried (already put at this version) rather than inserted here.
        ``origins`` overrides ``origin`` per action and ``vis_origins``
        attaches per-vis provenance — both used for actions whose
        displayed vis were partly reused, which land with
        ``origin == "mixed"`` plus a ``vis_key -> origin`` map.  The
        manifest is only written if every listed action's entry is still
        resident: byte pressure during insertion may already have evicted
        early members, and a manifest naming missing entries would be
        dangling on arrival.  The residency check and the manifest insert
        happen under one lock acquisition — a concurrent writer evicting a
        member between the two would otherwise re-create exactly the
        dangling row this guards against.
        """
        for action, payload in payloads.items():
            self.put(
                session_id,
                version,
                action,
                payload,
                origin=origins.get(action, origin) if origins else origin,
                computed_at=computed_at,
                vis_origins=vis_origins.get(action) if vis_origins else None,
            )
        names = list(manifest) if manifest is not None else list(payloads.keys())
        entry = _Manifest(names, origin)
        budget = self.budget_bytes()
        if budget and len(entry.payload) > budget:
            return
        key = self._key(session_id, version, MANIFEST)
        with self._lock:
            if any(
                self._key(session_id, version, name) not in self._entries
                for name in names
            ):
                return
            self._insert_locked(key, entry, budget)

    def restore_pass(
        self,
        session_id: str,
        version: tuple,
        records: Mapping[str, Mapping[str, Any]],
        manifest: "Sequence[str] | None" = None,
    ) -> bool:
        """Rehydrate a snapshotted pass, preserving each record's provenance.

        The service's persistence layer saves the store's own records
        (payload bytes + origin + ``computed_at``) next to the frame
        snapshot; on the first read after a restart this re-inserts them
        verbatim — the bytes are not decoded, origins stay
        ``precompute``/``carried``/``mixed``, ``computed_at`` stays the
        original pass time (so ``provenance.computed_at`` reports the
        true staleness across the restart, not the restore time).  Returns True when the
        manifest landed, i.e. the pass is servable whole.
        """
        for action, record in records.items():
            entry = _Entry(
                record["payload"],
                record.get("origin", "precompute"),
                computed_at=record.get("computed_at"),
                vis_origins=record.get("vis_origins"),
            )
            self._insert(self._key(session_id, version, action), entry)
        names = list(manifest) if manifest is not None else list(records)
        self.put_pass(session_id, version, {}, manifest=names)
        with self._lock:
            return self._key(session_id, version, MANIFEST) in self._entries

    def _lookup(self, key: tuple) -> _Entry | None:  # requires-lock: _lock
        """The entry at ``key`` (touched for LRU), counting the hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry

    def get(
        self, session_id: str, version: tuple, action: str
    ) -> dict[str, Any] | None:
        """One action's stored record at exactly ``version``, or None.

        The record wraps the payload's JSON bytes with its origin and
        ``computed_at``, from which the API builds ``provenance``.
        """
        with self._lock:
            entry = self._lookup(self._key(session_id, version, action))
            if entry is None:
                return None
            record = {
                "payload": entry.payload,
                "origin": entry.origin,
                "computed_at": entry.computed_at,
            }
            if entry.vis_origins is not None:
                record["vis_origins"] = dict(entry.vis_origins)
            return record

    def manifest(self, session_id: str, version: tuple) -> list[str] | None:
        """The action names of a completed pass at ``version``, or None."""
        with self._lock:
            entry = self._lookup(self._key(session_id, version, MANIFEST))
            return None if entry is None else list(entry.names)

    def get_pass(
        self, session_id: str, version: tuple
    ) -> dict[str, dict[str, Any]] | None:
        """All actions of a completed pass at ``version``; None on any gap."""
        names = self.manifest(session_id, version)
        if names is None:
            return None
        out: dict[str, dict[str, Any]] = {}
        for action in names:
            record = self.get(session_id, version, action)
            if record is None:  # evicted under byte pressure
                return None
            out[action] = record
        return out

    # ------------------------------------------------------------------
    def drop_session(self, session_id: str) -> int:
        """Eagerly free every entry of a closed session."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == session_id]
            for key in doomed:
                self._nbytes -= len(self._entries.pop(key).payload)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._nbytes,
                "bytes_peak": self._bytes_peak,
                "budget_bytes": self.budget_bytes(),
                "sessions": len({k[0] for k in self._entries}),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
