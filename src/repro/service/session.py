"""Session registry: one analyst, one dataframe, one config overlay.

A :class:`Session` is the unit of isolation in the recommendation service.
It owns a :class:`~repro.core.frame.LuxDataFrame` (with its history and
intent), a *frozen* per-session config overlay applied around every pass
through :func:`~repro.core.config.config_overlay` — ending the era of
sessions clobbering the module-level singleton — and a version handle
``(data_version, intent_epoch)`` that keys everything derived from the
frame's current state.

Reads go store-first: :meth:`Session.recommendations` returns straight
from the :class:`~repro.service.store.ResultStore` when the background
precompute engine already ran a pass at the current version (one
lookup of the session's pass — zero executor work), and falls back to a
synchronous foreground pass that back-fills the store otherwise.  A pass
the store cannot hold (its byte budget) is answered from the bytes that
pass wrote.  The store keeps one pass per session, and its three writers
(the foreground back-fill, the engine's publish and snapshot
rehydration) each replace it while holding the session's lock, and only
at the session's current version.

Both passes produce bytes, never payload dicts (:func:`encode_pass`):
each displayed spec is written by the vega-lite writer
(:func:`~repro.vis.vegalite.spec_payload`) straight from its column
table, a column several specs of the pass show is formatted once, and
each action's bytes are joined from its specs' bytes
(:func:`~repro.service.wire.encode_action`).  Wire readers take the
stored bytes as they are (``raw=True``).  In-process readers get
dicts from the session's *view*: the engine publishes the decoded payloads
of each pass it stores, and a read at a version with no view decodes the
stored bytes once (``json.loads``) and keeps them as the view.

:class:`SessionManager` wires the three service pieces together (registry,
store, precompute engine) and is what the HTTP API holds.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
import warnings
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from ..core import telemetry
from ..core.config import PROCESS_WIDE, config, thread_overlay
from ..core.errors import LuxWarning
from ..core.frame import LuxDataFrame
from ..dataframe import DataFrame
from ..vis.spec import candidate_key
from ..vis.vegalite import SharedColumns, spec_payload
from .persist import read_results
from .provenance import envelope
from .wire import encode_action

if TYPE_CHECKING:  # pragma: no cover
    from .persist import SnapshotStore
    from .precompute import PrecomputeEngine
    from .store import ResultStore

__all__ = [
    "Session",
    "SessionManager",
    "encode_pass",
    "encode_recommendations",
    "serialize_recommendations",
]


def encode_pass(
    recs: Any,
    names: Iterable[str],
    known: "Mapping[str, Mapping[str, Any]] | None" = None,
) -> "Iterator[tuple[str, bytes, list[memoryview], list[Any]]]":
    """``(action, bytes, spec slices, reused)`` for the named actions of a pass.

    Shared by the foreground read path and the precompute engine so a
    store entry is byte-identical no matter which path produced it.
    ``known`` maps action names to vis keys to candidate results of the
    engine's previous pass: a displayed Vis that is the very object a
    candidate holds keeps that candidate's stored bytes, and ``reused``
    names the candidate.  Every other vis is written by
    :func:`spec_payload`, and ``reused`` holds None for it.  The columns
    of the specs to write are counted before the first is written
    (:class:`~repro.vis.vegalite.SharedColumns`), so a column several of
    them show is formatted once.  Each action is written and joined
    (:func:`~repro.service.wire.encode_action`) when the iteration
    reaches it.
    """
    shown = {name: [vis for vis in recs[name] if vis.spec is not None] for name in names}
    reused = {
        name: [_reused(vis, known.get(name) if known else None) for vis in visible]
        for name, visible in shown.items()
    }
    shared = SharedColumns(
        vis.spec
        for name, visible in shown.items()
        for vis, prior in zip(visible, reused[name])
        if prior is None
    )
    for name, visible in shown.items():
        # A generator, so no local holds this action's spec bytes while
        # the next action is written.
        wires = (
            spec_payload(vis.spec, vis.score, shared) if prior is None else prior.wire
            for vis, prior in zip(visible, reused[name])
        )
        yield (name, *encode_action(len(recs[name]), list(wires)), reused[name])


def _reused(vis: Any, known: "Mapping[str, Any] | None") -> Any:
    """The previous pass's candidate result that holds this very Vis, or None."""
    candidate = known.get(candidate_key(vis.spec)) if known else None
    return candidate if candidate is not None and candidate.vis is vis else None


def encode_recommendations(recs: Any) -> dict[str, bytes]:
    """RecommendationSet -> each action's JSON wire bytes."""
    return {name: blob for name, blob, _, _ in encode_pass(recs, recs.keys())}


def serialize_recommendations(recs: Any) -> dict[str, Any]:
    """RecommendationSet -> per-action payload dicts (the decoded wire bytes)."""
    return {
        name: json.loads(blob) for name, blob in encode_recommendations(recs).items()
    }


class Session:
    """One analyst's live context inside the service."""

    def __init__(
        self,
        session_id: str,
        frame: LuxDataFrame,
        overrides: Mapping[str, Any] | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        self.id = session_id
        self.frame = frame
        #: Frozen at creation; every pass for this session runs under it.
        self.overrides: dict[str, Any] = config.validate_overrides(
            overrides or {}
        )
        shared = sorted(PROCESS_WIDE.intersection(self.overrides))
        if shared:
            raise ValueError(
                f"process-wide config field(s) {shared} cannot be set per session"
            )
        self.store = store
        self.created_at = time.time()
        #: Serializes this session's passes (foreground vs background) so
        #: two passes never interleave writes to the frame's memoized
        #: metadata/recommendation state.
        self.lock = threading.RLock()
        #: Lazily-rehydrated snapshot results: ``(path, version)`` set by
        #: a snapshot restore, consumed by the first read.
        self._pending_results: "tuple[Any, tuple[int, int]] | None" = None  # guarded-by: lock
        #: ``(version, {action: payload dict})``: the decoded payloads of
        #: the last published or decoded pass, so in-process store-hit
        #: reads at that version are dict lookups.
        self._view: "tuple[tuple[int, int], dict[str, Any]] | None" = None  # guarded-by: lock

    # ------------------------------------------------------------------
    @property
    def version(self) -> tuple[int, int]:
        """The state everything derived from this session is keyed on."""
        return (
            getattr(self.frame, "_data_version", 0),
            getattr(self.frame, "_intent_epoch", 0),
        )

    def overlay(self, **extra: Any):
        """This session's config scope (overrides + pass-time settings).

        Streaming is forced off inside service passes: the service's
        always-on path *is* the background mechanism, and a pass must be
        complete when it lands in the store.

        Built on :func:`thread_overlay`, not :func:`config_overlay`:
        session passes run concurrently on worker threads and never
        mutate base config, so the global snapshot/restore half of
        ``config_overlay`` would only add a hazard (a pass exiting could
        revert a base mutation another thread made mid-pass).  The
        overrides were validated at session creation.
        """
        merged = dict(self.overrides)
        merged["streaming"] = False
        merged.update(extra)
        return thread_overlay(merged)

    @property
    def precompute(self) -> bool:
        """Whether mutations schedule background passes for this session.

        Read from the overrides first: a mutation made outside
        :meth:`overlay` (an in-process write to ``frame``) must honour a
        ``{"precompute": False}`` session as much as :meth:`mutate` does.
        """
        return bool(self.overrides.get("precompute", config.precompute))

    @property
    def shares_frame_memo(self) -> bool:
        """Whether this session's passes may read and write the frame's memo.

        Only with no overrides: the frame memoizes its recommendations
        under stock config, so an overlay-shaped pass (say ``top_k=2``)
        must neither be served the memo nor leave its result in it.
        """
        return not self.overrides

    # ------------------------------------------------------------------
    def set_intent(self, intent: Any) -> None:
        """Set (or clear with None/[]) the frame's intent, session-scoped."""
        with self.lock, self.overlay():
            if intent:
                self.frame.intent = intent
            else:
                self.frame.clear_intent()

    @property
    def intent(self) -> list[Any]:
        return self.frame.intent

    # ------------------------------------------------------------------
    def mutate(self, column: str, values: Any = None) -> None:
        """Apply one column-level mutation, session-scoped.

        ``values=None`` *touches* ``column`` (rewrites it to itself — a
        content no-op that still bumps the data version and arms the
        precompute engine; the load harness's write op).  With ``values``
        the column is assigned (or created) from the given sequence.
        Emits the same column-level delta any in-process mutation would,
        so only that column is rescanned and restamped, and the engine
        reruns only the candidates that read it.
        """
        with self.lock, self.overlay():
            frame = self.frame
            if values is None:
                if column not in frame.columns:
                    raise KeyError(f"no such column: {column!r}")
                frame[column] = frame[column]
            else:
                if len(values) != len(frame):
                    raise ValueError(
                        f"values length {len(values)} != frame rows {len(frame)}"
                    )
                frame[column] = values

    # ------------------------------------------------------------------
    def recommendations(
        self,
        action: str | None = None,
        compute: bool = True,
        raw: bool = False,
    ) -> dict[str, Any] | None:
        """Recommendations at the frame's current version, store-first.

        Returns the ``/v1/`` response dict: per-action payloads and their
        ``provenance`` (see :func:`repro.service.provenance.envelope`).
        When the store holds a complete pass at the current version the
        call performs no executor work at all; otherwise (and only when
        ``compute`` is True) a foreground pass runs under this session's
        overlay and back-fills the store.  ``action`` narrows the response
        to one action (``KeyError`` when no such action exists for this
        frame); ``compute=False`` returns None on a store miss (the probe
        the benchmarks and tests use).  ``raw`` leaves each stored payload
        as its JSON bytes, for the wire writer
        (:func:`repro.service.wire.dumps`) to splice in.
        """
        with telemetry.span("session.read", session=self.id) as read_span:
            response = self._recommendations_inner(action, compute, raw)
            if response is not None:
                read_span.attrs["origin"] = response["provenance"]["origin"]
            return response

    def _recommendations_inner(
        self, action: str | None, compute: bool, raw: bool
    ) -> dict[str, Any] | None:
        self._hydrate_results()
        version = self.version
        stored = self._read_store(version, action, raw)
        if stored is not None:
            return stored
        if not compute:
            return None
        version, payloads = self._compute_foreground(version)
        stored = self._read_store(version, action, raw)
        if stored is not None:
            return stored
        # The store could not hold the pass (budget), or the frame moved
        # before the pass took the lock: respond from the pass's bytes.
        if action is not None:
            if action not in payloads:
                raise KeyError(f"no such action: {action!r}")
            payloads = {action: payloads[action]}
        if not raw:
            payloads = {name: json.loads(blob) for name, blob in payloads.items()}
        return self._respond(version, payloads, origin="foreground")

    def _hydrate_results(self) -> None:
        """Load snapshotted pass results into the store, exactly once.

        A restored session carries ``(results_path, version)``; the first
        read at that version re-inserts the saved records (original
        origins and ``computed_at``) so warm recovery serves store hits,
        not foreground passes.  A session that mutated before its first
        read skips rehydration — the saved pass no longer matches the
        current version and a fresh pass is already scheduled.
        """
        with self.lock:
            marker = self._pending_results
            if marker is None:
                return
            self._pending_results = None
            path, version = marker
            if self.store is None or self.version != version:
                return
            try:
                self.store.put_pass(self.id, version, read_results(path))
            except Exception as exc:
                telemetry.get_logger("session").warning(
                    "rehydration_failed", session=self.id, error=str(exc)
                )
                warnings.warn(
                    f"result rehydration failed for {self.id}: {exc}", LuxWarning
                )

    def _read_store(
        self, version: tuple[int, int], action: str | None, raw: bool
    ) -> dict[str, Any] | None:
        if self.store is None:
            return None
        stored = self.store.get_pass(self.id, version)
        if stored is None:
            return None
        records, origin = stored
        if action is not None:
            # A stored pass knows its action set: reject unknown names
            # without burning a foreground recomputation per request.
            if action not in records:
                raise KeyError(f"no such action: {action!r}")
            records = {action: records[action]}
        origins = {name: r["origin"] for name, r in records.items()}
        # An incremental pass mixes recomputed ("precompute") and
        # carried-forward ("carried") actions; the overall origin reports
        # "mixed" and the per-action map tells the two apart.  A pass with
        # no actions (a frame with no recommendations) reports the pass's
        # own origin.
        distinct = set(origins.values()) or {origin}
        origin = distinct.pop() if len(distinct) == 1 else "mixed"
        if raw:
            payloads = {name: r["payload"] for name, r in records.items()}
        else:
            payloads = self._decode(version, records)
        oldest = min((r["computed_at"] for r in records.values()), default=None)
        vis_origins = {
            name: dict(r["vis_origins"])
            for name, r in records.items()
            if r.get("vis_origins")
        }
        return self._respond(
            version,
            payloads,
            origin=origin,
            computed_at=oldest,
            origins=origins,
            vis_origins=vis_origins or None,
        )

    def _decode(
        self, version: tuple[int, int], records: dict[str, dict[str, Any]]
    ) -> dict[str, Any]:
        """Stored records -> payload dicts, from the view where it matches.

        Bytes the view lacks are decoded here and join the view while
        ``version`` is still current, so the next read is a lookup.
        """
        with self.lock:
            view = self._view
        known = view[1] if view is not None and view[0] == version else {}
        missing = {
            name: json.loads(r["payload"]) for name, r in records.items() if name not in known
        }
        if missing:
            with self.lock:
                if self.version == version and self._view is view:
                    self._view = (version, {**known, **missing})
        return {name: known[name] if name in known else missing[name] for name in records}

    def publish_view(self, version: tuple[int, int], payloads: dict[str, Any]) -> None:
        """Record the decoded payloads of the pass just stored at ``version``."""
        with self.lock:
            self._view = (version, dict(payloads))

    def _respond(
        self,
        version: tuple[int, int],
        payloads: dict[str, Any],
        origin: str,
        computed_at: float | None = None,
        origins: dict[str, str] | None = None,
        vis_origins: "dict[str, dict[str, str]] | None" = None,
    ) -> dict[str, Any]:
        return {
            "session": self.id,
            "data_version": list(version),
            "actions": payloads,
            "provenance": envelope(
                version, payloads, origin, computed_at, origins, vis_origins
            ),
        }

    # ------------------------------------------------------------------
    def _compute_foreground(
        self, version: tuple[int, int]
    ) -> "tuple[tuple[int, int], dict[str, bytes]]":
        """Synchronous pass under the session overlay; back-fills the store.

        Returns the version the pass ran at and each action's bytes, both
        taken under the lock and overlay the pass ran under.  The store is
        back-filled only when that is still ``version``, the one the read
        missed.
        """
        with telemetry.span(
            "session.foreground_pass", session=self.id
        ), self.lock, self.overlay():
            # Both paths carry the repr's failproofing (a broken action
            # yields an empty tab).
            recs = (
                self.frame.recommendations
                if self.shares_frame_memo
                else self.frame._run_recommendations()
            )
            ran_at = self.version
            payloads = encode_recommendations(recs)
            if self.store is not None and ran_at == version:
                now = time.time()
                records = {
                    name: {"payload": blob, "origin": "foreground", "computed_at": now}
                    for name, blob in payloads.items()
                }
                self.store.put_pass(self.id, version, records, origin="foreground")
            return ran_at, payloads

    # ------------------------------------------------------------------
    def info(self) -> dict[str, Any]:
        return {
            "session": self.id,
            "rows": len(self.frame),
            "columns": self.frame.columns,
            "data_version": list(self.version),
            "intent": [repr(c) for c in self.frame.intent],
            "overrides": dict(self.overrides),
            "created_at": self.created_at,
            "history_length": len(self.frame.history),
        }

    def __repr__(self) -> str:
        return (
            f"<Session {self.id} rows={len(self.frame)} "
            f"version={self.version} overrides={self.overrides}>"
        )


class SessionManager:
    """The service's root object: registry + store + precompute engine."""

    def __init__(
        self,
        store: "ResultStore | None" = None,
        engine: "PrecomputeEngine | None" = None,
        snapshots: "SnapshotStore | None" = None,
    ) -> None:
        from .persist import SnapshotStore
        from .precompute import PrecomputeEngine
        from .store import ResultStore

        self.store = store if store is not None else ResultStore()
        if snapshots is None and config.service_snapshot_dir:
            snapshots = SnapshotStore(config.service_snapshot_dir)
        self.snapshots = snapshots
        self.engine = (
            engine
            if engine is not None
            else PrecomputeEngine(self.store, snapshots=self.snapshots)
        )
        self._sessions: dict[str, Session] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def create(
        self,
        data: DataFrame | LuxDataFrame,
        overrides: Mapping[str, Any] | None = None,
        intent: Any = None,
        session_id: str | None = None,
    ) -> Session:
        """Register a new session; schedules its first always-on pass.

        Plain frames are wrapped into :class:`LuxDataFrame` (copying —
        sessions own their data); LuxDataFrames are adopted as-is so an
        in-process caller keeps a live handle for mutations.
        """
        if not isinstance(data, LuxDataFrame):
            frame = LuxDataFrame({name: data[name] for name in data.columns})
        else:
            frame = data
        session = Session(
            session_id or uuid.uuid4().hex[:12],
            frame,
            overrides=overrides,
            store=self.store,
        )
        # Before registering: a bad intent must not leave a session behind.
        if intent:
            session.set_intent(intent)
        with self._lock:
            if session.id in self._sessions:
                raise ValueError(f"session id {session.id!r} already exists")
            self._sessions[session.id] = session
        # Always-on: start computing before the analyst first looks.
        self.engine.watch(session)
        if session.precompute:
            self.engine.schedule(session, immediate=True)
        return session

    def restore_sessions(
        self, shard: int | None = None, n_shards: int | None = None
    ) -> list[str]:
        """Adopt every snapshotted session (optionally one shard's slice).

        The restored frame arrives at its saved version with its saved
        intent/history; the stored pass rehydrates lazily on first read.
        No pass is scheduled here — the state on disk *is* the last
        completed pass, so scheduling one would only burn a cold pass per
        restored session at startup.  Sessions already live (or belonging
        to another shard) are skipped.
        """
        if self.snapshots is None:
            return []
        from .shard import shard_for

        restored: list[str] = []
        for session_id in self.snapshots.ids():
            if (
                shard is not None
                and n_shards
                and shard_for(session_id, n_shards) != shard
            ):
                continue
            with self._lock:
                if session_id in self._sessions:
                    continue
            session = self.snapshots.restore_session(session_id, store=self.store)
            if session is None:
                continue
            with self._lock:
                if session_id in self._sessions:  # pragma: no cover - race
                    continue
                self._sessions[session_id] = session
            self.engine.watch(session)
            restored.append(session_id)
        return restored

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"no such session: {session_id!r}")
        return session

    def close(self, session_id: str, drop_snapshot: bool = True) -> bool:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return False
        # Cancel first, so a running pass stops at its next action.  A pass
        # already past its last cancel check holds the session lock through
        # its store insert and snapshot save: dropping under that lock
        # comes after them, so nothing re-creates what is dropped here.
        self.engine.unwatch(session)
        with session.lock:
            self.store.drop_session(session_id)
            if drop_snapshot and self.snapshots is not None:
                # An explicitly closed session is gone for good; only a
                # shutdown flush keeps snapshots (drop_snapshot=False) so
                # the next process can recover them.
                self.snapshots.drop(session_id)
        return True

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def shutdown(self) -> None:
        """Flush snapshots, close every session, stop the engine's timers.

        The flush is forced (rate limit bypassed) and captures the
        *current* frame state — possibly newer than the last published
        pass, in which case the snapshot is frame-only at that version
        and the restored session's first read runs one foreground pass.
        Snapshots are kept (``drop_snapshot=False``): surviving a
        shutdown is their entire point.
        """
        for session in self.sessions():
            if self.snapshots is not None:
                self.snapshots.save(session, force=True)
            self.close(session.id, drop_snapshot=False)
        self.engine.close()

    def stats(self) -> dict[str, Any]:
        out = {
            "sessions": len(self.ids()),
            "store": self.store.stats(),
            "precompute": self.engine.stats(),
        }
        if self.snapshots is not None:
            out["snapshots"] = self.snapshots.stats()
        return out
