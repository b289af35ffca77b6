"""Per-session snapshots: warm state that survives a process restart.

A :class:`SnapshotStore` serializes everything a worker needs to resume a
session exactly where it left off — the frame's columns (numpy arrays +
validity masks), its intent clauses, its operation history, the explicit
data-type overrides, the frozen config overrides, and the
:class:`~repro.service.store.ResultStore` payloads of the last completed
pass — into one directory per session::

    <root>/<session_id>/
        frame-<data_version>.npz             # v::<col> / m::<col> arrays
        results-<data_version>-<epoch>.jsonl # manifest + per-action records
        snapshot.json                        # the commit record, written last

Every file is version-stamped with the ``(data_version, intent_epoch)``
pair it was captured at, and every write goes through a same-directory
temp file + ``os.replace`` — so a crash mid-save leaves the previous
snapshot fully readable, never a torn one.  ``snapshot.json`` names the
exact content files it commits; anything else in the directory is a
leftover and is pruned after the commit.  An intent-only change (data
version unchanged) reuses the existing frame file instead of rewriting
the column data.

A results file is JSON lines: the first line holds the manifest and each
action's provenance (origin, ``computed_at``, per-vis origins), and one
line per action follows with that action's payload — the store's JSON
bytes, written and read back verbatim, never decoded (``json.dumps``
output contains no raw newline).  See :func:`write_results` and
:func:`read_results`.

Restores are *lazy about payloads*: :meth:`SnapshotStore.restore_session`
rebuilds the frame and session eagerly (cheap — one ``np.load``) but only
notes where the results file lives; the session rehydrates it into the
live ResultStore on its first read at the matching version
(:meth:`~repro.service.session.Session._hydrate_results`), so restoring a
thousand sessions does not deserialize a thousand payload sets up front.

Concurrency: per-session file operations are serialized by the session's
own lock (``save`` takes it; the engine already holds it when saving
after a publish — the lock is reentrant).  The store's internal lock only
guards the rate-limit map and counters.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from ..core.clause import Clause
from ..core.config import config
from ..core.errors import LuxWarning
from ..core.frame import LuxDataFrame
from ..core.history import History
from ..dataframe.column import Column
from ..dataframe.dtypes import lookup as lookup_dtype
from ..dataframe.index import Index, RangeIndex

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session
    from .store import ResultStore

__all__ = [
    "SnapshotStore",
    "clause_from_payload",
    "clause_to_payload",
    "read_results",
    "write_results",
]

#: The commit record's filename inside each session directory.
SNAPSHOT_FILE = "snapshot.json"

#: Bumped when the on-disk layout changes incompatibly; a restore of a
#: different schema is skipped (never guessed at).
SCHEMA = 1


# ----------------------------------------------------------------------
# Clause round-trip
# ----------------------------------------------------------------------
def clause_to_payload(clause: Clause) -> dict[str, Any]:
    """One intent clause as a JSON-safe dict (exact field dump)."""
    return {
        "attribute": clause.attribute,
        "value": clause.value,
        "filter_op": clause.filter_op,
        "channel": clause.channel,
        "aggregation": clause.aggregation,
        "aggregation_specified": clause.aggregation_specified,
        "bin_size": clause.bin_size,
        "data_type": clause.data_type,
        "sort": clause.sort,
        "description": clause.description,
    }


def clause_from_payload(payload: Mapping[str, Any]) -> Clause:
    """Rebuild a clause field-by-field (like ``Clause.copy``), bypassing
    ``__init__`` so ``aggregation_specified`` survives the round trip —
    the constructor would re-derive it from the (already normalized)
    aggregation value."""
    out = Clause.__new__(Clause)
    out.attribute = payload["attribute"]
    out.value = payload["value"]
    out.filter_op = payload["filter_op"]
    out.channel = payload["channel"]
    out.aggregation = payload["aggregation"]
    out.aggregation_specified = bool(payload["aggregation_specified"])
    out.bin_size = int(payload["bin_size"])
    out.data_type = payload["data_type"]
    out.sort = payload["sort"]
    out.description = payload["description"]
    return out


# ----------------------------------------------------------------------
# Frame round-trip
# ----------------------------------------------------------------------
def _frame_arrays(frame: LuxDataFrame) -> dict[str, np.ndarray]:
    """The npz key map: ``v::<col>`` values, ``m::<col>`` masks."""
    arrays: dict[str, np.ndarray] = {}
    for name in frame.columns:
        col = frame._data[name]
        arrays[f"v::{name}"] = col.values
        arrays[f"m::{name}"] = col.mask
    index = frame._index
    if index is not None and not index.is_default:
        arrays["iv::index"] = index.column.values
        arrays["im::index"] = index.column.mask
    return arrays


def _index_meta(frame: LuxDataFrame) -> dict[str, Any]:
    index = frame._index
    if index is None or index.is_default:
        return {"kind": "range", "name": getattr(index, "name", None)}
    return {"kind": "labelled", "name": index.name,
            "dtype": index.column.dtype.name}


def _rebuild_frame(meta: dict[str, Any], arrays: Mapping[str, np.ndarray]) -> LuxDataFrame:
    """A LuxDataFrame with the snapshot's exact columns and lux state.

    Construction bypasses ``__init__`` (which would re-coerce data and
    reset versions) and the intent setter (which would bump the epoch):
    state is attached directly, the way ``DataFrame._wrap`` builds
    derived frames.
    """
    data: dict[str, Column] = {}
    for colmeta in meta["columns"]:
        name = colmeta["name"]
        dtype = lookup_dtype(colmeta["dtype"])
        values = np.asarray(arrays[f"v::{name}"])
        mask = np.asarray(arrays[f"m::{name}"], dtype=bool)
        data[name] = Column(values, mask, dtype)

    index_meta = meta["index"]
    if index_meta["kind"] == "range":
        index: Index = RangeIndex(int(meta["rows"]), name=index_meta.get("name"))
    else:
        index = Index(
            Column(
                np.asarray(arrays["iv::index"]),
                np.asarray(arrays["im::index"], dtype=bool),
                lookup_dtype(index_meta["dtype"]),
            ),
            name=index_meta.get("name"),
        )

    frame = LuxDataFrame.__new__(LuxDataFrame)
    frame._setup_lux_state()
    object.__setattr__(frame, "_data", data)
    object.__setattr__(frame, "_column_order", [c["name"] for c in meta["columns"]])
    object.__setattr__(frame, "_index", index)
    frame._intent_clauses = [clause_from_payload(c) for c in meta["intent"]]
    frame._history = History.from_payload(meta["history"])
    frame._restored_type_overrides = dict(meta.get("type_overrides") or {})
    dv, epoch = meta["version"]
    frame._data_version = int(dv)
    frame._intent_epoch = int(epoch)
    return frame


# ----------------------------------------------------------------------
# Results file: one header line, then one payload line per action
# ----------------------------------------------------------------------
def write_results(
    records: Mapping[str, Mapping[str, Any]], manifest: "list[str] | None"
) -> bytes:
    """A stored pass's records as results-file bytes (payloads verbatim)."""
    header = {
        "manifest": manifest,
        "records": {
            name: {k: v for k, v in record.items() if k != "payload"}
            for name, record in records.items()
        },
    }
    lines = [json.dumps(header, separators=(",", ":")).encode("utf-8")]
    lines.extend(record["payload"] for record in records.values())
    return b"\n".join(lines)


def read_results(path: "str | Path") -> "tuple[list[str] | None, dict[str, dict]]":
    """``(manifest, records)`` from a results file; payloads stay bytes."""
    header, *payloads = Path(path).read_bytes().split(b"\n")
    meta = json.loads(header)
    records = meta["records"]
    if len(payloads) != len(records):
        raise ValueError(
            f"results file holds {len(payloads)} payloads for {len(records)} records"
        )
    for record, payload in zip(records.values(), payloads):
        record["payload"] = payload
    return meta["manifest"], records


def _atomic_write(path: Path, data: bytes) -> None:
    """Same-directory temp + ``os.replace``: readers see old or new, never torn."""
    tmp = path.with_name(f".tmp-{path.name}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class SnapshotStore:
    """Directory of per-session snapshots with atomic, versioned commits."""

    def __init__(self, root: str | Path, interval_s: float | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._interval_override = interval_s
        self._lock = threading.Lock()
        self._last_saved: dict[str, float] = {}  # guarded-by: _lock
        self._counters = {  # guarded-by: _lock
            "saved": 0,
            "skipped_interval": 0,
            "frame_rewrites": 0,
            "restored": 0,
            "restore_failed": 0,
            "dropped": 0,
            "save_failed": 0,
        }

    def interval_s(self) -> float:
        if self._interval_override is not None:
            return self._interval_override
        return max(float(config.service_snapshot_interval_s), 0.0)

    def _bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] += by

    def session_dir(self, session_id: str) -> Path:
        return self.root / session_id

    def ids(self) -> list[str]:
        """Session ids with a committed snapshot on disk."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / SNAPSHOT_FILE).is_file()
        )

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(
        self,
        session: "Session",
        results: Mapping[str, dict[str, Any]] | None = None,
        manifest: list[str] | None = None,
        force: bool = False,
    ) -> bool:
        """Persist the session's current state; True when a commit happened.

        Rate-limited by ``config.service_snapshot_interval_s`` unless
        ``force`` (shutdown flushes force).  ``results`` are the stored
        records of the pass at the session's current version (fetched
        from the live store when omitted); a session with no stored pass
        still snapshots its frame — recovery is then warm-frame /
        cold-results, which beats rebuilding from nothing.
        """
        now = time.monotonic()
        interval = self.interval_s()
        if not force and interval > 0:
            with self._lock:
                last = self._last_saved.get(session.id)
                if last is not None and now - last < interval:
                    self._counters["skipped_interval"] += 1
                    return False
        try:
            with session.lock:
                self._save_locked(session, results, manifest)
        except Exception as exc:
            self._bump("save_failed")
            warnings.warn(f"snapshot save failed for {session.id}: {exc}", LuxWarning)
            return False
        with self._lock:
            self._last_saved[session.id] = now
            self._counters["saved"] += 1
        return True

    def _save_locked(
        self,
        session: "Session",
        results: Mapping[str, dict[str, Any]] | None,
        manifest: list[str] | None,
    ) -> None:
        frame = session.frame
        version = session.version
        dv, epoch = version
        if results is None and session.store is not None:
            results = session.store.get_pass(session.id, version)
        if results is not None and manifest is None:
            manifest = list(results)

        directory = self.session_dir(session.id)
        directory.mkdir(parents=True, exist_ok=True)

        frame_file = f"frame-{dv}.npz"
        frame_path = directory / frame_file
        if not frame_path.is_file():
            # Intent-only versions reuse the frame file already committed
            # at this data version; only a data change rewrites columns.
            tmp = directory / f".tmp-{frame_file}"
            with open(tmp, "wb") as handle:
                np.savez(handle, **_frame_arrays(frame))
            os.replace(tmp, frame_path)
            self._bump("frame_rewrites")

        results_file = None
        if results is not None:
            results_file = f"results-{dv}-{epoch}.jsonl"
            _atomic_write(directory / results_file, write_results(results, manifest))

        if frame._metadata_cache is not None:
            type_overrides = dict(getattr(frame._metadata_cache, "_overrides", {}))
        else:
            type_overrides = dict(getattr(frame, "_restored_type_overrides", {}) or {})

        record = {
            "schema": SCHEMA,
            "session": session.id,
            "version": [dv, epoch],
            "saved_at": time.time(),
            "created_at": session.created_at,
            "overrides": dict(session.overrides),
            "intent": [clause_to_payload(c) for c in frame._intent_clauses],
            "history": frame._history.to_payload(),
            "type_overrides": type_overrides,
            "rows": len(frame),
            "columns": [
                {"name": name, "dtype": frame._data[name].dtype.name}
                for name in frame.columns
            ],
            "index": _index_meta(frame),
            "frame_file": frame_file,
            "results_file": results_file,
        }
        _atomic_write(
            directory / SNAPSHOT_FILE,
            json.dumps(record, separators=(",", ":")).encode("utf-8"),
        )
        self._prune(directory, keep={frame_file, results_file, SNAPSHOT_FILE})

    @staticmethod
    def _prune(directory: Path, keep: set[str | None]) -> None:
        """Unlink superseded content files after the commit record landed."""
        for entry in directory.iterdir():
            if entry.name not in keep:
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore_session(
        self, session_id: str, store: "ResultStore | None" = None
    ) -> "Session | None":
        """Rebuild one session from its committed snapshot, or None.

        Corrupt or incompatible snapshots are skipped with a warning —
        recovery of the healthy majority must never be blocked by one bad
        directory.  Result payloads are NOT loaded here: the returned
        session carries a rehydration marker and loads them from disk on
        its first read at the snapshot version.
        """
        from .session import Session

        directory = self.session_dir(session_id)
        try:
            meta = json.loads((directory / SNAPSHOT_FILE).read_text("utf-8"))
            if meta.get("schema") != SCHEMA:
                raise ValueError(f"unsupported snapshot schema {meta.get('schema')!r}")
            with np.load(directory / meta["frame_file"], allow_pickle=True) as npz:
                frame = _rebuild_frame(meta, npz)
            session = Session(
                meta["session"], frame, overrides=meta["overrides"], store=store
            )
            session.created_at = float(meta["created_at"])
            if meta.get("results_file"):
                session._pending_results = (
                    directory / meta["results_file"],
                    tuple(meta["version"]),
                )
        except Exception as exc:
            self._bump("restore_failed")
            warnings.warn(
                f"snapshot restore failed for {session_id}: {exc}", LuxWarning
            )
            return None
        self._bump("restored")
        return session

    def drop(self, session_id: str) -> bool:
        """Delete a closed session's snapshot directory."""
        directory = self.session_dir(session_id)
        if not directory.is_dir():
            return False
        for entry in directory.iterdir():
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - a racing save re-created files
            return False
        self._bump("dropped")
        return True

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {"root": str(self.root), "interval_s": self.interval_s(),
                    **self._counters}
