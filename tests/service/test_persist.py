"""Session persistence: snapshot save/restore round trips.

The contract under test (``repro.service.persist``): a restored session
is *bit-identical* to the one that was saved — every column's values,
mask, and dtype; the intent clauses; the history; the version pair — and
its first read serves the snapshotted pass (origin ``precompute`` /
``carried`` / ``mixed``, never ``foreground``) without recomputing.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.config import config_overlay
from repro.data.synthetic import SCENARIOS, make_scenario
from repro.service import SessionManager, SnapshotStore
from repro.service.persist import SNAPSHOT_FILE, write_results

#: One real (queryable) column per scenario, used as the intent anchor.
ANCHOR = {
    "wide": "q_int_0",
    "highcard": "amount",
    "skewed": "heavy_tail",
    "datetime": "reading",
    "nullheavy": "dense_anchor",
}


def build_manager(tmp_path, interval_s=0.0):
    snaps = SnapshotStore(str(tmp_path), interval_s=interval_s)
    return SessionManager(snapshots=snaps), snaps


def strip_provenance(response):
    return json.dumps(
        {k: v for k, v in response.items() if k != "provenance"},
        sort_keys=True,
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_round_trip_bit_identical(tmp_path, scenario):
    """Save/load preserves frame, intent, history, version — exactly."""
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        frame = make_scenario(scenario, n_rows=150)
        anchor = ANCHOR[scenario]
        session = manager.create(
            frame, overrides={"top_k": 3}, intent=[anchor]
        )
        session.mutate(anchor)
        assert manager.engine.wait_idle(30)
        reference = session.recommendations()
        assert reference["provenance"]["origin"] != "foreground"
        sid, version = session.id, session.version
        saved_columns = {
            name: session.frame._data[name].copy()
            for name in session.frame.columns
        }
        saved_history = [(e.op, e.time) for e in session.frame.history]
        manager.shutdown()

        restored_manager, _ = build_manager(tmp_path)
        assert restored_manager.restore_sessions() == [sid]
        twin = restored_manager.get(sid)
        assert twin.version == version
        assert twin.overrides == {"top_k": 3}
        assert twin.frame.columns == list(saved_columns)
        for name, column in saved_columns.items():
            assert twin.frame._data[name].equals(column), name
            assert twin.frame._data[name].dtype is column.dtype, name
        assert [(e.op, e.time) for e in twin.frame.history] == saved_history
        assert [c.attribute for c in twin.frame.intent] == [anchor]

        # First read serves the snapshotted pass, not a recomputation...
        response = twin.recommendations()
        assert response["provenance"]["origin"] != "foreground"
        # ...and the payload is exactly what the original produced.
        assert strip_provenance(response) == strip_provenance(reference)
        restored_manager.shutdown()


def test_restored_session_stays_live(tmp_path):
    """A restored session mutates, recomputes, and re-snapshots normally."""
    with config_overlay(precompute_debounce_s=0.0):
        manager, _ = build_manager(tmp_path)
        session = manager.create(
            make_scenario("skewed", n_rows=120), overrides={"top_k": 3}
        )
        session.mutate("heavy_tail")
        assert manager.engine.wait_idle(30)
        sid, version = session.id, session.version
        manager.shutdown()

        restored_manager, _ = build_manager(tmp_path)
        restored_manager.restore_sessions()
        twin = restored_manager.get(sid)
        twin.mutate("heavy_tail")
        assert twin.version[0] == version[0] + 1
        assert restored_manager.engine.wait_idle(30)
        response = twin.recommendations()
        assert response["actions"]
        restored_manager.shutdown()


def test_interval_rate_limit(tmp_path):
    """Back-to-back saves within the interval are skipped (not forced)."""
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path, interval_s=3600.0)
        session = manager.create(make_scenario("wide", n_rows=100))
        assert snaps.save(session) is True
        assert snaps.save(session) is False  # within the hour
        assert snaps.stats()["skipped_interval"] == 1
        assert snaps.save(session, force=True) is True  # shutdown path
        manager.engine.close()


def test_close_drops_snapshot_but_shutdown_keeps_it(tmp_path):
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        keep = manager.create(make_scenario("wide", n_rows=100))
        drop = manager.create(make_scenario("wide", n_rows=100))
        for session in (keep, drop):
            snaps.save(session, force=True)
        manager.close(drop.id)  # explicit close: the session is gone
        assert snaps.ids() == [keep.id]
        manager.shutdown()  # shutdown: sessions must survive restarts
        assert snaps.ids() == [keep.id]


def test_close_waits_for_a_publishing_pass(tmp_path):
    """Regression: close() raced a pass that was publishing.

    The pass holds the session lock from its last cancel check through
    the store insert and the snapshot save.  A close that did not take
    that lock returned mid-publish; the pass then re-inserted the closed
    session's entries and re-created its snapshot directory, so the next
    restore_sessions() brought a deleted session back.
    """
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        session = manager.create(make_scenario("wide", n_rows=100))
        assert manager.engine.wait_idle(30)
        entered, release = threading.Event(), threading.Event()
        publish = session.publish_view

        def blocking_publish(*args, **kwargs):
            entered.set()
            release.wait(30)
            return publish(*args, **kwargs)

        session.publish_view = blocking_publish
        closer = threading.Thread(target=manager.close, args=(session.id,))
        try:
            session.mutate("q_int_0")
            assert entered.wait(30)
            closer.start()
            closer.join(0.2)
            blocked = closer.is_alive()
        finally:
            release.set()
        closer.join(30)
        assert not closer.is_alive()
        with session.lock:  # the pass has left its publishing section
            pass
        manager.shutdown()
        assert manager.store.stats()["sessions"] == 0
        assert snaps.ids() == []
        assert blocked  # close waited behind the publishing pass


def test_corrupt_snapshot_is_skipped_not_fatal(tmp_path):
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        session = manager.create(make_scenario("wide", n_rows=100))
        snaps.save(session, force=True)
        sid = session.id
        manager.shutdown()

        record = os.path.join(str(tmp_path), sid, SNAPSHOT_FILE)
        with open(record, "w", encoding="utf-8") as fh:
            fh.write("{ not json")
        restored_manager, restored_snaps = build_manager(tmp_path)
        with pytest.warns(Warning):
            assert restored_manager.restore_sessions() == []
        assert restored_snaps.stats()["restore_failed"] == 1
        restored_manager.shutdown()


def test_snapshot_overriding_a_process_wide_field_is_skipped(tmp_path):
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        session = manager.create(make_scenario("wide", n_rows=100))
        snaps.save(session, force=True)
        sid = session.id
        manager.shutdown()

        record = os.path.join(str(tmp_path), sid, SNAPSHOT_FILE)
        with open(record, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["overrides"] = {"service_store_budget_mb": 1}
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        restored_manager, restored_snaps = build_manager(tmp_path)
        with pytest.warns(Warning, match="process-wide"):
            assert restored_manager.restore_sessions() == []
        assert restored_snaps.stats()["restore_failed"] == 1
        restored_manager.shutdown()


def test_stray_files_are_not_sessions(tmp_path):
    (tmp_path / "notes.txt").write_text("scratch")
    (tmp_path / "empty-dir").mkdir()
    snaps = SnapshotStore(str(tmp_path))
    assert snaps.ids() == []


def test_restore_filters_by_shard(tmp_path):
    """Each worker restores only the sessions its shard owns."""
    from repro.service import shard_for

    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        ids = []
        for _ in range(8):
            session = manager.create(make_scenario("wide", n_rows=80))
            snaps.save(session, force=True)
            ids.append(session.id)
        manager.shutdown()

        n_shards = 2
        seen: list[str] = []
        for shard in range(n_shards):
            worker_manager, _ = build_manager(tmp_path)
            restored = worker_manager.restore_sessions(
                shard=shard, n_shards=n_shards
            )
            assert all(
                shard_for(sid, n_shards) == shard for sid in restored
            )
            seen.extend(restored)
            worker_manager.shutdown()
        assert sorted(seen) == sorted(ids)  # a partition: no loss, no dup


def test_snapshot_files_are_versioned_and_pruned(tmp_path):
    """Superseded frame/results files are pruned after each commit."""
    with config_overlay(precompute_debounce_s=0.0):
        manager, snaps = build_manager(tmp_path)
        session = manager.create(
            make_scenario("skewed", n_rows=120), overrides={"top_k": 3}
        )
        for _ in range(3):
            session.mutate("heavy_tail")
            assert manager.engine.wait_idle(30)
        snaps.save(session, force=True)
        directory = tmp_path / session.id
        frames = [p for p in os.listdir(directory) if p.startswith("frame-")]
        results = [p for p in os.listdir(directory) if p.startswith("results-")]
        assert len(frames) == 1
        assert len(results) <= 1
        assert not [p for p in os.listdir(directory) if p.startswith(".tmp-")]
        manager.shutdown()


# ----------------------------------------------------------------------
# Results files written by earlier releases
# ----------------------------------------------------------------------
def earlier_results_file(records):
    """A results file in the layout earlier releases wrote, built by hand.

    The header names the action order under ``manifest`` and each
    action's provenance; one payload line per action follows.
    """
    header = {"manifest": list(records), "records": {}}
    for name, record in records.items():
        meta = {"origin": record["origin"], "computed_at": record["computed_at"]}
        if "vis_origins" in record:
            meta["vis_origins"] = record["vis_origins"]
        header["records"][name] = meta
    lines = [json.dumps(header, separators=(",", ":")).encode("utf-8")]
    return b"\n".join(lines + [record["payload"] for record in records.values()])


def test_write_results_keeps_the_earlier_layout():
    records = {
        "Distribution": {
            "payload": b'{"count": 2, "specs": [{"key": "a"}, {"key": "b"}]}',
            "origin": "mixed",
            "computed_at": 1700000000.25,
            "vis_origins": {"a": "precompute", "b": "carried"},
        },
        "Correlation": {
            "payload": b'{"count": 0, "specs": []}',
            "origin": "carried",
            "computed_at": 1699999999.5,
        },
    }
    assert write_results(records) == earlier_results_file(records)


def test_earlier_results_file_restores_warm(tmp_path):
    """Origins, ``computed_at``, per-vis origins and bytes all come back,
    and the first read is a store hit."""
    with config_overlay(precompute_debounce_s=0.0):
        manager, _ = build_manager(tmp_path)
        session = manager.create(make_scenario("skewed", n_rows=120))
        assert manager.engine.wait_idle(30)
        session.mutate("heavy_tail")
        assert manager.engine.wait_idle(30)
        stored, _ = manager.store.get_pass(session.id, session.version)
        sid = session.id
        manager.shutdown()

        # New times, so what the restore reports can only come from the file.
        records = {
            name: dict(record, computed_at=1000.0 + i)
            for i, (name, record) in enumerate(stored.items())
        }
        assert {"carried", "mixed"} <= {record["origin"] for record in records.values()}
        (path,) = (tmp_path / sid).glob("results-*.jsonl")
        path.write_bytes(earlier_results_file(records))

        restored, _ = build_manager(tmp_path)
        try:
            assert restored.restore_sessions() == [sid]
            twin = restored.get(sid)
            first = twin.recommendations(compute=False, raw=True)
            assert first is not None
            assert restored.store.stats()["hits"] == 1
            assert first["actions"] == {name: r["payload"] for name, r in records.items()}
            assert list(first["actions"]) == list(records)
            provenance = first["provenance"]
            assert provenance["computed_at"] == 1000.0
            for name, record in records.items():
                assert provenance["actions"][name] == {
                    "origin": record["origin"],
                    "vis": record.get("vis_origins"),
                }
            back, _ = restored.store.get_pass(sid, twin.version)
            assert back == records
        finally:
            restored.shutdown()
