"""The always-on service: store, sessions, precompute, concurrency.

The acceptance-critical properties from the service design:

- a mutation + idle period makes reads return from the store with **zero
  executor invocations** (the always-on promise);
- concurrent sessions with different config overlays produce
  per-session-correct results, bit-identical to serial computation;
- stale passes are cancelled / discarded when the data version moves;
- the store can never serve a payload recorded at an old data version.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import LuxDataFrame, config, config_overlay, register_action, remove_action
from repro.core.errors import LuxError
from repro.core.executor.df_exec import DataFrameExecutor
from repro.core.vislist import VisList
from repro.data.synthetic import make_scenario
from repro.service import ResultStore, SessionManager
from repro.service.wire import encode


def make_frame(n: int = 2_000, seed: int = 0) -> LuxDataFrame:
    rng = np.random.default_rng(seed)
    return LuxDataFrame(
        {
            "q0": np.round(rng.normal(0, 1, n), 6),
            "q1": np.round(rng.lognormal(1, 0.4, n), 6),
            "d0": rng.choice(["a", "b", "c"], n).tolist(),
        }
    )


def make_wide_frame() -> LuxDataFrame:
    """6 measures and 1 dimension: 6 Distribution and 15 Correlation charts."""
    rng = np.random.default_rng(3)
    data = {f"m{i}": np.round(rng.normal(0, 1, 300), 6) for i in range(6)}
    data["d0"] = rng.choice(["a", "b", "c"], 300).tolist()
    return LuxDataFrame(data)


@pytest.fixture
def manager():
    config.precompute_debounce_s = 0.0
    m = SessionManager()
    yield m
    m.shutdown()


def serial_payloads(frame: LuxDataFrame, **overrides):
    """What a fresh, single-threaded pass produces for this frame/config."""
    from repro.service.session import serialize_recommendations

    with config_overlay(streaming=False, **overrides):
        return serialize_recommendations(frame.recommendations)


def records(payloads):
    """Store records for ``{action: bytes}``, in the given order."""
    return {
        name: {"payload": blob, "origin": "precompute", "computed_at": 1.0}
        for name, blob in payloads.items()
    }


class TestResultStore:
    def test_get_put_versioned(self):
        store = ResultStore()
        blob = encode({"count": 1})
        assert store.put_pass("s", (1, 0), records({"A": blob}))
        stored, origin = store.get_pass("s", (1, 0))
        # The record holds the payload's JSON bytes, as handed in.
        assert stored["A"]["payload"] is blob
        assert origin == "precompute"
        assert store.get_pass("s", (2, 0)) is None
        assert store.get_pass("other", (1, 0)) is None
        # Each lookup is one hit or one miss.
        assert (store.stats()["hits"], store.stats()["misses"]) == (1, 2)

    def test_pass_keeps_display_order(self):
        store = ResultStore()
        store.put_pass("s", (1, 0), records({"B": encode(2), "A": encode(1), "C": encode(3)}))
        stored, _ = store.get_pass("s", (1, 0))
        assert list(stored) == ["B", "A", "C"]

    def test_put_replaces_the_sessions_pass(self):
        store = ResultStore()
        store.put_pass("s", (1, 0), records({"A": encode({"n": 1}), "B": encode({"n": 2})}))
        blob = encode({"n": 3})
        store.put_pass("s", (2, 0), records({"A": blob}))
        # The superseded version holds no budget: only v2 is resident.
        assert store.get_pass("s", (1, 0)) is None
        assert store.stats()["entries"] == 1
        assert store.stats()["bytes"] == len(blob)

    def test_empty_pass_reports_its_origin(self):
        store = ResultStore()
        store.put_pass("s", (1, 0), {}, origin="foreground")
        assert store.get_pass("s", (1, 0)) == ({}, "foreground")

    def test_byte_budget_evicts_lru(self):
        """Whole passes are evicted, least recently used session first."""
        store = ResultStore(budget_bytes=400)
        for sid in ("s1", "s2"):
            store.put_pass(sid, (1, 0), records({"A": encode({"blob": "x" * 150})}))
        assert store.get_pass("s1", (1, 0)) is not None  # s2 is now the LRU
        store.put_pass("s3", (1, 0), records({"A": encode({"blob": "z" * 150})}))
        assert store.get_pass("s2", (1, 0)) is None
        assert store.get_pass("s1", (1, 0)) is not None
        assert store.get_pass("s3", (1, 0)) is not None
        assert store.stats()["bytes"] <= 400
        assert store.stats()["evictions"] == 1

    def test_oversized_entry_rejected(self):
        """A pass over the whole budget is not stored, and the session's
        previous pass goes all the same."""
        store = ResultStore(budget_bytes=100)
        assert store.put_pass("s", (1, 0), records({"A": encode({"n": 1})}))
        big = records({"A": encode({"blob": "x" * 60}), "B": encode({"blob": "y" * 60})})
        assert store.put_pass("s", (2, 0), big) is False
        assert store.get_pass("s", (1, 0)) is None
        assert store.get_pass("s", (2, 0)) is None
        assert store.stats()["entries"] == store.stats()["bytes"] == 0

    def test_drop_session(self):
        store = ResultStore()
        store.put_pass("s1", (1, 0), records({"A": encode({}), "B": encode({})}))
        store.put_pass("s2", (1, 0), records({"A": encode({})}))
        assert store.drop_session("s1") == 2  # its action payloads
        assert store.get_pass("s1", (1, 0)) is None
        assert store.get_pass("s2", (1, 0)) is not None
        assert store.stats()["sessions"] == store.stats()["entries"] == 1


class TestOnePassPerSession:
    """The store keeps each session's latest pass, so dead versions hold no budget."""

    @staticmethod
    def edit(manager, session, times):
        for i in range(times):
            name = session.frame.columns[i % len(session.frame.columns)]
            session.mutate(name, session.frame[name].to_list()[::-1])
            assert manager.engine.wait_idle(60), manager.engine.stats()

    def test_dead_versions_never_evict_an_idle_sessions_pass(self, manager):
        manager.create(make_scenario("skewed", n_rows=300))
        assert manager.engine.wait_idle(60)
        one_pass = manager.store.stats()["bytes"]
        bounded = SessionManager(store=ResultStore(budget_bytes=int(2.5 * one_pass)))
        try:
            idle = bounded.create(make_scenario("skewed", n_rows=300))
            assert bounded.engine.wait_idle(60)
            busy = bounded.create(make_scenario("skewed", n_rows=300, seed=1))
            self.edit(bounded, busy, 4)
            assert idle.recommendations(compute=False) is not None
            stats = bounded.store.stats()
            assert (stats["sessions"], stats["evictions"]) == (2, 0)
        finally:
            bounded.shutdown()

    def test_a_session_holds_one_pass_after_edits(self, manager):
        session = manager.create(make_scenario("skewed", n_rows=300))
        assert manager.engine.wait_idle(60)
        self.edit(manager, session, 5)
        response = session.recommendations(compute=False, raw=True)
        assert response is not None
        stats = manager.store.stats()
        assert stats["sessions"] == 1
        assert stats["entries"] == len(response["actions"])
        assert stats["bytes"] == sum(len(blob) for blob in response["actions"].values())

    def test_each_read_is_one_store_hit(self, manager):
        session = manager.create(make_frame(n=300))
        assert manager.engine.wait_idle(60)
        hits = manager.store.stats()["hits"]
        assert session.recommendations(compute=False) is not None
        assert manager.store.stats()["hits"] == hits + 1
        assert session.recommendations(action="Correlation", compute=False) is not None
        assert manager.store.stats()["hits"] == hits + 2
        assert manager.store.stats()["misses"] == 0


class TestSession:
    def test_failed_create_registers_nothing(self, manager):
        with pytest.raises(LuxError):
            manager.create(make_frame(n=300), intent=["nope"])
        assert manager.ids() == []
        assert manager.engine.stats()["watched"] == 0

    @pytest.mark.parametrize("base", [True, False])
    def test_precompute_override_wins_over_base_config(self, manager, base):
        """Creation and in-process writes honour the session's override."""
        config.precompute = base
        session = manager.create(
            make_frame(n=300), overrides={"precompute": not base}
        )
        session.frame["derived"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(30)
        ran = manager.engine.stats()["scheduled"] > 0
        assert ran is not base
        assert (session.recommendations(compute=False) is not None) is ran

    def test_store_never_serves_old_version(self, manager):
        config.precompute = False  # manual control
        session = manager.create(make_frame())
        v0 = session.version
        manager.store.put_pass(session.id, v0, records({"A": encode({"count": 1})}))
        assert session.recommendations(compute=False) is not None
        session.frame["derived"] = session.frame["q0"]
        # The old pass is still in the store but unreachable at the new version.
        assert manager.store.stats()["entries"] == 1
        assert session.recommendations(compute=False) is None

    def test_intent_change_invalidates_reads(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.recommendations()  # foreground back-fill
        assert session.recommendations(compute=False) is not None
        session.set_intent(["q0"])
        assert session.recommendations(compute=False) is None

    def test_foreground_backfills_store(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        first = session.recommendations()
        assert first["provenance"]["origin"] == "foreground"
        again = session.recommendations(compute=False)
        assert again is not None
        assert again["actions"] == first["actions"]

    def test_single_action_read(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.recommendations()
        one = session.recommendations(action="Correlation")
        assert list(one["actions"]) == ["Correlation"]

    def test_unknown_action_raises_not_full_pass(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        with pytest.raises(KeyError, match="Bogus"):
            session.recommendations(action="Bogus")
        # With a completed pass stored, the stored pass's action set
        # rejects it: no foreground recomputation happens per bad request.
        session.recommendations()
        memoized = session.frame._recs_cache
        with pytest.raises(KeyError, match="Bogus"):
            session.recommendations(action="Bogus")
        assert session.frame._recs_cache is memoized

    def test_override_session_is_not_served_the_printed_memo(self, manager):
        frame = make_wide_frame()
        repr(frame)  # memoizes the stock recommendations on the frame
        session = manager.create(frame, overrides={"top_k": 2, "precompute": False})
        response = session.recommendations()
        assert response["provenance"]["origin"] == "foreground"
        assert len(response["actions"]["Correlation"]["specs"]) == 2

    def test_override_session_leaves_no_memo(self, manager):
        frame = make_wide_frame()
        session = manager.create(frame, overrides={"top_k": 2, "precompute": False})
        assert session.recommendations()["provenance"]["origin"] == "foreground"
        recs = frame.recommendations
        assert (len(recs["Distribution"]), len(recs["Correlation"])) == (6, 15)

    def test_overrides_validated(self, manager):
        with pytest.raises(ValueError, match="unknown config field"):
            manager.create(make_frame(), overrides={"nope": 1})

    def test_plain_frame_wrapped_into_lux(self, manager):
        from repro.dataframe import DataFrame

        config.precompute = False
        plain = DataFrame({"x": [1.0, 2.0, 3.0], "g": ["a", "b", "a"]})
        session = manager.create(plain)
        assert isinstance(session.frame, LuxDataFrame)
        assert session.frame.columns == ["x", "g"]
        assert session.recommendations()["actions"]

    def test_response_json_serializable(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        json.dumps(session.recommendations())

    def test_manager_registry(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        assert manager.get(session.id) is session
        assert session.id in manager.ids()
        assert manager.close(session.id) is True
        assert manager.close(session.id) is False
        with pytest.raises(KeyError):
            manager.get(session.id)


class TestAlwaysOn:
    def test_precomputed_read_runs_zero_executor_work(self, manager, monkeypatch):
        calls = {"n": 0}
        real_execute = DataFrameExecutor.execute
        real_many = DataFrameExecutor.execute_many

        def counting_execute(self, spec, frame):
            calls["n"] += 1
            return real_execute(self, spec, frame)

        def counting_many(self, specs, frame):
            calls["n"] += 1
            return real_many(self, specs, frame)

        monkeypatch.setattr(DataFrameExecutor, "execute", counting_execute)
        monkeypatch.setattr(DataFrameExecutor, "execute_many", counting_many)

        session = manager.create(make_frame())
        session.frame["derived"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(30)
        calls["n"] = 0
        response = session.recommendations()
        assert calls["n"] == 0, "store hit must not touch the executor"
        # "mixed" when the initial pass landed before the mutation (the
        # redo then carries the unaffected actions forward).
        assert response["provenance"]["origin"] in ("precompute", "mixed")
        # In-process prints are free too: the pass refreshed the frame's
        # memoized recommendation cache.
        assert session.frame._recs_version == session.version

    def test_foreground_fallback_when_precompute_off(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.frame["derived"] = session.frame["q0"] * 2
        response = session.recommendations()
        assert response["provenance"]["origin"] == "foreground"

    @pytest.mark.slow
    def test_concurrent_sessions_bit_identical_to_serial(self, manager):
        sessions = {
            k: manager.create(make_frame(seed=7), overrides={"top_k": k})
            for k in (3, 7)
        }

        def mutate(session):
            session.frame["derived"] = session.frame["q0"] * 2
            session.frame["flag"] = (session.frame["q1"] > 2).astype("int64")

        threads = [
            threading.Thread(target=mutate, args=(s,))
            for s in sessions.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.engine.wait_idle(60), manager.engine.stats()

        for k, session in sessions.items():
            response = session.recommendations()
            assert response["provenance"]["origin"] != "foreground"
            reference = make_frame(seed=7)
            reference["derived"] = reference["q0"] * 2
            reference["flag"] = (reference["q1"] > 2).astype("int64")
            expected = serial_payloads(reference, top_k=k)
            assert response["actions"] == expected, (
                f"session with top_k={k} diverged from serial computation"
            )

    def test_no_cross_session_result_bleed(self, manager):
        a = manager.create(make_frame(seed=1), overrides={"top_k": 2})
        b = manager.create(make_frame(seed=2), overrides={"top_k": 8})
        a.frame["only_in_a"] = a.frame["q0"]
        b.frame["only_in_b"] = b.frame["q1"]
        assert manager.engine.wait_idle(60)
        ra = a.recommendations()
        rb = b.recommendations()
        assert ra["session"] == a.id and rb["session"] == b.id
        flat_a = json.dumps(ra)
        flat_b = json.dumps(rb)
        assert "only_in_a" in flat_a and "only_in_a" not in flat_b
        assert "only_in_b" in flat_b and "only_in_b" not in flat_a
        for payload in ra["actions"].values():
            assert payload["count"] <= 2
        for payload in rb["actions"].values():
            assert payload["count"] <= 8
        # Overlay-shaped passes must not masquerade as the frames' plain
        # memoized recommendations: a direct read outside the service
        # recomputes under global config (top_k=15), not the overlay's 2.
        assert a.frame._recs_version != a.version or a.frame._recs_cache is None
        direct = a.frame.recommendations
        assert any(len(direct[name]) > 2 for name in direct.keys())


@pytest.mark.slow
class TestStaleCancellation:
    def test_stale_pass_never_stored_and_redone(self, manager):
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(15)
            return VisList(visualizations=[])

        register_action(
            "Blocker",
            blocking_action,
            condition=lambda ldf: "blockme" in ldf.columns,
        )
        try:
            frame = make_frame()
            frame["blockme"] = frame["q0"]
            session = manager.create(frame)  # immediate pass, will block
            assert started.wait(30)
            v0 = session.version
            # Mutate mid-pass: the running pass is now stale.
            session.frame["derived"] = session.frame["q0"] * 3
            assert session.version != v0
            gate.set()
            assert manager.engine.wait_idle(60), manager.engine.stats()
            # Nothing was ever published for the superseded version...
            assert manager.store.get_pass(session.id, v0) is None
            # ...and the redo at the new version completed.
            response = session.recommendations(compute=False)
            assert response is not None
            assert response["data_version"] == list(session.version)
            stats = manager.engine.stats()
            assert stats["cancelled"] + stats["stale"] >= 1
        finally:
            gate.set()
            remove_action("Blocker")

    def test_inflight_dedup_same_version(self, manager):
        config.precompute = False  # manual scheduling only
        session = manager.create(make_frame())
        config.precompute = True
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(15)
            return VisList(visualizations=[])

        register_action(
            "Blocker",
            blocking_action,
            condition=lambda ldf: "q0" in ldf.columns,
        )
        try:
            manager.engine.schedule(session, immediate=True)
            assert started.wait(30)
            before = manager.engine.stats()["scheduled"]
            manager.engine.schedule(session, immediate=True)  # same version
            assert manager.engine.stats()["scheduled"] == before
        finally:
            gate.set()
            remove_action("Blocker")
            assert manager.engine.wait_idle(60)
