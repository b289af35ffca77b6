"""Incremental recommendation recomputation: content keys, reuse, identity.

The acceptance-critical properties of the engine's content-keyed reuse:

- a single-column mutation reruns only the candidates that read the
  column; an action whose candidate keys all hit is carried whole with
  provenance ``carried``, and the response is bit-identical to a cold
  foreground pass of the same version;
- intent-only changes rerun only intent-reading actions and never mark
  data dirty;
- a row-set change restamps every column, so every action reruns; the
  ``incremental_precompute`` ablation knob turns lookups off — and
  neither ever yields a wrong result.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import LuxDataFrame, config
from repro.service import ResultStore, SessionManager
from repro.service.wire import encode


def make_frame(n: int = 2_000, seed: int = 0) -> LuxDataFrame:
    rng = np.random.default_rng(seed)
    return LuxDataFrame(
        {
            "q0": np.round(rng.normal(0, 1, n), 6),
            "q1": np.round(rng.lognormal(1, 0.4, n), 6),
            "d0": rng.choice(["a", "b", "c"], n).tolist(),
            "d1": rng.choice(["u", "v"], n).tolist(),
        }
    )


@pytest.fixture
def manager():
    config.precompute_debounce_s = 0.0
    m = SessionManager()
    yield m
    m.shutdown()


def settled_session(manager, frame=None, **kwargs):
    """A session whose initial full pass has already landed."""
    session = manager.create(frame if frame is not None else make_frame(), **kwargs)
    assert manager.engine.wait_idle(60), manager.engine.stats()
    return session


def origins_of(response):
    return {
        name: entry["origin"]
        for name, entry in response["provenance"]["actions"].items()
    }


class TestIncrementalPartition:
    def test_single_column_mutation_reruns_only_affected(self, manager):
        session = settled_session(manager)
        before = manager.engine.stats()
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60), manager.engine.stats()
        response = session.recommendations(compute=False)
        assert response is not None
        origins = origins_of(response)
        # d0 is nominal: only Occurrence reads it — and within Occurrence
        # only the d0 candidate reruns (the d1 vis is reused), so the
        # action lands with the candidate-level "mixed" origin.
        assert origins["Occurrence"] == "mixed"
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert response["provenance"]["origin"] == "mixed"
        stats = manager.engine.stats()
        assert stats["actions_rerun"] - before["actions_rerun"] == 1
        assert stats["actions_carried"] - before["actions_carried"] == 2
        assert stats["candidates_rerun"] - before["candidates_rerun"] == 1
        # Every key hit counts: d1 in Occurrence plus the candidates of
        # the two carried actions (one correlation pair, two histograms).
        assert stats["candidates_carried"] - before["candidates_carried"] == 4
        assert stats["incremental_passes"] >= 1

    def test_carried_response_identical_to_cold_pass(self, manager):
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        incremental = session.recommendations(compute=False)
        assert incremental is not None
        # Drop everything reusable and force a cold foreground pass.
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        cold = session.recommendations()
        assert cold["provenance"]["origin"] == "foreground"
        assert cold["actions"] == incremental["actions"]

    def test_measure_mutation_reruns_measure_actions(self, manager):
        session = settled_session(manager)
        session.frame["q0"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # Correlation's only pair (q0, q1) touches q0: fully recomputed.
        # Distribution reruns q0 but carries the q1 vis: mixed.
        assert origins["Correlation"] == "precompute"
        assert origins["Distribution"] == "mixed"
        assert origins["Occurrence"] == "carried"

    def test_intent_only_change_carries_data_actions(self, manager):
        session = settled_session(manager)
        data_version = session.frame._data_version
        session.set_intent(["q0"])
        assert session.frame._data_version == data_version  # data not dirty
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert origins["Correlation"] == "carried"
        assert origins["Occurrence"] == "carried"
        assert origins["Distribution"] == "carried"
        # Intent-reading actions became applicable and were computed.
        assert origins["Current Vis"] == "precompute"
        assert origins["Enhance"] == "precompute"
        assert origins["Filter"] == "precompute"

    def test_burst_of_mutations_unions_deltas(self, manager):
        session = settled_session(manager)
        config.precompute = False  # two mutations before one pass
        session.frame["q0"] = session.frame["q0"] * 2
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        config.precompute = True
        manager.engine.schedule(session, immediate=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # Both q0 and d0 carry new stamps, so every action reruns —
        # Correlation wholesale (its only pair touches q0), Distribution
        # and Occurrence at candidate level (q1 resp. d1 vis carried).
        assert origins["Correlation"] == "precompute"
        assert origins["Distribution"] == "mixed"
        assert origins["Occurrence"] == "mixed"

    def test_action_key_hit_stores_the_same_bytes_object(self, manager):
        session = settled_session(manager)
        # Read before the edit: the edit's pass replaces this one.
        first = manager.store.get_pass(session.id, session.version)[0]["Correlation"]
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        carried = manager.store.get_pass(session.id, session.version)[0]["Correlation"]
        assert carried["origin"] == "carried"
        assert carried["payload"] is first["payload"]
        assert carried["computed_at"] == first["computed_at"]

    def test_added_column_keeps_unaffected_actions_carried(self, manager):
        session = settled_session(manager)
        session.frame["d2"] = (["x", "y", "z", "w"] * 500)[: len(session.frame)]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        origins = origins_of(response)
        # Only Occurrence gains a candidate (the new nominal column); the
        # measures' stamps are untouched by the schema change.
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert origins["Occurrence"] == "mixed"
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        assert session.recommendations()["actions"] == response["actions"]

    def test_spliced_action_bytes_equal_json_dumps(self, manager):
        session = settled_session(manager)
        session.frame["q0"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(60)
        records, _ = manager.store.get_pass(session.id, session.version)
        assert records["Distribution"]["origin"] == "mixed"
        for record in records.values():
            stored = record["payload"]
            assert stored == json.dumps(json.loads(stored)).encode("utf-8")

    def test_memoized_recommendations_merged_on_incremental_pass(self, manager):
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        # The frame's memoized set is the pass's whole result, carried
        # VisLists included: an in-process read does no recomputation.
        assert session.frame._recs_version == session.version
        recs = session.frame.recommendations
        assert set(recs.keys()) == {"Correlation", "Distribution", "Occurrence"}


class TestIncrementalFallbacks:
    def test_ablation_knob_reruns_everything(self, manager):
        config.incremental_precompute = False
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert set(origins.values()) == {"precompute"}
        assert manager.engine.stats()["actions_carried"] == 0

    def test_knob_flip_off_then_on_stays_correct(self, manager):
        """Passes run while the knob is off still record their results.

        A mutation landing during an ablation window gets a full pass;
        flipping the knob back on reuses that pass's results, so the NEXT
        mutation reruns only what it touched — and the response stays
        bit-identical to a cold pass (reusing a result the off-window
        mutation invalidated would break that).
        """
        session = settled_session(manager)
        config.incremental_precompute = False
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        assert set(origins_of(response).values()) == {"precompute"}

        config.incremental_precompute = True
        before = manager.engine.stats()
        rotated = session.frame["d1"].to_list()
        session.frame["d1"] = rotated[1:] + rotated[:1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        origins = origins_of(response)
        # Only d1 moved: the quantitative actions carry, and Occurrence
        # reruns d1 but reuses the d0 vis the off-window pass recorded.
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert origins["Occurrence"] == "mixed"
        stats = manager.engine.stats()
        assert stats["actions_carried"] - before["actions_carried"] == 2
        assert stats["actions_rerun"] - before["actions_rerun"] == 1
        # Bit-identical to a cold foreground pass of the same version.
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        cold = session.recommendations()
        assert cold["provenance"]["origin"] == "foreground"
        assert cold["actions"] == response["actions"]

    def test_row_set_change_forces_full_pass(self, manager):
        frame = make_frame()
        frame["q0"] = [None] + frame["q0"].to_list()[1:]
        session = settled_session(manager, frame)
        session.frame.dropna(inplace=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert set(origins.values()) == {"precompute"}

    def test_cleared_store_keeps_reuse(self, manager):
        session = settled_session(manager)
        before = manager.engine.stats()
        # Lose every stored payload (harsher than LRU pressure): reuse
        # does not depend on the store, only on the engine's table.
        manager.store.clear()
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        assert response is not None
        origins = origins_of(response)
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert origins["Occurrence"] == "mixed"
        stats = manager.engine.stats()
        assert stats["actions_carried"] - before["actions_carried"] == 2
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        cold = session.recommendations()
        assert cold["provenance"]["origin"] == "foreground"
        assert cold["actions"] == response["actions"]

    def test_unwatched_session_has_no_state_leak(self, manager):
        session = settled_session(manager)
        assert session.id in manager.engine._tables
        manager.close(session.id)
        assert session.id not in manager.engine._tables

    def test_row_series_key_names_every_plotted_column(self, manager):
        # A pivoted frame's row-wise series plots synthetic column/value
        # fields; before its entry named the numeric columns it read, an
        # edit to one of them was served from the stale previous chart.
        dates = [f"2020-01-{d:02d}" for d in range(1, 6)]
        data = {"state": ["CA"], **{d: [float(i)] for i, d in enumerate(dates)}}
        session = settled_session(manager, LuxDataFrame(data).set_index("state"))
        session.mutate(dates[2], [42.0])
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        assert origins_of(response)["Index"] == "precompute"
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        assert session.recommendations()["actions"] == response["actions"]

    def test_mutation_while_precompute_off_still_recorded(self, manager):
        session = settled_session(manager)
        config.precompute = False
        session.frame["q0"] = session.frame["q0"] * 2
        config.precompute = True
        manager.engine.schedule(session, immediate=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # The q0 edit made while the switch was off shows in q0's stamp:
        # Occurrence did not read q0 and is carried.
        assert origins["Occurrence"] == "carried"
        assert origins["Correlation"] == "precompute"


class TestCarryForwardStore:
    def test_incremental_pass_lists_carried_actions(self):
        """A carried record keeps its bytes object and its ``computed_at``."""
        store = ResultStore()
        kept = encode({"n": 2})
        store.put_pass(
            "s",
            (1, 0),
            {
                "A": {"payload": encode({"n": 1}), "origin": "precompute", "computed_at": 1.0},
                "B": {"payload": kept, "origin": "precompute", "computed_at": 1.0},
            },
        )
        store.put_pass(
            "s",
            (2, 0),
            {
                "A": {"payload": encode({"n": 9}), "origin": "precompute", "computed_at": 2.0},
                "B": {"payload": kept, "origin": "carried", "computed_at": 1.0},
            },
        )
        records, _ = store.get_pass("s", (2, 0))
        assert list(records) == ["A", "B"]
        assert records["A"]["origin"] == "precompute"
        assert records["B"]["origin"] == "carried"
        assert records["B"]["payload"] is kept
        assert records["B"]["computed_at"] == 1.0
