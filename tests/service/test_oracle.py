"""Stateful differential oracle for the always-on service.

A hypothesis state machine drives one watched session through random
mutations — column edits, schema changes, row-set changes, intent
(measures, dimensions, filter clauses, attribute and value wildcards) and
type-override changes — interleaved with config flips (incremental
precompute, the computation cache), reader flips (bytes as the wire
reads them, or dicts), store wipes and snapshot restarts (save, restore
into a fresh manager, continue on the restored session).
One machine keeps the shipped debounce and sends bursts of writes through
the service dispatcher, so writes land on armed timers and running passes.
One runs a frame of a few dozen mostly nominal columns under a
one-measure intent, so the Filter action's many filter groups (each a
projected, batch-local subframe) and their shared unfiltered reference
are under the oracle.
After every step, once the precompute engine is idle, the served
recommendations must equal those of a *cold* ``LuxDataFrame`` rebuilt
from the session frame's current columns, intent and type overrides:
every reuse layer (metadata stamps, computation-cache migration,
candidate and action reuse in the engine, the result store, snapshot
rehydration) is an equivalence claim against that cold, serial path.
The frame's metadata, refreshed column by column, equals a cold rescan of
the frame.  The store holds at most one pass per live session, at the current
version once a pass has published, the computation cache's byte
accounting equals the sizes of the entries it holds, and every JSON token
tuple it holds is a fresh format of its frame's current column.  A pass published
after a bytes read leaves no decoded dicts behind: the session holds no
view and no engine table entry holds a dict.

Profiles (``tests/conftest.py``): ``ci`` replays a small derandomized
run; ``--hypothesis-profile soak`` runs the long randomized one.
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import LuxDataFrame, config
from repro.core.config import Config, thread_overlay
from repro.core.executor.cache import _FrameSlot, computation_cache
from repro.core.metadata import compute_metadata
from repro.service import ResultStore, SessionManager, SnapshotStore, serialize_recommendations
from repro.service.shard import ShardService
from repro.vis import vegalite

ROWS = 240
WIDE_ROWS = 120


def make_frame() -> LuxDataFrame:
    rng = np.random.default_rng(11)
    q0 = np.round(rng.normal(0, 1, ROWS), 4)
    q0[::17] = np.nan  # a measure holding NaN
    return LuxDataFrame(
        {
            "q0": q0,
            "q1": np.round(rng.lognormal(1, 0.4, ROWS), 4),
            "q2": np.round(rng.uniform(-5, 5, ROWS), 4),
            "q3": np.round(rng.normal(3, 2, ROWS), 4),
            "i0": rng.integers(0, 20, ROWS),
            "d0": rng.choice(["a", "b", "c"], ROWS).tolist(),
            "d1": rng.choice(["u", "v"], ROWS).tolist(),
        }
    )


def make_wide_frame() -> LuxDataFrame:
    """Three measures, an int column and 24 dimensions of two to five values."""
    rng = np.random.default_rng(12)
    data = {f"q{i}": np.round(rng.normal(i, 1, WIDE_ROWS), 4) for i in range(3)}
    data["i0"] = rng.integers(0, 20, WIDE_ROWS)
    for j in range(24):
        data[f"d{j}"] = rng.choice(list("abcde")[: 2 + j % 4], WIDE_ROWS).tolist()
    return LuxDataFrame(data)


def cold_actions(frame: LuxDataFrame, intent: list, overrides: dict) -> dict:
    """Recommendations of a fresh frame holding ``frame``'s current state."""
    cold = LuxDataFrame({name: frame[name] for name in frame.columns})
    with thread_overlay(dict(overrides, streaming=False)):
        types = {
            name: kind
            for name, kind in getattr(frame.metadata, "_overrides", {}).items()
            if name in cold.columns
        }
        if types:
            cold.set_data_type(types)
        if intent:
            cold.intent = list(intent)
        return serialize_recommendations(cold.recommendations)


def typed_fields(attr) -> dict:
    """An AttributeMeta's fields, each value with its type."""
    return {
        name: [(type(v), v) for v in value] if isinstance(value, list) else (type(value), value)
        for name, value in vars(attr).items()
    }


def holds_dict(entry) -> bool:
    """Whether an engine table entry, or a candidate result in it, holds a dict."""
    held = [getattr(entry, slot) for slot in entry.__slots__]
    held += [
        getattr(candidate, slot)
        for candidate in entry.candidates
        if candidate is not None
        for slot in candidate.__slots__
    ]
    return any(isinstance(value, dict) for value in held)


class ServiceOracle(RuleBasedStateMachine):
    #: The session's frame, and the intent it starts with.
    FRAME = staticmethod(make_frame)
    INTENT: list = []
    #: Config overrides the session is created with.
    OVERRIDES: dict = {}
    #: The result store's byte budget (None: the configured one).
    STORE_BUDGET: "int | None" = None
    #: The precompute debounce: 0 submits each pass at once, so no timer
    #: is ever armed.
    DEBOUNCE_S = 0.0

    def __init__(self) -> None:
        super().__init__()
        config.precompute = True
        config.precompute_debounce_s = self.DEBOUNCE_S
        config.incremental_precompute = True
        config.computation_cache = True
        self.snapshot_dir = tempfile.mkdtemp(prefix="oracle-")
        # Only forced saves write: a pass's own save is rate-limited away.
        self.snapshots = SnapshotStore(self.snapshot_dir, interval_s=3600.0)
        self.manager = self.new_manager()
        self.session = None
        self.intent: list[str] = []
        self.added = 0
        #: Whether the last step moved the session's version (a pass must
        #: then have published, not just a foreground fallback served).
        self.moved = False
        #: The actions of a restored session's first read, checked against
        #: the cold oracle by the next invariant.
        self.restored_read: "dict | None" = None
        #: Whether reads take bytes (``raw=True``, as the wire reads) and
        #: decode them here, or take the session's dicts.
        self.raw_reads = False
        #: The engine's completed passes when the invariants last looked.
        self.completed_seen = 0

    @initialize()
    def start(self) -> None:
        self.session = self.manager.create(self.FRAME(), overrides=self.OVERRIDES)
        if self.INTENT:
            self.intent = list(self.INTENT)
            self.session.set_intent(self.intent)
        self.moved = True

    def new_manager(self) -> SessionManager:
        store = ResultStore(budget_bytes=self.STORE_BUDGET)
        return SessionManager(store=store, snapshots=self.snapshots)

    def teardown(self) -> None:
        self.manager.shutdown()
        shutil.rmtree(self.snapshot_dir, ignore_errors=True)

    def read(self, compute: bool = True) -> "dict | None":
        """The session's recommendations, with each action as a dict."""
        response = self.session.recommendations(compute=compute, raw=self.raw_reads)
        if response is not None and self.raw_reads:
            actions = response["actions"]
            response["actions"] = {name: json.loads(blob) for name, blob in actions.items()}
        return response

    # ------------------------------------------------------------------
    @property
    def frame(self) -> LuxDataFrame:
        return self.session.frame

    def columns(self, kinds: tuple[str, ...] = ()) -> list[str]:
        meta = self.frame.metadata
        return [
            name
            for name in self.frame.columns
            if not kinds or meta[name].data_type in kinds
        ]

    def free_columns(self) -> list[str]:
        """Columns the intent does not reference (safe to drop or rename)."""
        used = {clause.split("=")[0] for clause in self.intent}
        return [c for c in self.frame.columns if c not in used]

    # ------------------------------------------------------------------
    @rule(data=st.data())
    def reverse_column(self, data) -> None:
        name = data.draw(st.sampled_from(self.columns()))
        self.session.mutate(name, self.frame[name].to_list()[::-1])
        self.moved = True

    @precondition(lambda self: self.columns(("quantitative",)))
    @rule(data=st.data(), factor=st.sampled_from([2.0, -0.5]))
    def scale_measure(self, data, factor) -> None:
        name = data.draw(st.sampled_from(self.columns(("quantitative",))))
        self.session.mutate(name, (self.frame[name] * factor).to_list())
        self.moved = True

    @rule(nominal=st.booleans())
    def add_column(self, nominal) -> None:
        self.added += 1
        rng = np.random.default_rng(self.added)
        values = (
            rng.choice(["x", "y", "z"], len(self.frame)).tolist()
            if nominal
            else np.round(rng.normal(0, 1, len(self.frame)), 4).tolist()
        )
        self.session.mutate(f"n{self.added}", values)
        self.moved = True

    @precondition(lambda self: len(self.free_columns()) > 2)
    @rule(data=st.data())
    def drop_column(self, data) -> None:
        name = data.draw(st.sampled_from(self.free_columns()))
        with self.session.lock:
            self.frame.drop(name, inplace=True)
        self.moved = True

    @precondition(lambda self: self.free_columns())
    @rule(data=st.data())
    def rename_column(self, data) -> None:
        name = data.draw(st.sampled_from(self.free_columns()))
        self.added += 1
        with self.session.lock:
            self.frame.rename({name: f"r{self.added}"}, inplace=True)
        self.moved = True

    @rule()
    def fillna(self) -> None:
        with self.session.lock:
            self.frame.fillna(0.0, inplace=True)
        self.moved = True

    @precondition(lambda self: len(self.frame) > 40)
    @rule(data=st.data())
    def dropna(self, data) -> None:
        # Plant a null first so the row set really shrinks.
        name = data.draw(st.sampled_from(self.columns(("quantitative",)) or ["-"]))
        with self.session.lock:
            if name in self.frame.columns:
                values = self.frame[name].to_list()
                values[len(values) // 2] = None
                self.frame[name] = values
            self.frame.dropna(inplace=True)
        self.moved = True

    @precondition(lambda self: self.columns(("quantitative", "nominal")))
    @rule(data=st.data())
    def set_intent(self, data) -> None:
        name = data.draw(st.sampled_from(self.columns(("quantitative", "nominal"))))
        self.intent = [name]
        self.session.set_intent(self.intent)
        self.moved = True

    @precondition(lambda self: self.columns(("quantitative",)) and self.columns(("nominal",)))
    @rule(data=st.data())
    def set_filtered_intent(self, data) -> None:
        """A measure under a filter clause: the current vis and every
        candidate that keeps the clause share one filtered subframe."""
        measure = data.draw(st.sampled_from(self.columns(("quantitative",))))
        name = data.draw(st.sampled_from(self.columns(("nominal",))))
        value = data.draw(st.sampled_from(self.frame.metadata[name].unique_values))
        self.intent = [measure, f"{name}={value}"]
        self.session.set_intent(self.intent)
        self.moved = True

    @precondition(lambda self: self.columns(("quantitative",)))
    @rule(data=st.data())
    def set_wildcard_intent(self, data) -> None:
        """An attribute wildcard makes the intent-reading actions rerun
        whole; a value wildcard leaves them keyed."""
        measure = data.draw(st.sampled_from(self.columns(("quantitative",))))
        shapes = [["?"], [measure, "?"]]
        dimensions = self.columns(("nominal",))
        if dimensions:
            name = data.draw(st.sampled_from(dimensions))
            shapes.append([measure, f"{name}=?"])
        self.intent = data.draw(st.sampled_from(shapes))
        self.session.set_intent(self.intent)
        self.moved = True

    @rule()
    def clear_intent(self) -> None:
        self.intent = []
        self.session.set_intent(None)
        self.moved = True

    @precondition(lambda self: "i0" in self.frame.columns)
    @rule(kind=st.sampled_from(["nominal", "quantitative"]))
    def set_data_type(self, kind) -> None:
        with self.session.lock:
            self.frame.set_data_type({"i0": kind})
        self.moved = True

    @rule()
    def flip_incremental(self) -> None:
        config.incremental_precompute = not config.incremental_precompute
        self.moved = False

    @rule()
    def flip_computation_cache(self) -> None:
        config.computation_cache = not config.computation_cache
        self.moved = False

    @rule()
    def flip_reader(self) -> None:
        self.raw_reads = not self.raw_reads
        self.moved = False

    @rule()
    def clear_store(self) -> None:
        self.manager.store.clear()
        self.moved = False

    @rule()
    def restart_from_snapshot(self) -> None:
        """Save, restore into a fresh manager and go on with the restored session."""
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        sid, version = self.session.id, self.session.version
        held = self.manager.store.get_pass(sid, version) is not None
        self.manager.shutdown()  # force-saves every session's snapshot
        self.manager = self.new_manager()
        self.completed_seen = 0
        assert self.manager.restore_sessions() == [sid]
        self.session = self.manager.get(sid)
        assert self.session.version == version
        # A pass stored before the restart answers the first read from the store.
        first = self.read(compute=not held)
        assert first is not None
        self.restored_read = first["actions"]
        self.moved = False

    # ------------------------------------------------------------------
    @invariant()
    def one_pass_per_session(self) -> None:
        if self.session is None:
            return
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        store = self.manager.store
        assert store.stats()["sessions"] <= len(self.manager.ids())
        if self.moved and self.STORE_BUDGET is None:
            assert store.get_pass(self.session.id, self.session.version) is not None

    @invariant()
    def metadata_equals_a_cold_rescan(self) -> None:
        """Every column's metadata equals a full rescan's, overrides applied.

        Column version stamps are the refresh's own bookkeeping and are not
        compared.
        """
        if self.session is None:
            return
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        with self.session.lock:
            meta = self.frame.metadata
            cold = compute_metadata(self.frame)
        for name, kind in getattr(meta, "_overrides", {}).items():
            if name in cold:
                cold.override(name, kind)
        assert meta.n_rows == cold.n_rows
        assert list(meta.attributes) == list(cold.attributes)
        for name, attr in cold.attributes.items():
            assert typed_fields(meta[name]) == typed_fields(attr), name

    @invariant()
    def cache_bytes_add_up(self) -> None:
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        assert "tokens" in _FrameSlot.SECTIONS and "tokens" in _FrameSlot._SIZERS
        # A cyclic collection mid-check would run a dead frame's weakref
        # callback, dropping its slot between the walk and stats().
        gc.disable()
        try:
            total = 0
            for slot in list(computation_cache._slots.values()):
                with slot.lock:
                    held = sum(
                        _FrameSlot._SIZERS[section](value)
                        for section in _FrameSlot.SECTIONS
                        for value in getattr(slot, section).values()
                    )
                    assert slot.nbytes == held
                total += slot.nbytes
            assert computation_cache.stats()["bytes"] == total
        finally:
            gc.enable()

    @invariant()
    def cached_tokens_are_current(self) -> None:
        """Each token tuple a live slot holds formats its frame's column now."""
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        for slot in list(computation_cache._slots.values()):
            frame = slot.ref()
            with slot.lock:
                if frame is None or slot.version != getattr(frame, "_data_version", 0):
                    continue  # unreachable: the next lookup replaces the slot
                cached = dict(slot.tokens)
            for name, tokens in cached.items():
                assert name in frame.columns, name
                assert tokens == tuple(vegalite._tokens(frame.column(name))), name

    @invariant()
    def bytes_reader_holds_no_dicts(self) -> None:
        if self.session is None:
            return
        engine = self.manager.engine
        assert engine.wait_idle(60), engine.stats()
        completed = engine.stats()["completed"]
        published, self.completed_seen = completed > self.completed_seen, completed
        if self.raw_reads and published:
            # A pass published in this step, after the last step's reads,
            # which took bytes: a flip of the reader publishes nothing.
            assert self.session._view is None
            table = engine._tables.get(self.session.id, {})
            assert not any(holds_dict(entry) for entry in table.values())

    @invariant()
    def served_equals_cold(self) -> None:
        if self.session is None:
            return
        assert self.manager.engine.wait_idle(60), self.manager.engine.stats()
        if self.moved and self.STORE_BUDGET is None:
            stored = self.read(compute=False)
            assert stored is not None, self.manager.engine.stats()
        served = self.read()
        assert served["data_version"] == list(self.session.version)
        expected = cold_actions(self.frame, self.intent, self.OVERRIDES)
        assert served["actions"] == expected
        if self.restored_read is not None:
            assert self.restored_read == expected
            self.restored_read = None
        if self.STORE_BUDGET is not None and served["actions"]:
            assert served["provenance"]["origin"] == "foreground"
            assert self.manager.store.stats()["entries"] == 0


class OverrideOracle(ServiceOracle):
    """The same oracle for a session with config overrides.

    The overrides shrink ``top_k`` and sample the 240-row frame, so the
    two-pass ranking (approximate scores on the sample, exact scores on
    the survivors) runs on every ranked action.
    """

    OVERRIDES = {"top_k": 3, "sampling_start": 100, "sampling_cap": 80}


class TinyStoreOracle(ServiceOracle):
    """The same oracle over a store whose budget is below one pass.

    No pass fits, so every read is a foreground pass and the store stays
    empty.  It runs a sixth of the profile's examples.
    """

    STORE_BUDGET = 1_000


class DebouncedOracle(ServiceOracle):
    """The same oracle at the shipped debounce, with bursts of writes.

    Writes arm timers, and a write that arrives while its session's pass
    runs cancels that pass.  The ``burst`` rule sends two to four column
    writes back to back through the service dispatcher; every example
    starts with one, on the session's first pass.  It runs a sixth of the
    profile's examples.
    """

    DEBOUNCE_S = Config.precompute_debounce_s

    @initialize(data=st.data(), writes=st.integers(2, 4))
    def start(self, data, writes) -> None:
        super().start()
        self.burst(data, writes)

    @rule(data=st.data(), writes=st.integers(2, 4))
    def burst(self, data, writes) -> None:
        service = ShardService(self.manager)
        for _ in range(writes):
            name = data.draw(st.sampled_from(self.columns()))
            values = self.frame[name].to_list()[::-1]
            service.request(
                "mutate", {"session": self.session.id, "column": name, "values": values}
            )
        self.moved = True


class WideOracle(ServiceOracle):
    """The same oracle over a few dozen mostly nominal columns, starting
    under a one-measure intent.

    The Filter action then ranks one candidate per dimension value, each
    its own filter group, all sharing one unfiltered reference.
    """

    FRAME = staticmethod(make_wide_frame)
    INTENT = ["q0"]


TestServiceOracle = ServiceOracle.TestCase
TestOverrideOracle = OverrideOracle.TestCase
TestTinyStoreOracle = TinyStoreOracle.TestCase
TestDebouncedOracle = DebouncedOracle.TestCase
TestWideOracle = WideOracle.TestCase
TestTinyStoreOracle.settings = settings(
    settings.default, max_examples=max(1, settings.default.max_examples // 6)
)
TestDebouncedOracle.settings = TestTinyStoreOracle.settings
