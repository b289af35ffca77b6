"""Parallel batch execution: the shared pool and concurrent execute_many.

Covers the tentpole guarantees of the thread-pooled batch path: results
bit-identical to serial execution, safety (and cache-hit accounting) under
overlapping batch passes from many threads, no deadlock when a batch runs
from inside a pool worker (nested fan-out degrades to inline execution),
pool resize hand-off, and byte-budget enforcement under concurrency.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import config
from repro.core import pool
from repro.core.errors import ExecutorError
from repro.core.executor.cache import computation_cache
from repro.core.executor.df_exec import DataFrameExecutor
from repro.dataframe import DataFrame
from repro.vis.encoding import Encoding
from repro.vis.spec import VisSpec

ROWS = 6_000


@pytest.fixture(autouse=True)
def _fresh_cache():
    computation_cache.clear()
    yield
    computation_cache.clear()


@pytest.fixture
def frame() -> DataFrame:
    rng = np.random.default_rng(11)
    return DataFrame({
        "q0": rng.normal(0, 1, ROWS),
        "q1": rng.lognormal(1, 0.4, ROWS),
        "q2": rng.uniform(-5, 5, ROWS),
        "d0": rng.choice(["a", "b", "c", "d"], ROWS).tolist(),
        "d1": rng.choice(["x", "y", "z"], ROWS).tolist(),
    })


def build_specs() -> list[VisSpec]:
    """A mixed batch: several filter groups plus a large unfiltered group."""
    q = "quantitative"
    specs: list[VisSpec] = []
    for d in ("d0", "d1"):
        for m in ("q0", "q1", "q2"):
            specs.append(VisSpec("bar", [
                Encoding("y", d, "nominal"),
                Encoding("x", m, q, aggregate="mean"),
            ]))
    for m in ("q0", "q1", "q2"):
        specs.append(VisSpec("histogram", [
            Encoding("x", m, q, bin=True, bin_size=10),
            Encoding("y", "", q, aggregate="count"),
        ]))
    specs.append(VisSpec("rect", [
        Encoding("x", "d0", "nominal"),
        Encoding("y", "d1", "nominal"),
        Encoding("color", "", q, aggregate="count"),
    ]))
    for value in ("a", "b", "c"):
        for m in ("q0", "q1"):
            specs.append(VisSpec("bar", [
                Encoding("y", "d1", "nominal"),
                Encoding("x", m, q, aggregate="mean"),
            ], filters=[("d0", "=", value)]))
    return specs


def run_serial(frame: DataFrame) -> list[list[dict]]:
    config.parallel_execute = False
    computation_cache.clear()
    return DataFrameExecutor().execute_many(build_specs(), frame)


class TestParallelEquivalence:
    def test_parallel_identical_to_serial(self, frame):
        expected = run_serial(frame)
        config.parallel_execute = True
        config.action_pool_workers = 4
        computation_cache.clear()
        specs = build_specs()
        got = DataFrameExecutor().execute_many(specs, frame)
        assert got == expected
        assert all(s.data is r for s, r in zip(specs, got))

    def test_parallel_single_worker_pool(self, frame):
        """worker_count == 1 falls back to the serial batch path."""
        expected = run_serial(frame)
        config.parallel_execute = True
        config.action_pool_workers = 1
        computation_cache.clear()
        got = DataFrameExecutor().execute_many(build_specs(), frame)
        assert got == expected

    def test_fan_out_gating(self, frame):
        config.parallel_execute = True
        config.action_pool_workers = 4
        n_specs = len(build_specs())
        assert DataFrameExecutor._helpers(n_specs, frame) == 3
        assert DataFrameExecutor._helpers(1, frame) == 0
        small = DataFrame({"v": np.arange(10, dtype=float)})
        assert DataFrameExecutor._helpers(n_specs, small) == 0
        config.parallel_execute = False
        assert DataFrameExecutor._helpers(n_specs, frame) == 0

    def test_parallel_error_propagates(self, frame):
        config.parallel_execute = True
        config.action_pool_workers = 4
        specs = build_specs()
        specs.append(VisSpec("bar", [
            Encoding("y", "d0", "nominal"),
            Encoding("x", "q0", "quantitative", aggregate="mean"),
        ], filters=[("missing_column", "=", 1)]))
        with pytest.raises(ExecutorError):
            DataFrameExecutor().execute_many(specs, frame)


@pytest.mark.slow
class TestConcurrentBatches:
    def test_overlapping_execute_many_threads(self, frame):
        """Stress: concurrent batch passes agree with serial, no deadlock."""
        expected = run_serial(frame)
        config.parallel_execute = True
        config.action_pool_workers = 4
        computation_cache.clear()

        n_threads = 4
        outputs: list = [None] * n_threads
        failures: list[BaseException] = []

        def one_pass(slot: int) -> None:
            try:
                outputs[slot] = DataFrameExecutor().execute_many(
                    build_specs(), frame
                )
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [
            threading.Thread(target=one_pass, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "concurrent execute_many deadlocked"
        assert not failures
        for out in outputs:
            assert out == expected

        stats = computation_cache.stats()
        # 4 passes x ~25 specs over one frame: the shared slot must have
        # served far more lookups from memory than it computed.
        assert stats["frames"] == 1
        assert stats["hits"] > stats["misses"]
        assert stats["hits"] >= 3 * stats["misses"]

    def test_cancelled_helpers_release_subframes(self, frame):
        """A batch whose helpers never started frees its filtered subframes."""
        config.parallel_execute = True
        config.action_pool_workers = 2
        release = threading.Event()
        started = [threading.Event() for _ in range(2)]

        def block(event: threading.Event) -> None:
            event.set()
            release.wait(30.0)

        blockers = [pool.submit(lambda e=e: block(e)) for e in started]
        try:
            assert all(event.wait(10.0) for event in started)
            DataFrameExecutor().execute_many(build_specs(), frame)
            # The filter groups' subframes are gone; only the frame's slot
            # is left, though the cancelled helper is still queued.
            assert computation_cache.stats()["frames"] == 1
        finally:
            release.set()
            for blocker in blockers:
                blocker.result(timeout=30.0)

    def test_nested_batch_inside_pool_worker_completes(self, frame):
        """A batch issued from a pool thread runs inline (deadlock rule)."""
        expected = run_serial(frame)
        config.parallel_execute = True
        config.action_pool_workers = 2
        computation_cache.clear()

        def nested():
            assert pool.in_worker()
            return DataFrameExecutor().execute_many(build_specs(), frame)

        got = pool.submit(nested).result(timeout=60.0)
        assert got == expected

    def test_budget_respected_under_concurrency(self, frame):
        config.parallel_execute = True
        config.action_pool_workers = 4
        config.computation_cache_budget_mb = 1

        threads = [
            threading.Thread(
                target=lambda: DataFrameExecutor().execute_many(
                    build_specs(), frame
                ),
                daemon=True,
            )
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
        assert computation_cache.stats()["bytes"] <= 1 << 20


class TestSharedPool:
    def test_submit_runs_off_thread(self):
        ident = pool.submit(threading.get_ident).result(timeout=10.0)
        assert ident != threading.get_ident()
        assert not pool.in_worker()

    def test_resize_hands_off_queued_tasks(self):
        """Tasks queued behind a resize still complete on the new pool."""
        config.action_pool_workers = 1
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(30.0)
            return "blocker"

        blocking = pool.submit(blocker)
        assert started.wait(10.0)
        queued = [pool.submit(lambda i=i: i) for i in range(8)]
        # Resize while the single worker is busy and eight tasks are queued:
        # they stay in the fair queue, and the next submission starts
        # threads for them.
        config.action_pool_workers = 3
        trigger = pool.submit(lambda: "resized")
        release.set()
        assert trigger.result(timeout=30.0) == "resized"
        assert blocking.result(timeout=30.0) == "blocker"
        assert sorted(f.result(timeout=30.0) for f in queued) == list(range(8))

    def test_submit_propagates_exceptions(self):
        future = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            future.result(timeout=10.0)
