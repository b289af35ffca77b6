"""The shared pool: fair-share admission, context, and its threads' lifecycle."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

from repro import config
from repro.core import pool, telemetry

SRC = Path(__file__).resolve().parents[2] / "src"


def _live_pool_threads() -> int:
    return sum(t.name.startswith("lux-worker") for t in threading.enumerate())


def _settle(workers: int) -> None:
    """Resize to ``workers`` and wait until no surplus pool thread is left.

    Surplus threads exit only when woken, so one submission starts the
    chain; they stay in ``threading.enumerate()`` until they finish.
    """
    config.action_pool_workers = workers
    pool.submit(lambda: None).result(timeout=10)
    deadline = time.monotonic() + 10
    while _live_pool_threads() > workers and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _live_pool_threads() <= workers


def _block_worker(gate: threading.Event):
    """Occupy the single worker so subsequent submissions queue up."""
    started = threading.Event()

    def blocker():
        started.set()
        gate.wait(10)

    future = pool.submit(blocker)
    assert started.wait(10)
    return future


class TestFairShare:
    def test_interactive_preempts_background(self):
        config.action_pool_workers = 1
        gate = threading.Event()
        order: list[str] = []
        try:
            blocker = _block_worker(gate)
            futures = [
                pool.submit(lambda: order.append("bg"), tag="s1", background=True),
                pool.submit(lambda: order.append("fg"), tag="s2"),
            ]
        finally:
            gate.set()
        for f in futures:
            f.result(timeout=10)
        blocker.result(timeout=10)
        # The background item was queued first but drained second.
        assert order == ["fg", "bg"]

    def test_round_robin_across_tags(self):
        config.action_pool_workers = 1
        gate = threading.Event()
        order: list[str] = []
        try:
            blocker = _block_worker(gate)
            futures = [
                pool.submit(lambda: order.append("a1"), tag="a"),
                pool.submit(lambda: order.append("a2"), tag="a"),
                pool.submit(lambda: order.append("a3"), tag="a"),
                pool.submit(lambda: order.append("b1"), tag="b"),
            ]
        finally:
            gate.set()
        for f in futures:
            f.result(timeout=10)
        blocker.result(timeout=10)
        # Tag b gets its turn after one item of tag a, not after all three.
        assert order.index("b1") == 1, order

    def test_cancel_before_start_prevents_run(self):
        config.action_pool_workers = 1
        gate = threading.Event()
        ran: list[int] = []
        try:
            blocker = _block_worker(gate)
            doomed = pool.submit(lambda: ran.append(1))
            assert doomed.cancel()
        finally:
            gate.set()
        blocker.result(timeout=10)
        # Give the (no-op) dispatcher a moment to drain the queue item.
        deadline = time.monotonic() + 5
        while pool.stats()["queued_interactive"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ran == []

    def test_nested_submission_inherits_tag_and_band(self):
        config.action_pool_workers = 2
        seen: dict[str, object] = {}

        def outer():
            seen["tag"] = pool.current_tag()
            inner = pool.submit(lambda: pool.current_tag())
            return inner.result(timeout=10)

        future = pool.submit(outer, tag="sess-9", background=True)
        assert future.result(timeout=10) == "sess-9"
        assert seen["tag"] == "sess-9"

    def test_stats_shape(self):
        stats = pool.stats()
        assert {"workers", "queued_interactive", "queued_background"} <= set(stats)
        assert set(stats["queues"]) == {"interactive", "background"}

    def test_per_tag_queue_depths(self):
        """stats()['queues'] breaks queued work down per band, per tag —
        the /healthz view an operator uses to see who is waiting where."""
        config.action_pool_workers = 1
        gate = threading.Event()
        try:
            blocker = _block_worker(gate)
            futures = [
                pool.submit(lambda: None, tag="s1", background=True),
                pool.submit(lambda: None, tag="s1", background=True),
                pool.submit(lambda: None, tag="s2", background=True),
                pool.submit(lambda: None, tag="s1"),
            ]
            queues = pool.stats()["queues"]
            assert queues["background"] == {"s1": 2, "s2": 1}
            assert queues["interactive"] == {"s1": 1}
        finally:
            gate.set()
        for f in futures:
            f.result(timeout=10)
        blocker.result(timeout=10)
        # Drained queues report empty (zero-count tags are elided).
        deadline = time.monotonic() + 5
        while any(pool.stats()["queues"].values()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.stats()["queues"] == {"interactive": {}, "background": {}}


class TestThreads:
    def test_burst_never_exceeds_worker_count(self):
        _settle(2)
        seen: list[int] = []
        futures = [
            pool.submit(lambda: seen.append(_live_pool_threads())) for _ in range(200)
        ]
        for f in futures:
            f.result(timeout=30)
        assert len(seen) == 200
        assert max(seen) <= 2, max(seen)

    def test_shrink_with_items_queued(self):
        _settle(4)
        gate = threading.Event()
        started = [threading.Event() for _ in range(4)]

        def block(event: threading.Event) -> str:
            event.set()
            gate.wait(30)
            return "blocker"

        try:
            blockers = [pool.submit(lambda e=e: block(e)) for e in started]
            assert all(event.wait(10) for event in started)
            queued = [pool.submit(lambda i=i: i) for i in range(8)]
            config.action_pool_workers = 1
        finally:
            gate.set()
        assert [f.result(timeout=30) for f in blockers] == ["blocker"] * 4
        assert [f.result(timeout=30) for f in queued] == list(range(8))
        # Three of the four threads exit as they finish their blockers.
        deadline = time.monotonic() + 10
        while _live_pool_threads() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _live_pool_threads() <= 1

    def test_resize_storm_runs_every_item_once(self):
        """Stress: submissions racing resizes, with more threads than cores
        and a short switch interval, run each item exactly once, never
        keep more live threads than the largest size set, and end with
        every live thread counted idle."""
        _settle(2)
        seen: list[int] = []

        def item(i: int) -> int:
            seen.append(len(pool._THREADS))
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            futures = []
            for i in range(400):
                if i % 50 == 0:
                    config.action_pool_workers = (8, 1, 4, 2)[i // 50 % 4]
                futures.append(pool.submit(lambda i=i: item(i)))
            assert [f.result(timeout=30) for f in futures] == list(range(400))
        finally:
            sys.setswitchinterval(interval)
        assert max(seen) <= 8
        deadline = time.monotonic() + 10
        while pool._IDLE != len(pool._THREADS) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._IDLE == len(pool._THREADS)
        assert pool.stats()["queued_interactive"] == 0

    def test_idle_thread_keeps_no_finished_item_alive(self):
        _settle(1)

        class Payload:
            pass

        future = pool.submit(Payload)
        ref = weakref.ref(future.result(timeout=10))
        del future
        deadline = time.monotonic() + 10
        while pool._IDLE != len(pool._THREADS) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ref() is None

    def test_item_raising_past_run_frees_its_slot(self, monkeypatch):
        _settle(1)
        real = telemetry.histogram

        class Raising:
            def __init__(self, inner):
                self.inner = inner

            def observe(self, value, labels=()):
                if tuple(labels)[1] == "doomed":
                    raise RuntimeError("histogram down")
                self.inner.observe(value, labels)

        def histogram(name, *args, **kwargs):
            metric = real(name, *args, **kwargs)
            return Raising(metric) if name == "lux_pool_run_seconds" else metric

        died: list[threading.Thread] = []
        monkeypatch.setattr(telemetry, "histogram", histogram)
        monkeypatch.setattr(threading, "excepthook", lambda args: died.append(args.thread))
        # The item's result is set before its run-time observation raises.
        doomed = pool.submit(threading.current_thread, tag="doomed")
        thread = doomed.result(timeout=10)
        thread.join(10)
        assert not thread.is_alive()
        assert died == [thread]
        assert thread not in pool._THREADS
        assert pool.submit(lambda: "next").result(timeout=10) == "next"

    def test_interpreter_exit_does_not_wait_for_pool_threads(self):
        code = (
            "import threading, time\n"
            "from repro.core import pool\n"
            "started = threading.Event()\n"
            "pool.submit(lambda: (started.set(), time.sleep(30)))\n"
            "assert started.wait(10)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        # Raises TimeoutExpired if exit joins the sleeping pool thread.
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=10)
