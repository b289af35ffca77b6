"""Always-on service benchmark: cold vs store-hit reads, with gating.

Measures the service's read path over the same frame shape as the
shared-scan benchmark (6 measures x 3 dims, a 40+-candidate
recommendation pass):

- ``cold_read``: the store has nothing for the current version; a
  ``session.recommendations()`` call runs a full foreground pass
  (compile, execute, rank, serialize) before returning — the
  compute-on-demand world the paper argues against.  Best of the rounds.
- after each mutation the background engine runs its pass during the
  idle gap, and reads return from the versioned store — the always-on
  world.  ``precomputed_read`` is the first read after each pass (best
  of the rounds); ``store_hit_read`` is the median of the
  ``STORE_HIT_READS`` reads that follow it in every pass.

A multi-session section precomputes N sessions concurrently through the
fair-share pool and reports store-hit read throughput (``reads_per_s``)
— the serving-side number a multi-user deployment cares about.

Every run emits a ``BENCH_service.json`` trajectory artifact and gates
through ``harness.py``:

- the reads after each pass must hit the store, and the stored payload
  must be byte-identical to a foreground recomputation of the same
  version;
- the precompute speedup (cold read / first read after a pass) must
  clear the 5x acceptance floor;
- against a comparable committed baseline
  (``benchmarks/baselines/BENCH_service.json``) the cold read, the
  store-hit read and the multi-session ``reads_per_s`` each hold their
  own trajectory, so a regression names its term and a faster cold read
  cannot fail the gate.

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service.py \\
        [--quick] [--rows N] [--sessions N] [--out PATH] [--update-baseline]

``--multiproc`` switches to the sharded-tier benchmark
(``BENCH_service_multiproc.json``): a worker-count scaling section
(supervisor with 1 vs 4 worker processes; precompute wall-clock and
threaded store-read throughput must both scale **>= 1.8x** — measured
only on hosts with >= 4 cores, loudly skipped otherwise) and a restart
recovery section that runs on every host: restored payloads must be
bit-identical, and the cold rebuild and the warm restore each hold their
own trajectory against ``benchmarks/baselines/BENCH_service_multiproc.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from bench_shared_scan import build_frame  # noqa: E402

from repro import LuxDataFrame, config, config_overlay  # noqa: E402
from repro.core import pool  # noqa: E402
from repro.core.executor.cache import computation_cache  # noqa: E402
from repro.service import SessionManager  # noqa: E402

#: Acceptance floor: precomputed reads must be at least this much faster
#: than cold reads (the issue's bar; in practice the ratio is >100x).
PRECOMPUTE_FLOOR = 5.0

#: Required speedup at 4 workers vs 1 for both precompute wall-clock and
#: read throughput (gated only on hosts with >= 4 cores).
SCALING_FLOOR = 1.8

#: Store-hit reads timed after each pass's first read.
STORE_HIT_READS = 100

METRICS = (
    harness.Metric("speedups.precompute", "higher", tolerance=None, floor=PRECOMPUTE_FLOOR),
    harness.Metric("timings_ms.cold_read", "lower"),
    harness.Metric("timings_ms.store_hit_read", "lower"),
    harness.Metric("multi_session.reads_per_s", "higher"),
)

MULTIPROC_METRICS = (
    harness.Metric(
        "scaling.precompute_scaling", "higher", tolerance=None, floor=SCALING_FLOOR, min_cpus=4
    ),
    harness.Metric(
        "scaling.read_scaling", "higher", tolerance=None, floor=SCALING_FLOOR, min_cpus=4
    ),
    harness.Metric("recovery.cold_ms", "lower"),
    harness.Metric("recovery.warm_ms", "lower"),
)


def build_lux_frame(rows: int, seed: int = 0) -> LuxDataFrame:
    """The shared-scan benchmark frame, wrapped for the always-on path."""
    plain = build_frame(rows, seed)
    return LuxDataFrame({name: plain.column(name) for name in plain.columns})


def touch(session) -> None:
    """A content mutation: bumps the version, arms the precompute engine."""
    session.frame["q0"] = session.frame["q0"]


def measure_cold(manager: SessionManager, rows: int, rounds: int) -> float:
    """Foreground read latency with nothing precomputed."""
    config.precompute = False
    session = manager.create(build_lux_frame(rows))
    times = []
    for _ in range(rounds):
        touch(session)  # new version: the store has nothing for it
        start = time.perf_counter()
        response = session.recommendations()
        times.append(time.perf_counter() - start)
        assert response["provenance"]["origin"] == "foreground"
    manager.close(session.id)
    return min(times)


def measure_precomputed(
    manager: SessionManager, rows: int, rounds: int
) -> tuple[float, list[float], bool]:
    """Store-hit read latencies after a mutation + idle period.

    Returns the best first read after a pass, every later read's time,
    and whether the stored pass equals a foreground recomputation.
    """
    config.precompute = True
    session = manager.create(build_lux_frame(rows))
    first: list[float] = []
    later: list[float] = []
    for _ in range(rounds):
        touch(session)
        assert manager.engine.wait_idle(120), "precompute never settled"
        for times in [first] + [later] * STORE_HIT_READS:
            start = time.perf_counter()
            response = session.recommendations()
            times.append(time.perf_counter() - start)
            # Incremental passes mix recomputed and carried provenance; any
            # of the three store-served origins means zero foreground work.
            assert response["provenance"]["origin"] in (
                "precompute",
                "carried",
                "mixed",
            ), "read did not hit the store"
            # Dropped untimed: the next pass's first read would otherwise
            # pay for freeing this pass's decoded payloads.
            del response
    stored = session.recommendations(compute=False)
    # Correctness: the stored payload must match a true foreground
    # recomputation of the very same version (store dropped AND the
    # frame's memoized set expired, so nothing is reused).
    manager.store.drop_session(session.id)
    session.frame.expire_recommendations()
    recomputed = session.recommendations()
    assert recomputed["provenance"]["origin"] == "foreground"
    identical = recomputed["actions"] == stored["actions"]
    manager.close(session.id)
    return min(first), later, identical


def measure_multi_session(
    manager: SessionManager, rows: int, n_sessions: int, reads: int = 2_000
) -> dict[str, float]:
    """Concurrent precompute across sessions + store-hit read throughput.

    ``reads`` spans tens of milliseconds: 200 reads took about one
    5 ms interpreter switch interval, so one stall on another thread
    moved ``reads_per_s`` by up to 4x between runs.
    """
    config.precompute = True
    sessions = [
        manager.create(build_lux_frame(rows, seed=i), overrides={"top_k": 5})
        for i in range(n_sessions)
    ]
    start = time.perf_counter()
    for session in sessions:
        touch(session)
    assert manager.engine.wait_idle(300), "multi-session precompute stalled"
    precompute_wall_s = time.perf_counter() - start

    start = time.perf_counter()
    for i in range(reads):
        response = sessions[i % n_sessions].recommendations()
        assert response["provenance"]["origin"] != "foreground"
    read_wall_s = time.perf_counter() - start
    for session in sessions:
        manager.close(session.id)
    return {
        "sessions": n_sessions,
        "precompute_wall_ms": round(precompute_wall_s * 1e3, 3),
        "reads": reads,
        "reads_per_s": round(reads / read_wall_s) if read_wall_s > 0 else 0,
    }


# ----------------------------------------------------------------------
# Multi-process (sharded tier) sections
# ----------------------------------------------------------------------
def strip_provenance(response: dict) -> str:
    # The session id is not part of the payload contract (a cold rebuild
    # registers fresh ids); provenance carries wall-clock pass times.
    return json.dumps(
        {
            k: v
            for k, v in response.items()
            if k not in ("provenance", "session")
        },
        sort_keys=True,
    )


def measure_worker_scaling(
    rows: int, n_sessions: int, n_workers: int, reads: int = 240
) -> dict:
    """Precompute wall-clock + threaded read throughput at one worker count.

    Sessions live in spawned worker processes behind a Supervisor; reads
    go through the supervisor's pre-serialized payload passthrough, from
    several threads at once — the router-side picture an HTTP deployment
    sees.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import Supervisor

    snap = config.snapshot()
    config.precompute = True
    config.precompute_debounce_s = 0.0
    try:
        sup = Supervisor(n_workers=n_workers)
        try:
            ids = [
                sup.request(
                    "create",
                    {
                        "dataset": "synthetic-skewed",
                        "rows": rows,
                        "config": {"top_k": 3},
                    },
                )["session"]
                for _ in range(n_sessions)
            ]
            assert sup.wait_idle(600), "create passes never settled"

            start = time.perf_counter()
            for sid in ids:
                sup.request("mutate", {"session": sid, "column": "heavy_tail"})
            assert sup.wait_idle(600), "precompute never settled"
            precompute_wall_s = time.perf_counter() - start

            def read(i: int) -> None:
                params = {"session": ids[i % len(ids)]}
                payload = sup.request("recommendations", params)["payload_json"]
                assert payload  # pre-serialized JSON bytes

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=8) as executor:
                list(executor.map(read, range(reads)))
            read_wall_s = time.perf_counter() - start
        finally:
            sup.stop()
    finally:
        config.restore(snap)
    return {
        "workers": n_workers,
        "sessions": n_sessions,
        "precompute_wall_ms": round(precompute_wall_s * 1e3, 1),
        "reads": reads,
        "reads_per_s": round(reads / read_wall_s) if read_wall_s > 0 else 0,
    }


def measure_recovery(rows: int, n_sessions: int = 3) -> dict:
    """Warm restart (snapshot restore) vs cold start (rebuild + compute).

    Both timings cover the full path an operator waits on after a
    restart: cold = rebuild the data, register the session, run the
    first foreground pass; warm = restore snapshots from disk, serve the
    first read from the rehydrated store.  Payloads must be
    bit-identical to the pre-shutdown reference either way.
    """
    import shutil
    import tempfile

    from repro.data.synthetic import make_scenario
    from repro.service import SnapshotStore

    tmp = tempfile.mkdtemp(prefix="lux-recovery-")
    try:
        with config_overlay(precompute_debounce_s=0.0, precompute=True):
            manager = SessionManager(
                snapshots=SnapshotStore(tmp, interval_s=0.0)
            )
            references = []
            ids = []
            for _ in range(n_sessions):
                session = manager.create(
                    make_scenario("skewed", n_rows=rows),
                    overrides={"top_k": 3},
                )
                session.mutate("heavy_tail")
                ids.append(session.id)
            assert manager.engine.wait_idle(600), "recovery prep stalled"
            for sid in ids:
                references.append(
                    strip_provenance(manager.get(sid).recommendations())
                )
            manager.shutdown()  # flushes every session's snapshot

        # Cold start: the no-persistence world — rebuild everything and
        # compute the first response in the foreground.
        with config_overlay(precompute=False):
            cold_manager = SessionManager()
            start = time.perf_counter()
            cold_responses = []
            for _ in range(n_sessions):
                session = cold_manager.create(
                    make_scenario("skewed", n_rows=rows),
                    overrides={"top_k": 3},
                )
                session.mutate("heavy_tail")
                response = session.recommendations()
                assert response["provenance"]["origin"] == "foreground"
                cold_responses.append(response)
            cold_s = time.perf_counter() - start
            cold_manager.shutdown()

        # Warm start: restore the snapshot directory, serve from it.
        # (Identity serialization happens after the clock stops — it is
        # verification overhead, not part of either recovery path.)
        with config_overlay(precompute_debounce_s=0.0):
            warm_manager = SessionManager(snapshots=SnapshotStore(tmp))
            start = time.perf_counter()
            restored = warm_manager.restore_sessions()
            warm_responses = {}
            for sid in restored:
                warm_responses[sid] = warm_manager.get(sid).recommendations()
            warm_s = time.perf_counter() - start
            warm_manager.shutdown()

        identical = (
            sorted(restored) == sorted(ids)
            and all(
                r["provenance"]["origin"] != "foreground"
                for r in warm_responses.values()
            )
            and [strip_provenance(warm_responses[sid]) for sid in ids]
            == references
            and [strip_provenance(r) for r in cold_responses] == references
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "sessions": n_sessions,
        "cold_ms": round(cold_s * 1e3, 1),
        "warm_ms": round(warm_s * 1e3, 1),
        "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else float("inf"),
        "identical": identical,
    }


def run_multiproc(args: argparse.Namespace) -> int:
    head = harness.record("service_multiproc", args, rows=args.rows)
    cpu_count = head["cpu_count"]
    n_sessions = max(4, 2 * args.sessions)
    print(
        f"service multiproc: {args.rows} rows, {n_sessions} sessions, "
        f"{cpu_count} cores"
    )

    if cpu_count >= 4:
        single = measure_worker_scaling(args.rows, n_sessions, 1)
        multi = measure_worker_scaling(args.rows, n_sessions, 4)
        scaling = {
            "single": single,
            "multi": multi,
            "precompute_scaling": round(
                single["precompute_wall_ms"] / multi["precompute_wall_ms"], 2
            )
            if multi["precompute_wall_ms"]
            else 0.0,
            "read_scaling": round(
                multi["reads_per_s"] / single["reads_per_s"], 2
            )
            if single["reads_per_s"]
            else 0.0,
        }
        print(
            f"  1 worker : precompute {single['precompute_wall_ms']:.0f} ms, "
            f"{single['reads_per_s']} reads/s"
        )
        print(
            f"  4 workers: precompute {multi['precompute_wall_ms']:.0f} ms, "
            f"{multi['reads_per_s']} reads/s"
        )
        print(
            f"  scaling  : precompute {scaling['precompute_scaling']:.2f}x, "
            f"reads {scaling['read_scaling']:.2f}x"
        )
    else:
        reason = (
            f"host has {cpu_count} core(s); the 1-vs-4-worker scaling "
            "section needs >= 4"
        )
        scaling = {"skipped": True, "reason": reason}
        print(f"  SCALING SKIPPED (NOT GATED): {reason}")

    recovery = measure_recovery(min(args.rows, 20_000))
    print(
        f"  recovery : cold {recovery['cold_ms']:.0f} ms, "
        f"warm {recovery['warm_ms']:.0f} ms "
        f"({recovery['speedup']:.1f}x), identical={recovery['identical']}"
    )

    report = {**head, "scaling": scaling, "recovery": recovery}
    correctness = (
        [] if recovery["identical"]
        else ["restored payloads differ from the pre-restart reference"]
    )
    return harness.conclude(
        args, report, MULTIPROC_METRICS, correctness, shape=("rows",)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser(__doc__)
    parser.add_argument("--sessions", type=int, default=4,
                        help="session count for the throughput section")
    parser.add_argument("--multiproc", action="store_true",
                        help="benchmark the sharded multi-process tier "
                        "(worker scaling + snapshot recovery) instead")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = harness.parse(build_parser(), argv)
    if args.multiproc:
        return run_multiproc(args)

    with contextlib.ExitStack() as stack:
        stack.callback(computation_cache.clear)
        stack.enter_context(config_overlay(precompute_debounce_s=0.0))
        manager = SessionManager()
        stack.callback(manager.shutdown)

        head = harness.record("service", args, rows=args.rows)
        print(f"service: {args.rows} rows, best of {args.rounds}, "
              f"{args.sessions} sessions, {head['cpu_count']} cores, "
              f"{pool.worker_count()} workers")

        cold = measure_cold(manager, args.rows, args.rounds)
        print(f"  cold_read       : {cold * 1e3:9.1f} ms")
        warm, later, identical = measure_precomputed(
            manager, args.rows, args.rounds
        )
        store_hit = statistics.median(later)
        print(f"  precomputed_read: {warm * 1e3:9.3f} ms (first read after a pass)")
        print(f"  store_hit_read  : {store_hit * 1e3:9.4f} ms "
              f"(median of {len(later)})")
        multi = measure_multi_session(manager, args.rows, args.sessions)
        print(f"  multi-session   : {multi['sessions']} sessions precomputed "
              f"in {multi['precompute_wall_ms']:.0f} ms, "
              f"{multi['reads_per_s']} store reads/s")

        speedup = cold / warm if warm > 0 else float("inf")
        report = {
            **head,
            "rounds": args.rounds,
            "timings_ms": {
                "cold_read": round(cold * 1e3, 3),
                "precomputed_read": round(warm * 1e3, 3),
                "store_hit_read": round(store_hit * 1e3, 4),
            },
            "store_hit_reads": len(later),
            "speedups": {"precompute": round(speedup, 1)},
            "multi_session": multi,
            "identical": identical,
        }
        print(f"  precompute speedup: {speedup:9.1f}x")
        print(f"  identical         : {identical}")

        correctness = (
            [] if identical
            else ["precomputed payload differs from foreground recomputation"]
        )
        return harness.conclude(
            args, report, METRICS, correctness, shape=("rows",)
        )


if __name__ == "__main__":
    sys.exit(main())
