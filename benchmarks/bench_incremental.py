"""Incremental recomputation benchmark: content-keyed background passes.

Measures the precompute engine's steady-state background work on the
shared-scan frame shape (6 measures x 3 dims, the 40+-candidate
recommendation pass) when a *single column* changes between passes:

- ``full_pass``:        ``config.incremental_precompute = False``; every
  version bump reruns the whole applicable action set, as PR 4 shipped.
- ``incremental_pass``: each candidate vis is keyed by its inputs (the
  metadata stamps of the columns it reads, the intent epoch when it
  depends on intent, the effective config); an action whose candidate
  keys all match the previous pass is reused whole (provenance
  ``carried``), and only candidates with new keys recompute.

The mutated column is a *dimension* (``d1``), so the expensive actions
(Correlation over 15 measure pairs, Distribution over 6 histograms) keep
their keys and only Occurrence reruns — and within Occurrence only the
``d1`` candidate recomputes; the other dimensions' vis are reused at
candidate granularity (action origin ``mixed``).  Metadata refresh is
delta-scoped: only the mutated column is rescanned, so only its stamp
moves.

Every run emits a ``BENCH_incremental.json`` trajectory artifact and
gates through ``harness.py``:

- the incremental pass must rerun **only** the affected subset
  (Occurrence, partially; Correlation and Distribution carried) and its
  stored payloads must be byte-identical to a cold foreground
  recomputation of the same version;
- the background work reduction (full pass / incremental pass) must
  clear the 10x acceptance floor (candidate-level reruns; the
  whole-action partition alone gated 3x), and the single-column metadata
  rescan must beat a full rescan by ``METADATA_SCAN_FLOOR``;
- against a comparable committed baseline
  (``benchmarks/baselines/BENCH_incremental.json``) the full pass, the
  incremental pass, the full metadata rescan and the single-column one
  are each held to their own trajectory, so a faster full pass or full
  rescan cannot fail the gate.

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_incremental.py \\
        [--quick] [--rows N] [--out PATH] [--update-baseline]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from bench_service import build_lux_frame  # noqa: E402

from repro import config, config_overlay  # noqa: E402
from repro.core import pool  # noqa: E402
from repro.core.executor.cache import computation_cache  # noqa: E402
from repro.service import SessionManager  # noqa: E402

#: Acceptance floor: a single-dimension mutation must cost at least this
#: much less background work than a full recompute.
INCREMENTAL_FLOOR = 10.0

#: Acceptance floor for the delta-scoped metadata refresh: rescanning the
#: one mutated column must beat a full all-columns rescan by this factor.
METADATA_SCAN_FLOOR = 2.0

#: The column mutated between passes and the expected partition around it.
MUTATED_COLUMN = "d1"
EXPECTED_RERUN = {"Occurrence"}
EXPECTED_CARRIED = {"Correlation", "Distribution"}

METRICS = (
    harness.Metric("speedups.incremental", "higher", tolerance=None, floor=INCREMENTAL_FLOOR),
    harness.Metric("speedups.metadata_scan", "higher", tolerance=None, floor=METADATA_SCAN_FLOOR),
    harness.Metric("timings_ms.full_pass", "lower"),
    harness.Metric("timings_ms.incremental_pass", "lower"),
    harness.Metric("timings_ms.metadata_full_scan", "lower"),
    harness.Metric("timings_ms.metadata_delta_scan", "lower"),
)


def touch(session) -> None:
    """A real single-column update: reverse the dimension's row order.

    Only ``MUTATED_COLUMN``'s values move; every other column — and the
    row set — is untouched, so the emitted delta names exactly one column.
    """
    session.frame[MUTATED_COLUMN] = session.frame[MUTATED_COLUMN].to_list()[::-1]


def measure_passes(
    manager: SessionManager, rows: int, rounds: int, incremental: bool
) -> tuple[float, dict]:
    """Best wall time of a post-mutation background pass, plus evidence.

    Returns ``(seconds, info)`` where ``info`` carries the engine counter
    deltas and, for the incremental condition, the final read's per-action
    provenance and its identity against a cold foreground recomputation.
    """
    config.precompute = True
    config.incremental_precompute = incremental
    session = manager.create(build_lux_frame(rows))
    assert manager.engine.wait_idle(300), "initial pass never settled"
    before = manager.engine.stats()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        touch(session)
        assert manager.engine.wait_idle(300), "background pass stalled"
        times.append(time.perf_counter() - start)
    after = manager.engine.stats()
    info: dict = {
        "passes": rounds,
        "actions_rerun": after["actions_rerun"] - before["actions_rerun"],
        "actions_carried": after["actions_carried"] - before["actions_carried"],
        "candidates_rerun": after["candidates_rerun"]
        - before["candidates_rerun"],
        "candidates_carried": after["candidates_carried"]
        - before["candidates_carried"],
    }

    response = session.recommendations(compute=False)
    assert response is not None, "store must hold the final pass"
    info["origins"] = {
        name: action["origin"]
        for name, action in response["provenance"]["actions"].items()
    }

    # Identity: the stored (partly reused) pass must match a true
    # foreground recomputation of the very same version, with the store
    # dropped and the frame's memoized set expired so nothing is reused.
    manager.store.drop_session(session.id)
    session.frame.expire_recommendations()
    recomputed = session.recommendations()
    assert recomputed["provenance"]["origin"] == "foreground"
    info["identical"] = recomputed["actions"] == response["actions"]
    manager.close(session.id)
    return min(times), info


def partition_failures(info: dict) -> list[str]:
    """Check the incremental pass reran only the affected subset.

    ``mixed`` counts as rerun: the action executed, reusing a subset of
    its candidates — exactly what a single-dimension mutation should
    produce for Occurrence (only the mutated dimension's vis recomputes).
    """
    failures = []
    origins = info["origins"]
    rerun = {a for a, o in origins.items() if o in ("precompute", "mixed")}
    carried = {a for a, o in origins.items() if o == "carried"}
    if not EXPECTED_RERUN <= rerun or rerun & EXPECTED_CARRIED:
        failures.append(
            f"rerun set {sorted(rerun)} is not the affected subset "
            f"{sorted(EXPECTED_RERUN)}"
        )
    if not EXPECTED_CARRIED <= carried:
        failures.append(
            f"carried set {sorted(carried)} misses unaffected actions "
            f"{sorted(EXPECTED_CARRIED)}"
        )
    if info["candidates_carried"] < 1:
        failures.append(
            "no candidate key hit: the partially rerun action "
            "recomputed every candidate"
        )
    return failures


def measure_metadata_scan(rows: int, rounds: int) -> tuple[float, float]:
    """Best metadata refresh time: full rescan vs single-column delta.

    Both conditions apply the identical mutation; the full condition then
    discards the pending delta so ``_compute_metadata`` takes the
    all-columns path, isolating exactly what per-column versioning saves.
    """
    frame = build_lux_frame(rows)
    frame.metadata  # cold compute primes the cache
    full_times, delta_times = [], []
    for _ in range(max(rounds, 3)):
        frame[MUTATED_COLUMN] = frame[MUTATED_COLUMN].to_list()[::-1]
        frame._metadata_delta = None  # forget the delta: full rescan
        start = time.perf_counter()
        frame.metadata
        full_times.append(time.perf_counter() - start)

        frame[MUTATED_COLUMN] = frame[MUTATED_COLUMN].to_list()[::-1]
        start = time.perf_counter()
        frame.metadata
        delta_times.append(time.perf_counter() - start)
    return min(full_times), min(delta_times)


def build_parser() -> argparse.ArgumentParser:
    return harness.parser(__doc__)


def main(argv: list[str] | None = None) -> int:
    args = harness.parse(build_parser(), argv)

    with contextlib.ExitStack() as stack:
        stack.callback(computation_cache.clear)
        stack.enter_context(config_overlay(precompute_debounce_s=0.0))
        manager = SessionManager()
        stack.callback(manager.shutdown)

        head = harness.record("incremental", args, rows=args.rows)
        print(f"incremental: {args.rows} rows, best of {args.rounds}, "
              f"{head['cpu_count']} cores, {pool.worker_count()} workers, "
              f"mutating {MUTATED_COLUMN!r} per pass")

        full, full_info = measure_passes(
            manager, args.rows, args.rounds, incremental=False
        )
        print(f"  full_pass       : {full * 1e3:9.1f} ms "
              f"({full_info['actions_rerun']} actions rerun)")
        incr, incr_info = measure_passes(
            manager, args.rows, args.rounds, incremental=True
        )
        print(f"  incremental_pass: {incr * 1e3:9.1f} ms "
              f"({incr_info['actions_rerun']} rerun, "
              f"{incr_info['actions_carried']} carried; candidates "
              f"{incr_info['candidates_rerun']} rerun, "
              f"{incr_info['candidates_carried']} carried)")
        print(f"  origins         : {incr_info['origins']}")
        meta_full, meta_delta = measure_metadata_scan(args.rows, args.rounds)
        print(f"  metadata rescan : {meta_full * 1e3:9.1f} ms full, "
              f"{meta_delta * 1e3:.1f} ms single-column")

        reduction = full / incr if incr > 0 else float("inf")
        meta_reduction = (
            meta_full / meta_delta if meta_delta > 0 else float("inf")
        )
        report = {
            **head,
            "rounds": args.rounds,
            "mutated_column": MUTATED_COLUMN,
            "timings_ms": {
                "full_pass": round(full * 1e3, 3),
                "incremental_pass": round(incr * 1e3, 3),
                "metadata_full_scan": round(meta_full * 1e3, 3),
                "metadata_delta_scan": round(meta_delta * 1e3, 3),
            },
            "speedups": {
                "incremental": round(reduction, 1),
                "metadata_scan": round(meta_reduction, 1),
            },
            "actions": {
                "full_rerun": full_info["actions_rerun"],
                "incremental_rerun": incr_info["actions_rerun"],
                "incremental_carried": incr_info["actions_carried"],
                "incremental_candidates_rerun": incr_info["candidates_rerun"],
                "incremental_candidates_carried": incr_info[
                    "candidates_carried"
                ],
            },
            "origins": incr_info["origins"],
            "partition_failures": partition_failures(incr_info),
            "identical": bool(
                full_info["identical"] and incr_info["identical"]
            ),
        }
        print(f"  work reduction  : {reduction:9.1f}x "
              f"(metadata rescan {meta_reduction:.1f}x)")
        print(f"  identical       : {report['identical']}")

        correctness = list(report["partition_failures"])
        if not report["identical"]:
            correctness.append(
                "incremental pass payloads differ from foreground "
                "recomputation"
            )
        return harness.conclude(
            args, report, METRICS, correctness, shape=("rows",)
        )


if __name__ == "__main__":
    sys.exit(main())
