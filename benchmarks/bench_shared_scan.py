"""Shared-scan ablation + parallel fan-out benchmark, with trajectory gating.

Measures one recommendation pass — a 40+-candidate set mixing group-by
bars/lines, histograms, heatmaps, and filtered variants, the workload every
user action triggers — executed through ``DataFrameExecutor.execute_many``
under three conditions:

- ``serial_uncached``: ``config.computation_cache = False``; every candidate
  re-scans the frame, as the seed executor did.
- ``serial_cached``:  the cache memoizes filter masks, factorizations,
  float views, and bin edges; the batch runs on the calling thread.
- ``parallel``:       the cached batch additionally fans out across the
  shared worker pool (``config.parallel_execute``).

Every run emits a ``BENCH_shared_scan.json`` trajectory artifact (timings,
speedups, candidate/worker/core counts, cache bytes) and gates on it:

- parallel results must be bit-identical to serial results;
- cache memory must respect ``config.computation_cache_budget_mb``;
- the cache speedup must not regress against the committed baseline
  (``benchmarks/baselines/BENCH_shared_scan.json``), falling back to the
  historical 1.5x floor when no comparable baseline exists;
- on hosts with >= 4 cores, the parallel condition must clear 1.5x over
  the serial cached path (raised by the baseline trajectory when one was
  recorded on a comparable host).

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_shared_scan.py \\
        [--quick] [--rows N] [--workers N] [--out PATH] [--update-baseline]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import config, config_overlay
from repro.core.executor.cache import computation_cache
from repro.core.executor.df_exec import DataFrameExecutor
from repro.dataframe import DataFrame
from repro.vis.encoding import Encoding
from repro.vis.spec import VisSpec

N_MEASURES = 6
N_DIMS = 3

#: Allowed fraction of the baseline speedup before the gate trips: absorbs
#: host-to-host noise while still catching real trajectory regressions.
TOLERANCE = 0.6

#: Historical absolute floor (the PR-1 acceptance bar), used when no
#: comparable baseline entry exists.
CACHE_FLOOR = 1.5

#: Acceptance bar for the parallel condition on multi-core hosts.
PARALLEL_FLOOR = 1.5

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_shared_scan.json"


def build_frame(rows: int, seed: int = 0) -> DataFrame:
    rng = np.random.default_rng(seed)
    data: dict = {
        f"q{i}": rng.normal(0, 1, rows) for i in range(N_MEASURES)
    }
    for j, card in zip(range(N_DIMS), (6, 12, 24)):
        data[f"d{j}"] = rng.choice(
            [f"v{v}" for v in range(card)], rows
        ).tolist()
    return DataFrame(data)


def build_candidates() -> list[VisSpec]:
    """A realistic 40+-candidate recommendation pass over one frame."""
    q = "quantitative"
    specs: list[VisSpec] = []
    # Group-by bars: every dim x measure pair shares the dim factorization.
    for j in range(N_DIMS):
        for i in range(N_MEASURES):
            specs.append(VisSpec("bar", [
                Encoding("y", f"d{j}", "nominal"),
                Encoding("x", f"q{i}", q, aggregate="mean"),
            ]))
    # Occurrence count bars.
    for j in range(N_DIMS):
        specs.append(VisSpec("bar", [
            Encoding("y", f"d{j}", "nominal"),
            Encoding("x", "", q, aggregate="count"),
        ]))
    # Histograms: share each measure's float view and bin edges.
    for i in range(N_MEASURES):
        specs.append(VisSpec("histogram", [
            Encoding("x", f"q{i}", q, bin=True, bin_size=10),
            Encoding("y", "", q, aggregate="count"),
        ]))
    # Nominal heatmaps: 2-D groupings over shared per-key factorizations.
    specs.append(VisSpec("rect", [
        Encoding("x", "d0", "nominal"),
        Encoding("y", "d1", "nominal"),
        Encoding("color", "", q, aggregate="count"),
    ]))
    specs.append(VisSpec("rect", [
        Encoding("x", "d1", "nominal"),
        Encoding("y", "d2", "nominal"),
        Encoding("color", "", q, aggregate="count"),
    ]))
    # Filtered variants: every pair below shares one mask + subframe.
    for value in (f"v{k}" for k in range(3)):  # the first three d0 values
        for i in range(2):
            specs.append(VisSpec("bar", [
                Encoding("y", "d1", "nominal"),
                Encoding("x", f"q{i}", q, aggregate="mean"),
            ], filters=[("d0", "=", value)]))
            specs.append(VisSpec("histogram", [
                Encoding("x", f"q{i}", q, bin=True, bin_size=10),
                Encoding("y", "", q, aggregate="count"),
            ], filters=[("d0", "=", value)]))
    return specs


CONDITIONS = {
    "serial_uncached": dict(computation_cache=False, parallel_execute=False),
    "serial_cached": dict(computation_cache=True, parallel_execute=False),
    "parallel": dict(computation_cache=True, parallel_execute=True),
}


def run_pass(frame: DataFrame, condition: str) -> tuple[float, list]:
    """One timed candidate-set execution; returns (seconds, results)."""
    for key, value in CONDITIONS[condition].items():
        setattr(config, key, value)
    computation_cache.clear()
    specs = build_candidates()
    executor = DataFrameExecutor()
    start = time.perf_counter()
    results = executor.execute_many(specs, frame)
    elapsed = time.perf_counter() - start
    assert all(s.data is not None for s in specs)
    return elapsed, results


def load_baseline(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def comparable(baseline: dict | None, report: dict) -> bool:
    """Whether the committed baseline measured the same workload shape."""
    return (
        baseline is not None
        and baseline.get("benchmark") == report["benchmark"]
        and baseline.get("mode") == report["mode"]
        and baseline.get("rows") == report["rows"]
        and baseline.get("candidates") == report["candidates"]
    )


def gate(report: dict, baseline: dict | None) -> list[str]:
    """Evaluate every acceptance gate; returns the list of failures."""
    failures: list[str] = []
    speedups = report["speedups"]

    if not report["identical"]:
        failures.append("parallel results differ from serial results")

    budget = report["cache_budget_bytes"]
    if budget and report["cache_bytes"] > budget:
        failures.append(
            f"cache bytes {report['cache_bytes']} exceed budget {budget}"
        )

    if comparable(baseline, report):
        base_cache = baseline["speedups"]["cache"]
        threshold = base_cache * TOLERANCE
        if speedups["cache"] < threshold:
            failures.append(
                f"cache speedup {speedups['cache']:.2f}x regressed below "
                f"{TOLERANCE:.0%} of baseline {base_cache:.2f}x"
            )
    elif speedups["cache"] < CACHE_FLOOR:
        failures.append(
            f"cache speedup {speedups['cache']:.2f}x below the "
            f"{CACHE_FLOOR}x floor (no comparable baseline)"
        )

    if report["cpu_count"] >= 4 and report["workers"] >= 2:
        threshold = PARALLEL_FLOOR
        if comparable(baseline, report) and baseline.get("cpu_count", 0) >= 4:
            threshold = max(
                PARALLEL_FLOOR, baseline["speedups"]["parallel"] * TOLERANCE
            )
        if speedups["parallel"] < threshold:
            failures.append(
                f"parallel speedup {speedups['parallel']:.2f}x below "
                f"{threshold:.2f}x on a {report['cpu_count']}-core host"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=50_000,
                        help="frame size (default 50k)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed rounds per condition; best is reported")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run for CI (20k rows, 2 rounds)")
    parser.add_argument("--workers", type=int, default=0,
                        help="pool workers for the parallel condition "
                             "(default: config, i.e. the host core count)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_shared_scan.json"),
                        help="trajectory artifact path")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="committed baseline to gate against")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline from this run")
    args = parser.parse_args(argv)
    if args.quick:
        args.rows, args.rounds = 20_000, 2

    with contextlib.ExitStack() as stack:
        # config_overlay() rolls back every knob the run mutates on exit
        # (the old hand-rolled snapshot/restore); the cache clear runs
        # after it, exactly like the old finally block.
        stack.callback(computation_cache.clear)
        stack.enter_context(config_overlay())
        if args.workers:
            config.action_pool_workers = args.workers
        workers = max(int(config.action_pool_workers), 1)
        frame = build_frame(args.rows)
        candidates = len(build_candidates())
        cpu_count = os.cpu_count() or 1
        print(f"shared-scan: {candidates} candidates, {args.rows} rows, "
              f"best of {args.rounds}, {workers} workers, {cpu_count} cores")

        best: dict[str, float] = {}
        results: dict[str, list] = {}
        for condition in CONDITIONS:
            times = []
            for _ in range(args.rounds):
                elapsed, out = run_pass(frame, condition)
                times.append(elapsed)
            best[condition] = min(times)
            results[condition] = out
            print(f"  {condition:<16}: {best[condition] * 1e3:9.1f} ms")

        cache_bytes = computation_cache.stats()["bytes"]
        identical = results["parallel"] == results["serial_cached"]

        def ratio(a: str, b: str) -> float:
            return best[a] / best[b] if best[b] > 0 else float("inf")

        report = {
            "schema": 1,
            "benchmark": "shared_scan",
            "mode": "quick" if args.quick else "full",
            "rows": args.rows,
            "candidates": candidates,
            "rounds": args.rounds,
            "workers": workers,
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "timings_ms": {k: round(v * 1e3, 3) for k, v in best.items()},
            "speedups": {
                "cache": round(ratio("serial_uncached", "serial_cached"), 3),
                "parallel": round(ratio("serial_cached", "parallel"), 3),
                "total": round(ratio("serial_uncached", "parallel"), 3),
            },
            "cache_bytes": cache_bytes,
            "cache_budget_bytes": computation_cache.budget_bytes(),
            "identical": identical,
        }
        print(f"  cache speedup   : {report['speedups']['cache']:9.2f}x")
        print(f"  parallel speedup: {report['speedups']['parallel']:9.2f}x")
        print(f"  total speedup   : {report['speedups']['total']:9.2f}x")
        print(f"  cache bytes     : {cache_bytes} "
              f"(budget {report['cache_budget_bytes']})")

        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"  wrote {args.out}")

        if not identical:
            # Correctness precedes every mode, including --update-baseline:
            # a baseline refresh must never go green while recording a
            # parallel-vs-serial divergence.
            print("  GATE FAILED: parallel results differ from serial results")
            return 1

        if args.update_baseline:
            args.baseline.parent.mkdir(parents=True, exist_ok=True)
            args.baseline.write_text(
                json.dumps(report, indent=2) + "\n", encoding="utf-8"
            )
            print(f"  wrote baseline {args.baseline}")
            return 0

        baseline = load_baseline(args.baseline)
        if not comparable(baseline, report):
            print("  no comparable baseline; gating on absolute floors")
        failures = gate(report, baseline)
        for failure in failures:
            print(f"  GATE FAILED: {failure}")
        if not failures:
            print("  all gates passed")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
