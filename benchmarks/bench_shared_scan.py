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
speedups, candidate/worker/core counts, cache bytes) and gates on it
through ``harness.py``:

- parallel results must be bit-identical to serial results;
- cache memory must respect ``config.computation_cache_budget_mb``;
- the cache speedup must clear the historical 1.5x floor on every run;
- against a comparable committed baseline
  (``benchmarks/baselines/BENCH_shared_scan.json``) the cached and the
  uncached pass are each held to their own trajectory, so a faster
  uncached ablation cannot fail the gate;
- on hosts with >= 4 cores, the parallel condition must clear 1.5x over
  the serial cached path (and its baseline trajectory when one was
  recorded on a >= 4-core host).

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_shared_scan.py \\
        [--quick] [--rows N] [--workers N] [--out PATH] [--update-baseline]
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402

from repro import config, config_overlay  # noqa: E402
from repro.core.executor.cache import computation_cache  # noqa: E402
from repro.core.executor.df_exec import DataFrameExecutor  # noqa: E402
from repro.dataframe import DataFrame  # noqa: E402
from repro.vis.encoding import Encoding  # noqa: E402
from repro.vis.spec import VisSpec  # noqa: E402

N_MEASURES = 6
N_DIMS = 3

#: Historical absolute floor on the cache speedup (the PR-1 acceptance bar).
CACHE_FLOOR = 1.5

#: Acceptance bar for the parallel condition on multi-core hosts.
PARALLEL_FLOOR = 1.5

#: Report keys a baseline must share to be comparable.
SHAPE = ("rows", "candidates")


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


def metrics(report: dict) -> list[harness.Metric]:
    """The gated metrics of one run.

    The cache budget is a ceiling only when one is set, and the parallel
    condition is gated only when it fans out over two or more workers.
    """
    declared = [
        harness.Metric("speedups.cache", "higher", tolerance=None, floor=CACHE_FLOOR),
        harness.Metric("timings_ms.serial_cached", "lower"),
        harness.Metric("timings_ms.serial_uncached", "lower"),
    ]
    budget = report["cache_budget_bytes"]
    if budget:
        declared.append(harness.Metric("cache_bytes", "lower", tolerance=None, floor=budget))
    if report["workers"] >= 2:
        declared.append(
            harness.Metric("speedups.parallel", "higher", floor=PARALLEL_FLOOR, min_cpus=4)
        )
    return declared


def build_parser() -> argparse.ArgumentParser:
    parser = harness.parser(__doc__)
    parser.add_argument("--workers", type=int, default=0,
                        help="pool workers for the parallel condition "
                             "(default: config, i.e. the host core count)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = harness.parse(build_parser(), argv)

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
        head = harness.record(
            "shared_scan", args, rows=args.rows, candidates=candidates
        )
        print(f"shared-scan: {candidates} candidates, {args.rows} rows, "
              f"best of {args.rounds}, {workers} workers, "
              f"{head['cpu_count']} cores")

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
            **head,
            "rounds": args.rounds,
            "workers": workers,
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

        correctness = (
            [] if identical else ["parallel results differ from serial results"]
        )
        return harness.conclude(
            args, report, metrics(report), correctness, shape=SHAPE
        )


if __name__ == "__main__":
    sys.exit(main())
