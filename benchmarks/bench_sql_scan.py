"""SQL shared-scan benchmark: consolidated batches vs per-spec queries.

Measures the same 41-candidate recommendation pass as
``bench_shared_scan.py`` — group-by bars/lines, histograms, heatmaps, and
filtered variants — executed through the ``SQLExecutor`` backend under two
conditions:

- ``per_spec``: one round-trip query per candidate (``execute`` in a
  loop), the pre-batching path — O(candidates) scans of the base table.
- ``batched``:  ``SQLExecutor.execute_many`` compiles each filter group
  into one shared-WHERE CTE + UNION ALL pass (one scan per GROUP BY
  shape, one MIN/MAX stats scan per group with histograms) on a
  connection resolved once for the whole batch.

Every run emits a ``BENCH_sql_scan.json`` trajectory artifact (timings,
speedup, candidate count, sqlite version) and gates on it through
``harness.py``:

- batched results must be bit-identical to the per-spec results;
- the batch speedup must not regress against the committed baseline
  (``benchmarks/baselines/BENCH_sql_scan.json``), falling back to the
  2x acceptance floor when no comparable baseline exists.

Unlike the dataframe benchmark there is no parallel condition: sqlite
serializes per-connection, so the win here is scan consolidation, which
is core-count independent.

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_sql_scan.py \\
        [--quick] [--rows N] [--out PATH] [--update-baseline]
"""

from __future__ import annotations

import argparse
import contextlib
import sqlite3
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import harness  # noqa: E402
from bench_shared_scan import SHAPE, build_candidates, build_frame  # noqa: E402

from repro import config, config_overlay  # noqa: E402
from repro.core.executor.cache import computation_cache  # noqa: E402
from repro.core.executor.sql_exec import SQLExecutor  # noqa: E402
from repro.dataframe import DataFrame  # noqa: E402

#: Acceptance floor when no comparable baseline exists (the PR-3 bar).
BATCH_FLOOR = 2.0

METRICS = (harness.Metric("speedups.batch", "higher", fallback=BATCH_FLOOR),)

CONDITIONS = ("per_spec", "batched")


def run_pass(frame: DataFrame, condition: str) -> tuple[float, list]:
    """One timed candidate-set execution; returns (seconds, results)."""
    computation_cache.clear()
    specs = build_candidates()
    executor = SQLExecutor()
    start = time.perf_counter()
    if condition == "per_spec":
        results = [executor.execute(spec, frame) for spec in specs]
    else:
        results = executor.execute_many(specs, frame)
    elapsed = time.perf_counter() - start
    assert all(s.data is not None for s in specs)
    return elapsed, results


def build_parser() -> argparse.ArgumentParser:
    return harness.parser(__doc__)


def main(argv: list[str] | None = None) -> int:
    args = harness.parse(build_parser(), argv)

    with contextlib.ExitStack() as stack:
        # config_overlay() rolls back every knob the run mutates on exit
        # (the old hand-rolled snapshot/restore); the cache clear runs
        # after it, exactly like the old finally block.
        stack.callback(computation_cache.clear)
        stack.enter_context(config_overlay())
        config.sql_batch_execute = True
        frame = build_frame(args.rows)
        candidates = len(build_candidates())
        # Load the frame into sqlite outside the timed region: both
        # conditions share the connection cache, and the benchmark
        # measures query execution, not bulk insert.
        SQLExecutor()._connection(frame)
        print(f"sql-scan: {candidates} candidates, {args.rows} rows, "
              f"best of {args.rounds}, sqlite {sqlite3.sqlite_version}")

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

        identical = results["batched"] == results["per_spec"]
        speedup = (
            best["per_spec"] / best["batched"]
            if best["batched"] > 0
            else float("inf")
        )

        report = {
            **harness.record(
                "sql_scan", args, rows=args.rows, candidates=candidates
            ),
            "rounds": args.rounds,
            "sqlite": sqlite3.sqlite_version,
            "timings_ms": {k: round(v * 1e3, 3) for k, v in best.items()},
            "speedups": {"batch": round(speedup, 3)},
            "identical": identical,
        }
        print(f"  batch speedup   : {speedup:9.2f}x")
        print(f"  identical       : {identical}")

        correctness = (
            [] if identical else ["batched results differ from per-spec results"]
        )
        return harness.conclude(args, report, METRICS, correctness, shape=SHAPE)


if __name__ == "__main__":
    sys.exit(main())
