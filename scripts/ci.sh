#!/usr/bin/env bash
# CI entry point: lint gate, tier-1 tests, and the benchmark perf gates.
#
# The benchmark invocations are deliberately part of CI: they execute the
# full 40+-candidate batch path on both executor backends, verify batched
# and parallel results are bit-identical to serial, check the cache byte
# budget, and gate the speedup trajectories against the committed
# baselines (benchmarks/baselines/BENCH_*.json) — so regressions in the
# hottest paths fail fast even when no unit test exercises the exact
# combination.  All seven benchmark modes share benchmarks/harness.py.
# Each run's BENCH_*.json is left in the repo root for the workflow to
# upload as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint =="
if ! python -m ruff --version >/dev/null 2>&1; then
  # The gate is unconditional: a missing linter must fail loudly, not
  # silently pass code that networked CI would reject.
  echo "ERROR: ruff is not installed; the lint gate cannot run." >&2
  echo "       pip install -r requirements-dev.txt" >&2
  exit 1
fi
python -m ruff check .
python -m ruff format --check .

echo "== static analysis (tools/check) =="
# Repo-specific invariant gate: lock discipline, mutation-delta
# completeness, footprint coverage, config/SQL hygiene, identity-key and
# route-auth rules.  Stdlib-only, so it can never be skipped for a
# missing dependency.  The JSON report is uploaded as a CI artifact.
python -m tools.check src --json CHECK_report.json

echo "== src/ line count and import time (reported, not gated) =="
# Each change reports the net size of src/; this line carries the number.
# Every process pays the import, each spawned shard worker included.
echo "src/ python lines: $(find src -name '*.py' -print0 | xargs -0 cat | wc -l)"
python -c 'import time; t = time.perf_counter(); import repro; print(f"import repro: {time.perf_counter() - t:.2f} s")'

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== pool stress =="
# The shared pool's thread lifecycle (grow on submit, shrink as threads
# finish, slot freed on a crash, no exit join) is timing-dependent: run
# its tests 20 times in one process so a rare interleaving fails CI.
python -m pytest -q -p no:cacheprovider --keep-duplicates \
  $(for _ in $(seq 20); do echo tests/core/test_pool_fairshare.py; done)

echo "== examples =="
# Each example drives the public API end to end (vis.data, to_vegalite,
# HTML export, the service); each must exit 0 within its timeout.
for example in examples/*.py; do
  timeout 120 python "$example" >/dev/null \
    || { echo "example $example failed" >&2; exit 1; }
done

echo "== shared-scan benchmark gate =="
python benchmarks/bench_shared_scan.py --quick --out BENCH_shared_scan.json

echo "== sql-scan benchmark gate =="
python benchmarks/bench_sql_scan.py --quick --out BENCH_sql_scan.json

echo "== service benchmark gate =="
python benchmarks/bench_service.py --quick --out BENCH_service.json

echo "== multi-process service benchmark gate =="
# Restart recovery (cold rebuild and warm restore, each on its own
# trajectory; restored payloads bit-identical) on every host; the
# 1-vs-4-worker scaling floors only on >= 4-core hosts.
python benchmarks/bench_service.py --multiproc --quick \
  --out BENCH_service_multiproc.json

echo "== incremental benchmark gate =="
python benchmarks/bench_incremental.py --quick --out BENCH_incremental.json

echo "== load benchmark gate =="
# End-to-end over real HTTP: scenario matrix latency/fairness trajectory,
# plus hard correctness gates (saturation -> 429 + Retry-After -> drain ->
# bit-identical results; store eviction under pressure).  The run also
# scrapes the server's /metrics at the end and cross-checks it against
# the client-observed latency histogram (same fixed buckets).
python benchmarks/bench_load.py --quick --out BENCH_load.json \
  --metrics-out METRICS_snapshot.txt

echo "== fault-injection load benchmark gate =="
# A shard worker is SIGKILLed mid-workload and restarted: 503 +
# Retry-After on its shard only, a warm bit-identical recovery, and
# post-drain payloads identical to the unloaded reference.
python benchmarks/bench_load.py --fault --quick --out BENCH_load_fault.json

echo "== metrics snapshot gate =="
# The scraped exposition must be non-empty and parseable; a broken
# /metrics pipeline fails CI even if every latency gate passed.
python -m repro.service.metrics METRICS_snapshot.txt

echo "== end-to-end benchmark correctness (perfbench) =="
# Correctness only: every timed output must equal its in-process cold
# recomputation, with no failed operation.  The timings are not gated
# here; BENCHMARK.json's bounds apply to full-length paired runs.
for workload in cold_read edit_read; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
    | tail -n 1 \
    | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] and r["failed"] == 0))' \
    || { echo "perfbench $workload: wrong output or failed operations" >&2; exit 1; }
done
