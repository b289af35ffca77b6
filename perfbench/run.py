"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_read --seed 1 --seconds 10 --trace 0

Every run is a fresh process: it builds its inputs from ``--seed``, sets
the program up several times (``setup_s`` is the median), then replays
the workload's operation cycle in whole cycles for ``--seconds``, and on
until every p90 has 100 samples, and checks every output off the timers.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``; with ``--trace 1`` half the time runs untraced and
half with per-layer wrappers installed, and the metrics are the per-layer
ones.  A ``record`` line before it holds the run record: host, versions,
commit, seed, counts, a host-speed probe and the program's own counter
deltas over the timed phase.

``--steady N`` instead repeats one workload in N fresh processes with
seeds ``--seed`` ... ``--seed + N - 1`` and prints, per metric, the
median, quartiles and spreads against the metric's bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
#: A p90 is only reported from at least this many samples (10 beyond it).
P90_SAMPLES = 100
#: The timed phase never runs past this, whatever its sample count, so a
#: run ends well within its 180 s limit even on a slow host.
PHASE_CAP_S = 100.0
#: A broken program stops the phase after this many failed operations.
MAX_FAILED = 10


def load_program() -> SimpleNamespace:
    """The program's public surface, imported from the checkout's ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    from repro import LuxDataFrame
    from repro.core import pool
    from repro.core.executor.cache import computation_cache
    from repro.dataframe import qcut, read_csv_string
    from repro.service import SessionManager, serialize_recommendations
    from repro.service.http_api import make_server

    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise ImportError(f"repro imported from {repro.__file__}, not this checkout")
    return SimpleNamespace(
        LuxDataFrame=LuxDataFrame,
        SessionManager=SessionManager,
        make_server=make_server,
        serialize_recommendations=serialize_recommendations,
        read_csv_string=read_csv_string,
        qcut=qcut,
        computation_cache=computation_cache,
        pool=pool,
    )


# ----------------------------------------------------------------------
# Statistics and the run record
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def host_probe() -> float:
    """Median ms of a fixed pure-Python loop: tells host drift apart."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def deltas(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Exact per-counter differences of the program's ``stats()`` dicts."""
    out: dict[str, Any] = {}
    for part, stats in after.items():
        prev = before.get(part, {})
        out[part] = {
            key: value - prev.get(key, 0)
            for key, value in stats.items()
            if isinstance(value, int) and not isinstance(value, bool)
        }
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def timed_phase(
    workload: Any, state: Any, rec: Any, seconds: float, min_samples: int = 0
) -> float:
    """Whole cycles until ``seconds`` pass and every p90 has ``min_samples``.

    Returns the phase's wall time minus the time spent in output checks.
    """
    gc.collect()
    start = time.perf_counter()
    while True:
        workload.cycle(state, rec)
        elapsed = time.perf_counter() - start
        enough = min(len(rec.samples["read"]), len(rec.samples["fresh"])) >= min_samples
        if (enough and elapsed >= seconds) or elapsed >= PHASE_CAP_S or rec.failed > MAX_FAILED:
            break
    return time.perf_counter() - start - rec.check_s


def end_to_end(rec: Any, wall_s: float, setups: list[float]) -> dict[str, tuple[float, str]]:
    s = rec.samples
    ms = lambda xs, q: 1e3 * percentile(xs, q) if xs else 0.0  # noqa: E731
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(rec.windows) / wall_s, "1/s"),
        "read_p50_ms": (ms(s["read"], 0.5), "ms"),
        "read_p90_ms": (ms(s["read"], 0.9), "ms"),
        "write_p50_ms": (ms(s["write"], 0.5), "ms"),
        "fresh_p50_ms": (ms(s["fresh"], 0.5), "ms"),
        "fresh_p90_ms": (ms(s["fresh"], 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def per_layer(
    tracer: Any, rec: Any, window: tuple[float, float], setup_spans: list[tuple],
    counters: dict[str, Any], untraced_ops_per_s: float, traced_ops_per_s: float,
    final: dict[str, Any],
) -> dict[str, tuple[float, str]]:
    import tracing as t

    spans = t.in_window(tracer.spans, *window)
    ops = max(len(rec.windows), 1)
    c = tracer.counts
    per_op = lambda x: x / ops  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    engine = counters.get("engine", {})
    store = counters.get("store", {})
    wasted = sum(engine.get(k, 0) for k in ("cancelled", "stale", "failed"))
    rerun, carried = engine.get("candidates_rerun", 0), engine.get("candidates_carried", 0)
    cache = final.get("computation_cache", {})
    if "engine" in counters:
        cache_delta = counters["computation_cache"]
        hits, misses = cache_delta["hits"], cache_delta["misses"]
    else:
        hits, misses = rec.cache["hits"], rec.cache["misses"]
    server_ms = t.duration_ms(spans, "http", "handler")
    reads = max(rec.http_reads, 1)
    return {
        "dataframe.code_ms": (per_op(t.self_ms(spans, "dataframe", "cell")), "ms"),
        "dataframe.csv_parse_ms": (
            ratio(t.duration_ms(setup_spans, "dataframe", "csv_parse"), SETUPS), "ms"),
        "metadata.calls": (per_op(t.n_spans(spans, "metadata")), "count"),
        "metadata.self_ms": (per_op(t.self_ms(spans, "metadata")), "ms"),
        "metadata.rescan_ratio": (
            ratio(c["metadata.rescans"], c["metadata.columns"]), "ratio"),
        "actions.candidates": (per_op(c["actions.candidates"]), "count"),
        "actions.enumerate_ms": (per_op(t.self_ms(spans, "actions")), "ms"),
        "optimizer.passes": (per_op(t.n_spans(spans, "optimizer", "run_actions")), "count"),
        "optimizer.rank_self_ms": (per_op(t.self_ms(spans, "optimizer", "rank")), "ms"),
        "optimizer.sample_ms": (per_op(t.duration_ms(spans, "optimizer", "sample")), "ms"),
        "executor.specs": (per_op(c["executor.specs"]), "count"),
        "executor.self_ms": (per_op(t.self_ms(spans, "executor")), "ms"),
        "executor.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "executor.cache_mb": (cache.get("bytes", 0) / 2**20, "MiB"),
        "interestingness.scores": (per_op(t.n_spans(spans, "interestingness")), "count"),
        "interestingness.self_ms": (per_op(t.self_ms(spans, "interestingness")), "ms"),
        "pool.queue_wait_ms": (per_op(c["pool.wait_ns"] / 1e6), "ms"),
        "vis.specs_encoded": (per_op(t.n_spans(spans, "vis")), "count"),
        "vis.encode_self_ms": (per_op(t.self_ms(spans, "vis")), "ms"),
        "session.store_hit_ratio": (ratio(c["session.store_reads"], c["session.reads"]), "ratio"),
        "session.read_self_ms": (per_op(t.self_ms(spans, "session", "read")), "ms"),
        "session.write_ms": (per_op(t.duration_ms(spans, "session", "write")), "ms"),
        "precompute.passes": (per_op(t.n_spans(spans, "precompute")), "count"),
        "precompute.pass_ms": (per_op(t.duration_ms(spans, "precompute")), "ms"),
        "precompute.wasted_ratio": (ratio(wasted, engine.get("scheduled", 0)), "ratio"),
        "precompute.candidates_rerun": (per_op(rerun), "count"),
        "precompute.carry_ratio": (ratio(carried, carried + rerun), "ratio"),
        "store.put_self_ms": (per_op(t.self_ms(spans, "store", "put")), "ms"),
        "store.get_self_ms": (per_op(t.self_ms(spans, "store", "get")), "ms"),
        "store.hit_ratio": (
            ratio(store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)), "ratio"),
        "store.evictions": (per_op(store.get("evictions", 0)), "count"),
        "store.peak_mb": (final.get("store", {}).get("bytes_peak", 0) / 2**20, "MiB"),
        "http.server_ms": (per_op(server_ms), "ms"),
        "http.send_self_ms": (per_op(t.self_ms(spans, "http", "send")), "ms"),
        "http.wire_ms": (per_op(max(0.0, 1e3 * rec.http_client_s - server_ms)), "ms"),
        "http.response_mb": (ratio(rec.read_bytes, reads) / 2**20, "MiB"),
        "trace.overhead_ratio": (ratio(traced_ops_per_s, untraced_ops_per_s), "ratio"),
        "trace.unattributed_ratio": (t.unattributed(spans, rec.windows), "ratio"),
    }


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        program = load_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import tracing
    from workloads import WORKLOADS, Recorder

    probe_before = host_probe()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    workload = WORKLOADS[name](program, seed)
    setups: list[float] = []
    for i in range(SETUPS):
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        if i < SETUPS - 1:
            workload.teardown(state)
    setup_spans = list(tracer.spans) if tracer is not None else []
    if tracer is not None:
        tracer.active = False
    workload.prepare(state)

    untraced_ops_per_s = 0.0
    if tracer is not None:
        # Same program, wrappers inactive: the base for the overhead ratio.
        seconds = seconds / 2
        untraced = Recorder()
        wall_s = timed_phase(workload, state, untraced, seconds)
        untraced_ops_per_s = len(untraced.windows) / wall_s
    rec = Recorder(tracer=tracer)
    before = workload.stats(state)
    if tracer is not None:
        tracer.spans.clear()
        tracer.counts.clear()
        tracer.active = True
    phase_start = time.perf_counter()
    wall_s = timed_phase(workload, state, rec, seconds, 0 if trace else P90_SAMPLES)
    phase_end = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    after = workload.stats(state)
    workload.finish(state, rec)
    workload.teardown(state)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(
            ROOT / ".perfbench" / f"trace-{name}-seed{seed}.jsonl",
            tracing.in_window(tracer.spans, phase_start, phase_end),
        )

    counters = deltas(before, after)
    if tracer is None:
        metrics = end_to_end(rec, wall_s, setups)
    else:
        metrics = per_layer(
            tracer, rec, (phase_start, phase_end), setup_spans, counters,
            untraced_ops_per_s, len(rec.windows) / wall_s, after,
        )
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit(),
        "host_probe_ms": {"before": probe_before, "after": host_probe()},
        "setups_s": setups,
        "ops": len(rec.windows), "samples": {k: len(v) for k, v in rec.samples.items()},
        "phase_wall_s": wall_s, "check_s": rec.check_s,
        "fail_ratio": rec.failed / max(rec.attempted, 1), "errors": rec.errors,
        "counters": counters,
    }
    if tracer is not None:
        record["trace_missing"] = tracer.missing
    print("record " + json.dumps(record, default=str))
    for key, (value, unit) in metrics.items():
        print(f"  {key:<28} {value:>14.4f} {unit}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Steadiness check
# ----------------------------------------------------------------------
def steady(name: str, runs: int, seed: int, seconds: float, trace: bool) -> int:
    """Repeat one workload in fresh processes and report each metric's spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for i in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed + i), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
        print(f"run {i} seed {seed + i}: correct={result['correct']} "
              f"probe={record['host_probe_ms']['before']:.1f}/"
              f"{record['host_probe_ms']['after']:.1f} ms ops={record['ops']}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print("    " + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for key, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(xs) - min(xs)) / med if med else 0.0
        bound = bounds.get(key)
        flag = "" if bound is None else ("ok" if iqr < bound / 3 else "WIDE")
        print(f"{key:<28} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {iqr:>8.3f} "
              f"{rng:>9.3f} {bound if bound is not None else '-':>6} {flag}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["notebook", "cold_read", "edit_read"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="repeat the workload in N fresh processes and report spreads")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.steady:
        return steady(args.workload, args.steady, args.seed, args.seconds, bool(args.trace))
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
