"""The benchmark harness: one gate rule over named metrics.

Pins ``benchmarks/harness.py``'s rule on a table of (report, baseline)
cases, pins every gated benchmark's declared gates at their boundaries
(each gate not split into per-term metrics decides as it did before the
harness), checks that a correctness failure refuses ``--update-baseline``,
and checks that each benchmark builds its parser.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import bench_incremental  # noqa: E402
import bench_load  # noqa: E402
import bench_service  # noqa: E402
import bench_shared_scan  # noqa: E402
import bench_sql_scan  # noqa: E402
import harness  # noqa: E402
from harness import Metric  # noqa: E402

MODULES = (bench_shared_scan, bench_sql_scan, bench_incremental, bench_service, bench_load)


def below(x: float) -> float:
    return math.nextafter(x, -math.inf)


def above(x: float) -> float:
    return math.nextafter(x, math.inf)


def run_record(values: dict, cpu_count: int = 2, **head) -> dict:
    """A report (or baseline) holding ``values`` at their dotted names."""
    out = {"benchmark": "b", "mode": "quick", "rows": 20_000, "cpu_count": cpu_count, **head}
    for name, value in values.items():
        node = out
        *parents, leaf = name.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return out


HIGH = Metric("speedups.x", "higher")
LOW = Metric("timings_ms.y", "lower")
FLOOR = Metric("speedups.x", "higher", tolerance=None, floor=5.0)
CEILING = Metric("bytes", "lower", tolerance=None, floor=100)
FALLBACK = Metric("speedups.x", "higher", fallback=1.5)
CORES = Metric("speedups.x", "higher", floor=1.8, min_cpus=4)

#: (metric, report values, report cores, baseline values or None,
#:  baseline cores, number of failures)
RULE = {
    "higher at 0.6 x base": (HIGH, {"speedups.x": 10.0 * 0.6}, 2, {"speedups.x": 10.0}, 2, 0),
    "higher below 0.6 x base": (
        HIGH, {"speedups.x": below(10.0 * 0.6)}, 2, {"speedups.x": 10.0}, 2, 1
    ),
    "higher improving": (HIGH, {"speedups.x": 99.0}, 2, {"speedups.x": 10.0}, 2, 0),
    "lower at base / 0.6": (LOW, {"timings_ms.y": 10.0 / 0.6}, 2, {"timings_ms.y": 10.0}, 2, 0),
    "lower above base / 0.6": (
        LOW, {"timings_ms.y": above(10.0 / 0.6)}, 2, {"timings_ms.y": 10.0}, 2, 1
    ),
    "lower improving": (LOW, {"timings_ms.y": 0.5}, 2, {"timings_ms.y": 10.0}, 2, 0),
    "lower, zero baseline": (LOW, {"timings_ms.y": 5.0}, 2, {"timings_ms.y": 0.0}, 2, 0),
    "no baseline, no trajectory": (HIGH, {"speedups.x": 0.0}, 2, None, 2, 0),
    "at the floor": (FLOOR, {"speedups.x": 5.0}, 2, None, 2, 0),
    "below the floor": (FLOOR, {"speedups.x": below(5.0)}, 2, None, 2, 1),
    "below the floor, with baseline": (FLOOR, {"speedups.x": 4.0}, 2, {"speedups.x": 4.0}, 2, 1),
    "at the ceiling": (CEILING, {"bytes": 100}, 2, None, 2, 0),
    "above the ceiling": (CEILING, {"bytes": 101}, 2, None, 2, 1),
    "at the fallback": (FALLBACK, {"speedups.x": 1.5}, 2, None, 2, 0),
    "below the fallback": (FALLBACK, {"speedups.x": below(1.5)}, 2, None, 2, 1),
    "fallback off with a baseline": (FALLBACK, {"speedups.x": 1.2}, 2, {"speedups.x": 2.0}, 2, 0),
    "trajectory past the fallback": (
        FALLBACK, {"speedups.x": below(2.0 * 0.6)}, 2, {"speedups.x": 2.0}, 2, 1
    ),
    "missing from the baseline": (LOW, {"timings_ms.y": 1.0}, 2, {"timings_ms.z": 1.0}, 2, 1),
    "missing, no trajectory": (FLOOR, {"speedups.x": 6.0}, 2, {}, 2, 0),
    "cores: small host skips": (CORES, {}, 2, None, 2, 0),
    "cores: at the floor": (CORES, {"speedups.x": 1.8}, 4, None, 2, 0),
    "cores: below the floor": (CORES, {"speedups.x": below(1.8)}, 4, None, 2, 1),
    "cores: small-host baseline": (CORES, {"speedups.x": 2.0}, 4, {"speedups.x": 9.0}, 2, 0),
    "cores: big-host baseline": (CORES, {"speedups.x": 2.0}, 4, {"speedups.x": 9.0}, 4, 1),
}


@pytest.mark.parametrize("case", RULE, ids=list(RULE))
def test_gate_rule(case):
    metric, values, cores, base_values, base_cores, n_failures = RULE[case]
    report = run_record(values, cores)
    baseline = None if base_values is None else run_record(base_values, base_cores)
    failures = harness.gate(report, baseline, [metric])
    assert len(failures) == n_failures, failures
    if failures:
        assert metric.name in failures[0]


def test_missing_metric_is_named():
    failures = harness.gate(
        run_record({"timings_ms.y": 1.0}), run_record({"timings_ms.z": 1.0}), [LOW]
    )
    assert failures == ["baseline lacks timings_ms.y"]


def test_report_must_hold_every_declared_metric():
    with pytest.raises(KeyError, match="timings_ms.y"):
        harness.gate(run_record({}), None, [LOW])


@pytest.mark.parametrize(
    "change, same",
    [
        ({}, True),
        ({"benchmark": "other"}, False),
        ({"mode": "full"}, False),
        ({"rows": 50_000}, False),
        ({"cpu_count": 64, "python": "3.9.0"}, True),
    ],
)
def test_comparable(change, same):
    report = run_record({})
    assert harness.comparable({**report, **change}, report, ("rows",)) is same
    assert harness.comparable(None, report, ("rows",)) is False


# ----------------------------------------------------------------------
# Each benchmark's gates at their boundaries
# ----------------------------------------------------------------------
def gate_with(metrics, values: dict, base_values: dict | None = None, cores: int = 2,
              base_cores: int = 2, **head) -> list[str]:
    report = run_record(values, cores, **head)
    baseline = None if base_values is None else run_record(base_values, base_cores, **head)
    return harness.gate(report, baseline, metrics)


#: The committed shared-scan baseline's gated terms (a 1-core host).
SHARED_SCAN = {
    "speedups.cache": 3.23,
    "speedups.parallel": 0.937,
    "timings_ms.serial_cached": 73.324,
    "timings_ms.serial_uncached": 236.848,
}


def shared_scan(values: dict, base: dict | None = None, cores: int = 2, base_cores: int = 2,
                workers: int = 2, budget: int = 1 << 26) -> list[str]:
    head = {"workers": workers, "cache_budget_bytes": budget}
    values = {**SHARED_SCAN, "speedups.parallel": 2.0, "cache_bytes": 1, **values}
    report = run_record(values, cores, **head)
    baseline = None if base is None else run_record({**SHARED_SCAN, **base}, base_cores, **head)
    return harness.gate(report, baseline, bench_shared_scan.metrics(report))


class TestSharedScan:
    def test_cache_fallback_floor_without_baseline(self):
        assert shared_scan({"speedups.cache": 1.5}) == []
        assert len(shared_scan({"speedups.cache": below(1.5)})) == 1

    def test_cache_floor_only_under_a_baseline(self):
        # 1.90: the uncached ablation got faster than the cached pass, so
        # the ratio fell below 60% of the 3.23x baseline with neither
        # timing slower; only its 1.5x floor is gated.
        faster = {"speedups.cache": 1.90, "timings_ms.serial_cached": 45.0,
                  "timings_ms.serial_uncached": 85.5}
        assert shared_scan(faster, {}) == []
        assert shared_scan({"speedups.cache": 1.5}, {}) == []
        assert len(shared_scan({"speedups.cache": below(1.5)}, {})) == 1

    @pytest.mark.parametrize("term", ["timings_ms.serial_cached", "timings_ms.serial_uncached"])
    def test_each_timing_on_its_own_trajectory(self, term):
        limit = SHARED_SCAN[term] / 0.6
        assert shared_scan({term: limit}, {}) == []
        assert [f.split()[0] for f in shared_scan({term: above(limit)}, {})] == [term]
        assert shared_scan({term: above(limit)}) == []

    def test_cache_budget(self):
        assert shared_scan({"cache_bytes": 1 << 26}) == []
        assert len(shared_scan({"cache_bytes": (1 << 26) + 1})) == 1
        assert shared_scan({"cache_bytes": 1 << 40}, budget=0) == []

    def test_parallel_only_on_four_cores_with_two_workers(self):
        assert shared_scan({"speedups.parallel": 0.1}, cores=2) == []
        assert shared_scan({"speedups.parallel": 0.1}, cores=4, workers=1) == []
        assert shared_scan({"speedups.parallel": 1.5}, cores=4) == []
        assert len(shared_scan({"speedups.parallel": below(1.5)}, cores=4)) == 1

    def test_parallel_trajectory_needs_a_four_core_baseline(self):
        base = {"speedups.parallel": 3.0}
        assert shared_scan({"speedups.parallel": 3.0 * 0.6}, base, cores=4, base_cores=4) == []
        assert len(
            shared_scan({"speedups.parallel": below(3.0 * 0.6)}, base, cores=4, base_cores=4)
        ) == 1
        assert shared_scan({"speedups.parallel": 1.5}, base, cores=4, base_cores=2) == []
        # The 1.5x floor holds under a weaker trajectory too.
        weak = {"speedups.parallel": 2.0}
        assert len(shared_scan({"speedups.parallel": below(1.5)}, weak, cores=4, base_cores=4)) == 1


class TestSqlScan:
    def test_batch_fallback_floor(self):
        assert gate_with(bench_sql_scan.METRICS, {"speedups.batch": 2.0}) == []
        assert len(gate_with(bench_sql_scan.METRICS, {"speedups.batch": below(2.0)})) == 1

    def test_batch_trajectory(self):
        base = {"speedups.batch": 2.105}
        assert gate_with(bench_sql_scan.METRICS, {"speedups.batch": 2.105 * 0.6}, base) == []
        past = {"speedups.batch": below(2.105 * 0.6)}
        assert len(gate_with(bench_sql_scan.METRICS, past, base)) == 1
        assert gate_with(bench_sql_scan.METRICS, {"speedups.batch": 1.5}, base) == []


INCREMENTAL = {
    "speedups.incremental": 43.5,
    "speedups.metadata_scan": 102.0,
    "timings_ms.full_pass": 1654.146,
    "timings_ms.incremental_pass": 38.022,
    "timings_ms.metadata_full_scan": 94.52,
    "timings_ms.metadata_delta_scan": 0.927,
}


class TestIncremental:
    def gate(self, values: dict, base: dict | None = INCREMENTAL) -> list[str]:
        return gate_with(bench_incremental.METRICS, {**INCREMENTAL, **values}, base)

    def test_work_reduction_floor_without_trajectory(self):
        assert self.gate({"speedups.incremental": 10.0}) == []
        assert self.gate({"speedups.incremental": 10.0}, None) == []
        assert len(self.gate({"speedups.incremental": below(10.0)})) == 1

    def test_metadata_scan_floor_and_trajectory(self):
        # The ratio keeps its 2x floor; each scan is on its own trajectory.
        assert self.gate({"speedups.metadata_scan": 2.0}) == []
        assert len(self.gate({"speedups.metadata_scan": below(2.0)})) == 1
        assert self.gate({"speedups.metadata_scan": 2.0}, None) == []
        assert len(self.gate({"speedups.metadata_scan": below(2.0)}, None)) == 1
        for term in ("timings_ms.metadata_full_scan", "timings_ms.metadata_delta_scan"):
            limit = INCREMENTAL[term] / 0.6
            assert self.gate({term: limit}) == []
            assert [f.split()[0] for f in self.gate({term: above(limit)})] == [term]

    def test_faster_full_metadata_scan_passes(self):
        # 21.6 / 0.86 ms: a trajectory on the ratio (60% of 102x) failed
        # this only because the full rescan got faster.
        faster = {
            "timings_ms.metadata_full_scan": 21.6,
            "timings_ms.metadata_delta_scan": 0.86,
            "speedups.metadata_scan": 25.1,
        }
        assert self.gate(faster) == []

    @pytest.mark.parametrize("term", ["timings_ms.full_pass", "timings_ms.incremental_pass"])
    def test_each_pass_on_its_own_trajectory(self, term):
        limit = INCREMENTAL[term] / 0.6
        assert self.gate({term: limit}) == []
        assert [f.split()[0] for f in self.gate({term: above(limit)})] == [term]

    def test_faster_full_pass_passes(self):
        # 733.2 / 11.2 ms: the old ratio gate (60% of 43.5x) failed this
        # only because the full pass got faster.
        faster = {"timings_ms.full_pass": 733.2, "timings_ms.incremental_pass": 11.2,
                  "speedups.incremental": 65.5}
        assert self.gate(faster) == []


#: An older committed baseline: a 1-core host, before the store-hit metric.
OLD_SERVICE_BASELINE = {
    "timings_ms.cold_read": 1435.816,
    "timings_ms.precomputed_read": 0.051,
    "speedups.precompute": 28104.8,
    "multi_session.reads_per_s": 148939,
}


class TestService:
    def test_precompute_floor_stays_without_trajectory(self):
        values = {"timings_ms.cold_read": 1.0, "timings_ms.store_hit_read": 1.0,
                  "multi_session.reads_per_s": 1}
        assert gate_with(bench_service.METRICS, {**values, "speedups.precompute": 5.0}) == []
        assert len(gate_with(
            bench_service.METRICS, {**values, "speedups.precompute": below(5.0)}
        )) == 1

    def test_old_baseline_fails_on_store_hits_and_reads_per_s(self):
        head = {
            "timings_ms.cold_read": 1438.0,
            "timings_ms.precomputed_read": 0.239,
            "timings_ms.store_hit_read": 0.0316,
            "speedups.precompute": 6024.8,
            "multi_session.reads_per_s": 32247,
        }
        failures = gate_with(bench_service.METRICS, head, OLD_SERVICE_BASELINE)
        assert [f.split()[-1] if f.startswith("baseline") else f.split()[0] for f in failures] == [
            "timings_ms.store_hit_read",
            "multi_session.reads_per_s",
        ]
        assert "89363.4" in failures[1]

    @pytest.mark.parametrize(
        "term, better",
        [("timings_ms.cold_read", "lower"), ("timings_ms.store_hit_read", "lower"),
         ("multi_session.reads_per_s", "higher")],
    )
    def test_each_term_on_its_own_trajectory(self, term, better):
        base = {"timings_ms.cold_read": 700.0, "timings_ms.store_hit_read": 0.03,
                "multi_session.reads_per_s": 30000, "speedups.precompute": 2000.0}
        limit = base[term] / 0.6 if better == "lower" else base[term] * 0.6
        past = above(limit) if better == "lower" else below(limit)
        assert gate_with(bench_service.METRICS, {**base, term: limit}, base) == []
        assert [f.split()[0] for f in gate_with(
            bench_service.METRICS, {**base, term: past}, base
        )] == [term]

    def test_multiproc_recovery_terms_replace_the_ratio_floor(self):
        base = {"recovery.cold_ms": 720.0, "recovery.warm_ms": 88.0}
        # 8.2x used to fail the 10x floor; each term held steady.
        assert gate_with(bench_service.MULTIPROC_METRICS, base, base) == []
        assert len(gate_with(
            bench_service.MULTIPROC_METRICS, {**base, "recovery.warm_ms": above(88.0 / 0.6)}, base
        )) == 1
        assert len(gate_with(
            bench_service.MULTIPROC_METRICS, {**base, "recovery.cold_ms": above(720.0 / 0.6)}, base
        )) == 1

    @pytest.mark.parametrize("term", ["scaling.precompute_scaling", "scaling.read_scaling"])
    def test_multiproc_scaling_floor_on_four_cores(self, term):
        values = {"recovery.cold_ms": 1.0, "recovery.warm_ms": 1.0,
                  "scaling.precompute_scaling": 2.0, "scaling.read_scaling": 2.0}
        skipped = {"recovery.cold_ms": 1.0, "recovery.warm_ms": 1.0, "scaling.skipped": True}
        assert gate_with(bench_service.MULTIPROC_METRICS, skipped, cores=2) == []
        assert gate_with(bench_service.MULTIPROC_METRICS, {**values, term: 1.8}, cores=4) == []
        assert len(gate_with(
            bench_service.MULTIPROC_METRICS, {**values, term: below(1.8)}, cores=4
        )) == 1


class TestLoad:
    P95 = 18464.469

    def gate(self, values: dict, base: dict | None) -> list[str]:
        values = {"aggregate.fairness_jain": 0.9, "aggregate.latency_ms.p95": 100.0, **values}
        return gate_with(bench_load.METRICS, values, base)

    def test_fairness_floor(self):
        assert self.gate({"aggregate.fairness_jain": 0.5}, None) == []
        assert len(self.gate({"aggregate.fairness_jain": below(0.5)}, None)) == 1

    def test_p95_within_four_times_baseline(self):
        base = {"aggregate.latency_ms.p95": self.P95}
        assert self.gate({"aggregate.latency_ms.p95": self.P95 * 4.0}, base) == []
        assert len(self.gate({"aggregate.latency_ms.p95": above(self.P95 * 4.0)}, base)) == 1
        assert self.gate({"aggregate.latency_ms.p95": 1e9}, None) == []
        assert self.gate({"aggregate.latency_ms.p95": 1e9}, {"aggregate.latency_ms.p95": 0.0}) == []

    def test_baseline_shape_is_the_session_count(self):
        report = run_record({}, sessions=4)
        assert harness.comparable(run_record({}, sessions=4, rows=1), report, ("sessions",))
        assert not harness.comparable(run_record({}, sessions=8), report, ("sessions",))


def fault_report() -> dict:
    return {
        "ops": {"unavailable": 3},
        "retry_after_valid": True,
        "fault": {"degraded_status": "degraded", "victim_stanza": "worker_unreachable",
                  "survivor_ok": True},
        "errors": [],
        "error_count": 0,
        "recovery": {"warm_origin": "precompute", "speedup": 10.0},
        "identity": {"canary": True, "post_drain": True},
    }


FAULT_BREAKS = {
    "no 503": ("ops", "unavailable", 0),
    "bad Retry-After": (None, "retry_after_valid", False),
    "not degraded": ("fault", "degraded_status", "ok"),
    "no victim stanza": ("fault", "victim_stanza", "ok"),
    "survivor down": ("fault", "survivor_ok", False),
    "workload errors": (None, "error_count", 2),
    "cold canary": ("recovery", "warm_origin", "foreground"),
    "no canary origin": ("recovery", "warm_origin", None),
    "canary differs": ("identity", "canary", False),
    "post-drain differs": ("identity", "post_drain", False),
}


class TestLoadFault:
    def test_healthy_run_passes(self):
        report = {**fault_report(), "cpu_count": 2}
        assert bench_load.fault_failures(report) == []
        assert harness.gate(report, None, bench_load.FAULT_METRICS) == []

    @pytest.mark.parametrize("case", FAULT_BREAKS, ids=list(FAULT_BREAKS))
    def test_each_check_fails_alone(self, case):
        section, key, value = FAULT_BREAKS[case]
        report = fault_report()
        (report[section] if section else report)[key] = value
        assert len(bench_load.fault_failures(report)) == 1

    def test_recovery_floor(self):
        report = {**fault_report(), "cpu_count": 2}
        report["recovery"]["speedup"] = below(10.0)
        assert bench_load.fault_failures(report) == []
        assert len(harness.gate(report, None, bench_load.FAULT_METRICS)) == 1


# ----------------------------------------------------------------------
# Correctness before baseline; the shared tail
# ----------------------------------------------------------------------
def args_for(tmp_path: Path, update: bool) -> argparse.Namespace:
    return argparse.Namespace(
        quick=True,
        out=tmp_path / "BENCH_b.json",
        baseline=tmp_path / "baseline.json",
        update_baseline=update,
    )


def test_correctness_failure_refuses_update_baseline(tmp_path, capsys):
    args = args_for(tmp_path, update=True)
    args.baseline.write_bytes(b'{"benchmark": "b", "kept": true}\n')
    before = args.baseline.read_bytes()
    report = run_record({"speedups.x": 1.0})
    code = harness.conclude(args, report, [HIGH], ["results differ"])
    assert code == 1
    assert args.baseline.read_bytes() == before
    assert args.out.exists()
    assert "GATE FAILED: results differ" in capsys.readouterr().out


def test_update_baseline_records_a_correct_run(tmp_path):
    args = args_for(tmp_path, update=True)
    report = run_record({"speedups.x": 1.0})
    assert harness.conclude(args, report, [HIGH]) == 0
    assert harness.load(args.baseline) == report


def test_conclude_gates_against_a_comparable_baseline(tmp_path, capsys):
    args = args_for(tmp_path, update=False)
    harness.write(args.baseline, run_record({"speedups.x": 10.0}))
    assert harness.conclude(args, run_record({"speedups.x": 6.0}), [HIGH], shape=("rows",)) == 0
    assert harness.conclude(args, run_record({"speedups.x": 5.9}), [HIGH], shape=("rows",)) == 1
    other = run_record({"speedups.x": 5.9}, rows=1)
    assert harness.conclude(args, other, [HIGH], shape=("rows",)) == 0
    assert "no comparable baseline" in capsys.readouterr().out


def test_mode_without_baseline_never_writes_one(tmp_path):
    args = args_for(tmp_path, update=True)
    report = run_record({"speedups.x": 4.0})
    assert harness.conclude(args, report, [FLOOR], keeps_baseline=False) == 1
    assert not args.baseline.exists()


def test_default_paths_follow_the_benchmark_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = argparse.Namespace(quick=True, out=None, baseline=None, update_baseline=False)
    report = run_record({"speedups.x": 1.0}, benchmark="nonexistent_bench")
    assert harness.conclude(args, report, [HIGH]) == 0
    assert (tmp_path / "BENCH_nonexistent_bench.json").exists()


def test_run_record():
    head = harness.record("b", argparse.Namespace(quick=False), rows=7)
    assert head["benchmark"] == "b" and head["mode"] == "full" and head["rows"] == 7
    assert head["cpu_count"] >= 1
    assert set(head) >= {"python", "commit"}


# ----------------------------------------------------------------------
# One harness: parsers and no per-file plumbing
# ----------------------------------------------------------------------
SIZED = {"rows": 50_000, "rounds": 3}
PARSERS = {
    "shared_scan": (bench_shared_scan, {**SIZED, "workers": 0}),
    "sql_scan": (bench_sql_scan, SIZED),
    "incremental": (bench_incremental, SIZED),
    "service": (bench_service, {**SIZED, "sessions": 4, "multiproc": False}),
    "load": (bench_load, {"sessions": 4, "duration": 6.0, "seed": 0, "scenarios": None,
                          "fault": False, "metrics_out": None}),
}


@pytest.mark.parametrize("name", PARSERS)
def test_each_benchmark_builds_its_parser(name):
    module, defaults = PARSERS[name]
    args = harness.parse(module.build_parser(), [])
    shared = {"quick": False, "out": None, "baseline": None, "update_baseline": False}
    assert {key: getattr(args, key) for key in {**shared, **defaults}} == {**shared, **defaults}
    quick = harness.parse(module.build_parser(), ["--quick", "--update-baseline"])
    assert quick.quick and quick.update_baseline
    if "rows" in defaults:
        assert (quick.rows, quick.rounds) == (20_000, 2)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_benchmark_keeps_its_own_gate_plumbing(module):
    for name in ("comparable", "gate", "gate_multiproc", "load_baseline", "TOLERANCE"):
        assert not hasattr(module, name), name
