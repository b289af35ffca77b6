"""Telemetry core: bucket math, label caps, spans, structured logging.

The merge-associativity tests are the load-bearing ones: the supervisor's
``/metrics`` is only correct because histogram merge is exact bucket-wise
addition over identical bounds in every process.
"""

from __future__ import annotations

import json

import pytest

from repro.core import telemetry, usage_log
from repro.core.config import config, config_overlay
from repro.service import metrics as service_metrics


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# Bucket math
# ----------------------------------------------------------------------
class TestBuckets:
    def test_bounds_are_deterministic_powers_of_two(self):
        bounds = telemetry.bucket_bounds(20)
        assert len(bounds) == 20
        assert bounds[0] == telemetry.BUCKET_BASE_S
        for lower, upper in zip(bounds, bounds[1:]):
            assert upper == lower * 2.0
        assert telemetry.bucket_bounds(20) == bounds  # pure function

    def test_bounds_follow_config_knob(self):
        with config_overlay(telemetry_histogram_buckets=8):
            assert len(telemetry.bucket_bounds()) == 8

    def test_observations_land_in_the_right_bucket(self):
        hist = telemetry.Histogram("t_hist", bounds=(0.001, 0.002, 0.004))
        hist.observe(0.0005)   # <= 1ms -> bucket 0
        hist.observe(0.001)    # boundary is inclusive (le semantics)
        hist.observe(0.003)    # bucket 2
        hist.observe(9.0)      # above all bounds -> +Inf slot
        row = hist.snapshot()["values"][""]
        assert row["counts"] == [2, 0, 1, 1]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(0.0005 + 0.001 + 0.003 + 9.0)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_labels_and_values(self):
        c = telemetry.counter("t_total", "help", ("route",))
        c.inc(labels=("a",))
        c.inc(2.0, labels=("a",))
        c.inc(labels=("b",))
        assert c.value(("a",)) == 3.0
        snap = c.snapshot()
        assert snap["type"] == "counter"
        assert snap["values"] == {"a": 3.0, "b": 1.0}

    def test_label_cardinality_is_capped(self):
        c = telemetry.counter("t_capped", "", ("session",))
        for i in range(telemetry.MAX_LABEL_SETS + 40):
            c.inc(labels=(f"session-{i}",))
        snap = c.snapshot()
        assert len(snap["values"]) == telemetry.MAX_LABEL_SETS + 1
        assert snap["values"][telemetry.OVERFLOW_LABEL] == 40.0

    def test_name_reuse_with_wrong_type_raises(self):
        telemetry.counter("t_typed")
        with pytest.raises(TypeError):
            telemetry.histogram("t_typed")

    def test_gauge_callback_errors_skip_the_sample(self):
        g = telemetry.gauge("t_gauge", "", ("kind",))
        g.set_function(lambda: 7.0, ("ok",))
        g.set_function(lambda: 1 / 0, ("broken",))
        assert g.snapshot()["values"] == {"ok": 7.0}


# ----------------------------------------------------------------------
# Cross-process merge
# ----------------------------------------------------------------------
def _hist_snapshot(observations, bounds=(0.001, 0.002)):
    hist = telemetry.Histogram("m_hist", "h", ("route",), bounds=bounds)
    for value, route in observations:
        hist.observe(value, (route,))
    return {"m_hist": hist.snapshot()}


class TestMerge:
    def test_histogram_merge_is_associative(self):
        a = _hist_snapshot([(0.0005, "r"), (0.1, "r")])
        b = _hist_snapshot([(0.0015, "r"), (0.0015, "s")])
        c = _hist_snapshot([(0.5, "r")])
        left = service_metrics.merge_snapshots(
            [service_metrics.merge_snapshots([a, b]), c]
        )
        right = service_metrics.merge_snapshots(
            [a, service_metrics.merge_snapshots([b, c])]
        )
        assert left == right
        row = left["m_hist"]["values"]["r"]
        assert row["count"] == 4
        assert row["counts"] == [1, 1, 2]

    def test_counters_and_gauges_sum(self):
        snap = {
            "t": {"type": "counter", "help": "", "labels": [], "values": {"": 2.0}}
        }
        merged = service_metrics.merge_snapshots([snap, snap, snap])
        assert merged["t"]["values"][""] == 6.0

    def test_bound_mismatch_is_skipped_and_reported(self):
        a = _hist_snapshot([(0.0005, "r")], bounds=(0.001, 0.002))
        b = _hist_snapshot([(0.0005, "r")], bounds=(0.001, 0.004))
        merged = service_metrics.merge_snapshots([a, b])
        assert merged["m_hist"]["values"]["r"]["count"] == 1
        assert merged["lux_metrics_merge_conflicts"]["values"][""] == 1.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nested_spans_share_trace_and_link_parents(self):
        with telemetry.span("outer", session="s1") as outer:
            with telemetry.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        records = telemetry.spans(trace_id=outer.trace_id)
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[1]["parent_id"] is None
        assert records[1]["attrs"]["session"] == "s1"
        assert all(r["duration_ms"] >= 0.0 for r in records)

    def test_trace_context_adopts_remote_parent(self):
        ctx = {"id": "aabbccdd00112233", "span": "parent-span", "sampled": True}
        with telemetry.trace_context(ctx):
            assert telemetry.current_trace_id() == "aabbccdd00112233"
            with telemetry.span("adopted") as s:
                assert s.trace_id == "aabbccdd00112233"
                assert s.parent_id == "parent-span"
        assert telemetry.current_trace() is None

    def test_sample_rate_zero_drops_spans(self):
        with config_overlay(telemetry_sample_rate=0.0):
            with telemetry.span("invisible"):
                pass
        assert telemetry.spans() == []

    def test_ring_buffer_is_bounded(self):
        with config_overlay(telemetry_span_buffer=4):
            for i in range(10):
                with telemetry.span(f"s{i}"):
                    pass
            names = [r["name"] for r in telemetry.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_session_filter_and_limit(self):
        for i in range(3):
            with telemetry.span("read", session="target"):
                pass
            with telemetry.span("read", session="other"):
                pass
        records = telemetry.spans(session_id="target", limit=2)
        assert len(records) == 2
        assert all(r["attrs"]["session"] == "target" for r in records)

    def test_limit_zero_keeps_none_and_negative_raises(self):
        for i in range(3):
            with telemetry.span(f"s{i}"):
                pass
        assert telemetry.spans(limit=0) == []
        assert [r["name"] for r in telemetry.spans(limit=5)] == ["s0", "s1", "s2"]
        with pytest.raises(ValueError):
            telemetry.spans(limit=-1)


# ----------------------------------------------------------------------
# Structured logging + usage_log correlation
# ----------------------------------------------------------------------
class TestLogging:
    def test_records_carry_trace_and_session_from_parent_chain(self):
        with telemetry.span("outer", session="s42"):
            with telemetry.span("inner") as inner:
                record = telemetry.get_logger("t").info("evt", rows=3)
        assert record["trace_id"] == inner.trace_id
        assert record["session_id"] == "s42"
        assert record["rows"] == 3
        assert record["event"] == "evt" and record["logger"] == "t"

    def test_records_are_json_serializable_via_handlers(self):
        seen = []
        telemetry.add_log_handler(seen.append)
        try:
            telemetry.get_logger("t").warning("bad_thing", error="boom")
        finally:
            telemetry.remove_log_handler(seen.append)
        assert len(seen) == 1
        assert json.loads(json.dumps(seen[0]))["level"] == "warning"

    def test_usage_log_attaches_trace_id_inside_spans(self):
        usage_log.enable()
        try:
            usage_log.get_log().clear()
            usage_log.record("print", rows=5)
            with telemetry.span("session.read", session="s1") as s:
                usage_log.record("intent", action="Distribution")
            events = usage_log.get_log().events()
        finally:
            usage_log.disable()
            usage_log.get_log().clear()
        assert "trace_id" not in events[0].detail
        assert events[1].detail["trace_id"] == s.trace_id
        assert events[1].detail["action"] == "Distribution"
