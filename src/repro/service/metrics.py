"""Metrics exposition and cross-process merging for the service tier.

Builds on :mod:`repro.core.telemetry`:

* :func:`collect_process` snapshots this process's registry into a
  JSON-safe dict (what the ``metrics`` shard RPC returns);
* :func:`merge_snapshots` adds snapshots from N workers bucket-wise —
  exact because every process derives identical histogram bounds from
  ``config.telemetry_histogram_buckets`` (merge is associative, tested);
* :func:`render_prometheus` emits Prometheus text exposition v0.0.4;
* :func:`parse_exposition` is the matching reader (used by the load
  bench cross-check and the CI snapshot validator);
* :func:`register_service_gauges` wires live store/cache/engine/session
  gauges for one ``SessionManager`` — callbacks are lock-free attribute
  reads (the ``telemetry-hygiene`` check rule's contract);
* ``python -m repro.service.metrics SNAPSHOT.txt`` validates a scraped
  snapshot (non-empty, parseable) — CI fails on a broken scrape.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core import telemetry
from ..core.executor.cache import computation_cache

__all__ = [
    "collect_process",
    "merge_snapshots",
    "render_prometheus",
    "parse_exposition",
    "percentile_from_counts",
    "histogram_summary",
    "summaries",
    "observe_request",
    "register_service_gauges",
    "static_gauge",
]


def collect_process() -> Dict[str, Dict[str, Any]]:
    """Snapshot this process's metrics registry (JSON-safe)."""

    return telemetry.registry().collect()


def static_gauge(
    labelnames: Iterable[str], values: Dict[Tuple[str, ...], float], help: str = ""
) -> Dict[str, Any]:
    """A snapshot-shaped gauge entry built from literal values.

    Used by the supervisor to inject per-shard liveness (``lux_worker_up``)
    into a merged snapshot without registering process-local callbacks.
    """

    return {
        "type": "gauge",
        "help": help,
        "labels": list(labelnames),
        "values": {"\x1f".join(k): float(v) for k, v in values.items()},
    }


def merge_snapshots(snapshots: Iterable[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """Add snapshots element-wise; associative and commutative.

    Counters and gauges sum per label set.  Histograms sum per-bucket
    counts, total counts, and sums — valid only when bounds agree, which
    holds by construction (workers inherit the bucket knob from the base
    config snapshot); a snapshot with mismatched bounds is skipped for
    that metric and surfaced via ``lux_metrics_merge_conflicts``.
    """

    merged: Dict[str, Dict[str, Any]] = {}
    conflicts = 0
    for snap in snapshots:
        if not snap:
            continue
        for name, entry in snap.items():
            base = merged.get(name)
            if base is None:
                merged[name] = {
                    "type": entry["type"],
                    "help": entry.get("help", ""),
                    "labels": list(entry.get("labels", [])),
                    "values": {
                        k: (dict(v) if isinstance(v, dict) else v)
                        for k, v in entry.get("values", {}).items()
                    },
                }
                if "bounds" in entry:
                    merged[name]["bounds"] = list(entry["bounds"])
                continue
            if base["type"] != entry["type"]:
                conflicts += 1
                continue
            if base["type"] == "histogram":
                if list(entry.get("bounds", [])) != base.get("bounds", []):
                    conflicts += 1
                    continue
                for key, row in entry.get("values", {}).items():
                    brow = base["values"].get(key)
                    if brow is None:
                        base["values"][key] = dict(row)
                    else:
                        brow["counts"] = [
                            a + b for a, b in zip(brow["counts"], row["counts"])
                        ]
                        brow["count"] += row["count"]
                        brow["sum"] += row["sum"]
            else:
                for key, value in entry.get("values", {}).items():
                    base["values"][key] = base["values"].get(key, 0.0) + value
    if conflicts:
        merged["lux_metrics_merge_conflicts"] = static_gauge(
            (), {(): float(conflicts)}, help="snapshots dropped during merge"
        )
    return merged


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labelnames: List[str], key: str, extra: Optional[Tuple[str, str]] = None) -> str:
    values = key.split("\x1f") if key else []
    pairs = [
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, values)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{_escape_label(extra[1])}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_bound(bound: float) -> str:
    text = repr(float(bound))
    return text


def render_prometheus(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Prometheus text exposition (v0.0.4) for a snapshot."""

    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["type"]
        labelnames = list(entry.get("labels", []))
        help_text = entry.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        values = entry.get("values", {})
        if kind == "histogram":
            bounds = entry.get("bounds", [])
            for key in sorted(values):
                row = values[key]
                cumulative = 0
                for bound, count in zip(bounds, row["counts"]):
                    cumulative += count
                    label = _label_str(labelnames, key, ("le", _format_bound(bound)))
                    lines.append(f"{name}_bucket{label} {cumulative}")
                cumulative += row["counts"][len(bounds)] if len(row["counts"]) > len(bounds) else 0
                label = _label_str(labelnames, key, ("le", "+Inf"))
                lines.append(f"{name}_bucket{label} {cumulative}")
                lines.append(f"{name}_sum{_label_str(labelnames, key)} {row['sum']}")
                lines.append(f"{name}_count{_label_str(labelnames, key)} {row['count']}")
        else:
            for key in sorted(values):
                lines.append(f"{name}{_label_str(labelnames, key)} {values[key]}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse Prometheus text exposition into ``(name, labels, value)`` samples.

    Raises ``ValueError`` on any malformed non-comment line; the CI
    snapshot validator relies on that strictness.
    """

    samples: List[Tuple[str, Dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_part, value_part = rest.rsplit("}", 1)
            labels: Dict[str, str] = {}
            if label_part:
                depth_buf = ""
                in_quotes = False
                parts: List[str] = []
                for ch in label_part:
                    if ch == '"' and (not depth_buf or depth_buf[-1] != "\\"):
                        in_quotes = not in_quotes
                    if ch == "," and not in_quotes:
                        parts.append(depth_buf)
                        depth_buf = ""
                    else:
                        depth_buf += ch
                if depth_buf:
                    parts.append(depth_buf)
                for pair in parts:
                    key, _, quoted = pair.partition("=")
                    if not quoted.startswith('"') or not quoted.endswith('"'):
                        raise ValueError(f"malformed label in line: {raw!r}")
                    labels[key.strip()] = (
                        quoted[1:-1]
                        .replace("\\n", "\n")
                        .replace('\\"', '"')
                        .replace("\\\\", "\\")
                    )
        else:
            name, _, value_part = line.partition(" ")
            labels = {}
        value_bits = value_part.strip().split()
        if not name.strip() or not value_bits:
            raise ValueError(f"malformed sample line: {raw!r}")
        samples.append((name.strip(), labels, float(value_bits[0])))
    return samples


def percentile_from_counts(bounds: List[float], counts: List[int], q: float) -> float:
    """Upper-bound percentile estimate from fixed-bucket counts (seconds)."""

    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= target:
            return bounds[i] if i < len(bounds) else bounds[-1] * 2.0
    return bounds[-1] * 2.0


def histogram_summary(entry: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-label ``{count, p50_ms, p95_ms, p99_ms}`` from a histogram entry."""

    bounds = entry.get("bounds", [])
    out: Dict[str, Dict[str, Any]] = {}
    for key, row in entry.get("values", {}).items():
        label = key.replace("\x1f", "/") if key else "all"
        counts = row["counts"]
        out[label] = {
            "count": row["count"],
            "p50_ms": percentile_from_counts(bounds, counts, 0.50) * 1000.0,
            "p95_ms": percentile_from_counts(bounds, counts, 0.95) * 1000.0,
            "p99_ms": percentile_from_counts(bounds, counts, 0.99) * 1000.0,
        }
    return out


_SUMMARY_HISTOGRAMS = {
    "http": "lux_http_request_seconds",
    "rpc_client": "lux_rpc_client_seconds",
    "rpc_handle": "lux_rpc_handle_seconds",
    "precompute_pass": "lux_precompute_pass_seconds",
    "precompute_phase": "lux_precompute_phase_seconds",
}


def summaries(snapshot: Optional[Dict[str, Dict[str, Any]]] = None) -> Dict[str, Any]:
    """Per-route / per-pass latency summaries for ``/healthz``."""

    if snapshot is None:
        snapshot = collect_process()
    out: Dict[str, Any] = {}
    for alias, name in _SUMMARY_HISTOGRAMS.items():
        entry = snapshot.get(name)
        if entry and entry.get("type") == "histogram" and entry.get("values"):
            out[alias] = histogram_summary(entry)
    return out


def observe_request(
    route: str, method: str, status: int, seconds: float, body_bytes: int
) -> None:
    """Record one HTTP request (called centrally by the HTTP router).

    ``body_bytes`` is the response body's length (its ``Content-Length``).
    In shard mode only the router's HTTP handler records requests, so the
    supervisor's merge of these series is a plain sum.
    """

    telemetry.counter(
        "lux_http_requests_total",
        "HTTP requests by route, method, and status",
        ("route", "method", "status"),
    ).inc(labels=(route, method, status))
    telemetry.histogram(
        "lux_http_request_seconds",
        "HTTP request latency by route",
        ("route",),
    ).observe(seconds, (route,))
    telemetry.counter(
        "lux_http_response_bytes_total",
        "HTTP response body bytes by route",
        ("route",),
    ).inc(body_bytes, (route,))


def _slot_total(field: str):
    # Named (not lambda) reader: iterates cache slots without the cache
    # lock; a concurrent resize raises and the gauge skips one scrape.
    def read() -> float:
        total = 0
        for slot in list(computation_cache._slots.values()):
            total += getattr(slot, field)
        return float(total)

    return read


def _dict_reader(mapping: Dict[str, Any], key: str):
    def read() -> float:
        return float(mapping.get(key, 0))

    return read


def register_service_gauges(manager: Any) -> None:
    """Register live gauges for one SessionManager's store/engine/cache.

    Callbacks are lock-free reads of plain counters (ints are torn-free
    under the GIL); re-registration replaces callbacks, so the latest
    manager in a process wins.
    """

    store = manager.store
    engine = manager.engine
    g = telemetry.gauge
    g("lux_store_bytes", "result store resident bytes").set_function(lambda: store._nbytes)
    g("lux_store_bytes_peak", "result store peak bytes").set_function(lambda: store._bytes_peak)
    g("lux_store_entries", "result store action payloads").set_function(lambda: store._entries)
    g("lux_store_hits_total", "result store hits").set_function(lambda: store._hits)
    g("lux_store_misses_total", "result store misses").set_function(lambda: store._misses)
    g("lux_store_evictions_total", "result store evictions").set_function(
        lambda: store._evictions
    )
    g("lux_cache_bytes", "computation cache resident bytes").set_function(
        _slot_total("nbytes")
    )
    g("lux_cache_hits_total", "computation cache hits").set_function(_slot_total("hits"))
    g("lux_cache_misses_total", "computation cache misses").set_function(
        _slot_total("misses")
    )
    g("lux_sessions", "live sessions in this process").set_function(
        lambda: len(manager._sessions)
    )
    passes = telemetry.gauge(
        "lux_precompute_passes_total",
        "precompute passes by outcome",
        ("result",),
    )
    for result in ("completed", "cancelled", "failed", "shed", "deferred", "rejected"):
        # The engine counts shed passes as ``shed_stale``.
        key = "shed_stale" if result == "shed" else result
        passes.set_function(_dict_reader(engine._counters, key), (result,))


def main(argv: Optional[List[str]] = None) -> int:
    """Validate a scraped ``/metrics`` snapshot file (CI gate)."""

    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.service.metrics SNAPSHOT.txt", file=sys.stderr)
        return 2
    try:
        with open(argv[0], "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"metrics snapshot unreadable: {exc}", file=sys.stderr)
        return 1
    try:
        samples = parse_exposition(text)
    except ValueError as exc:
        print(f"metrics snapshot unparseable: {exc}", file=sys.stderr)
        return 1
    if not samples:
        print("metrics snapshot is empty", file=sys.stderr)
        return 1
    names = sorted({name for name, _, _ in samples})
    print(f"metrics snapshot ok: {len(samples)} samples, {len(names)} series")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
