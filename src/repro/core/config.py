"""Global configuration for the Lux reproduction.

The flags mirror the paper's evaluation conditions (§9.1): ``lazy_maintain``
is the *wflow* optimization, ``early_pruning`` is *prune*, and
``cost_based_scheduling`` is *async*.  The benchmark harness flips these to
realize the five measured conditions (no-opt / wflow / wflow+prune /
all-opt / pandas).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = ["Config", "config", "config_overlay", "current_overlay", "thread_overlay"]

#: Per-thread stack of overlay dicts consulted (top first) before the
#: singleton's own attributes.  Overlays are *reads-only* isolation: they
#: never touch the shared ``__dict__``, so two threads holding different
#: overlays see different effective configs concurrently — the mechanism
#: sessions use to stop clobbering one another's knobs.
_OVERLAYS = threading.local()


def _overlay_stack() -> list[dict[str, Any]]:
    stack = getattr(_OVERLAYS, "stack", None)
    if stack is None:
        stack = []
        _OVERLAYS.stack = stack
    return stack


@dataclass
class Config:
    """Runtime knobs; mutate the module-level :data:`config` singleton."""

    #: Number of recommendations kept per action (paper: k = 15).
    top_k: int = 15

    #: wflow — compute metadata/recommendations lazily on print and memoize.
    lazy_maintain: bool = True

    #: prune — approximate scoring on a cached sample with exact top-k
    #: recomputation.
    early_pruning: bool = True

    #: async — order actions cheapest-first using the cost model (and stream
    #: remaining ones in the background when ``streaming`` is set).
    cost_based_scheduling: bool = True

    #: Run laggard actions on a background thread (time-to-first-action
    #: optimisation); synchronous when False so results are deterministic.
    streaming: bool = False

    #: Worker count of the process-wide shared pool (``repro.core.pool``)
    #: that both streams laggard actions and fans out batch execution.
    #: Defaults to the host's core count so a recommendation pass can use
    #: all available hardware; resizes apply on the next submission.
    action_pool_workers: int = field(
        default_factory=lambda: max(2, os.cpu_count() or 1)
    )

    #: Shared-scan computation cache: memoize filter masks, group-key
    #: factorizations, float conversions, and histogram bin edges per
    #: (frame, ``_data_version``) so one recommendation pass performs each
    #: relational primitive once.  Disable for honest ablations
    #: (``benchmarks/bench_shared_scan.py`` measures both conditions).
    computation_cache: bool = True

    #: Byte budget for the computation cache, in mebibytes; 0 disables the
    #: bound.  Accounting is exact (``ndarray.nbytes`` per cached vector,
    #: i.e. rows x dtype width per entry), so on 10M-row frames the cache
    #: degrades to fewer memoized scans instead of pinning gigabytes.
    computation_cache_budget_mb: int = 64

    #: Register a computation-cache link for every filtered / sampled /
    #: sliced LuxDataFrame child, so its floats and filter masks derive
    #: from the parent's cached vectors (warm start) and survive
    #: column-scoped parent mutations via link migration.  Off, children
    #: cold-start and only the explicit ranking-sample link is kept.
    derived_cache_links: bool = True

    #: Fan ``DataFrameExecutor.execute_many`` out across the shared pool.
    #: Each filter group's subframe materializes once; specs then execute
    #: concurrently against the per-slot-locked computation cache.  The
    #: serial batch path is used when off, when the batch has a single
    #: spec, or from inside a pool worker (deadlock rule).
    parallel_execute: bool = True

    #: Frames smaller than this execute batches serially: thread fan-out
    #: overhead outweighs scan sharing on tiny frames.
    parallel_min_rows: int = 2_000

    #: Consolidate ``SQLExecutor.execute_many`` batches into one shared-WHERE
    #: CTE + UNION ALL statement per filter group (one scan per GROUP BY
    #: shape instead of one round-trip query per candidate).  Off, the batch
    #: still reuses a single connection but issues per-spec statements —
    #: the ablation condition ``benchmarks/bench_sql_scan.py`` measures.
    sql_batch_execute: bool = True

    #: Rows above which approximate scoring kicks in (paper samples when the
    #: dataframe exceeds the cache size).
    sampling_start: int = 10_000

    #: Cached-sample cap in rows (paper: 30k justified by Fig. 12 right).
    sampling_cap: int = 30_000

    #: Master switch for sampling (the RQ3 experiment sweeps this).
    sampling: bool = True

    #: Default bin count for histograms.
    default_bin_size: int = 10

    #: Nominal axes with more distinct values than this are deemed
    #: ineffective encodings and filtered by the compiler's Lookup stage.
    max_cardinality_for_axis: int = 50

    #: Color channels with more groups than this are dropped.
    max_cardinality_for_color: int = 20

    #: Scatterplots subsample their display data beyond this many points.
    max_scatter_points: int = 10_000

    #: "pandas" | "lux" — which view prints by default.
    default_display: str = "pandas"

    #: Executor backend: "dataframe" (in-process columnar engine) or "sql"
    #: (sqlite3).
    executor: str = "dataframe"

    #: When False, the always-on hook in ``__repr__`` is disabled entirely
    #: (the *pandas* benchmark condition).
    always_on: bool = True

    #: Seed for all sampling decisions, for reproducible experiments.
    random_seed: int = 0

    # ------------------------------------------------------------------
    # Service knobs (repro.service)
    # ------------------------------------------------------------------
    #: Byte budget (MiB) for the service's versioned result store; 0
    #: disables the bound.  Entries are the vega-lite payloads' JSON wire
    #: bytes, so the budget bounds their resident memory exactly.
    service_store_budget_mb: int = 32

    #: Seconds the precompute engine waits after a mutation before
    #: scheduling a background pass, coalescing bursts of edits (a cell
    #: loop mutating row-by-row triggers one pass, not thousands).
    precompute_debounce_s: float = 0.05

    #: Master switch for background precomputation; off, the service
    #: computes recommendations only on demand (foreground).
    precompute: bool = True

    #: Bearer token required by the HTTP API on every route except
    #: ``/healthz``; empty disables authentication (local notebooks).
    service_auth_token: str = ""

    #: Backpressure bound on the precompute backlog (armed debounce timers
    #: plus queued/in-flight background passes, across all sessions).  At
    #: the limit the engine sheds superseded work first, defers what it
    #: cannot shed, and the HTTP API rejects further mutation-facing
    #: writes with 429 + ``Retry-After`` instead of queueing unboundedly.
    #: 0 disables the bound.
    precompute_queue_limit: int = 128

    #: Incremental recomputation: partition each background pass into the
    #: actions whose input footprint intersects the accumulated mutation
    #: delta (rerun) and the rest (carried forward from the previous
    #: stored pass, provenance ``carried``).  Off, every version bump
    #: reruns the full action set — the ablation condition
    #: ``benchmarks/bench_incremental.py`` measures.
    incremental_precompute: bool = True

    #: Worker-process count of the sharded service tier (sessions are
    #: routed by a consistent hash of the session id; one SessionManager
    #: + PrecomputeEngine per worker).  0 keeps the service single-process
    #: (no supervisor, the PR-4 architecture).
    service_shards: int = 0

    #: Directory for per-session snapshots (frame columns + intent +
    #: history + stored results), enabling warm recovery after a restart.
    #: Empty disables persistence.
    service_snapshot_dir: str = ""

    #: Minimum seconds between snapshot writes per session; a completed
    #: background pass inside the window skips its save (the next one
    #: outside the window, or a shutdown flush, persists it).  0.0 saves
    #: on every published pass.
    service_snapshot_interval_s: float = 0.0

    #: Per-request timeout on supervisor -> worker RPCs; a worker that
    #: does not answer inside the window is reported unreachable (HTTP
    #: 503) instead of hanging the router thread.  ``/healthz`` probes
    #: use the tighter ``min(2.0, this)`` so aggregation never blocks on
    #: a dead worker.
    service_rpc_timeout_s: float = 30.0

    # ------------------------------------------------------------------
    # Telemetry knobs (repro.core.telemetry)
    # ------------------------------------------------------------------
    #: Fraction of traces whose spans are recorded (decided once per
    #: trace from a deterministic hash of the trace id, so every process
    #: in a sharded tier samples the same traces).  Metrics are always
    #: recorded; this gates only span capture.
    telemetry_sample_rate: float = 1.0

    #: Capacity of the per-process span ring buffer (most recent spans
    #: win).  Applied when the ring is first created in a process or
    #: after ``telemetry.reset()``.
    telemetry_span_buffer: int = 512

    #: Number of finite latency-histogram buckets.  Bounds are powers of
    #: two starting at 0.5 ms, derived only from this knob, so every
    #: worker uses identical edges and cross-process merge is exact
    #: bucket-wise addition.
    telemetry_histogram_buckets: int = 20

    def __getattribute__(self, name: str) -> Any:
        # Thread-local overlays shadow instance attributes.  The guard
        # order keeps the common case (no overlay anywhere) at one
        # getattr + None test; method lookups fall through because
        # overlay layers only ever hold field names.
        if not name.startswith("_"):
            stack = getattr(_OVERLAYS, "stack", None)
            if stack:
                for layer in reversed(stack):
                    if name in layer:
                        return layer[name]
        return object.__getattribute__(self, name)

    def apply_condition(self, condition: str) -> None:
        """Set the flag combination for a named benchmark condition.

        Conditions follow §9.1: ``no-opt``, ``wflow``, ``wflow+prune``,
        ``all-opt``, ``pandas``.
        """
        presets: dict[str, dict[str, bool]] = {
            "no-opt": dict(
                always_on=True,
                lazy_maintain=False,
                early_pruning=False,
                cost_based_scheduling=False,
                streaming=False,
            ),
            "wflow": dict(
                always_on=True,
                lazy_maintain=True,
                early_pruning=False,
                cost_based_scheduling=False,
                streaming=False,
            ),
            "wflow+prune": dict(
                always_on=True,
                lazy_maintain=True,
                early_pruning=True,
                cost_based_scheduling=False,
                streaming=False,
            ),
            # async: cheapest action computed inline, laggards streamed from
            # a background pool — print returns control early (§8.2).
            "all-opt": dict(
                always_on=True,
                lazy_maintain=True,
                early_pruning=True,
                cost_based_scheduling=True,
                streaming=True,
            ),
            "pandas": dict(
                always_on=False,
                lazy_maintain=True,
                early_pruning=False,
                cost_based_scheduling=False,
                streaming=False,
            ),
        }
        try:
            values = presets[condition]
        except KeyError:
            raise ValueError(
                f"unknown condition {condition!r}; expected one of {sorted(presets)}"
            ) from None
        for key, value in values.items():
            setattr(self, key, value)

    def snapshot(self) -> dict[str, Any]:
        """Copy of the *base* settings (overlays excluded; save/restore)."""
        return dict(self.__dict__)

    def restore(self, snapshot: dict[str, Any]) -> None:
        for key, value in snapshot.items():
            setattr(self, key, value)

    def effective(self) -> dict[str, Any]:
        """All settings as this thread sees them (base + overlay layers)."""
        merged = dict(self.__dict__)
        for layer in _overlay_stack():
            merged.update(layer)
        return merged

    def validate_overrides(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Check override names against the known fields; returns a copy."""
        unknown = [k for k in overrides if k not in self.__dict__]
        if unknown:
            raise ValueError(
                f"unknown config field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(self.__dict__)}"
            )
        return dict(overrides)


#: The process-wide configuration singleton.
config = Config()


def current_overlay() -> dict[str, Any]:
    """This thread's overlay layers merged into one dict ({} when none).

    The worker pool captures this at submission and re-applies it on the
    worker (:func:`thread_overlay`), so fan-out work inherits the
    submitting session's effective config.
    """
    merged: dict[str, Any] = {}
    for layer in _overlay_stack():
        merged.update(layer)
    return merged


@contextmanager
def thread_overlay(overrides: Mapping[str, Any]) -> Iterator[None]:
    """Push a raw overlay layer on this thread only; no global snapshot.

    This is the propagation primitive (pool workers, service passes):
    unlike :func:`config_overlay` it never reads or writes the singleton's
    base state, so it is safe on any thread at any time.
    """
    stack = _overlay_stack()
    stack.append(dict(overrides))
    try:
        yield
    finally:
        stack.pop()


@contextmanager
def config_overlay(**overrides: Any) -> Iterator[Config]:
    """Scoped config: overlay ``overrides`` and restore base state on exit.

    The one sanctioned way to run code under modified settings — replaces
    every hand-rolled ``snapshot()``/``restore()`` pair:

    - ``overrides`` are validated field names, visible only to this thread
      (and to pool work it submits) for the duration of the block;
    - direct ``config.field = ...`` mutations *inside* the block hit the
      shared base state as before, but are rolled back on exit, so tests
      and benchmarks cannot leak settings;
    - blocks nest; inner layers win.

    Mutating the base config concurrently from another thread while a
    block is active is unsupported (same contract the old save/restore
    idiom had, now stated).
    """
    base = config.snapshot()
    with thread_overlay(config.validate_overrides(overrides)):
        try:
            yield config
        finally:
            config.restore(base)
