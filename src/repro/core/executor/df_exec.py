"""Dataframe executor: Table 2's relational operations on the columnar engine.

=================  =========================================
Vis type           Relational operation (Table 2)
=================  =========================================
Scatterplot        Selection on 2 columns
Color scatterplot  Selection on 3 columns
Line / bar         Group-by aggregation
Colored line/bar   2-D group-by aggregation
Histogram          Bin + count
Heatmap            2-D bin + count
Color heatmap      2-D bin + count + group-by aggregation
Choropleth         Group-by aggregation keyed on a geo column
=================  =========================================

Shared-scan execution
---------------------
A recommendation pass runs dozens of these operations over one frame, so
every relational primitive routes through the process-wide
:data:`~repro.core.executor.cache.computation_cache`: filter masks,
group-key factorizations (via prepared ``_Grouping`` objects), ``to_float``
views, and histogram bin edges are each computed once per
``(frame, _data_version)`` and shared across the whole candidate set.
:meth:`DataFrameExecutor.execute_many` is the batch entry point — it
groups specs by filter signature so each distinct filter materializes
exactly one subframe, held only until its group's last spec has run
(subframes are full row copies and are deliberately never pinned in the
process-wide cache).
Stale entries are impossible by construction: the cache keys on the frame's
``_data_version``, which every in-place mutation bumps.

Draining a batch
----------------
A batch is one work queue with one item per spec, and the *calling thread
drains it*.  Under ``config.parallel_execute`` pool helpers
(:mod:`repro.core.pool`) drain it alongside, so a saturated pool degrades
to the calling thread's own throughput instead of deadlocking; with no
helpers the drain is the serial loop, in group order.  There are none
inside a pool worker (a streamed action's or a background pass's nested
batch), for single-spec batches, with one worker, and below
``config.parallel_min_rows``.  Results are bit-identical whoever pops an
item: every spec writes only its own ``results`` cell, and the computation
cache's per-slot locks make concurrent primitive lookups race-free (a lost
race recomputes, never tears).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Sequence

import numpy as np

from ...dataframe import Column, DataFrame, GroupBy
from ...vis.encoding import Encoding
from ...vis.spec import VisSpec
from ...vis.table import ColumnTable
from .. import pool
from ..config import config
from ..errors import ExecutorError
from .base import Executor, group_indices_by_filter, histogram_table
from .cache import computation_cache as _cache

__all__ = ["DataFrameExecutor"]


class DataFrameExecutor(Executor):
    """Executes visualization queries directly on ``repro.dataframe``."""

    name = "dataframe"

    # ------------------------------------------------------------------
    @staticmethod
    def _filter_mask(
        frame: DataFrame, filters: list[tuple[str, str, Any]]
    ) -> np.ndarray:
        mask = np.ones(len(frame), dtype=bool)
        for attr, op, value in filters:
            if attr not in frame:
                raise ExecutorError(f"filter attribute {attr!r} not found")
            col = frame.column(attr)
            if op == "=":
                cmp = col == value
            elif op == "!=":
                cmp = col != value
            elif op == ">":
                cmp = col > value
            elif op == "<":
                cmp = col < value
            elif op == ">=":
                cmp = col >= value
            elif op == "<=":
                cmp = col <= value
            else:  # pragma: no cover - parser rejects other ops
                raise ExecutorError(f"unsupported filter op {op!r}")
            mask &= cmp.values & ~cmp.mask
        return mask

    def apply_filters(
        self, frame: DataFrame, filters: list[tuple[str, str, Any]]
    ) -> DataFrame:
        if not filters:
            return frame
        # The compute callback takes the target frame: for a linked sample
        # the cache evaluates it against the parent and slices the result,
        # pre-warming the full-frame mask (see ComputationCache.filter_mask).
        mask = _cache.filter_mask(
            frame, filters, lambda f: self._filter_mask(f, filters)
        )
        # Only the mask is cached; the subframe is materialized per call so
        # nothing pins full row copies process-wide.  Batch callers share
        # the subframe locally instead (see execute_many).
        return frame[mask]

    # ------------------------------------------------------------------
    def _handler(self, mark: str):
        handler = {
            "histogram": self._execute_histogram,
            "bar": self._execute_grouped,
            "line": self._execute_grouped,
            "area": self._execute_grouped,
            "geoshape": self._execute_geo,
            "point": self._execute_scatter,
            "tick": self._execute_scatter,
            "rect": self._execute_heatmap,
        }.get(mark)
        if handler is None:  # pragma: no cover - spec ctor rejects others
            raise ExecutorError(f"no handler for mark {mark!r}")
        return handler

    def execute(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        frame = self.apply_filters(frame, spec.filters)
        table = self._handler(spec.mark)(spec, frame)
        spec.data = table
        return table

    def execute_many(
        self, specs: Sequence[VisSpec], frame: DataFrame
    ) -> list[ColumnTable]:
        """Batch execution sharing one scan per relational primitive.

        Specs are grouped by filter signature so each distinct filter
        evaluates its mask and materializes its subframe exactly once, then
        every handler runs against the shared subframe — whose group-by
        factorizations, float views, and bin edges are in turn shared
        through the computation cache.  With ``config.computation_cache``
        off every spec is its own group (a mask and a subframe per spec),
        so ablations stay honest.

        The calling thread drains one work item per spec, and
        :meth:`_helpers` pool helpers drain with it (see the module
        docstring).  A subframe materializes behind its group's lock
        (double-checked, so same-group specs popped by different threads
        share the row copy) and is dropped once its group's last spec has
        run.  Helpers that never get scheduled cost correctness nothing,
        and waiting on them cannot deadlock: the queue they would drain
        is empty by the time this thread blocks.
        """
        if _cache.enabled:
            groups = group_indices_by_filter(specs)
        else:
            groups = [[i] for i in range(len(specs))]
        results: list[ColumnTable | None] = [None] * len(specs)
        subframes: dict[int, DataFrame] = {}
        group_locks = [threading.Lock() for _ in groups]
        left = [len(indices) for indices in groups]
        work: "deque[tuple[int, int]]" = deque(
            (gi, i) for gi, indices in enumerate(groups) for i in indices
        )
        errors: list[BaseException] = []

        def subframe_for(gi: int) -> DataFrame:
            sub = subframes.get(gi)
            if sub is None:
                with group_locks[gi]:
                    sub = subframes.get(gi)
                    if sub is None:
                        sub = self.apply_filters(
                            frame, specs[groups[gi][0]].filters
                        )
                        subframes[gi] = sub
            return sub

        def drain() -> None:
            while not errors:
                try:
                    gi, i = work.popleft()  # thread-safe: deque is atomic
                except IndexError:
                    return
                try:
                    spec = specs[i]
                    table = self._handler(spec.mark)(spec, subframe_for(gi))
                    spec.data = table
                    results[i] = table
                except BaseException as exc:
                    errors.append(exc)
                    return
                with group_locks[gi]:
                    left[gi] -= 1
                    if not left[gi]:
                        del subframes[gi]

        futures = [pool.submit(drain) for _ in range(self._helpers(len(specs), frame))]
        try:
            drain()
            # The queue is drained; a helper still waiting behind unrelated
            # long-running pool tasks (streamed laggard actions) would only
            # run a no-op — cancel it rather than let background work stall
            # this interactive batch.  Helpers already running are joined.
            for future in futures:
                if not future.cancel():
                    future.result()
        finally:
            # A cancelled helper stays queued in the pool until a worker
            # pops it, and its ``drain`` closure holds ``subframes``: drop
            # the row copies now, not when the queue reaches it.
            subframes.clear()
        if errors:
            raise errors[0]
        return results  # type: ignore[return-value]

    @staticmethod
    def _helpers(n_specs: int, frame: DataFrame) -> int:
        """How many pool helpers drain a batch alongside the calling thread."""
        if (
            not config.parallel_execute
            or len(frame) < config.parallel_min_rows
            or pool.in_worker()  # never wait on the pool from inside it
        ):
            return 0
        return max(min(pool.worker_count(), n_specs) - 1, 0)

    # ------------------------------------------------------------------
    # Histogram: bin + count
    # ------------------------------------------------------------------
    def _execute_histogram(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        enc = spec.x if spec.x is not None and spec.x.bin else spec.y
        if enc is None or enc.field not in frame:
            raise ExecutorError("histogram requires a binned axis")
        values = _cache.to_float(frame, enc.field)
        # NaN (missing) and +-inf both stay out: an infinite value would
        # make the bin range infinite and fail the whole histogram.
        values = values[np.isfinite(values)]
        if len(values) == 0:
            return ColumnTable()
        edges = _cache.bin_edges(
            frame, enc.field, enc.resolved_bin_size, valid_values=values
        )
        counts, edges = np.histogram(values, bins=edges)
        return histogram_table(enc.field, edges, counts)

    # ------------------------------------------------------------------
    # Bar / line: (2-D) group-by aggregation
    # ------------------------------------------------------------------
    @staticmethod
    def _grouping_channels(spec: VisSpec) -> tuple[Encoding, Encoding | None]:
        """(dimension encoding, measure encoding or None for count)."""
        dim = None
        measure = None
        for enc in spec.encodings:
            if enc.channel not in ("x", "y"):
                continue
            if enc.aggregate or (enc.field_type == "quantitative" and not enc.bin):
                measure = enc
            else:
                dim = enc
        if dim is None:
            # Single aggregated measure, e.g. Vis of mean(Age) alone.
            return measure, measure
        return dim, measure

    @staticmethod
    def _groupby(frame: DataFrame, keys: list[str]) -> GroupBy:
        """A GroupBy sharing both halves of the scan through the cache.

        The factorization pass comes from the memoized ``_Grouping`` and
        the value-column float conversion is injected so aggregation stops
        re-converting the same measure for every spec in the pass.
        """
        return GroupBy.from_grouping(
            frame,
            _cache.grouping(frame, tuple(keys)),
            to_float=lambda name: _cache.to_float(frame, name),
        )

    def _execute_grouped(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        dim, measure = self._grouping_channels(spec)
        if dim is None:
            raise ExecutorError("bar/line requires a dimension axis")
        if dim is measure:
            # Degenerate single-measure aggregate.
            agg = measure.aggregate or "mean"
            col = frame[measure.field]
            value = getattr(col, "count" if agg == "count" else agg)()
            return ColumnTable({measure.field: Column.from_data([value])})
        color = spec.color
        keys = [dim.field]
        if color is not None and color.field and color.field_type != "quantitative":
            keys.append(color.field)
        grouped = self._groupby(frame, keys)
        if measure is None or measure.aggregate == "count" or not measure.field:
            table = ColumnTable.from_frame(grouped.size_frame("count"))
        elif len(keys) == 1:
            agg = measure.aggregate or "mean"
            series = grouped[measure.field].agg(agg)
            table = _series_table(series, keys[0], measure.field)
        else:
            agg = measure.aggregate or "mean"
            table = ColumnTable.from_frame(grouped.agg({measure.field: agg}))
        if dim.field_type == "temporal":
            table = table.take(_sort_order(table.columns[dim.field]))
        return table

    # ------------------------------------------------------------------
    # Choropleth: group-by aggregation on the geo column
    # ------------------------------------------------------------------
    def _execute_geo(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        geo = None
        for enc in spec.encodings:
            if enc.field_type == "geographic":
                geo = enc
        if geo is None or geo.field not in frame:
            raise ExecutorError("geoshape requires a geographic field")
        measure = spec.color if spec.color is not None else spec.y
        grouped = self._groupby(frame, [geo.field])
        if measure is None or not measure.field or measure.aggregate == "count":
            return _series_table(grouped.size(), geo.field, "count")
        series = grouped[measure.field].agg(measure.aggregate or "mean")
        return _series_table(series, geo.field, measure.field)

    # ------------------------------------------------------------------
    # Scatter: selection on 2-3 columns (display-capped)
    # ------------------------------------------------------------------
    def _execute_scatter(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        fields = [
            enc.field
            for enc in spec.encodings
            if enc.field and enc.field in frame
        ]
        if not fields:
            raise ExecutorError("scatter requires at least one field")
        subset = frame[fields]
        if len(subset) > config.max_scatter_points:
            subset = subset.sample(
                n=config.max_scatter_points, random_state=config.random_seed
            )
        return ColumnTable.from_frame(subset)

    # ------------------------------------------------------------------
    # Heatmap: 2-D bin/group + count (+ group-by aggregation when colored)
    # ------------------------------------------------------------------
    def _execute_heatmap(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        x, y = spec.x, spec.y
        if x is None or y is None:
            raise ExecutorError("heatmap requires x and y")
        color = spec.color
        if x.field_type == "quantitative" and y.field_type == "quantitative":
            return self._numeric_heatmap(spec, frame, x, y, color)
        keys = [x.field, y.field]
        grouped = self._groupby(frame, keys)
        if color is not None and color.field and color.aggregate not in (None, "count"):
            return ColumnTable.from_frame(grouped.agg({color.field: color.aggregate}))
        return ColumnTable.from_frame(grouped.size_frame("count"))

    def _numeric_heatmap(
        self,
        spec: VisSpec,
        frame: DataFrame,
        x: Encoding,
        y: Encoding,
        color: Encoding | None,
    ) -> ColumnTable:
        xv = _cache.to_float(frame, x.field)
        yv = _cache.to_float(frame, y.field)
        ok = np.isfinite(xv) & np.isfinite(yv)
        xv, yv = xv[ok], yv[ok]
        if len(xv) == 0:
            return ColumnTable()
        # Per-axis bins; resolved_bin_size honors an explicit setting even
        # below config.default_bin_size (0-sentinel, like Clause.bin_size).
        bins = [x.resolved_bin_size, y.resolved_bin_size]
        counts, xe, ye = np.histogram2d(xv, yv, bins=bins)
        xc = (xe[:-1] + xe[1:]) / 2
        yc = (ye[:-1] + ye[1:]) / 2
        # Non-empty cells in row-major (x-major) order.
        ix, iy = np.nonzero(counts)
        n = counts[ix, iy]
        columns = {
            x.field: Column.from_data(xc[ix]),
            y.field: Column.from_data(yc[iy]),
            "count": Column.from_data(n.astype(np.int64)),
        }
        if color is not None and color.field and color.field in frame:
            cv = _cache.to_float(frame, color.field)[ok]
            sums, _, _ = np.histogram2d(xv, yv, bins=[xe, ye], weights=np.nan_to_num(cv))
            columns[color.field] = Column.from_data(sums[ix, iy] / n)
        return ColumnTable(columns)


def _series_table(series: Any, key: str, value_name: str) -> ColumnTable:
    """A single-key grouped Series as chart data: its labels, then its values."""
    return ColumnTable({key: series.index.column, value_name: series.column})


def _sort_order(col: Column) -> np.ndarray:
    """Stable ascending row order by ``col``, missing values last."""
    valid = np.flatnonzero(~col.mask)
    order = valid[np.argsort(col.values[valid], kind="stable")]
    return np.concatenate([order, np.flatnonzero(col.mask)])
