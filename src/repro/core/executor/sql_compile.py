"""SQL rendering fragments and the consolidated batch-pass compiler.

This is the SQL half of the shared-scan story (see ``df_exec`` for the
dataframe half): a recommendation pass issues dozens of relational
operations against one frame, and running them as one-query-per-candidate
means O(candidates) scans of the base table.  This module compiles a
*filter group* — every spec in a batch sharing one filter signature — into
a single consolidated SQL pass:

- a shared-WHERE CTE materializes the filtered row set once (``WITH src
  AS MATERIALIZED (...)`` on sqlite >= 3.35, a plain CTE below), selecting
  only the columns the group's branches touch;
- every distinct GROUP BY shape becomes one ``UNION ALL`` arm (*branch*),
  and all specs sharing that shape ride along as extra aggregate columns —
  18 bar specs over 3 dimensions scan the table 3 times, not 18;
- binned histograms become branches too, via a ``CASE`` bucket expression
  over numpy-computed edges (width/offset arithmetic resolved at compile
  time from one per-group MIN/MAX stats scan), so bucket assignment is
  bit-identical to ``np.histogram`` on explicit edges (right-open bins,
  last bin closed).  Routing is cost-based: only *filtered* histograms
  join the consolidated pass (their branch rides the already-materialized
  CTE instead of paying a per-spec mask + subframe); unfiltered ones take
  the numpy path the serial executor uses — identical either way;
- scatter selections become ``LIMIT``-ed subselect arms;
- shapes the translator can't express fall back, per spec, to the
  existing per-spec path.

Branch arms are tagged with an integer branch id in their first result
column; the executor partitions the combined row stream by that tag and
each spec's *decoder* closure rebuilds exactly the column table the
per-spec path would have produced — same fields, same order, same values.  sqlite
executes compound-select arms sequentially and sorts each GROUP BY arm by
its keys exactly as it would the standalone query, so batched results are
bit-identical to the serial per-spec path (the golden suite in
``tests/core/test_sql_batch.py`` holds this across every supported shape).

The low-level fragments (quoting, literals, WHERE rendering, aggregate
expressions, grouped/rect shape detection) live here so the per-spec
translator (``translate_vis_to_sql``) and the batch compiler share one
definition and can never drift apart.

Filter-semantics caveat: grouped and scatter branches compare SQL-to-SQL
with the serial path, so WHERE semantics cancel out.  Histogram branches
cross engines (the serial path delegates histograms to the dataframe
executor), so their parity additionally relies on sqlite WHERE semantics
matching the numpy mask for the typed columns this engine loads — true
for the supported ``=``/``!=``/ordering operators on numeric and text
columns (NaN loads as NULL and is excluded by both sides).
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Callable, Sequence

import numpy as np

from ...dataframe import DataFrame
from ...vis.spec import VisSpec
from ...vis.table import ColumnTable
from ..config import config
from ..errors import ExecutorError
from .base import histogram_table

__all__ = [
    "AGG_SQL",
    "GroupPlan",
    "TABLE",
    "agg_expr",
    "bucket_expr",
    "column_sql_type",
    "grouped_parts",
    "quote",
    "rect_parts",
    "sql_literal",
    "where_clause",
]

TABLE = "frame"

#: Source alias used by consolidated passes over a filtered CTE.
_SRC = "__src"

#: Arm budget per consolidated statement, under sqlite's default
#: SQLITE_MAX_COMPOUND_SELECT of 500: once reached, specs needing a *new*
#: arm fall back to the per-spec path (merges into existing arms stay
#: free), so a pathological batch degrades instead of hard-failing.
_MAX_ARMS = 450

#: One spec's chart data, decoded from its branch's rows of a consolidated pass.
Decoder = Callable[[list[tuple]], ColumnTable]


def quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return repr(float(value) if isinstance(value, (float, np.floating)) else int(value))
    text = str(value).replace("'", "''")
    return f"'{text}'"


def where_clause(filters: Sequence[tuple[str, str, Any]]) -> str:
    if not filters:
        return ""
    parts = []
    for attr, op, value in filters:
        sql_op = {"=": "=", "!=": "<>", ">": ">", "<": "<", ">=": ">=", "<=": "<="}[op]
        parts.append(f"{quote(attr)} {sql_op} {sql_literal(value)}")
    return " WHERE " + " AND ".join(parts)


def column_sql_type(frame: DataFrame, name: str) -> str:
    kind = frame.column(name).dtype.name
    if kind == "int64":
        return "INTEGER"
    if kind in ("float64", "bool"):
        return "REAL"
    return "TEXT"


AGG_SQL = {
    "mean": "AVG",
    "sum": "SUM",
    "min": "MIN",
    "max": "MAX",
    "count": "COUNT",
    "median": "AVG",  # sqlite lacks MEDIAN; AVG is the closest single-pass
    "var": None,
    "std": None,
}


def agg_expr(agg: str, field: str) -> str:
    fn = AGG_SQL.get(agg, "AVG")
    if agg in ("var", "std"):
        # Computed via the sum-of-squares identity in one pass.
        q = quote(field)
        return f"(SUM({q}*{q}) - SUM({q})*SUM({q})/COUNT({q})) / (COUNT({q}) - 1)"
    if agg == "count" and not field:
        return "COUNT(*)"
    return f"{fn}({quote(field)})"


# ----------------------------------------------------------------------
# Shape detection shared by the per-spec translator and the batch compiler
# ----------------------------------------------------------------------
def grouped_parts(spec: VisSpec) -> tuple[list[str], str, str, list[str]]:
    """``(group fields, value expr, value alias, measure fields)``.

    The bar/line/area/geoshape shape: one dimension (plus an optional
    non-quantitative color) grouped under one aggregate.  Raises
    :class:`ExecutorError` when the spec has no dimension.
    """
    dim = None
    measure = None
    for enc in spec.encodings:
        if enc.channel not in ("x", "y", "color"):
            continue
        if enc.aggregate:
            measure = enc
        elif enc.field and enc.field_type != "quantitative" or (
            enc.field and spec.mark == "geoshape"
        ):
            dim = dim or enc
    if dim is None:
        raise ExecutorError("bar/line requires a dimension")
    group_fields = [dim.field]
    color = spec.color
    if (
        color is not None
        and color.field
        and color.field_type != "quantitative"
        and color.field != dim.field
    ):
        group_fields.append(color.field)
    if measure is not None and measure.field:
        agg = measure.aggregate or "mean"
        return group_fields, agg_expr(agg, measure.field), measure.field, [measure.field]
    return group_fields, "COUNT(*)", "count", []


def rect_parts(spec: VisSpec) -> tuple[list[str], str, str, list[str]]:
    """``(group fields, value expr, value alias, measure fields)`` for rect."""
    x, y, color = spec.x, spec.y, spec.color
    if x is None or y is None:
        raise ExecutorError("heatmap requires x and y")
    group_fields = [x.field, y.field]
    if color is not None and color.field and color.aggregate not in (None, "count"):
        return group_fields, agg_expr(color.aggregate, color.field), color.field, [color.field]
    return group_fields, "COUNT(*)", "count", []


def bucket_expr(field: str, edges: np.ndarray) -> str:
    """The bin index of ``field`` against explicit ``edges``.

    Right-open bins with the last bin closed — the documented semantics of
    ``np.histogram`` on an explicit edge array, which compares values
    against the same doubles this expression embeds (``repr(float)``
    round-trips exactly through sqlite's literal parser), so bucket
    assignment is bit-identical to the dataframe executor's numpy path.
    """
    n_bins = len(edges) - 1
    if n_bins <= 1:
        return "0"
    q = quote(field)
    whens = " ".join(
        f"WHEN {q} < {float(e)!r} THEN {k}" for k, e in enumerate(edges[1:-1])
    )
    return f"CASE {whens} ELSE {n_bins - 1} END"


# ----------------------------------------------------------------------
# Consolidated batch plan for one filter group
# ----------------------------------------------------------------------
class _Branch:
    """One ``UNION ALL`` arm: a GROUP BY (or selection) shape shared by
    every member spec, each riding along as one deduped value column."""

    def __init__(
        self,
        key_exprs: list[str],
        group_by: bool = True,
        where_extra: str | None = None,
        limit: int | None = None,
    ) -> None:
        self.key_exprs = key_exprs
        self.group_by = group_by
        self.where_extra = where_extra
        self.limit = limit
        self.values: list[str] = []
        self._value_pos: dict[str, int] = {}

    def value_column(self, expr: str) -> int:
        """Payload position of ``expr``, appending it on first request."""
        pos = self._value_pos.get(expr)
        if pos is None:
            pos = len(self.values)
            self._value_pos[expr] = pos
            self.values.append(expr)
        return pos

    @property
    def width(self) -> int:
        return len(self.key_exprs) + len(self.values)


def _grouped_decoder(names: list[str], n_keys: int, value_pos: int) -> Decoder:
    """Rebuild exactly what the standalone grouped query's columns hold:
    keys first, the spec's value last."""

    def decode(rows: list[tuple]) -> ColumnTable:
        picked = [(*row[:n_keys], row[n_keys + value_pos]) for row in rows]
        return ColumnTable.from_rows(names, picked)

    return decode


def _scatter_decoder(fields: list[str]) -> Decoder:
    def decode(rows: list[tuple]) -> ColumnTable:
        return ColumnTable.from_rows(fields, rows)

    return decode


def _histogram_decoder(field: str, edges: np.ndarray) -> Decoder:
    """Zero-fill bucket counts and emit bin centers, like the numpy path."""

    def decode(rows: list[tuple]) -> ColumnTable:
        counts = np.zeros(len(edges) - 1, dtype=np.int64)
        for row in rows:
            counts[row[0]] = row[1]
        return histogram_table(field, edges, counts)

    return decode


def _empty_decoder(rows: list[tuple]) -> ColumnTable:
    return ColumnTable()


class GroupPlan:
    """The consolidated execution plan for one filter group of a batch.

    Construction classifies each ``(batch index, spec)`` pair into a
    branch, a pending histogram (bucket expressions need the group's
    MIN/MAX stats first), or :attr:`fallback`.  The executor then runs
    :attr:`stats_sql` (when set), hands the stats row to :meth:`finish`,
    executes the returned consolidated statement once, and feeds each
    decoder the rows tagged with its branch id.
    """

    def __init__(self, items: Sequence[tuple[int, VisSpec]], frame: DataFrame) -> None:
        self.frame = frame
        self.filters = list(items[0][1].filters) if items else []
        #: Batch indices the translator can't express; the executor runs
        #: these through the per-spec path (same connection).
        self.fallback: list[int] = []
        self._columns = set(frame.columns)
        self._branches: list[_Branch] = []
        self._branch_ids: dict[tuple, int] = {}
        #: (batch index, branch id or None, decoder) triples.
        self._decoders: list[tuple[int, int | None, Decoder]] = []
        #: Pending histograms: (batch index, field, bin count).
        self._pending_hist: list[tuple[int, str, int]] = []
        self._stats_fields: list[str] = []
        self._source_fields: set[str] = set()
        if self.filters and not all(a in self._columns for a, _, _ in self.filters):
            # A missing filter column fails every spec in the group the
            # same way per spec; don't poison a consolidated statement.
            self.fallback.extend(i for i, _ in items)
            return
        for i, spec in items:
            try:
                self._classify(i, spec)
            except ExecutorError:
                self.fallback.append(i)

    # ------------------------------------------------------------------
    def _branch(self, key: tuple, factory: Callable[[], _Branch]) -> tuple[int, _Branch]:
        bid = self._branch_ids.get(key)
        if bid is None:
            if len(self._branches) >= _MAX_ARMS:
                raise ExecutorError("compound-select arm budget exhausted")
            bid = len(self._branches)
            self._branch_ids[key] = bid
            self._branches.append(factory())
        return bid, self._branches[bid]

    def _require(self, fields: list[str]) -> None:
        for field in fields:
            if field not in self._columns:
                raise ExecutorError(f"column {field!r} not found")
        self._source_fields.update(fields)

    def _classify(self, i: int, spec: VisSpec) -> None:
        mark = spec.mark
        if mark in ("bar", "line", "area", "geoshape"):
            self._add_grouped(i, *grouped_parts(spec))
        elif mark == "rect":
            self._add_grouped(i, *rect_parts(spec))
        elif mark == "histogram":
            # Cost-based routing: an unfiltered histogram is strictly
            # cheaper on the resident frame (one cached float view + one
            # numpy histogram — the exact path the serial executor takes),
            # while a filtered histogram joins the consolidated pass where
            # its CASE-bucket branch shares the materialized CTE scan
            # instead of paying a per-spec mask + subframe materialization.
            if not self.filters:
                raise ExecutorError("unfiltered histograms take the numpy path")
            enc = spec.x if spec.x is not None and spec.x.bin else spec.y
            if enc is None or not enc.field:
                raise ExecutorError("histogram requires a binned axis")
            self._require([enc.field])
            if column_sql_type(self.frame, enc.field) == "TEXT":
                raise ExecutorError("histogram requires a numeric column")
            if enc.field not in self._stats_fields:
                self._stats_fields.append(enc.field)
            self._pending_hist.append((i, enc.field, enc.resolved_bin_size))
        elif mark in ("point", "tick"):
            fields = [enc.field for enc in spec.encodings if enc.field]
            if not fields:
                raise ExecutorError("scatter requires at least one field")
            self._require(fields)
            # Keyed on the field tuple, not the spec index: identical
            # scatter selections share one arm (and its rows), each with
            # its own decoder.
            bid, _ = self._branch(
                ("s", tuple(fields)),
                lambda: _Branch(
                    [quote(f) for f in fields],
                    group_by=False,
                    limit=config.max_scatter_points,
                ),
            )
            self._decoders.append((i, bid, _scatter_decoder(fields)))
        else:
            raise ExecutorError(f"no batch translation for mark {mark!r}")

    def _add_grouped(
        self,
        i: int,
        group_fields: list[str],
        value: str,
        alias: str,
        measure_fields: list[str],
    ) -> None:
        self._require(group_fields + measure_fields)
        bid, branch = self._branch(
            ("g", tuple(group_fields)),
            lambda: _Branch([quote(f) for f in group_fields]),
        )
        pos = branch.value_column(value)
        decoder = _grouped_decoder(group_fields + [alias], len(group_fields), pos)
        self._decoders.append((i, bid, decoder))

    # ------------------------------------------------------------------
    @property
    def stats_sql(self) -> str | None:
        """One MIN/MAX/COUNT scan covering every pending histogram field."""
        if not self._pending_hist:
            return None
        cols = ", ".join(
            f"MIN({quote(f)}), MAX({quote(f)}), COUNT({quote(f)})"
            for f in self._stats_fields
        )
        return f"SELECT {cols} FROM {TABLE}{where_clause(self.filters)}"

    def finish(
        self, stats_row: tuple | None
    ) -> tuple[str | None, list[tuple[int, int | None, Decoder]]]:
        """Resolve histogram branches and render the consolidated SQL.

        Returns ``(sql or None, decoders)``; decoders whose branch id is
        ``None`` decode without rows (empty histograms).  May move specs
        onto :attr:`fallback` (non-finite stats defeat literal rendering).
        """
        for i, field, bins in self._pending_hist:
            base = 3 * self._stats_fields.index(field)
            lo, hi, count = stats_row[base : base + 3]
            if not count:
                self._decoders.append((i, None, _empty_decoder))
                continue
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                self.fallback.append(i)
                continue
            # Same linspace (and same min==max widening) the dataframe
            # executor gets from np.histogram_bin_edges over the values.
            edges = np.histogram_bin_edges(np.array([lo, hi]), bins=bins)
            try:
                bid, branch = self._branch(
                    ("h", field, bins),
                    lambda f=field, e=edges: _Branch(
                        [bucket_expr(f, e)],
                        where_extra=f"{quote(f)} IS NOT NULL",
                    ),
                )
            except ExecutorError:  # arm budget exhausted
                self.fallback.append(i)
                continue
            branch.value_column("COUNT(*)")
            self._decoders.append((i, bid, _histogram_decoder(field, edges)))
        if not self._branches:
            return None, self._decoders
        return self._render(), self._decoders

    def _render(self) -> str:
        width = max(branch.width for branch in self._branches)
        src = TABLE
        prefix = ""
        if self.filters:
            # Shared-WHERE CTE: filter once, project only touched columns.
            # MATERIALIZED (sqlite >= 3.35) pins one evaluation; older
            # sqlite may inline the view per arm, which is slower but
            # produces the same rows.
            src = _SRC
            materialized = (
                "MATERIALIZED " if sqlite3.sqlite_version_info >= (3, 35) else ""
            )
            cols = ", ".join(quote(c) for c in sorted(self._source_fields))
            prefix = (
                f"WITH {src} AS {materialized}(SELECT {cols} FROM {TABLE}"
                f"{where_clause(self.filters)}) "
            )
        arms = []
        for bid, branch in enumerate(self._branches):
            pad = ["NULL"] * (width - branch.width)
            if branch.limit is not None:
                inner = ", ".join(
                    f"{expr} AS __c{k}" for k, expr in enumerate(branch.key_exprs)
                )
                outer = [str(bid)] + [
                    f"__c{k}" for k in range(len(branch.key_exprs))
                ] + pad
                arms.append(
                    f"SELECT {', '.join(outer)} FROM "
                    f"(SELECT {inner} FROM {src} LIMIT {branch.limit})"
                )
                continue
            cols = [str(bid)] + branch.key_exprs + branch.values + pad
            arm = f"SELECT {', '.join(cols)} FROM {src}"
            if branch.where_extra:
                arm += f" WHERE {branch.where_extra}"
            if branch.group_by:
                # Ordinals (branch id is column 1, keys follow) keep big
                # bucket CASE expressions from repeating in the GROUP BY.
                ordinals = range(2, 2 + len(branch.key_exprs))
                arm += " GROUP BY " + ", ".join(str(o) for o in ordinals)
            arms.append(arm)
        return prefix + " UNION ALL ".join(arms)
