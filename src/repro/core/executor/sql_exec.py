"""SQL executor: Table 2's relational operations as sqlite3 queries.

The paper's execution engine can run "equivalently in SQL queries in
relational databases" (§7, Fig. 8).  This backend materializes the frame
into an in-memory sqlite database (cached per frame content-version) and
translates each visualization into one SQL statement.

Batch parity with the dataframe executor: :meth:`SQLExecutor.execute_many`
groups a recommendation pass by filter signature and compiles each group
into a consolidated shared-WHERE CTE + ``UNION ALL`` pass (one scan per
GROUP BY shape instead of one round-trip query per candidate) via
:mod:`~repro.core.executor.sql_compile`, resolving the frame's connection
once for the whole batch.  Results are bit-identical to the per-spec
path; shapes the batch translator can't express fall back to it per spec.
``config.sql_batch_execute`` turns consolidation off for ablations.
"""

from __future__ import annotations

import sqlite3
import threading
import weakref
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from ...dataframe import DataFrame
from ...vis.spec import VisSpec
from ...vis.table import ColumnTable
from ..config import config
from ..errors import ExecutorError
from .base import Executor, group_indices_by_filter
from .sql_compile import (
    TABLE as _TABLE,
    GroupPlan,
    column_sql_type,
    grouped_parts,
    quote as _quote,
    rect_parts,
    where_clause as _where_clause,
)

__all__ = ["SQLExecutor", "translate_vis_to_sql"]

#: LRU cache of id(frame) -> (weakref, data_version, connection).  Identity
#: is proven through the weakref exactly like the computation cache's
#: slots: a raw-id key could alias a recycled id onto another frame's
#: database, and the weakref callback drops the entry the moment the frame
#: is collected instead of waiting for LRU pressure.  Evicted connections
#: are *dropped, never closed*: a pool worker may still be mid-query on
#: one (streamed actions run SQL concurrently), and an explicit close
#: would raise "Cannot operate on a closed database" under it — the
#: in-memory database is freed when the last holder releases the object.
#: The lock is reentrant because the weakref callback can fire from a GC
#: pass triggered while this thread already holds it.
_CONN_CACHE: "OrderedDict[int, tuple[weakref.ref, int, sqlite3.Connection]]" = (
    OrderedDict()
)
_CONN_LOCK = threading.RLock()
_CACHE_LIMIT = 8


def load_frame(conn: sqlite3.Connection, frame: DataFrame) -> None:
    """Create and populate the ``frame`` table from a DataFrame."""
    cols = frame.columns
    decls = ", ".join(f"{_quote(c)} {column_sql_type(frame, c)}" for c in cols)
    conn.execute(f"DROP TABLE IF EXISTS {_TABLE}")
    conn.execute(f"CREATE TABLE {_TABLE} ({decls})")
    placeholders = ", ".join(["?"] * len(cols))
    columns = [frame.column(c) for c in cols]

    def rows():
        for i in range(len(frame)):
            out = []
            for col in columns:
                v = col[i]
                if isinstance(v, np.datetime64):
                    v = str(v.astype("datetime64[s]"))
                out.append(v)
            yield tuple(out)

    conn.executemany(f"INSERT INTO {_TABLE} VALUES ({placeholders})", rows())
    conn.commit()


def translate_vis_to_sql(spec: VisSpec, frame: DataFrame) -> str:
    """Produce the single SQL statement that processes ``spec``.

    Shape detection and rendering fragments are shared with the batch
    compiler (:mod:`~repro.core.executor.sql_compile`) so the per-spec and
    consolidated translations can never drift apart.  Histograms have no
    translation (``ExecutorError``): per-spec execution bins them in the
    dataframe engine and batches through ``sql_compile.bucket_expr``.
    """
    where = _where_clause(spec.filters)

    if spec.mark in ("point", "tick"):
        fields = [enc.field for enc in spec.encodings if enc.field]
        cols = ", ".join(_quote(f) for f in fields)
        return (
            f"SELECT {cols} FROM {_TABLE}{where} "
            f"LIMIT {config.max_scatter_points}"
        )
    if spec.mark in ("bar", "line", "area", "geoshape"):
        group_fields, value, alias, _ = grouped_parts(spec)
        gc = ", ".join(_quote(f) for f in group_fields)
        return (
            f"SELECT {gc}, {value} AS {_quote(alias)} "
            f"FROM {_TABLE}{where} GROUP BY {gc}"
        )
    if spec.mark == "rect":
        group_fields, value, alias, _ = rect_parts(spec)
        gc = ", ".join(_quote(f) for f in group_fields)
        return (
            f"SELECT {gc}, {value} AS {_quote(alias)} "
            f"FROM {_TABLE}{where} GROUP BY {gc}"
        )
    raise ExecutorError(f"no SQL translation for mark {spec.mark!r}")


def _drop_connection(key: int) -> None:
    """Weakref callback: the keyed frame died, so release its database."""
    with _CONN_LOCK:
        _CONN_CACHE.pop(key, None)


class SQLExecutor(Executor):
    """Executes visualization queries on an in-memory sqlite3 database."""

    name = "sql"

    def _connection(self, frame: DataFrame) -> sqlite3.Connection:
        # Identity key is weakref-validated on every read and dropped on
        # collection, so a recycled id never aliases.  check: ignore[unstable-key]
        key = id(frame)
        version = getattr(frame, "_data_version", 0)
        with _CONN_LOCK:
            cached = _CONN_CACHE.get(key)
            if cached is not None:
                ref, cached_version, conn = cached
                if ref() is frame and cached_version == version:
                    _CONN_CACHE.move_to_end(key)
                    return conn
                # Stale content version (or a recycled id): drop and
                # rebuild.  Never close — an in-flight query from before
                # the mutation may still hold the old connection.
                del _CONN_CACHE[key]
        # check_same_thread=False: connections outlive the thread that
        # built them (streamed actions run on pool workers); each query is
        # a single serialized conn.execute, which sqlite allows cross-thread.
        conn = sqlite3.connect(":memory:", check_same_thread=False)
        load_frame(conn, frame)
        try:
            ref = weakref.ref(frame, lambda _, key=key: _drop_connection(key))
        except TypeError:  # pragma: no cover - all repo frames weakref
            ref = lambda: frame  # noqa: E731 - keeps entry permanently live
        with _CONN_LOCK:
            raced = _CONN_CACHE.get(key)
            if raced is not None and raced[0]() is frame and raced[1] == version:
                # A concurrent builder won; use its connection and let ours
                # deallocate on return.
                _CONN_CACHE.move_to_end(key)
                return raced[2]
            _CONN_CACHE[key] = (ref, version, conn)
            _CONN_CACHE.move_to_end(key)
            while len(_CONN_CACHE) > _CACHE_LIMIT:
                _CONN_CACHE.popitem(last=False)
        return conn

    # ------------------------------------------------------------------
    def apply_filters(
        self, frame: DataFrame, filters: list[tuple[str, str, Any]]
    ) -> DataFrame:
        # Row filtering itself stays on the dataframe layer; SQL handles it
        # inside each translated query via WHERE.
        from .df_exec import DataFrameExecutor

        return DataFrameExecutor().apply_filters(frame, filters)

    def _execute_with_conn(
        self, spec: VisSpec, frame: DataFrame, conn: sqlite3.Connection
    ) -> ColumnTable:
        """The per-spec path against an already-resolved connection."""
        if spec.mark == "histogram":
            # Delegate histograms to numpy binning for edge parity with the
            # dataframe executor (sqlite bucket arithmetic differs at edges).
            from .df_exec import DataFrameExecutor

            return DataFrameExecutor().execute(spec, frame)
        sql = translate_vis_to_sql(spec, frame)
        try:
            cursor = conn.execute(sql)
        except sqlite3.Error as exc:
            raise ExecutorError(f"SQL execution failed: {exc}\n{sql}") from exc
        names = [d[0] for d in cursor.description]
        table = ColumnTable.from_rows(names, cursor.fetchall())
        spec.data = table
        return table

    def execute(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        if spec.mark == "histogram":
            from .df_exec import DataFrameExecutor

            return DataFrameExecutor().execute(spec, frame)
        return self._execute_with_conn(spec, frame, self._connection(frame))

    def execute_many(
        self, specs: Sequence[VisSpec], frame: DataFrame
    ) -> list[ColumnTable]:
        """Consolidated batch execution: one SQL pass per filter group.

        The frame's connection is resolved once for the whole batch (the
        per-spec path re-resolved it per call).  Each filter group
        compiles to one shared-WHERE CTE + ``UNION ALL`` statement (plus
        one MIN/MAX stats scan when the group bins histograms); specs the
        translator can't express run per spec on the same connection.
        Results and attached ``spec.data`` are bit-identical to the
        serial path.
        """
        if not specs:
            return []
        conn = self._connection(frame)
        if not config.sql_batch_execute:
            return [self._execute_with_conn(s, frame, conn) for s in specs]
        results: list[ColumnTable | None] = [None] * len(specs)
        for indices in group_indices_by_filter(specs):
            plan = GroupPlan([(i, specs[i]) for i in indices], frame)
            rows_by_branch: dict[int, list[tuple]] = {}
            sql = plan.stats_sql
            try:
                stats_row = conn.execute(sql).fetchone() if sql is not None else None
                sql, decoders = plan.finish(stats_row)
                if sql is not None:
                    for row in conn.execute(sql):
                        rows_by_branch.setdefault(row[0], []).append(row[1:])
            except sqlite3.Error as exc:
                raise ExecutorError(
                    f"SQL batch execution failed: {exc}\n{sql}"
                ) from exc
            for i, bid, decode in decoders:
                table = decode(rows_by_branch.get(bid, []))
                specs[i].data = table
                results[i] = table
            for i in plan.fallback:
                results[i] = self._execute_with_conn(specs[i], frame, conn)
        return results  # type: ignore[return-value]
