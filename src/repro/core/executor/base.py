"""Executor interface: turn a compiled VisSpec into chart-ready data.

The paper's execution engine (§8.1) performs the relational operations of
Table 2 either as dataframe operations (``DataFrameExecutor``) or as SQL
queries (``SQLExecutor``); both implement this interface and are swappable
through ``config.executor``.

Recommendation passes execute whole candidate *sets* against one frame, so
the interface also exposes :meth:`Executor.execute_many`, the batch entry
point used by ``rank_candidates`` and the actions.  Backends override it to
share work across the batch (``DataFrameExecutor`` shares filter masks,
projected subframes, group-key factorizations, and float conversions, on
the frame via the :mod:`~repro.core.executor.cache` computation cache and
within a filter group via a memo that dies with the group, and fans the batch
out over the shared worker pool under ``config.parallel_execute``;
``SQLExecutor`` compiles each filter group into one consolidated
shared-WHERE CTE + UNION ALL statement via
:mod:`~repro.core.executor.sql_compile`); the default simply executes
sequentially.

The batch contract, which parallel backends must also honor: results align
with ``specs``, each spec's ``data`` is attached exactly as if
:meth:`Executor.execute` had run per spec, and an overridden ``execute_many``
must be safe to call concurrently from multiple threads against the same
frame (the streaming scheduler runs actions — each issuing its own batch —
on pool workers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from ...dataframe import Column, DataFrame
from ...vis.spec import VisSpec, filter_signature
from ...vis.table import ColumnTable

__all__ = ["Executor", "get_executor", "group_indices_by_filter", "histogram_table"]


def group_indices_by_filter(specs: Sequence[VisSpec]) -> list[list[int]]:
    """Partition batch indices by filter signature, preserving order.

    The shared-scan unit of work: every index list shares one mask
    evaluation and one materialized subframe.  Kept on the interface layer
    because any batching backend needs the same partition (the dataframe
    executor parallelizes across it; a future distributed backend would
    shard by it).
    """
    by_filter: "dict[tuple, list[int]]" = {}
    for i, spec in enumerate(specs):
        by_filter.setdefault(filter_signature(spec.filters), []).append(i)
    return list(by_filter.values())


def histogram_table(field: str, edges: np.ndarray, counts: np.ndarray) -> ColumnTable:
    """A histogram's chart data: bin centers, then their counts."""
    centers = (edges[:-1] + edges[1:]) / 2
    return ColumnTable(
        {field: Column.from_data(centers), "count": Column.from_data(counts.astype(np.int64))}
    )


class Executor(ABC):
    """Processes visualization data and column metadata for one backend."""

    name: str = "base"

    @abstractmethod
    def execute(self, spec: VisSpec, frame: DataFrame) -> ColumnTable:
        """Compute the column table behind ``spec`` and attach it as ``data``."""

    def execute_many(
        self, specs: Sequence[VisSpec], frame: DataFrame
    ) -> list[ColumnTable]:
        """Execute a batch of specs against one frame.

        Results align with ``specs`` and each spec's ``data`` is attached,
        exactly as if :meth:`execute` had been called per spec.
        """
        return self._execute_serial(specs, frame)

    def _execute_serial(
        self, specs: Sequence[VisSpec], frame: DataFrame
    ) -> list[ColumnTable]:
        """The reference per-spec loop batching backends must reproduce
        bit-for-bit (and fall back to for shapes they can't batch)."""
        return [self.execute(spec, frame) for spec in specs]

    @abstractmethod
    def apply_filters(
        self, frame: DataFrame, filters: list[tuple[str, str, Any]]
    ) -> DataFrame:
        """Apply intent filter clauses, returning the matching subset."""


def get_executor(name: str | None = None) -> Executor:
    """Factory honoring ``config.executor`` ("dataframe" or "sql")."""
    from ..config import config

    choice = name or config.executor
    if choice == "dataframe":
        from .df_exec import DataFrameExecutor

        return DataFrameExecutor()
    if choice == "sql":
        from .sql_exec import SQLExecutor

        return SQLExecutor()
    raise ValueError(f"unknown executor backend {choice!r}")
