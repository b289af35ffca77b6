"""Structure-based recommendations (§6): dataframe shape as implicit intent.

The Index action visualizes pre-aggregated frames (groupby/pivot results)
by grouping values row- or column-wise — e.g. a pivot of COVID cases by
state and date turns into one time-series line per state (Fig. 7).
Series visualizations reuse the univariate machinery and live on LuxSeries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...dataframe import Column
from ...dataframe.dtypes import FLOAT64, INT64
from ...vis.encoding import Encoding
from ...vis.spec import VisSpec
from ...vis.table import ColumnTable
from ..compiler import CompiledVis
from ..config import config
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["IndexAction"]


def _columns_look_temporal(names: list[str]) -> bool:
    """True when column labels parse as dates (a pivoted time axis)."""
    from ...dataframe.datetimes import parse_datetime_scalar

    if len(names) < 3:
        return False
    parsed = [parse_datetime_scalar(n) for n in names]
    return sum(p is not None for p in parsed) / len(names) > 0.8


def _numeric_columns(ldf: "LuxDataFrame") -> list[str]:
    return [c for c in ldf.columns if ldf.column(c).dtype.name in ("int64", "float64")]


class IndexAction(Action):
    """Visualize values grouped by row/column indexes (Table 1)."""

    name = "Index"
    description = "Visualize values grouped by the dataframe's index."
    ranked = False
    #: Enumeration builds every chart's data, and a row-wise series plots
    #: synthetic fields, so it reruns whole.
    keyed = False

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        if ldf.empty or ldf.index.is_default:
            return False
        return bool(_numeric_columns(ldf)) and len(ldf) <= 1000

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        numeric = _numeric_columns(ldf)
        index_name = ldf.index.name or "index"
        labels = ldf.index.to_list()
        index_temporal = ldf.index.column.dtype.name == "datetime"
        wide_time = _columns_look_temporal(numeric)
        out: list[CompiledVis] = []

        if wide_time:
            # Row-wise: each row becomes a series over the column axis (Fig 7).
            names = Column.from_data(list(numeric))
            cols = [ldf.column(c) for c in numeric]
            kind = INT64 if all(col.dtype is INT64 for col in cols) else FLOAT64
            values = np.column_stack([col.values.astype(kind.numpy_dtype) for col in cols])
            missing = np.column_stack([col.mask for col in cols])
            for i in range(min(len(ldf), config.top_k)):
                spec = VisSpec(
                    "line",
                    [
                        Encoding("x", "column", "temporal"),
                        Encoding("y", "value", "quantitative"),
                    ],
                    title=f"{index_name} = {labels[i]}",
                )
                spec.data = ColumnTable(
                    {"column": names, "value": Column(values[i], missing[i], kind)}
                )
                out.append(CompiledVis(clauses=[], spec=spec))
            return out

        # Column-wise: each numeric column over the index labels.
        for col in numeric:
            if index_temporal:
                encs = [
                    Encoding("x", index_name, "temporal"),
                    Encoding("y", col, "quantitative"),
                ]
                spec = VisSpec("line", encs, title=f"{col} by {index_name}")
            else:
                encs = [
                    Encoding("y", index_name, "nominal"),
                    Encoding("x", col, "quantitative"),
                ]
                spec = VisSpec("bar", encs, title=f"{col} by {index_name}")
            spec.data = ColumnTable(
                {index_name: ldf.index.column, col: ldf.column(col)}
            )
            out.append(CompiledVis(clauses=[], spec=spec))
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        return len(metadata.measures)

    def estimated_cost(self, metadata: Metadata) -> float:
        # Pre-aggregated frames are tiny; this action is always cheap.
        return float(len(metadata.measures)) * max(metadata.n_rows, 1)
