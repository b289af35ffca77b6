"""Correlation action: bivariate overviews of quantitative pairs (Table 1).

The search space is the set of unordered quantitative attribute pairs —
the paper's Q6: ``VisList([Clause("?", data_type="quantitative")] * 2)`` —
ranked by |Pearson's r|.  For wide frames this is the canonical "laggard"
action that prune and async target.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

from ..clause import Clause
from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["CorrelationAction"]


class CorrelationAction(Action):
    name = "Correlation"
    description = (
        "Show scatterplots between quantitative attributes, "
        "ranked by Pearson correlation."
    )
    keyed = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        return len(ldf.metadata.measures) >= 2 and not ldf.empty

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        out: list[CompiledVis] = []
        for a, b in combinations(metadata.measures, 2):
            out.extend(
                self._compile(
                    [Clause(attribute=a), Clause(attribute=b)], metadata
                )
            )
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        m = len(metadata.measures)
        return m * (m - 1) // 2
