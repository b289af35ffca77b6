"""Metadata-based univariate actions (Table 1, top block).

- Distribution: histograms of quantitative attributes, ranked by skewness.
- Occurrence: bar charts of nominal attributes, ranked by unevenness.
- Temporal: line charts of temporal attributes.
- Geographic: choropleth maps of geographic attributes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..clause import Clause
from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = [
    "DistributionAction",
    "GeographicAction",
    "OccurrenceAction",
    "TemporalAction",
]


class _UnivariateAction(Action):
    """Shared machinery: one candidate per column of the target type."""

    data_type = ""
    keyed = True

    def _columns(self, metadata: Metadata) -> list[str]:
        return metadata.columns_of_type(self.data_type)

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        return bool(self._columns(ldf.metadata)) and not ldf.empty

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        out: list[CompiledVis] = []
        for name in self._columns(metadata):
            out.extend(self._compile([Clause(attribute=name)], metadata))
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        return len(self._columns(metadata))


class DistributionAction(_UnivariateAction):
    name = "Distribution"
    description = "Show histograms of quantitative attributes."
    data_type = "quantitative"


class OccurrenceAction(_UnivariateAction):
    name = "Occurrence"
    description = "Show bar-chart frequencies of categorical attributes."
    data_type = "nominal"


class TemporalAction(_UnivariateAction):
    name = "Temporal"
    description = "Show counts of records over temporal attributes."
    data_type = "temporal"
    ranked = False  # chronological charts display in natural column order


class GeographicAction(_UnivariateAction):
    name = "Geographic"
    description = "Show choropleth maps of geographic attributes."
    data_type = "geographic"
    ranked = False
