"""History-based recommendations (§6): the operation trace as implicit intent.

- Pre-aggregate: frames recently produced by an aggregation (multi-key
  groupby, melt) are visualized by their grouping keys.
- Pre-filter: when filtering leaves too few rows to recommend on (e.g.
  ``head()``), Lux visualizes the *previous, unfiltered* parent dataframe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..clause import Clause
from ..compiler import CompiledVis
from ..config import config
from ..metadata import Metadata
from ..vislist import VisList
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["PreAggregateAction", "PreFilterAction"]

#: Frames at or below this many rows are "too small to recommend on".
SMALL_FRAME_ROWS = 5


class PreAggregateAction(Action):
    """Visualize already-aggregated frames by their grouping keys."""

    name = "Pre-aggregate"
    description = "Visualize the aggregate values produced by a recent groupby."
    ranked = False
    keyed = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        if ldf.empty or not ldf.history.was_aggregated:
            return False
        if not ldf.index.is_default:
            return False  # labelled-index frames are covered by Index
        metadata = ldf.metadata
        return bool(metadata.dimensions) and bool(metadata.measures) and len(ldf) <= 1000

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        key = metadata.dimensions[0]
        out: list[CompiledVis] = []
        for measure in metadata.measures[: config.top_k]:
            out.extend(
                self._compile(
                    [Clause(attribute=key), Clause(attribute=measure)], metadata
                )
            )
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        return len(metadata.measures)


class PreFilterAction(Action):
    """Visualize the unfiltered parent when the current frame is tiny."""

    name = "Pre-filter"
    description = (
        "The dataframe was filtered down to very few rows; showing an "
        "overview of the pre-filter dataframe instead."
    )
    ranked = True
    #: Ranked against the parent frame, whose column stamps this frame's
    #: metadata does not carry, so it reruns whole.
    keyed = False

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        if len(ldf) > SMALL_FRAME_ROWS or not ldf.history.was_filtered:
            return False
        parent = ldf.parent_frame
        return parent is not None and len(parent) > len(ldf)

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        parent = ldf.parent_frame
        if parent is None:
            return []
        metadata = parent.metadata
        out: list[CompiledVis] = []
        for name in metadata.measures + metadata.columns_of_type("nominal"):
            out.extend(self._compile([Clause(attribute=name)], metadata))
        return out

    def generate(self, ldf: "LuxDataFrame") -> VisList:
        # Candidates are built and ranked against the *parent* frame.
        from ..optimizer.sampling import rank_candidates

        parent = ldf.parent_frame
        if parent is None:
            return VisList(visualizations=[], source=ldf)
        cands = self.candidates(ldf)
        if not cands:
            return VisList(visualizations=[], source=parent)
        return rank_candidates(cands, parent, k=config.top_k)

    def search_space_size(self, metadata: Metadata) -> int:
        return len(metadata.attributes)
