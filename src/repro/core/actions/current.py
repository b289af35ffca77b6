"""Current Vis action: render the user's intent itself (§6, Fig. 2 left)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["CurrentVisAction"]


class CurrentVisAction(Action):
    name = "Current Vis"
    description = "The visualization(s) specified by the current intent."
    ranked = False
    keyed = True
    reads_intent = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        return bool([c for c in ldf.intent if c.is_axis])

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        return self._compile(ldf.intent, ldf.metadata)

    def search_space_size(self, metadata: Metadata) -> int:
        return 1

    def estimated_cost(self, metadata: Metadata) -> float:
        # Always scheduled first: it is what the user explicitly asked for.
        return 0.0
