"""Enhance action: add one attribute to the current intent (Table 1)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..clause import Clause
from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["EnhanceAction"]


class EnhanceAction(Action):
    name = "Enhance"
    description = "Augment the current visualization with one more attribute."
    keyed = True
    reads_intent = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        axes = [c for c in ldf.intent if c.is_axis]
        return 1 <= len(axes) <= 2

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        intent = ldf.intent
        used = {
            str(c.attribute) for c in intent if c.is_axis and not c.is_wildcard
        }
        out: list[CompiledVis] = []
        for attr in metadata:
            if attr.name in used or attr.data_type == "id":
                continue
            out.extend(
                self._compile(intent + [Clause(attribute=attr.name)], metadata)
            )
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        return max(len(metadata.attributes) - 1, 0)
