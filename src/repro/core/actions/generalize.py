"""Generalize action: remove one attribute or filter from the intent."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["GeneralizeAction"]


class GeneralizeAction(Action):
    name = "Generalize"
    description = "Remove one attribute or filter to broaden the analysis."
    ranked = False  # displayed in removal order, mirroring the intent
    keyed = True
    reads_intent = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        intent = ldf.intent
        axes = [c for c in intent if c.is_axis]
        filters = [c for c in intent if c.is_filter]
        return len(axes) + len(filters) >= 2 or (len(axes) >= 1 and len(filters) >= 1)

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        intent = ldf.intent
        out: list[CompiledVis] = []
        seen: set[tuple] = set()
        for i in range(len(intent)):
            reduced = [c.copy() for j, c in enumerate(intent) if j != i]
            if not any(c.is_axis for c in reduced):
                continue
            for compiled in self._compile(reduced, metadata):
                sig = compiled.spec.signature()
                if sig not in seen:
                    seen.add(sig)
                    out.append(compiled)
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        return 3
