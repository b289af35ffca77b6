"""Filter action: add one filter to the current vis, or swap its value.

Candidates enumerate over data subsets (one per candidate filter value), so
this action needs the largest samples to rank accurately — the effect seen
in the paper's Fig. 12 (right), where Filter's recall curve trails the
other actions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..clause import Clause
from ..compiler import CompiledVis
from ..metadata import Metadata
from .base import Action

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["FilterAction"]

#: Cap on candidate values per attribute so wide-domain columns do not
#: explode the search space.
MAX_VALUES_PER_ATTRIBUTE = 10


class FilterAction(Action):
    name = "Filter"
    description = "Apply a different filter to the current visualization."
    keyed = True
    reads_intent = True

    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        return bool([c for c in ldf.intent if c.is_axis])

    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        metadata = ldf.metadata
        intent = ldf.intent
        axes = [c for c in intent if c.is_axis]
        existing = [c for c in intent if c.is_filter]
        existing_attrs = {str(c.attribute) for c in existing}
        out: list[CompiledVis] = []

        if existing:
            # Swap the value of each existing filter.
            for i, filt in enumerate(existing):
                attr = str(filt.attribute)
                if attr not in metadata:
                    continue
                for value in metadata[attr].unique_values[:MAX_VALUES_PER_ATTRIBUTE]:
                    if value == filt.value:
                        continue
                    swapped = [c.copy() for c in intent]
                    for c in swapped:
                        if c.is_filter and str(c.attribute) == attr:
                            c.value = value
                    out.extend(self._compile(swapped, metadata))
        # Add one new filter on an unfiltered categorical attribute.
        for attr in metadata.columns_of_type("nominal", "geographic"):
            if attr in existing_attrs:
                continue
            for value in metadata[attr].unique_values[:MAX_VALUES_PER_ATTRIBUTE]:
                new_intent = axes + existing + [
                    Clause(attribute=attr, filter_op="=", value=value)
                ]
                out.extend(self._compile(new_intent, metadata))
        return out

    def search_space_size(self, metadata: Metadata) -> int:
        total = 0
        for attr in metadata.columns_of_type("nominal", "geographic"):
            total += min(metadata[attr].cardinality, MAX_VALUES_PER_ATTRIBUTE)
        return total
