"""Action base class: a named, triggerable recommendation generator (§7.2).

An action (a) declares when it applies via :meth:`applies_to`, (b) produces
candidate visualizations, and (c) ranks them into a VisList.  Built-in
actions enumerate candidates through the intent compiler and rank through
the shared pruning-aware ranker; custom user actions may override
:meth:`generate` entirely with a Python UDF.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NamedTuple, Sequence

from ..compiler import CompiledVis, compile_intent
from ..clause import WILDCARD, Clause
from ..config import config
from ..metadata import Metadata
from ..optimizer.sampling import CandidatePrior, rank_candidates
from ..vislist import VisList

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["Action", "KeyedCandidates", "intent_has_wildcard"]


class KeyedCandidates(NamedTuple):
    """One action's candidates for one pass, enumerated and keyed by the caller.

    ``keys[i]`` is :func:`~repro.vis.spec.candidate_key` of
    ``candidates[i].spec``.  ``prior`` maps a key to the state reused for
    a candidate whose inputs the caller (the precompute engine) found
    unchanged since a previous pass; ``records`` collects each
    candidate's state for the next pass to reuse.
    """

    candidates: list[CompiledVis]
    keys: list[str]
    prior: "dict[str, CandidatePrior]"
    records: "dict[str, dict]"


def intent_has_wildcard(ldf: "LuxDataFrame") -> bool:
    """Whether an intent clause is a wildcard (it can bind to any column).

    An action that reads the intent then reruns whole.
    """
    for clause in ldf.intent:
        attr = clause.attribute
        attrs = attr if isinstance(attr, (list, tuple)) else [attr]
        if any(name and str(name) == WILDCARD for name in attrs):
            return True
    return False


class Action(ABC):
    """One tab of the recommendation dashboard."""

    #: Unique name displayed as the tab title.
    name: str = "Action"
    #: One-line description shown in the widget.
    description: str = ""
    #: Whether candidates are scored and ranked (vs natural order).
    ranked: bool = True
    #: Whether each candidate reads exactly its spec's fields and filter
    #: attributes.  The precompute engine then keys each candidate by
    #: those columns and reruns only the candidates a change touches;
    #: otherwise it reruns the action whole on every pass, the safe
    #: default for an action whose reads are unknown (a user UDF).
    keyed: bool = False
    #: Whether the candidates depend on the intent: their keys carry the
    #: frame's intent epoch, and an attribute wildcard in the intent
    #: makes the action rerun whole.
    reads_intent: bool = False

    # ------------------------------------------------------------------
    @abstractmethod
    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        """Trigger condition: is this action relevant for ``ldf``?"""

    @abstractmethod
    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        """Enumerate the search space of candidate visualizations."""

    # ------------------------------------------------------------------
    def generate(self, ldf: "LuxDataFrame") -> VisList:
        """Produce the ranked, processed VisList for display."""
        return self._display(ldf, self.candidates(ldf))

    def generate_cached(self, ldf: "LuxDataFrame", keyed: KeyedCandidates) -> VisList:
        """:meth:`generate` over candidates the caller already enumerated.

        The candidates whose keys are in ``keyed.prior`` reuse their
        previous scores and, when displayed, their previous processed
        Vis; everything else is recomputed.  The output is bit-identical
        to :meth:`generate` (an empty prior): reused values are exactly
        what a cold pass would recompute.  Each candidate's state lands
        in ``keyed.records``.
        """
        return self._display(ldf, keyed.candidates, keyed)

    def _display(
        self,
        ldf: "LuxDataFrame",
        cands: list[CompiledVis],
        keyed: "KeyedCandidates | None" = None,
    ) -> VisList:
        if not cands:
            return VisList(visualizations=[], source=ldf)
        if self.ranked:
            if keyed is None:
                return rank_candidates(cands, ldf, k=config.top_k)
            return rank_candidates(
                cands,
                ldf,
                k=config.top_k,
                prior=keyed.prior or None,
                records=keyed.records,
                keys=keyed.keys,
            )
        from ..executor.base import get_executor
        from ..vis import Vis

        executor = get_executor()
        chosen = cands[: config.top_k]
        prior = keyed.prior if keyed is not None else {}
        keys = keyed.keys if keyed is not None else [None] * len(chosen)
        carried: dict[int, "Vis"] = {}
        pending = []
        for key, cand in zip(keys, chosen):
            p = prior.get(key)
            vis = p.display_vis() if p is not None else None
            if vis is not None:
                carried[id(cand)] = vis  # check: ignore[unstable-key]
            elif cand.spec.data is None:
                pending.append(cand.spec)
        if pending:
            executor.execute_many(pending, ldf)
        out = []
        for key, cand in zip(keys, chosen):
            vis = carried.get(id(cand))  # check: ignore[unstable-key]
            if vis is None:
                vis = Vis.from_compiled(cand, source=ldf, process=False)
            out.append(vis)
            if keyed is not None:
                keyed.records[key] = {"approx": None, "score": None, "displayed": True}
        return VisList(visualizations=out, source=ldf)

    def estimated_cost(self, metadata: Metadata) -> float:
        """Cost estimate used by the async scheduler (search-space sized)."""
        return float(self.search_space_size(metadata)) * max(metadata.n_rows, 1)

    def search_space_size(self, metadata: Metadata) -> int:
        """Rough candidate count; cheap to compute without enumeration."""
        return 1

    # ------------------------------------------------------------------
    def _compile(
        self, clauses: Sequence[Clause], metadata: Metadata
    ) -> list[CompiledVis]:
        """Helper: run the intent compiler for candidate construction."""
        return compile_intent(list(clauses), metadata)

    def __repr__(self) -> str:
        return f"<Action {self.name}>"
