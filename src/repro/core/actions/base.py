"""Action base class: a named, triggerable recommendation generator (§7.2).

An action (a) declares when it applies via :meth:`applies_to`, (b) produces
candidate visualizations, and (c) ranks them into a VisList.  Built-in
actions enumerate candidates through the intent compiler and rank through
the shared pruning-aware ranker; custom user actions may override
:meth:`generate` entirely with a Python UDF.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Sequence

from ...vis.spec import candidate_key
from ..compiler import CompiledVis, compile_intent
from ..clause import WILDCARD, Clause
from ..config import config
from ..metadata import Metadata
from ..optimizer.sampling import CandidatePrior, rank_candidates
from ..vislist import VisList

if TYPE_CHECKING:  # pragma: no cover
    from ..frame import LuxDataFrame

__all__ = ["Action", "CandidateFootprint", "Footprint", "intent_has_wildcard"]


class CandidateFootprint:
    """The input set of one candidate vis within an action's search space.

    ``vis_key`` is the stable identity from :func:`candidate_key`;
    ``columns`` are the columns that executing and scoring this one
    candidate reads (its axis fields plus its filter attributes), None
    when unknown; ``intent`` marks candidates whose membership in the
    search space depends on the frame's intent clauses.  The precompute
    engine keys the candidate's result by these inputs.
    """

    __slots__ = ("vis_key", "columns", "intent")

    def __init__(
        self,
        vis_key: str,
        columns: "Iterable[str] | None",
        intent: bool = False,
    ) -> None:
        self.vis_key = vis_key
        self.columns: "frozenset[str] | None" = (
            None if columns is None else frozenset(str(c) for c in columns)
        )
        self.intent = bool(intent)

    def __repr__(self) -> str:
        cols = "?" if self.columns is None else sorted(self.columns)
        return (
            f"<CandidateFootprint {self.vis_key} columns={cols} "
            f"intent={self.intent}>"
        )


class Footprint:
    """An action's declared inputs, one entry per candidate vis.

    ``candidates`` is a list of :class:`CandidateFootprint` entries, one
    per candidate in the action's search space: the precompute engine
    keys each candidate's result by its entry, so a change reruns only the
    candidates whose inputs it touched.  ``candidates=None`` (the default)
    means the inputs are unknown and the action reruns whole on every
    change — the safe default for user UDF actions.
    """

    __slots__ = ("_candidates",)

    def __init__(
        self, candidates: "Sequence[CandidateFootprint] | None" = None
    ) -> None:
        self._candidates = None if candidates is None else tuple(candidates)

    def candidates(self) -> "tuple[CandidateFootprint, ...] | None":
        """Per-vis ``(vis_key, columns, intent)`` entries, or None."""
        return self._candidates

    def __repr__(self) -> str:
        n = "?" if self._candidates is None else len(self._candidates)
        return f"<Footprint candidates={n}>"


def intent_has_wildcard(ldf: "LuxDataFrame") -> bool:
    """Whether an intent clause is a wildcard (it can bind to any column).

    Intent-driven actions then declare no candidate entries and rerun
    whole.
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

    # ------------------------------------------------------------------
    @abstractmethod
    def applies_to(self, ldf: "LuxDataFrame") -> bool:
        """Trigger condition: is this action relevant for ``ldf``?"""

    @abstractmethod
    def candidates(self, ldf: "LuxDataFrame") -> list[CompiledVis]:
        """Enumerate the search space of candidate visualizations."""

    def footprint(self, ldf: "LuxDataFrame", metadata: Metadata) -> Footprint:
        """The inputs this action's generation reads, under ``metadata``.

        The precompute engine keys each candidate's result by its entry
        (see :class:`Footprint`) and reruns only candidates whose key
        changed; an action whose keys all match is reused whole.  The
        default is the conservative *unknown* footprint — always rerun —
        which is what user UDF actions get unless they override this.
        Concrete actions declare :meth:`candidate_footprints`.
        """
        return Footprint()

    def candidate_footprints(
        self, ldf: "LuxDataFrame", metadata: Metadata, intent: bool = False
    ) -> "list[CandidateFootprint] | None":
        """Per-candidate entries built by enumerating the search space.

        Enumeration + compilation is pure Python over metadata — no data
        scans — so declaring at candidate granularity costs a fraction of
        one candidate's execution.  Each entry's columns are the
        candidate's true read set: its axis fields plus its filter
        attributes.  Returns None (degrade to whole-action granularity)
        when enumeration fails; duplicate keys are the engine's cue to
        degrade as well (it checks).
        """
        try:
            cands = self.candidates(ldf)
        except Exception:
            return None
        entries: list[CandidateFootprint] = []
        for cand in cands:
            spec = cand.spec
            columns = set(spec.fields())
            columns.update(attr for attr, _, _ in spec.filters)
            entries.append(
                CandidateFootprint(candidate_key(spec), columns, intent)
            )
        return entries

    # ------------------------------------------------------------------
    def generate(self, ldf: "LuxDataFrame") -> VisList:
        """Produce the ranked, processed VisList for display."""
        cands = self.candidates(ldf)
        if not cands:
            return VisList(visualizations=[], source=ldf)
        if self.ranked:
            return rank_candidates(cands, ldf, k=config.top_k)
        from ..executor.base import get_executor
        from ..vis import Vis

        executor = get_executor()
        chosen = cands[: config.top_k]
        pending = [c.spec for c in chosen if c.spec.data is None]
        if pending:
            # Batch the display pass so the candidates share scans.
            executor.execute_many(pending, ldf)
        out = [Vis.from_compiled(c, source=ldf, process=False) for c in chosen]
        return VisList(visualizations=out, source=ldf)

    def generate_cached(
        self,
        ldf: "LuxDataFrame",
        prior: "dict[str, CandidatePrior]",
        records: "dict[str, dict] | None" = None,
    ) -> VisList:
        """:meth:`generate` with candidate-level reuse.

        ``prior`` maps ``candidate_key`` to :class:`CandidatePrior` state
        for candidates whose inputs the caller (the precompute engine)
        found unchanged — their content keys match a previous pass.  Those
        candidates reuse their previous scores and, when displayed, their
        previous processed Vis; everything else is recomputed.  The output
        is bit-identical to :meth:`generate` — reused values are exactly
        what a cold pass would recompute.  ``records`` collects
        per-candidate state for the next pass to reuse.
        """
        cands = self.candidates(ldf)
        if not cands:
            return VisList(visualizations=[], source=ldf)
        if self.ranked:
            return rank_candidates(
                cands, ldf, k=config.top_k, prior=prior, records=records
            )
        from ..executor.base import get_executor
        from ..vis import Vis

        executor = get_executor()
        chosen = cands[: config.top_k]
        keys = [candidate_key(c.spec) for c in chosen]
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
            if records is not None:
                records[key] = {"approx": None, "score": None, "displayed": True}
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
