"""Approximate early pruning of the visualization search space (§8.2, prune).

Two-pass ranking: a first pass scores every candidate on a cached random
sample of the dataframe, then the selected top-k are *recomputed exactly*
on the full data before display — so displayed charts are always exact, and
Recall@k against exact rankings is the quality metric (Fig. 12 right).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...dataframe import DataFrame
from ..compiler import CompiledVis
from ..config import config
from ..executor.base import get_executor
from ..executor.cache import computation_cache
from ..interestingness import needs_executed_data, score_vis
from ..vis import Vis
from ..vislist import VisList
from .cost_model import prune_is_beneficial

__all__ = ["CandidatePrior", "get_sample", "rank_candidates"]


class CandidatePrior:
    """Reused state for one candidate vis from a previous ranking pass.

    ``approx`` is the pass-1 sample score, ``score`` the pass-2 exact
    score, ``vis`` the displayed Vis (with processed data attached) when
    the candidate made the previous top-k.  Any field may be None — a
    missing value simply means that piece is recomputed, so a partial
    prior is always safe.

    Bit-identity contract: callers may only supply a prior whose inputs
    equal the candidate's current ones — the precompute engine keys each
    candidate by its columns' metadata stamps, the intent epoch when it
    depends on intent, and the effective config.  The ranking sample's
    row indices are a pure function of (row count, cap, seed), and a
    row-set change restamps every column, so a matching candidate's
    sample score and exact score are float-identical to what a cold pass
    would recompute — reusing them changes nothing but the work performed.
    """

    __slots__ = ("approx", "score", "vis")

    def __init__(
        self,
        approx: float | None = None,
        score: float | None = None,
        vis: "Vis | None" = None,
    ) -> None:
        self.approx = approx
        self.score = score
        self.vis = vis

    def display_vis(self) -> "Vis | None":
        """The carried Vis, only if it still holds processed data."""
        vis = self.vis
        if vis is not None and vis.spec is not None and vis.spec.data is not None:
            return vis
        return None


def get_sample(frame: DataFrame) -> DataFrame:
    """The cached row sample used for approximate scoring.

    Frames at or below ``config.sampling_start`` rows are returned as-is.
    The sample is cached as ``(_data_version, sample)`` and is only reused
    while both the length cap and the content version still match: a plain
    DataFrame has no ``_sample_cache``-clearing hook (unlike LuxDataFrame's
    wflow expiry), so without the version key a same-length in-place
    mutation would silently keep scoring on stale rows.

    The cut is registered with the computation cache as a *sample link*
    (row indices + both content versions), so pass-1 scoring on the sample
    derives its scans from — and thereby pre-warms — the parent frame's
    cache slot for the exact pass that follows.
    """
    n = len(frame)
    if not config.sampling or n <= config.sampling_start:
        return frame
    cap = min(config.sampling_cap, n)
    version = getattr(frame, "_data_version", 0)
    cached = getattr(frame, "_sample_cache", None)
    if cached is not None:
        cached_version, sample = cached
        if cached_version == version and len(sample) == cap:
            return sample
    # Same draw as DataFrame.sample (rng.choice without replacement, rows
    # kept in frame order), done here so the chosen indices are available
    # to register the sample link.
    rng = np.random.default_rng(config.random_seed)
    indices = np.sort(rng.choice(n, size=cap, replace=False))
    sample = frame.iloc[indices]
    computation_cache.link_sample(sample, frame, indices)
    try:
        frame._sample_cache = (version, sample)
    except AttributeError:
        pass
    return sample


def _prefetch_for_scoring(
    candidates: Sequence[CompiledVis], frame: DataFrame, executor
) -> None:
    """Batch-execute the specs whose scores need processed records.

    One ``execute_many`` call lets same-filter candidates share a single
    materialized subframe (and every candidate share factorizations etc.).
    The entry point is backend-agnostic: under ``config.executor = "sql"``
    the same call compiles each filter group into one consolidated
    CTE + UNION ALL pass instead of per-candidate queries, so both ranking
    passes get shared scans on either backend.
    Failures fall through silently: ``score_vis`` executes lazily with its
    own per-spec failproofing, so one broken spec cannot sink the batch.
    """
    pending = [
        c.spec
        for c in candidates
        if c.spec.data is None and needs_executed_data(c.spec)
    ]
    if not pending:
        return
    try:
        executor.execute_many(pending, frame)
    except Exception:
        pass


def _exact_scored(
    candidates: Sequence[CompiledVis],
    frame: DataFrame,
    prior_of=None,
    exact_out: dict[int, float] | None = None,
) -> list[tuple[float, CompiledVis]]:
    """Exact pass-2 scores, in candidate order.

    ``prior_of`` (candidate -> CandidatePrior | None) supplies carried
    exact scores; candidates without one are recomputed on the full frame,
    exactly as a cold pass would.  ``exact_out`` collects the per-candidate
    scores by ``id(cand)`` for record emission.
    """
    executor = get_executor()
    exact: dict[int, float] = {}
    fresh: list[CompiledVis] = []
    for cand in candidates:
        # Drop pass-1 data, which came from the sample — also for a
        # candidate whose exact score is reused, or it would be displayed.
        cand.spec.data = None
        p = prior_of(cand) if prior_of is not None else None
        if p is not None and p.score is not None:
            exact[id(cand)] = p.score  # check: ignore[unstable-key]
        else:
            fresh.append(cand)
    _prefetch_for_scoring(fresh, frame, executor)
    references: dict = {}
    for cand in fresh:
        exact[id(cand)] = score_vis(cand.spec, frame, executor, references)  # check: ignore[unstable-key]
    if exact_out is not None:
        exact_out.update(exact)
    return [(exact[id(cand)], cand) for cand in candidates]  # check: ignore[unstable-key]


def rank_candidates(
    candidates: Sequence[CompiledVis],
    frame: DataFrame,
    k: int | None = None,
    prior: "dict[str, CandidatePrior] | None" = None,
    records: "dict[str, dict] | None" = None,
    keys: "Sequence[str] | None" = None,
) -> VisList:
    """Rank candidates by interestingness and return the processed top-k.

    When ``config.early_pruning`` holds and the cost-model guard passes,
    scores are approximated on the sample first (pass 1) and only the
    survivors are recomputed exactly (pass 2).  Each pass hands
    ``score_vis`` one dict of unfiltered references, so filtered
    candidates that share a reference execute it once per pass.

    ``keys`` holds each candidate's ``candidate_key(spec)``, in order; the
    caller, which keyed the candidates when it enumerated them, must pass
    it with ``prior`` or ``records``.  ``prior`` maps a key to reused
    state for candidates whose inputs the caller found unchanged since a
    previous pass (see ``CandidatePrior``); their scores — and, for the
    displayed top-k, their processed Vis objects — are reused instead of
    recomputed.  Reused values are merged with freshly computed ones in
    enumeration order, so the two-pass algorithm (including stable-sort
    tie behavior) is bit-identical to a cold run.  ``records``, when
    given, is filled with one ``{"approx", "score", "displayed"}`` dict
    per candidate key so the caller can seed the next pass's prior.
    """
    k = k if k is not None else config.top_k
    executor = get_executor()
    n = len(frame)
    sample = get_sample(frame)

    prior_by_id: dict[int, CandidatePrior] = {}
    if prior:
        for key, cand in zip(keys, candidates):
            p = prior.get(key)
            if p is not None:
                prior_by_id[id(cand)] = p  # check: ignore[unstable-key]

    def prior_of(cand: CompiledVis) -> CandidatePrior | None:
        return prior_by_id.get(id(cand))  # check: ignore[unstable-key]

    use_prune = (
        config.early_pruning
        and len(candidates) > k
        and prune_is_beneficial(len(candidates), k, n, len(sample))
    )

    approx_by_id: dict[int, float] = {}
    exact_by_id: dict[int, float] = {}
    if use_prune:
        # Pass 1 (approximate, on the sample) is batched exactly like pass
        # 2: one execute_many shares each scan across the candidate set.
        fresh: list[CompiledVis] = []
        for cand in candidates:
            p = prior_of(cand)
            if p is not None and p.approx is not None:
                approx_by_id[id(cand)] = p.approx  # check: ignore[unstable-key]
            else:
                cand.spec.data = None
                fresh.append(cand)
        _prefetch_for_scoring(fresh, sample, executor)
        references: dict = {}
        for cand in fresh:
            approx_by_id[id(cand)] = score_vis(  # check: ignore[unstable-key]
                cand.spec, sample, executor, references
            )
        approx: list[tuple[float, CompiledVis]] = [
            (approx_by_id[id(cand)], cand) for cand in candidates  # check: ignore[unstable-key]
        ]
        approx.sort(key=lambda sc: -sc[0])
        survivors = [cand for _, cand in approx[:k]]
        scored = _exact_scored(survivors, frame, prior_of, exact_by_id)
    else:
        scored = _exact_scored(candidates, frame, prior_of, exact_by_id)

    scored.sort(key=lambda sc: -sc[0])
    top = scored[:k]
    # Carried top-k candidates whose previous Vis still holds processed
    # data are displayed as-is — the display data of an untouched vis over
    # unchanged rows is exactly what re-execution would produce.
    carried_vis: dict[int, Vis] = {}
    for _, cand in top:
        p = prior_of(cand)
        vis = p.display_vis() if p is not None else None
        if vis is not None:
            carried_vis[id(cand)] = vis  # check: ignore[unstable-key]
    # Exact display data for everything shown (pass 2 guarantee), computed
    # as one shared-scan batch so the top-k repeat no filter/group-by work.
    pending = [
        cand.spec
        for _, cand in top
        if id(cand) not in carried_vis and cand.spec.data is None  # check: ignore[unstable-key]
    ]
    if pending:
        executor.execute_many(pending, frame)
    visualizations: list[Vis] = []
    for score, cand in top:
        vis = carried_vis.get(id(cand))  # check: ignore[unstable-key]
        if vis is not None:
            vis.score = score
        else:
            vis = Vis.from_compiled(cand, source=frame, score=score, process=False)
        visualizations.append(vis)

    if records is not None:
        displayed = {id(cand) for _, cand in top}  # check: ignore[unstable-key]
        for key, cand in zip(keys, candidates):
            records[key] = {
                "approx": approx_by_id.get(id(cand)),  # check: ignore[unstable-key]
                "score": exact_by_id.get(id(cand)),  # check: ignore[unstable-key]
                "displayed": id(cand) in displayed,  # check: ignore[unstable-key]
            }
    return VisList(visualizations=visualizations, source=frame)
