"""Unit tests for the wflow/prune/async optimizations (§8.2)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import Clause, LuxDataFrame, config
from repro.core.actions import CorrelationAction, DistributionAction, OccurrenceAction
from repro.core.compiler import compile_intent
from repro.core.intent import parse_intent
from repro.core.metadata import compute_metadata
from repro.core.optimizer.cost_model import (
    estimate_action_cost,
    estimate_vis_cost,
    prune_is_beneficial,
)
from repro.core.optimizer.sampling import CandidatePrior, get_sample, rank_candidates
from repro.core.optimizer.scheduler import run_actions, schedule_actions
from repro.vis.spec import candidate_key


@pytest.fixture
def wide() -> LuxDataFrame:
    rng = np.random.default_rng(0)
    n = 30_000
    data = {f"q{i}": rng.normal(0, 1, n) for i in range(6)}
    data["cat"] = rng.choice(["a", "b", "c"], n).tolist()
    return LuxDataFrame(data)


class TestCostModel:
    def _spec(self, intent, frame):
        meta = compute_metadata(frame)
        return compile_intent(parse_intent(intent), meta)[0].spec, meta

    def test_scatter_scales_with_columns(self, employees):
        s2, meta = self._spec(["Age", "MonthlyIncome"], employees)
        s3, _ = self._spec(["Age", "MonthlyIncome", "Education"], employees)
        assert estimate_vis_cost(s3, meta) > estimate_vis_cost(s2, meta)

    def test_bar_cheaper_than_scatter(self, employees):
        bar, meta = self._spec(["Age", "Education"], employees)
        scatter, _ = self._spec(["Age", "MonthlyIncome"], employees)
        assert estimate_vis_cost(bar, meta) < estimate_vis_cost(scatter, meta)

    def test_colored_bar_adds_cross_cardinality(self, employees):
        bar, meta = self._spec(["Age", "Education"], employees)
        colored, _ = self._spec(["Age", "Education", "Attrition"], employees)
        assert estimate_vis_cost(colored, meta) > estimate_vis_cost(bar, meta)

    def test_filters_add_selection_pass(self, employees):
        plain, meta = self._spec(["Age"], employees)
        filtered, _ = self._spec(["Age", "Department=Sales"], employees)
        assert estimate_vis_cost(filtered, meta) > estimate_vis_cost(plain, meta)

    def test_action_cost_is_sum(self, employees):
        s1, meta = self._spec(["Age"], employees)
        s2, _ = self._spec(["MonthlyIncome"], employees)
        total = estimate_action_cost([s1, s2], meta)
        assert total == pytest.approx(
            estimate_vis_cost(s1, meta) + estimate_vis_cost(s2, meta)
        )

    def test_prune_guard_requires_more_candidates_than_k(self):
        assert not prune_is_beneficial(10, 15, 1_000_000, 30_000)
        assert prune_is_beneficial(100, 15, 1_000_000, 30_000)

    def test_prune_guard_requires_smaller_sample(self):
        assert not prune_is_beneficial(100, 15, 20_000, 30_000)

    def test_prune_guard_inequality(self):
        # N*t_exact must exceed N*t_approx + k*t_exact.
        assert not prune_is_beneficial(16, 15, 100_000, 99_000)


class TestSampling:
    def test_small_frames_returned_whole(self, employees):
        assert get_sample(employees) is employees

    def test_large_frames_capped(self, wide):
        config.sampling_cap = 5_000
        config.sampling_start = 10_000
        sample = get_sample(wide)
        assert len(sample) == 5_000

    def test_sample_cached_until_mutation(self, wide):
        config.sampling_cap = 5_000
        s1 = get_sample(wide)
        s2 = get_sample(wide)
        assert s1 is s2
        wide["new"] = 1
        assert get_sample(wide) is not s1

    def test_sampling_disabled(self, wide):
        config.sampling = False
        assert get_sample(wide) is wide


class TestRankCandidates:
    def _candidates(self, frame):
        meta = frame.metadata
        any_q = Clause("?", data_type="quantitative")
        return compile_intent([any_q, any_q], meta)

    def test_topk_size(self, wide):
        config.top_k = 5
        out = rank_candidates(self._candidates(wide), wide)
        assert len(out) == 5

    def test_all_processed_exactly(self, wide):
        config.top_k = 3
        out = rank_candidates(self._candidates(wide), wide)
        assert all(v.data is not None for v in out)
        assert all(v.score is not None for v in out)

    def test_scores_descending(self, wide):
        out = rank_candidates(self._candidates(wide), wide, k=10)
        scores = [v.score for v in out]
        assert scores == sorted(scores, reverse=True)

    def test_prune_matches_exact_on_full_sample(self, wide):
        # With the sample equal to the frame, pruning cannot change top-k.
        cands = self._candidates(wide)
        config.early_pruning = False
        exact = rank_candidates(cands, wide, k=10)
        config.early_pruning = True
        config.sampling_cap = len(wide)
        pruned = rank_candidates(self._candidates(wide), wide, k=10)
        exact_sigs = [v.spec.signature() for v in exact]
        pruned_sigs = [v.spec.signature() for v in pruned]
        assert set(exact_sigs) == set(pruned_sigs)

    def test_prior_score_never_displays_sample_data(self):
        """Regression: a prior exact score kept pass-1 display data.

        Pass 1 executes every candidate on the sample.  A survivor whose
        exact score came from a prior (with no prior Vis) skipped the
        reset of that sample data, so the displayed chart showed sample
        counts instead of the full frame's.
        """
        rng = np.random.default_rng(3)
        n = 600
        frame = LuxDataFrame(
            {f"d{i}": rng.choice(["x", "y", "z"], n).tolist() for i in range(6)}
        )
        config.sampling_start, config.sampling_cap = 100, 120

        def candidates():
            return OccurrenceAction().candidates(frame)

        keys = [candidate_key(cand.spec) for cand in candidates()]
        config.early_pruning = False
        records: dict = {}
        rank_candidates(candidates(), frame, k=6, records=records, keys=keys)
        priors = {key: CandidatePrior(score=r["score"]) for key, r in records.items()}
        config.early_pruning = True
        cold = rank_candidates(candidates(), frame, k=3)
        warm = rank_candidates(candidates(), frame, k=3, prior=priors, keys=keys)
        assert [v.spec.data for v in warm] == [v.spec.data for v in cold]
        assert all(sum(r["count"] for r in v.spec.data) == n for v in warm)

    def test_prune_recall_high_on_correlated_data(self):
        rng = np.random.default_rng(1)
        n = 40_000
        base = rng.normal(0, 1, n)
        data = {}
        for i in range(8):
            noise_level = 0.1 + 0.35 * i
            data[f"v{i}"] = base + rng.normal(0, noise_level, n)
        frame = LuxDataFrame(data)
        cands = compile_intent(
            [Clause("?", data_type="quantitative")] * 2, frame.metadata
        )
        config.early_pruning = False
        exact = rank_candidates(cands, frame, k=10)
        config.early_pruning = True
        config.sampling_start = 1_000
        config.sampling_cap = 4_000
        approx = rank_candidates(
            compile_intent([Clause("?", data_type="quantitative")] * 2, frame.metadata),
            frame,
            k=10,
        )
        exact_top = {v.spec.signature() for v in exact}
        approx_top = {v.spec.signature() for v in approx}
        recall = len(exact_top & approx_top) / len(exact_top)
        assert recall >= 0.8


class TestScheduler:
    def test_cost_based_order(self, employees):
        actions = [CorrelationAction(), OccurrenceAction(), DistributionAction()]
        meta = employees.metadata
        config.cost_based_scheduling = True
        ordered = schedule_actions(actions, meta)
        costs = [a.estimated_cost(meta) for a in ordered]
        assert costs == sorted(costs)

    def test_fifo_when_disabled(self, employees):
        actions = [CorrelationAction(), OccurrenceAction()]
        config.cost_based_scheduling = False
        ordered = schedule_actions(actions, employees.metadata)
        assert [a.name for a in ordered] == ["Correlation", "Occurrence"]

    def test_run_actions_synchronous(self, employees):
        config.streaming = False
        result = run_actions(
            [OccurrenceAction(), DistributionAction()],
            employees,
            employees.metadata,
        )
        assert set(result.keys()) == {"Occurrence", "Distribution"}

    def test_streaming_returns_first_immediately(self, wide):
        config.streaming = True
        config.cost_based_scheduling = True
        result = run_actions(
            [CorrelationAction(), OccurrenceAction(), DistributionAction()],
            wide,
            wide.metadata,
        )
        # At least the cheapest action must be ready on return.
        assert len(result.ready) >= 1
        result.wait(timeout=60)
        assert len(result.keys()) == 3

    def test_empty_actions(self, employees):
        result = run_actions([], employees, employees.metadata)
        assert result.keys() == []


class TestWflowSemantics:
    def test_memoized_reprint(self, employees):
        r1 = employees.recommendations
        r2 = employees.recommendations
        assert r1 is r2  # cached while fresh

    def test_noncommittal_ops_keep_cache(self, employees):
        r1 = employees.recommendations
        employees.head()  # derives a new frame; original untouched
        employees["Age"].mean()
        assert employees.recommendations is r1

    def test_mutation_expires_recommendations(self, employees):
        r1 = employees.recommendations
        employees["x2"] = employees["Age"] * 2
        assert employees.recommendations is not r1

    def test_intent_change_expires_recommendations_only(self, employees):
        m1 = employees.metadata
        r1 = employees.recommendations
        employees.intent = ["Age"]
        assert employees.recommendations is not r1
        assert employees.metadata is m1  # metadata survives intent changes

    def test_inplace_ops_expire(self, employees):
        r1 = employees.recommendations
        employees.dropna(inplace=True)
        assert employees.recommendations is not r1

    def test_rename_expires(self, employees):
        employees.recommendations
        employees.rename(columns={"Age": "Years"}, inplace=True)
        assert "Years" in employees.metadata

    def test_no_lazy_maintain_recomputes_every_time(self, employees):
        config.lazy_maintain = False
        r1 = employees.recommendations
        r2 = employees.recommendations
        assert r1 is not r2

    def test_wysiwyg_recommendations_never_mutate(self, employees):
        # §10.3: generating recommendations must not change the dataframe.
        employees.intent = ["Age", "MonthlyIncome"]
        before = employees.content_hash()
        _ = employees.recommendations
        repr(employees)
        assert employees.content_hash() == before


class TestConfig:
    def test_condition_presets(self):
        config.apply_condition("no-opt")
        assert not config.lazy_maintain and config.always_on
        config.apply_condition("wflow")
        assert config.lazy_maintain and not config.early_pruning
        config.apply_condition("wflow+prune")
        assert config.early_pruning and not config.cost_based_scheduling
        config.apply_condition("all-opt")
        assert config.cost_based_scheduling
        config.apply_condition("pandas")
        assert not config.always_on

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            config.apply_condition("turbo")

    def test_snapshot_restore(self):
        snap = config.snapshot()
        config.top_k = 3
        config.restore(snap)
        assert config.top_k == snap["top_k"]
