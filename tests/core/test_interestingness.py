"""Unit tests for interestingness scoring."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import LuxDataFrame, Vis, config
from repro.core.actions.filter_action import FilterAction
from repro.core.executor.df_exec import DataFrameExecutor
from repro.core.interestingness import (
    _dispersion,
    _group_separation,
    _pearson,
    _skew,
    _skewness,
    _unevenness,
    score_vis,
)
from repro.core.optimizer.sampling import rank_candidates


@pytest.fixture
def executor():
    return DataFrameExecutor()


class TestPearson:
    def test_perfect_correlation(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0, 4.0], "b": [2.0, 4.0, 6.0, 8.0]})
        assert _pearson(frame, "a", "b") == pytest.approx(1.0)

    def test_anticorrelation_absolute(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]})
        assert _pearson(frame, "a", "b") == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        frame = LuxDataFrame({"a": rng.normal(0, 1, 2000), "b": rng.normal(0, 1, 2000)})
        assert _pearson(frame, "a", "b") < 0.1

    def test_constant_column_zero(self):
        frame = LuxDataFrame({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]})
        assert _pearson(frame, "a", "b") == 0.0

    def test_nan_fallback_matches_corrcoef(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, None, 4.0, 5.0], "b": [2.0, 4.1, 9.9, 8.2, 9.8]})
        x = np.array([1.0, 2.0, 4.0, 5.0])
        y = np.array([2.0, 4.1, 8.2, 9.8])
        expected = abs(np.corrcoef(x, y)[0, 1])
        assert _pearson(frame, "a", "b") == pytest.approx(expected)

    def test_cache_consistency_across_mutation(self):
        frame = LuxDataFrame({"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0, 6.0]})
        assert _pearson(frame, "a", "b") == pytest.approx(1.0)
        frame["b"] = [3.0, 1.0, 2.0]  # bumps _data_version -> cache invalid
        assert _pearson(frame, "a", "b") < 1.0


def skew_inputs() -> dict[str, np.ndarray]:
    """Random, infinite, constant and near-constant arrays for the skew diff."""
    rng = np.random.default_rng(5)
    draws = {
        "normal": lambda n: rng.normal(0, 1, n),
        "lognormal": lambda n: rng.lognormal(0, 1, n),
        "integer": lambda n: rng.integers(-50, 50, n).astype(np.float64),
        "offset": lambda n: rng.normal(0, 1, n) + 1e6,
    }
    inputs = {
        f"{kind}-{n}": draw(n)
        for kind, draw in draws.items()
        for n in (3, 4, 17, 1_000, 20_000)
    }
    for sign in (1, -1):
        values = rng.normal(0, 1, 500)
        values[123] = sign * np.inf
        inputs[f"inf{sign:+d}"] = values
    inputs["constant"] = np.full(50, 7.25)
    inputs["constant-large"] = np.full(50, 1e6)
    inputs["one-ulp-off"] = np.r_[np.full(49, 1e6), np.nextafter(1e6, 2e6)]
    inputs["near-constant"] = 1e6 + rng.normal(0, 1e-3, 200)
    return inputs


SKEW_INPUTS = skew_inputs()


class TestSkewMatchesScipy:
    @pytest.mark.parametrize("name", list(SKEW_INPUTS))
    def test_bit_identical(self, name):
        stats = pytest.importorskip("scipy.stats")
        values = SKEW_INPUTS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.float64(stats.skew(values))
        assert np.float64(_skew(values)).tobytes() == expected.tobytes()


class TestShapeScores:
    def test_skewness_high_for_lognormal(self):
        rng = np.random.default_rng(0)
        frame = LuxDataFrame({"x": rng.lognormal(0, 1, 3000)})
        assert _skewness(frame, "x") > 0.5

    def test_skewness_low_for_normal(self):
        rng = np.random.default_rng(0)
        frame = LuxDataFrame({"x": rng.normal(0, 1, 3000)})
        assert _skewness(frame, "x") < 0.2

    def test_unevenness_uniform_is_zero(self):
        assert _unevenness(np.array([10.0, 10.0, 10.0])) == pytest.approx(0.0)

    def test_unevenness_concentrated_is_one(self):
        assert _unevenness(np.array([30.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_unevenness_monotone(self):
        a = _unevenness(np.array([12.0, 10.0, 8.0]))
        b = _unevenness(np.array([25.0, 4.0, 1.0]))
        assert b > a

    def test_dispersion_zero_for_constant(self):
        assert _dispersion(np.array([5.0, 5.0, 5.0])) == pytest.approx(0.0)

    def test_group_separation_strong(self):
        frame = LuxDataFrame(
            {"y": [1.0, 1.1, 0.9, 9.0, 9.1, 8.9], "g": ["a", "a", "a", "b", "b", "b"]}
        )
        assert _group_separation(frame, "y", "g") > 0.95

    def test_group_separation_none(self):
        rng = np.random.default_rng(1)
        frame = LuxDataFrame(
            {"y": rng.normal(0, 1, 600), "g": rng.choice(["a", "b"], 600).tolist()}
        )
        assert _group_separation(frame, "y", "g") < 0.05


class TestScoreVis:
    def test_scores_bounded(self, employees, executor):
        for intent in (["Age"], ["Education"], ["Age", "MonthlyIncome"],
                       ["Age", "Education"], ["Country"]):
            vis = Vis(intent, employees)
            s = score_vis(vis.spec, employees, executor)
            assert 0.0 <= s <= 1.0

    def test_filter_deviation_detects_shifted_subset(self, executor):
        # A filter that changes the Education mix should outscore one that
        # leaves the distribution unchanged.
        education = (["HS"] * 300) + (["BS"] * 300) + (["MS"] * 300)
        group = (["skewed"] * 300) + (["flat"] * 600)
        # In the "skewed" subset all rows are HS; "flat" subsets mirror overall.
        education = (["HS"] * 300) + (["HS"] * 100 + ["BS"] * 250 + ["MS"] * 250)
        frame = LuxDataFrame({"Education": education, "grp": group})
        vis_skew = Vis(["Education", "grp=skewed"], frame)
        vis_flat = Vis(["Education", "grp=flat"], frame)
        s_skew = score_vis(vis_skew.spec, frame, executor)
        s_flat = score_vis(vis_flat.spec, frame, executor)
        assert s_skew > s_flat

    def test_colored_scatter_uses_separation(self, executor):
        frame = LuxDataFrame(
            {
                "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "y": [1.0, 1.2, 0.8, 9.0, 9.2, 8.8],
                "g": ["a", "a", "a", "b", "b", "b"],
            }
        )
        vis = Vis(["x", "y", "g"], frame)
        assert score_vis(vis.spec, frame, executor) > 0.9

    def test_scoring_never_raises(self, executor):
        # Failproofing: a broken spec scores 0 rather than raising.
        from repro.vis.encoding import Encoding
        from repro.vis.spec import VisSpec

        spec = VisSpec("bar", [Encoding("x", "missing_col", "nominal")])
        frame = LuxDataFrame({"a": [1]})
        assert score_vis(spec, frame, executor) == 0.0


def cold_read_frame() -> LuxDataFrame:
    """The payload-digest test's ``cold_read`` frame: 500 rows, six normal
    measures and three nominal dimensions, each column permuted by seed 1."""
    rng = np.random.default_rng(0)
    columns = {f"q{i}": rng.normal(0.0, 1.0, 500).tolist() for i in range(6)}
    for name, card in {"d0": 6, "d1": 12, "d2": 24}.items():
        columns[name] = [f"v{i % card}" for i in range(500)]
    shuffle = np.random.default_rng(1)
    return LuxDataFrame(
        {name: [values[i] for i in shuffle.permutation(500)] for name, values in columns.items()}
    )


COLD_READ_INTENTS = [["q0"], ["d0"], ["q1", "d1"], ["q2", "q3"], []]


@pytest.fixture
def executed(monkeypatch) -> list:
    """(mark, encodings, filters, frame) of every ``DataFrameExecutor.execute``."""
    calls: list = []
    execute = DataFrameExecutor.execute

    def spy(self, spec, frame):
        calls.append((spec.mark, tuple(spec.encodings), tuple(spec.filters), frame))
        return execute(self, spec, frame)

    monkeypatch.setattr(DataFrameExecutor, "execute", spy)
    return calls


class TestSharedReferences:
    """Filter candidates share their unfiltered reference per ranking call."""

    def test_each_reference_executes_once_per_ranking_call(self, executed):
        frame = cold_read_frame()
        frame.intent = ["q1", "d1"]
        candidates = FilterAction().candidates(frame)
        assert len(candidates) == 26
        rank_candidates(candidates, frame)
        references = {(c.spec.mark, tuple(c.spec.encodings)) for c in candidates}
        assert len(references) == 1
        assert [(mark, encodings, filters) for mark, encodings, filters, _ in executed] == [
            (mark, encodings, ()) for mark, encodings in references
        ]

    def test_once_per_frame_scored_on(self, executed):
        """With pruning, pass 1 scores on the sample and pass 2 on the frame."""
        config.sampling_start = 100
        config.sampling_cap = 80
        config.top_k = 3
        frame = cold_read_frame()
        frame.intent = ["q0"]
        candidates = FilterAction().candidates(frame)
        rank_candidates(candidates, frame)
        frames = [f for _, _, filters, f in executed]
        assert len(frames) == 2 and all(not filters for _, _, filters, _ in executed)
        assert len(frames[0]) == 80 and frames[1] is frame

    def test_filtered_scatters_execute_nothing(self, executed):
        frame = cold_read_frame()
        frame.intent = ["q2", "q3"]
        candidates = FilterAction().candidates(frame)
        assert {c.spec.mark for c in candidates} == {"point"}
        shown = rank_candidates(candidates, frame)
        assert executed == []
        assert all(vis.score == 0.0 for vis in shown)

    def test_shared_references_score_bit_identically(self):
        """Every Filter candidate under the five ``cold_read`` intents."""
        frame = cold_read_frame()
        executor = DataFrameExecutor()
        checked = nonzero = 0
        for intent in COLD_READ_INTENTS:
            frame.intent = intent
            action = FilterAction()
            if not action.applies_to(frame):
                continue
            alone = [score_vis(c.spec, frame, executor) for c in action.candidates(frame)]
            references: dict = {}
            shared = [
                score_vis(c.spec, frame, executor, references)
                for c in action.candidates(frame)
            ]
            assert np.array(shared).tobytes() == np.array(alone).tobytes(), intent
            checked += len(alone)
            nonzero += sum(score > 0 for score in alone)
        assert checked > 0 and nonzero > 0

