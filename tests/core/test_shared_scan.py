"""Shared-scan execution: ComputationCache, execute_many, and the cache fixes.

Covers the cross-visualization computation cache (correct results, version-
keyed invalidation, weakref keying), batch/sequential equivalence across all
eight mark handlers, and the regression fixes that rode along: duplicate-
action-name streaming completion, stale-sample invalidation on plain
frames, and explicit numeric-heatmap bin sizes.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro import LuxDataFrame, config
from repro.core.compiler import compile_intent
from repro.core.executor.cache import ComputationCache, computation_cache
from repro.core.executor.df_exec import DataFrameExecutor
from repro.core.executor.sql_exec import SQLExecutor
from repro.core.intent import parse_intent
from repro.core.interestingness import _pearson
from repro.core.metadata import compute_metadata
from repro.core.optimizer.sampling import get_sample
from repro.core.optimizer.scheduler import run_actions
from repro.dataframe import DataFrame
from repro.vis.encoding import Encoding
from repro.vis.spec import VisSpec


@pytest.fixture(autouse=True)
def _fresh_cache():
    computation_cache.clear()
    yield
    computation_cache.clear()


def _all_mark_specs() -> list[VisSpec]:
    """One spec per mark handler (the eight rows of Table 2), plus variants."""
    q = "quantitative"
    specs = [
        # histogram: bin + count
        VisSpec("histogram", [
            Encoding("x", "Age", q, bin=True, bin_size=10),
            Encoding("y", "", q, aggregate="count"),
        ]),
        # bar: group-by mean
        VisSpec("bar", [
            Encoding("y", "Education", "nominal"),
            Encoding("x", "Age", q, aggregate="mean"),
        ]),
        # bar: group-by count
        VisSpec("bar", [
            Encoding("y", "Department", "nominal"),
            Encoding("x", "", q, aggregate="count"),
        ]),
        # line: 2-D colored group-by
        VisSpec("line", [
            Encoding("x", "Education", "nominal"),
            Encoding("y", "Age", q, aggregate="mean"),
            Encoding("color", "Attrition", "nominal"),
        ]),
        # area: group-by sum
        VisSpec("area", [
            Encoding("x", "Department", "nominal"),
            Encoding("y", "MonthlyIncome", q, aggregate="sum"),
        ]),
        # geoshape: choropleth mean
        VisSpec("geoshape", [
            Encoding("x", "Country", "geographic"),
            Encoding("color", "Age", q, aggregate="mean"),
        ]),
        # point: scatter selection
        VisSpec("point", [
            Encoding("x", "Age", q),
            Encoding("y", "MonthlyIncome", q),
        ]),
        # tick: 1-D selection
        VisSpec("tick", [Encoding("x", "HourlyRate", q)]),
        # rect: nominal heatmap (2-D group-by count)
        VisSpec("rect", [
            Encoding("x", "Education", "nominal"),
            Encoding("y", "Department", "nominal"),
            Encoding("color", "", q, aggregate="count"),
        ]),
        # rect: numeric heatmap (2-D bin + count + color aggregate)
        VisSpec("rect", [
            Encoding("x", "Age", q, bin_size=6),
            Encoding("y", "MonthlyIncome", q, bin_size=6),
            Encoding("color", "HourlyRate", q, aggregate="mean"),
        ]),
    ]
    filtered = []
    for spec in specs:
        filtered.append(
            VisSpec(spec.mark, spec.encodings, filters=[("Department", "=", "Sales")])
        )
        filtered.append(
            VisSpec(spec.mark, spec.encodings, filters=[("Age", ">", 40)])
        )
    return specs + filtered


class TestExecuteManyEquivalence:
    def test_batch_identical_to_sequential_all_marks(self, employees):
        """execute_many == per-spec execute for every handler, ± filters."""
        sequential = _all_mark_specs()
        batch = _all_mark_specs()

        config.computation_cache = False
        expected = [DataFrameExecutor().execute(s, employees) for s in sequential]

        config.computation_cache = True
        computation_cache.clear()
        got = DataFrameExecutor().execute_many(batch, employees)

        assert len(got) == len(expected)
        for spec, a, b in zip(batch, expected, got):
            assert a == b, f"mismatch for {spec!r}"
            assert spec.data is b

    def test_filter_groups_run_on_projected_plain_subframes(self, employees):
        """A filter group's subframe is a plain frame of the group's encoded
        columns and filtered rows; its primitives stay out of the cache."""
        q = "quantitative"
        filters = [("Department", "=", "Sales")]
        group = [
            VisSpec("bar", [
                Encoding("y", "Education", "nominal"),
                Encoding("x", "Age", q, aggregate="mean"),
            ], filters=filters),
            VisSpec("histogram", [
                Encoding("x", "Age", q, bin=True, bin_size=10),
                Encoding("y", "", q, aggregate="count"),
            ], filters=filters),
        ]
        ex = DataFrameExecutor()
        sub, prims = ex._group_frame(employees, group)
        whole = ex.apply_filters(employees, filters)
        assert type(sub) is DataFrame
        assert sub.columns == ["Education", "Age"]
        assert len(sub) == len(whole)
        for name in sub.columns:
            assert sub.column(name).equals(whole.column(name))
        assert prims is not computation_cache
        assert computation_cache.stats()["frames"] == 1  # the mask's, on employees
        config.computation_cache = False
        assert ex._group_frame(employees, group)[1] is computation_cache

    def test_a_filter_pass_takes_no_cache_slot(self, employees, monkeypatch):
        """Filter candidates look up primitives on the frame alone: every
        frame that asks for a slot during the pass is kept alive here, and
        the slot count still does not move."""
        from repro.core.actions.filter_action import FilterAction

        employees.intent = ["Age"]
        computation_cache.to_float(employees, "Age")
        before = computation_cache.stats()["frames"]
        asked = []
        slot = ComputationCache._slot

        def spy(self, frame):
            asked.append(frame)
            return slot(self, frame)

        monkeypatch.setattr(ComputationCache, "_slot", spy)
        shown = FilterAction().generate(employees)
        assert len(shown) > 0
        assert all(frame is employees for frame in asked)
        assert computation_cache.stats()["frames"] == before

    def test_execute_many_with_cache_disabled(self, employees):
        specs = _all_mark_specs()
        config.computation_cache = False
        got = DataFrameExecutor().execute_many(specs, employees)
        assert all(r is not None for r in got)
        assert all(s.data is r for s, r in zip(specs, got))

    def test_repeated_execute_hits_cache(self, employees):
        spec = _all_mark_specs()[1]
        ex = DataFrameExecutor()
        first = ex.execute(spec, employees)
        spec.data = None
        second = ex.execute(spec, employees)
        assert first == second
        assert computation_cache.stats()["groupings"] >= 1

    def test_sql_executor_default_batch_path(self, employees):
        spec = VisSpec("bar", [
            Encoding("y", "Education", "nominal"),
            Encoding("x", "Age", "quantitative", aggregate="mean"),
        ])
        spec2 = VisSpec("bar", list(spec.encodings))
        a = SQLExecutor().execute(spec, employees)
        [b] = SQLExecutor().execute_many([spec2], employees)
        assert a == b


class TestComputationCache:
    def test_mutation_invalidates(self, employees):
        ex = DataFrameExecutor()
        spec = VisSpec("bar", [
            Encoding("y", "Education", "nominal"),
            Encoding("x", "Age", "quantitative", aggregate="mean"),
        ])
        before = ex.execute(spec, employees)
        employees["Age"] = np.asarray(employees["Age"].to_list()) + 100.0
        spec.data = None
        after = ex.execute(spec, employees)
        mean_before = np.mean([r["Age"] for r in before])
        mean_after = np.mean([r["Age"] for r in after])
        assert mean_after == pytest.approx(mean_before + 100.0, rel=1e-6)

    def test_filter_mask_cached_but_subframe_not_pinned(self, employees):
        ex = DataFrameExecutor()
        filters = [("Department", "=", "Sales")]
        a = ex.apply_filters(employees, filters)
        b = ex.apply_filters(employees, filters)
        # The mask is cached (one entry), the subframe deliberately is not:
        # pinning row copies process-wide would retain GBs on large frames.
        assert a is not b
        assert a.equals(b)
        assert computation_cache.stats()["masks"] == 1
        employees["new"] = 1
        c = ex.apply_filters(employees, filters)
        assert len(c) == len(a)

    def test_masks_byte_budget_bounded(self):
        """Distinct filter signatures accumulate masks only up to the budget."""
        config.computation_cache_budget_mb = 1
        rows = 100_000  # each boolean mask costs 100 kB
        frame = DataFrame({"v": np.arange(rows, dtype=float)})
        ex = DataFrameExecutor()
        for i in range(30):
            ex.apply_filters(frame, [("v", ">", float(i))])
        stats = computation_cache.stats()
        assert stats["bytes"] <= 1 << 20
        assert stats["masks"] <= 10  # 1 MB budget / 100 kB per mask

    def test_budget_evicts_cheapest_sections_first(self):
        """Under pressure masks go before groupings (recompute cost order)."""
        config.computation_cache_budget_mb = 1
        rows = 60_000
        frame = DataFrame({
            "v": np.arange(rows, dtype=float),
            "k": (["a", "b", "c", "d"] * (rows // 4)),
        })
        ex = DataFrameExecutor()
        computation_cache.grouping(frame, ("k",))
        for i in range(20):
            ex.apply_filters(frame, [("v", ">", float(i))])
        stats = computation_cache.stats()
        assert stats["bytes"] <= 1 << 20
        # The grouping (9 bytes/row, expensive to recompute) outlives the
        # flood of 60 kB masks (one comparison each to rebuild).
        assert stats["groupings"] == 1

    def test_oversize_entry_bypasses_cache(self):
        """An entry bigger than the whole budget must not wipe the others."""
        config.computation_cache_budget_mb = 1
        rows = 300_000  # float view = 2.4 MB > budget; masks = 300 kB
        frame = DataFrame({"v": np.arange(rows, dtype=float)})
        ex = DataFrameExecutor()
        ex.apply_filters(frame, [("v", ">", 1.0)])
        out = computation_cache.to_float(frame, "v")
        assert len(out) == rows
        stats = computation_cache.stats()
        assert stats["floats"] == 0  # handed back uncached
        assert stats["masks"] == 1  # small entries survive

    def test_zero_budget_disables_bound(self):
        config.computation_cache_budget_mb = 0
        rows = 50_000
        frame = DataFrame({"v": np.arange(rows, dtype=float)})
        ex = DataFrameExecutor()
        for i in range(40):
            ex.apply_filters(frame, [("v", ">", float(i))])
        assert computation_cache.stats()["masks"] == 40

    def test_hit_miss_accounting(self, employees):
        ex = DataFrameExecutor()
        spec = _all_mark_specs()[1]
        ex.execute(spec, employees)
        first = computation_cache.stats()
        spec.data = None
        ex.execute(spec, employees)
        second = computation_cache.stats()
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]

    def test_plain_frame_mutation_bumps_version(self):
        frame = DataFrame({"a": [1, 2, 3]})
        v0 = frame._data_version
        frame["a"] = [4, 5, 6]
        assert frame._data_version == v0 + 1

    def test_slot_evicted_when_frame_collected(self):
        cache = ComputationCache()
        frame = DataFrame({"a": [1.0, 2.0, 3.0]})
        cache.to_float(frame, "a")
        assert cache.stats()["frames"] == 1
        del frame
        gc.collect()
        assert cache.stats()["frames"] == 0

    def test_cached_arrays_are_readonly(self, employees):
        arr = computation_cache.to_float(employees, "Age")
        with pytest.raises(ValueError):
            arr[0] = 0.0

    def test_toggle_bypasses_store(self, employees):
        config.computation_cache = False
        computation_cache.to_float(employees, "Age")
        computation_cache.grouping(employees, ("Education",))
        assert computation_cache.stats()["frames"] == 0

    def test_pearson_stale_after_inplace_mutation_of_plain_frame(self):
        """Regression: plain frames mutated in place must re-standardize."""
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 500)
        frame = DataFrame({"x": x, "y": x + rng.normal(0, 0.01, 500)})
        high = _pearson(frame, "x", "y")
        assert high > 0.9
        frame["y"] = rng.normal(0, 1, 500)  # same length, new content
        low = _pearson(frame, "x", "y")
        assert low < 0.5


class TestSampleLinks:
    def _linked_pair(self, rows: int = 5_000):
        config.sampling_start = 100
        config.sampling_cap = 500
        rng = np.random.default_rng(3)
        frame = DataFrame({
            "q": rng.normal(0, 1, rows),
            "d": rng.choice(["a", "b", "c"], rows).tolist(),
        })
        sample = get_sample(frame)
        assert len(sample) == 500
        return frame, sample

    def test_sample_primitives_prewarm_parent(self):
        """Scans requested on the sample land in the parent's slot too."""
        frame, sample = self._linked_pair()
        computation_cache.to_float(sample, "q")
        computation_cache.factorize(sample, "d")
        # Both the sample slot and the parent slot are now warm.
        assert computation_cache.stats()["frames"] == 2
        assert computation_cache.stats()["links"] == 1
        hits_before = computation_cache.stats()["hits"]
        computation_cache.to_float(frame, "q")
        computation_cache.factorize(frame, "d")
        assert computation_cache.stats()["hits"] == hits_before + 2

    def test_derived_float_values_identical(self):
        frame, sample = self._linked_pair()
        derived = computation_cache.to_float(sample, "q")
        direct = sample.column("q").to_float()
        np.testing.assert_array_equal(derived, direct)

    def test_derived_mask_identical_and_prewarms(self):
        frame, sample = self._linked_pair()
        ex = DataFrameExecutor()
        filters = [("q", ">", 0.0)]
        sub = ex.apply_filters(sample, filters)
        config.computation_cache = False
        expected = ex.apply_filters(sample, filters)
        config.computation_cache = True
        assert sub.equals(expected)
        # The parent's mask was computed on the way, so the full-frame
        # pass for the same filter starts from a hit.
        hits_before = computation_cache.stats()["hits"]
        ex.apply_filters(frame, filters)
        assert computation_cache.stats()["hits"] == hits_before + 1

    def test_derived_factorize_consistent(self):
        frame, sample = self._linked_pair()
        codes, labels = computation_cache.factorize(sample, "d")
        raw = [None if c < 0 else labels[c] for c in codes]
        assert raw == sample.column("d").to_list()

    def test_parent_mutation_stops_derivation(self):
        frame, sample = self._linked_pair()
        frame["q"] = np.zeros(len(frame))
        # The link is version-guarded: primitives fall back to direct
        # computation on the (pre-mutation) sample rows.
        derived = computation_cache.to_float(sample, "q")
        np.testing.assert_array_equal(derived, sample.column("q").to_float())

    def test_derived_grouping_identical_and_prewarms(self):
        """Sample groupings are sliced from the parent's, bit-identically."""
        from repro.dataframe.groupby import _Grouping

        config.sampling_start = 100
        config.sampling_cap = 500
        rng = np.random.default_rng(3)
        frame = DataFrame({
            "q": rng.normal(0, 1, 5_000),
            "d": rng.choice(["a", "b", "c"], 5_000).tolist(),
            "e": rng.choice(["x", "y", "z", "w"], 5_000).tolist(),
        })
        sample = get_sample(frame)
        for keys in [("d",), ("e",), ("d", "e")]:
            derived = computation_cache.grouping(sample, keys)
            direct = _Grouping(
                sample,
                keys,
                factorize=lambda name: computation_cache.factorize(sample, name),
            )
            np.testing.assert_array_equal(derived.group_ids, direct.group_ids)
            np.testing.assert_array_equal(derived.valid, direct.valid)
            assert derived.key_values == direct.key_values
            assert derived.n_groups == direct.n_groups
        # Deriving built the parent's grouping on the way: the exact pass
        # (pass 2, on the full frame) starts from a hit.
        hits_before = computation_cache.stats()["hits"]
        computation_cache.grouping(frame, ("d", "e"))
        assert computation_cache.stats()["hits"] == hits_before + 1

    def test_derived_grouping_after_parent_mutation_falls_back(self):
        frame, sample = self._linked_pair()
        frame["q"] = np.zeros(len(frame))
        derived = computation_cache.grouping(sample, ("d",))
        from repro.dataframe.groupby import _Grouping

        direct = _Grouping(sample, ("d",))
        np.testing.assert_array_equal(derived.group_ids, direct.group_ids)
        assert derived.key_values == direct.key_values

    def test_sample_results_match_unlinked_execution(self):
        frame, sample = self._linked_pair()
        spec = VisSpec("histogram", [
            Encoding("x", "q", "quantitative", bin=True, bin_size=10),
            Encoding("y", "", "quantitative", aggregate="count"),
        ])
        got = DataFrameExecutor().execute(spec, sample)
        config.computation_cache = False
        spec2 = VisSpec(spec.mark, spec.encodings)
        expected = DataFrameExecutor().execute(spec2, sample)
        assert got == expected


class TestSQLConnectionCache:
    def test_connection_reused_per_version(self, employees):
        ex = SQLExecutor()
        assert ex._connection(employees) is ex._connection(employees)

    def test_mutation_rebuilds_connection(self, employees):
        ex = SQLExecutor()
        first = ex._connection(employees)
        employees["Age"] = np.asarray(employees["Age"].to_list()) + 1.0
        second = ex._connection(employees)
        assert second is not first

    def test_connection_dropped_when_frame_collected(self):
        from repro.core.executor import sql_exec

        ex = SQLExecutor()
        frame = DataFrame({"a": [1.0, 2.0, 3.0]})
        ex._connection(frame)
        key = id(frame)
        assert key in sql_exec._CONN_CACHE
        del frame
        gc.collect()
        assert key not in sql_exec._CONN_CACHE


class TestGroupByCachedConversion:
    def test_measure_conversion_routed_through_cache(self, employees):
        spec = VisSpec("bar", [
            Encoding("y", "Education", "nominal"),
            Encoding("x", "MonthlyIncome", "quantitative", aggregate="mean"),
        ])
        DataFrameExecutor().execute(spec, employees)
        slot = computation_cache._slot(employees)
        assert "MonthlyIncome" in slot.floats

    def test_cached_conversion_identical_to_direct(self, employees):
        spec = VisSpec("bar", [
            Encoding("y", "Department", "nominal"),
            Encoding("x", "HourlyRate", "quantitative", aggregate="sum"),
        ])
        got = DataFrameExecutor().execute(spec, employees)
        config.computation_cache = False
        spec2 = VisSpec(spec.mark, spec.encodings)
        expected = DataFrameExecutor().execute(spec2, employees)
        assert got == expected


class TestStreamingCompletion:
    def test_duplicate_action_names_complete(self, employees):
        """Regression: two actions sharing a name must not hang wait()."""
        from repro.core.actions.base import Action

        class Named(Action):
            name = "Twin"

            def applies_to(self, ldf):
                return True

            def candidates(self, ldf):
                return []

        config.streaming = True
        result = run_actions([Named(), Named(), Named()], employees, employees.metadata)
        assert result.wait(timeout=10.0), "RecommendationSet never completed"
        assert "Twin" in result.keys()

    def test_duplicate_names_synchronous(self, employees):
        from repro.core.actions.base import Action

        class Named(Action):
            name = "Twin"

            def applies_to(self, ldf):
                return True

            def candidates(self, ldf):
                return []

        config.streaming = False
        result = run_actions([Named(), Named()], employees, employees.metadata)
        assert result.wait(timeout=1.0)
        assert len(result) == 1


class TestSampleInvalidation:
    def test_plain_frame_sample_refreshes_after_inplace_mutation(self):
        """Regression: same-length mutation must not reuse a stale sample."""
        n = 5_000
        config.sampling_start = 100
        config.sampling_cap = 500
        frame = DataFrame({"v": np.zeros(n)})
        first = get_sample(frame)
        assert float(np.asarray(first["v"].to_list()).sum()) == 0.0
        frame["v"] = np.ones(n)  # same length: the old cap check passed
        second = get_sample(frame)
        assert second is not first
        assert float(np.asarray(second["v"].to_list()).sum()) == len(second)

    def test_lux_frame_sample_still_cached_until_mutation(self):
        n = 5_000
        config.sampling_start = 100
        config.sampling_cap = 500
        frame = LuxDataFrame({"v": np.arange(n, dtype=float)})
        assert get_sample(frame) is get_sample(frame)


class TestHeatmapBins:
    def _spec(self, bx: int, by: int) -> VisSpec:
        return VisSpec("rect", [
            Encoding("x", "Age", "quantitative", bin_size=bx),
            Encoding("y", "MonthlyIncome", "quantitative", bin_size=by),
            Encoding("color", "", "quantitative", aggregate="count"),
        ])

    def test_explicit_small_bins_honored(self, employees):
        """Regression: bin_size below the default was silently overridden."""
        records = DataFrameExecutor().execute(self._spec(4, 4), employees)
        assert 0 < len({r["Age"] for r in records}) <= 4
        assert 0 < len({r["MonthlyIncome"] for r in records}) <= 4
        assert sum(r["count"] for r in records) == len(employees)

    def test_per_axis_bin_sizes(self, employees):
        records = DataFrameExecutor().execute(self._spec(3, 12), employees)
        assert len({r["Age"] for r in records}) <= 3
        assert len({r["MonthlyIncome"] for r in records}) > 3

    def test_unset_bin_size_follows_config_default(self, employees):
        """Encodings without an explicit bin_size track the config knob."""
        config.default_bin_size = 5
        records = DataFrameExecutor().execute(self._spec(0, 0), employees)
        assert 0 < len({r["Age"] for r in records}) <= 5
        config.default_bin_size = 15
        spec = self._spec(0, 0)
        records = DataFrameExecutor().execute(spec, employees)
        assert len({r["Age"] for r in records}) > 5


class TestRankingUsesBatch:
    def test_rank_candidates_display_data_exact(self, employees):
        from repro.core.optimizer.sampling import rank_candidates

        meta = compute_metadata(employees)
        cands = compile_intent(
            parse_intent(["?", "Education"]), meta
        ) + compile_intent(parse_intent(["?"]), meta)
        out = rank_candidates(cands, employees, k=5)
        assert len(out) > 0
        assert all(v.data is not None for v in out)


class TestDeltaAwareInvalidation:
    """Column-level deltas migrate a slot instead of wiping it.

    A LuxDataFrame mutation that names its changed columns (and leaves
    the row set intact) must keep cached primitives for untouched
    columns valid across the ``_data_version`` bump; everything reading
    a changed column must go.
    """

    def _frame(self) -> LuxDataFrame:
        n = 200
        return LuxDataFrame({
            "a": np.arange(n, dtype=float),
            "b": np.arange(n, dtype=float) * 2,
            "g": (["x", "y"] * (n // 2)),
            "h": (["p", "q", "r", "s"] * (n // 4)),
        })

    def test_untouched_columns_survive_single_column_mutation(self):
        frame = self._frame()
        fa = computation_cache.to_float(frame, "a")
        fb = computation_cache.to_float(frame, "b")
        codes_g, _ = computation_cache.factorize(frame, "g")
        grouping_g = computation_cache.grouping(frame, ("g",))
        edges_a = computation_cache.bin_edges(frame, "a", 10)
        frame["b"] = frame["b"] * 3  # delta: columns_changed == {"b"}
        assert computation_cache.to_float(frame, "a") is fa
        assert computation_cache.factorize(frame, "g")[0] is codes_g
        assert computation_cache.grouping(frame, ("g",)) is grouping_g
        assert computation_cache.bin_edges(frame, "a", 10) is edges_a
        fresh_b = computation_cache.to_float(frame, "b")
        assert fresh_b is not fb
        assert float(fresh_b[1]) == 6.0  # recomputed from the new values

    def test_grouping_with_changed_key_is_dropped(self):
        frame = self._frame()
        grouping_gh = computation_cache.grouping(frame, ("g", "h"))
        grouping_g = computation_cache.grouping(frame, ("g",))
        frame["h"] = frame["h"].to_list()[::-1]
        assert computation_cache.grouping(frame, ("g",)) is grouping_g
        assert computation_cache.grouping(frame, ("g", "h")) is not grouping_gh

    def test_masks_keyed_on_changed_filter_column_are_dropped(self):
        frame = self._frame()
        ex = DataFrameExecutor()
        ex.apply_filters(frame, [("g", "=", "x")])
        ex.apply_filters(frame, [("h", "=", "p")])
        assert computation_cache.stats()["masks"] == 2
        frame["g"] = frame["g"].to_list()[::-1]
        # Only the g-mask went; the h-mask survived the bump.
        assert computation_cache.stats()["masks"] == 1
        sub = ex.apply_filters(frame, [("h", "=", "p")])
        assert len(sub) == 50

    def test_row_level_mutation_drops_whole_slot(self):
        frame = self._frame()
        computation_cache.to_float(frame, "a")
        computation_cache.grouping(frame, ("g",))
        assert computation_cache.stats()["frames"] == 1
        frame.dropna(inplace=True)  # rows_changed: no migration possible
        assert computation_cache.stats()["bytes"] == 0 or (
            computation_cache.stats()["floats"] == 0
            and computation_cache.stats()["groupings"] == 0
        )

    def test_migration_keeps_byte_accounting_exact(self):
        frame = self._frame()
        computation_cache.to_float(frame, "a")
        computation_cache.to_float(frame, "b")
        before = computation_cache.stats()["bytes"]
        frame["b"] = frame["b"] * 2
        after = computation_cache.stats()["bytes"]
        assert after == before - 200 * 8  # exactly b's float64 view

    def test_plain_frame_still_fully_invalidated_by_version(self):
        """Substrate frames have no expiry hook: version keying rules."""
        frame = DataFrame({"a": np.arange(10.0), "b": np.arange(10.0)})
        fa = computation_cache.to_float(frame, "a")
        frame["b"] = np.arange(10.0) * 3
        assert computation_cache.to_float(frame, "a") is not fa

    def test_delta_correctness_through_executor(self):
        """End to end: a group-by over the unchanged key after a measure
        mutation reuses the grouping yet aggregates the new values."""
        frame = self._frame()
        ex = DataFrameExecutor()
        spec = VisSpec("bar", [
            Encoding("y", "g", "nominal"),
            Encoding("x", "a", "quantitative", aggregate="mean"),
        ])
        before = ex.execute(spec, frame)
        grouping_g = computation_cache.grouping(frame, ("g",))
        frame["a"] = np.asarray(frame["a"].to_list()) + 100.0
        assert computation_cache.grouping(frame, ("g",)) is grouping_g
        spec.data = None
        after = ex.execute(spec, frame)
        for r_before, r_after in zip(before, after):
            assert r_after["a"] == pytest.approx(r_before["a"] + 100.0)
