"""Unit tests for the execution engines (Table 2) and df/SQL parity."""

from __future__ import annotations

import pytest

from repro import Clause, Vis, config
from repro.core.compiler import compile_intent
from repro.core.errors import ExecutorError
from repro.core.executor.base import get_executor
from repro.core.executor.df_exec import DataFrameExecutor
from repro.core.executor.sql_exec import SQLExecutor, translate_vis_to_sql
from repro.core.intent import parse_intent
from repro.core.metadata import compute_metadata


def _spec(intent, frame):
    out = compile_intent(parse_intent(intent), compute_metadata(frame))
    assert len(out) == 1
    return out[0].spec


class TestDataFrameExecutor:
    def test_histogram_bins_and_counts(self, employees):
        spec = _spec(["Age"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        assert len(records) == config.default_bin_size
        assert sum(r["count"] for r in records) == len(employees)

    def test_bar_groupby_mean(self, employees):
        spec = _spec(["Age", "Education"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        got = {r["Education"]: r["Age"] for r in records}
        for level in got:
            sub = employees[employees["Education"] == level]
            assert got[level] == pytest.approx(sub["Age"].mean())

    def test_count_bar(self, employees):
        spec = _spec(["Department"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        assert sum(r["count"] for r in records) == len(employees)

    def test_scatter_selection(self, employees):
        spec = _spec(["Age", "MonthlyIncome"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        assert len(records) == len(employees)
        assert set(records[0].keys()) == {"Age", "MonthlyIncome"}

    def test_scatter_sampled_beyond_cap(self, employees):
        config.max_scatter_points = 50
        spec = _spec(["Age", "MonthlyIncome"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        assert len(records) == 50

    def test_colored_bar_2d_groupby(self, employees):
        spec = _spec(["Education", "Age", "Attrition"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        keys = {(r["Education"], r["Attrition"]) for r in records}
        assert len(keys) == len(records)  # one row per group pair

    def test_heatmap_nominal(self, employees):
        spec = _spec(["Education", "Department"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        assert sum(r["count"] for r in records) == len(employees)

    def test_geo_choropleth_mean(self, employees):
        spec = _spec(["Country", "Age"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        got = {r["Country"]: r["Age"] for r in records}
        sub = employees[employees["Country"] == "Japan"]
        assert got["Japan"] == pytest.approx(sub["Age"].mean())

    def test_filters_applied(self, employees):
        spec = _spec(["Age", "Department=Sales"], employees)
        records = DataFrameExecutor().execute(spec, employees)
        n_sales = len(employees[employees["Department"] == "Sales"])
        assert sum(r["count"] for r in records) == n_sales

    @pytest.mark.parametrize("op,expected", [
        (">", lambda s, v: s > v),
        ("<", lambda s, v: s < v),
        (">=", lambda s, v: s >= v),
        ("<=", lambda s, v: s <= v),
        ("!=", lambda s, v: s != v),
    ])
    def test_filter_operators(self, employees, op, expected):
        ex = DataFrameExecutor()
        out = ex.apply_filters(employees, [("Age", op, 40)])
        assert len(out) == len(employees[expected(employees["Age"], 40)])

    def test_numeric_heatmap_2d_bins(self, employees):
        from repro.vis.encoding import Encoding
        from repro.vis.spec import VisSpec

        spec = VisSpec(
            "rect",
            [
                Encoding("x", "Age", "quantitative", bin_size=5),
                Encoding("y", "MonthlyIncome", "quantitative", bin_size=5),
                Encoding("color", "", "quantitative", aggregate="count"),
            ],
        )
        records = DataFrameExecutor().execute(spec, employees)
        assert sum(r["count"] for r in records) == len(employees)


class TestSQLExecutorParity:
    @pytest.fixture(autouse=True)
    def _seed(self, employees):
        self.df_exec = DataFrameExecutor()
        self.sql_exec = SQLExecutor()
        self.frame = employees

    def _parity(self, intent, key, value):
        spec_a = _spec(intent, self.frame)
        spec_b = _spec(intent, self.frame)
        a = self.df_exec.execute(spec_a, self.frame)
        b = self.sql_exec.execute(spec_b, self.frame)
        da = {r[key]: r[value] for r in a}
        db = {r[key]: r[value] for r in b}
        assert set(da) == set(db)
        for k in da:
            assert da[k] == pytest.approx(db[k], rel=1e-9)

    def test_bar_mean_parity(self):
        self._parity(["Age", "Education"], "Education", "Age")

    def test_count_bar_parity(self):
        self._parity(["Department"], "Department", "count")

    def test_geo_parity(self):
        self._parity(["Country", "MonthlyIncome"], "Country", "MonthlyIncome")

    def test_filtered_parity(self):
        self._parity(["Age", "Department=Sales"], "Age", "count")

    def test_heatmap_parity(self):
        spec_a = _spec(["Education", "Department"], self.frame)
        spec_b = _spec(["Education", "Department"], self.frame)
        a = self.df_exec.execute(spec_a, self.frame)
        b = self.sql_exec.execute(spec_b, self.frame)
        da = {(r["Education"], r["Department"]): r["count"] for r in a}
        db = {(r["Education"], r["Department"]): r["count"] for r in b}
        assert da == db

    def test_scatter_row_count(self):
        spec = _spec(["Age", "MonthlyIncome"], self.frame)
        records = self.sql_exec.execute(spec, self.frame)
        assert len(records) == len(self.frame)

    def test_variance_aggregate_sql(self):
        spec = _spec(
            [Clause("MonthlyIncome", aggregation="var"), "Attrition"],
            self.frame,
        )
        records = self.sql_exec.execute(spec, self.frame)
        got = {r["Attrition"]: r["MonthlyIncome"] for r in records}
        sub = self.frame[self.frame["Attrition"] == "Yes"]
        assert got["Yes"] == pytest.approx(sub["MonthlyIncome"].var(), rel=1e-9)

    def test_connection_cache_invalidated_on_mutation(self):
        spec = _spec(["Department"], self.frame)
        before = self.sql_exec.execute(spec, self.frame)
        self.frame["Department"] = ["Sales"] * len(self.frame)
        spec2 = _spec(["Department"], self.frame)
        after = self.sql_exec.execute(spec2, self.frame)
        assert len(after) == 1 and len(before) == 3


class TestSQLTranslation:
    def test_bar_sql_shape(self, employees):
        spec = _spec(["Age", "Education"], employees)
        sql = translate_vis_to_sql(spec, employees)
        assert 'GROUP BY "Education"' in sql
        assert 'AVG("Age")' in sql

    def test_filter_where_clause(self, employees):
        spec = _spec(["Age", "Education", "Department=Sales"], employees)
        sql = translate_vis_to_sql(spec, employees)
        assert "WHERE" in sql and "'Sales'" in sql

    def test_string_values_escaped(self, employees):
        from repro.core.executor.sql_compile import sql_literal

        assert sql_literal("O'Brien") == "'O''Brien'"

    def test_histogram_has_no_translation(self, employees):
        spec = _spec(["Age"], employees)
        assert spec.mark == "histogram"
        with pytest.raises(ExecutorError, match="histogram"):
            translate_vis_to_sql(spec, employees)

    def test_executor_factory(self):
        config.executor = "sql"
        assert isinstance(get_executor(), SQLExecutor)
        config.executor = "dataframe"
        assert isinstance(get_executor(), DataFrameExecutor)
        with pytest.raises(ValueError):
            get_executor("duckdb")
