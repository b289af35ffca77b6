"""Unit tests for the visualization layer: encodings, marks, specs, renderers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import LuxDataFrame
from repro.dataframe import DataFrame
from repro.vis import (
    ColumnTable,
    Encoding,
    VisSpec,
    infer_mark,
    render_widget,
    to_altair_code,
    to_matplotlib_code,
    to_vegalite,
)


def rows(records: list) -> ColumnTable:
    """A table of the row dicts' columns, as a frame would type them."""
    return ColumnTable.from_frame(DataFrame(records))


class TestEncoding:
    def test_basic(self):
        e = Encoding("x", "Age", "quantitative")
        assert e.title == "Age"

    def test_aggregate_title(self):
        e = Encoding("x", "Age", "quantitative", aggregate="mean")
        assert e.title == "Mean of Age"

    def test_count_title(self):
        e = Encoding("y", "", "quantitative", aggregate="count")
        assert e.title == "Record Count"

    def test_bin_title(self):
        e = Encoding("x", "Age", "quantitative", bin=True)
        assert "binned" in e.title

    def test_bad_channel(self):
        with pytest.raises(ValueError):
            Encoding("z-axis", "Age", "quantitative")

    def test_bad_field_type(self):
        with pytest.raises(ValueError):
            Encoding("x", "Age", "numeric")

    def test_with_channel(self):
        e = Encoding("x", "Age", "quantitative").with_channel("y")
        assert e.channel == "y"

    def test_vegalite_dict(self):
        e = Encoding("x", "Age", "quantitative", bin=True, bin_size=20)
        d = e.to_vegalite()
        assert d["field"] == "Age"
        assert d["bin"] == {"maxbins": 20}

    def test_vegalite_geographic_maps_to_nominal(self):
        d = Encoding("x", "Country", "geographic").to_vegalite()
        assert d["type"] == "nominal"

    def test_vegalite_bare_count(self):
        d = Encoding("y", "", "quantitative", aggregate="count").to_vegalite()
        assert d["aggregate"] == "count"
        assert "field" not in d

    def test_frozen(self):
        e = Encoding("x", "Age", "quantitative")
        with pytest.raises(AttributeError):
            e.field = "Other"


class TestInferMark:
    @pytest.mark.parametrize(
        "x,y,binned,expected",
        [
            ("quantitative", None, True, "histogram"),
            ("nominal", None, False, "bar"),
            ("temporal", None, False, "line"),
            ("geographic", None, False, "geoshape"),
            ("quantitative", "quantitative", False, "point"),
            ("nominal", "quantitative", False, "bar"),
            ("temporal", "quantitative", False, "line"),
            ("nominal", "nominal", False, "rect"),
            ("quantitative", "quantitative", True, "rect"),
        ],
    )
    def test_rules(self, x, y, binned, expected):
        assert infer_mark(x, y, binned) == expected


class TestVisSpec:
    def _scatter(self) -> VisSpec:
        return VisSpec(
            "point",
            [
                Encoding("x", "A", "quantitative"),
                Encoding("y", "B", "quantitative"),
            ],
        )

    def test_channel_access(self):
        s = self._scatter()
        assert s.x.field == "A"
        assert s.y.field == "B"
        assert s.color is None

    def test_default_title(self):
        assert self._scatter().title == "A vs B"

    def test_title_with_filter(self):
        s = VisSpec(
            "histogram",
            [Encoding("x", "Age", "quantitative", bin=True)],
            filters=[("Dept", "=", "Sales")],
        )
        assert "Dept = Sales" in s.title

    def test_unknown_mark(self):
        with pytest.raises(ValueError):
            VisSpec("pie", [])

    def test_signature_deduplicates(self):
        assert self._scatter().signature() == self._scatter().signature()

    def test_signature_differs_on_filters(self):
        a = self._scatter()
        b = VisSpec("point", a.encodings, filters=[("C", ">", 1)])
        assert a.signature() != b.signature()

    def test_fields(self):
        assert self._scatter().fields() == ["A", "B"]

    def test_repr_state(self):
        s = self._scatter()
        assert "unprocessed" in repr(s)
        s.data = ColumnTable()
        assert "processed" in repr(s)


class TestVegaLite:
    def test_schema_and_encoding(self):
        s = VisSpec(
            "bar",
            [
                Encoding("y", "Dept", "nominal"),
                Encoding("x", "Age", "quantitative", aggregate="mean"),
            ],
        )
        d = to_vegalite(s)
        assert d["$schema"].endswith("v5.json")
        assert d["mark"] == "bar"
        assert d["encoding"]["x"]["aggregate"] == "mean"

    def test_inline_data_json_safe(self):
        import numpy as np

        s = VisSpec("point", [Encoding("x", "A", "quantitative")])
        s.data = rows([{"A": np.float64(1.5)}, {"A": np.float64("nan")}])
        d = to_vegalite(s)
        assert d["data"]["values"][0]["A"] == 1.5
        assert d["data"]["values"][1]["A"] is None
        json.dumps(d)  # must be serializable

    def test_unprocessed_uses_named_data(self):
        d = to_vegalite(VisSpec("point", [Encoding("x", "A", "quantitative")]))
        assert d["data"] == {"name": "table"}

    def test_filters_become_transforms(self):
        s = VisSpec(
            "point",
            [Encoding("x", "A", "quantitative")],
            filters=[("Dept", "=", "Sales"), ("Age", ">", 30)],
        )
        d = to_vegalite(s)
        assert d["transform"][0]["filter"] == "datum['Dept'] == 'Sales'"
        assert d["transform"][1]["filter"] == "datum['Age'] > 30"


class TestAsciiRenderer:
    def test_unprocessed_placeholder(self):
        s = VisSpec("point", [Encoding("x", "A", "quantitative")])
        assert "unprocessed" in s.to_ascii()

    def test_empty_data(self):
        s = VisSpec("point", [Encoding("x", "A", "quantitative")])
        s.data = ColumnTable()
        assert "no data" in s.to_ascii()

    def test_bar_renders_bars(self):
        s = VisSpec(
            "bar",
            [
                Encoding("y", "Dept", "nominal"),
                Encoding("x", "Age", "quantitative", aggregate="mean"),
            ],
        )
        s.data = rows(
            [{"Dept": "a", "Age": 10.0}, {"Dept": "b", "Age": 20.0}]
        )
        out = s.to_ascii()
        assert "█" in out
        assert "a" in out and "b" in out

    def test_histogram_renders(self):
        s = VisSpec(
            "histogram",
            [
                Encoding("x", "Age", "quantitative", bin=True),
                Encoding("y", "", "quantitative", aggregate="count"),
            ],
        )
        s.data = rows([{"Age": 10.0, "count": 5}, {"Age": 20.0, "count": 2}])
        assert "█" in s.to_ascii()

    def test_scatter_renders_grid(self):
        s = VisSpec(
            "point",
            [
                Encoding("x", "A", "quantitative"),
                Encoding("y", "B", "quantitative"),
            ],
        )
        s.data = rows([{"A": float(i), "B": float(i)} for i in range(10)])
        out = s.to_ascii()
        assert "•" in out
        assert "x: [" in out

    def test_heatmap_renders_shades(self):
        s = VisSpec(
            "rect",
            [
                Encoding("x", "A", "nominal"),
                Encoding("y", "B", "nominal"),
                Encoding("color", "", "quantitative", aggregate="count"),
            ],
        )
        s.data = rows([
            {"A": "p", "B": "q", "count": 9},
            {"A": "r", "B": "q", "count": 1},
        ])
        out = s.to_ascii()
        assert "█" in out

    def test_line_renders(self):
        s = VisSpec(
            "line",
            [
                Encoding("x", "t", "temporal"),
                Encoding("y", "v", "quantitative", aggregate="mean"),
            ],
        )
        s.data = rows(
            [{"t": "2020-01", "v": 1.0}, {"t": "2020-02", "v": 3.0}]
        )
        assert "*" in s.to_ascii()


class TestCodeExport:
    def _bar(self) -> VisSpec:
        return VisSpec(
            "bar",
            [
                Encoding("y", "Education", "nominal"),
                Encoding("x", "Age", "quantitative", aggregate="mean"),
            ],
        )

    def test_altair_code_compiles(self):
        code = to_altair_code(self._bar())
        compile(code, "<altair>", "exec")
        assert "mark_bar()" in code
        assert "mean(Age):Q" in code

    def test_matplotlib_code_compiles(self):
        code = to_matplotlib_code(self._bar())
        compile(code, "<mpl>", "exec")
        assert "plt.barh" in code
        assert "groupby('Education')" in code

    def test_matplotlib_histogram(self):
        s = VisSpec(
            "histogram",
            [
                Encoding("x", "Age", "quantitative", bin=True),
                Encoding("y", "", "quantitative", aggregate="count"),
            ],
        )
        code = to_matplotlib_code(s)
        assert "plt.hist" in code

    def test_matplotlib_scatter_with_color(self):
        s = VisSpec(
            "point",
            [
                Encoding("x", "A", "quantitative"),
                Encoding("y", "B", "quantitative"),
                Encoding("color", "G", "nominal"),
            ],
        )
        code = to_matplotlib_code(s)
        assert "plt.scatter" in code and "cmap" in code

    def test_filters_exported(self):
        s = VisSpec(
            "histogram",
            [Encoding("x", "Age", "quantitative", bin=True)],
            filters=[("Dept", "=", "Sales")],
        )
        assert "df['Dept'] == 'Sales'" in to_matplotlib_code(s)
        assert "df['Dept'] == 'Sales'" in to_altair_code(s)


class TestHtmlWidget:
    def test_widget_structure(self):
        s = VisSpec("point", [Encoding("x", "A", "quantitative")])
        s.data = rows([{"A": 1.0}])
        html = render_widget(
            {"Correlation": [s]},
            table_records=[{"A": 1.0}],
            table_columns=["A"],
        )
        assert "Toggle Pandas/Lux" in html
        assert "Correlation" in html
        assert "vega-lite" in html
        assert "vis-Correlation-0" in html

    def test_widget_escapes_html(self):
        s = VisSpec("point", [Encoding("x", "A", "quantitative")])
        s.data = ColumnTable()
        html = render_widget(
            {"T": [s]},
            table_records=[{"A": "<script>alert(1)</script>"}],
            table_columns=["A"],
        )
        assert "<script>alert(1)</script>" not in html


class TestExportedScripts:
    """A data value cannot close the ``<script>`` block the specs sit in."""

    EVIL = "</script><script>alert(1)</script>"

    @staticmethod
    def export(label: str, kind: str, path) -> tuple[str, list]:
        frame = LuxDataFrame({"cat": [label, "b", "c"] * 20, "q": np.arange(60.0)})
        recs = frame.recommendations
        if kind == "widget":
            frame.save_as_html(str(path))
            charts = [spec for name in recs.keys() for spec in recs[name].specs()]
        else:
            frame.to_report(str(path))
            charts = [
                vis.spec
                for name in recs.keys()
                for vis in list(recs[name])[:4]
                if vis.spec is not None
            ]
        return path.read_text(encoding="utf-8"), [to_vegalite(c) for c in charts]

    @pytest.mark.parametrize("kind", ["widget", "report"])
    def test_values_stay_inside_the_script_block(self, kind, tmp_path):
        clean, _ = self.export("a", kind, tmp_path / "clean.html")
        html, expected = self.export(self.EVIL, kind, tmp_path / "evil.html")
        for tag in ("<script", "</script>"):
            assert html.count(tag) == clean.count(tag)
        embedded = html.split("const SPECS = ", 1)[1].split(";\n", 1)[0]
        specs = list(json.loads(embedded).values())
        assert specs == expected
        assert self.EVIL in json.dumps(specs)
