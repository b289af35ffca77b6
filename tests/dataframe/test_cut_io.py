"""Unit tests for cut/qcut and CSV I/O."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series, cut, qcut, read_csv, read_csv_string, to_csv


class TestCut:
    def test_fixed_bins_count(self):
        out = cut(Series([0.0, 2.5, 5.0, 7.5, 10.0]), 2)
        assert out.nunique() == 2

    def test_labels(self):
        out = cut(Series([1.0, 9.0]), 2, labels=["lo", "hi"])
        assert out.to_list() == ["lo", "hi"]

    def test_explicit_edges(self):
        out = cut(Series([1.0, 5.0, 9.0]), [0, 3, 10], labels=["a", "b"])
        assert out.to_list() == ["a", "b", "b"]

    def test_out_of_range_is_missing(self):
        out = cut(Series([5.0, 100.0]), [0, 10], labels=["in"])
        assert out.to_list() == ["in", None]

    def test_missing_propagates(self):
        out = cut(Series([1.0, None]), 2)
        assert out.to_list()[1] is None

    def test_include_lowest(self):
        out = cut(Series([0.0, 10.0]), [0, 5, 10], labels=["a", "b"])
        assert out.to_list() == ["a", "b"]

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            cut(Series([1.0]), 2, labels=["only-one"])

    def test_non_monotone_edges_raise(self):
        with pytest.raises(ValueError):
            cut(Series([1.0]), [0, 5, 3])

    def test_interval_labels_format(self):
        out = cut(Series([1.0, 9.0]), 2)
        assert "(" in out.to_list()[1] and "]" in out.to_list()[1]

    def test_constant_column(self):
        out = cut(Series([5.0, 5.0]), 2)
        assert out.null_count() if hasattr(out, "null_count") else out.to_list()
        assert all(v is not None for v in out.to_list())


class TestQcut:
    def test_balanced_halves(self):
        out = qcut(Series(list(range(100))), 2, labels=["Low", "High"])
        counts = out.value_counts().to_list()
        assert counts == [50, 50]

    def test_paper_stringency_binning(self):
        # §3 step III: qcut(stringency, 2, labels=["Low","High"]).
        rng = np.random.default_rng(0)
        s = Series(np.round(rng.gamma(1.6, 9.0, 200), 1))
        out = qcut(s, 2, labels=["Low", "High"])
        assert set(out.unique()) == {"Low", "High"}

    def test_quantile_list(self):
        out = qcut(Series(list(range(10))), [0, 0.5, 1.0], labels=["a", "b"])
        assert out.to_list()[0] == "a"
        assert out.to_list()[-1] == "b"

    def test_all_identical_raises(self):
        with pytest.raises(ValueError):
            qcut(Series([1.0, 1.0, 1.0]), 2)

    def test_missing_propagates(self):
        out = qcut(Series([1.0, 2.0, 3.0, None]), 2)
        assert out.to_list()[3] is None

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            qcut(Series([], dtype="float64"), 2)


class TestReadCsv:
    def test_type_inference(self):
        df = read_csv_string("a,b,c\n1,1.5,x\n2,2.5,y")
        assert df.column("a").dtype.name == "int64"
        assert df.column("b").dtype.name == "float64"
        assert df.column("c").dtype.name == "string"

    def test_missing_markers(self):
        df = read_csv_string("a,b\n1,x\nNA,\nnan,z")
        assert df["a"].to_list() == [1.0, None, None]
        assert df["b"].to_list() == ["x", None, "z"]

    def test_int_with_missing_becomes_float(self):
        df = read_csv_string("a\n1\nNA\n3")
        assert df.column("a").dtype.name == "float64"

    def test_blank_lines_skipped(self):
        df = read_csv_string("a\n1\n\n3")
        assert df["a"].to_list() == [1, 3]

    def test_date_parsing(self):
        df = read_csv_string("d\n2020-01-01\n2020-02-02")
        assert df.column("d").dtype.name == "datetime"

    def test_date_parsing_disabled(self):
        df = read_csv_string("d\n2020-01-01\n2020-02-02", parse_dates=False)
        assert df.column("d").dtype.name == "string"

    def test_mixed_dates_stay_string(self):
        df = read_csv_string("d\n2020-01-01\nnot-a-date")
        assert df.column("d").dtype.name == "string"

    def test_duplicate_headers_deduped(self):
        df = read_csv_string("a,a\n1,2")
        assert df.columns == ["a", "a.1"]

    def test_short_rows_padded(self):
        df = read_csv_string("a,b\n1")
        assert df["b"].to_list() == [None]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            read_csv_string("")

    @pytest.mark.parametrize(
        "text, line",
        [("a,b\n1,2\n3,4,5", 3), ("a,b\n1," + "x" * 131_073, 2)],
        ids=["long-row", "huge-field"],
    )
    def test_malformed_rows_raise_naming_the_line(self, text, line):
        # A longer row must not lose its extra cells silently, and the csv
        # module's field-size error must not escape as csv.Error.
        with pytest.raises(ValueError, match=f"CSV line {line}: "):
            read_csv_string(text)

    def test_file_roundtrip(self, tmp_path):
        df = DataFrame({"x": [1, 2], "y": ["a", None]})
        path = str(tmp_path / "t.csv")
        to_csv(df, path)
        back = read_csv(path)
        assert back["x"].to_list() == [1, 2]
        assert back["y"].to_list() == ["a", None]

    def test_to_csv_buffer(self):
        buf = io.StringIO()
        to_csv(DataFrame({"x": [1]}), buf)
        assert buf.getvalue().strip().splitlines() == ["x", "1"]

    def test_frame_cls_override(self):
        from repro import LuxDataFrame

        df = read_csv_string("a\n1")
        assert not isinstance(df, LuxDataFrame)
        df2 = read_csv(io.StringIO("a\n1"), frame_cls=LuxDataFrame)
        assert isinstance(df2, LuxDataFrame)
