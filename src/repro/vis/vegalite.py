"""VisSpec -> Vega-Lite v5 JSON, written straight from the spec's columns.

:func:`spec_payload` is the one writer.  It writes a spec's service payload
(summary fields, score, and the vega-lite spec with its data inline) as
the bytes ``json.dumps`` gives for the same values.  The inline
``data.values`` come from the spec's :class:`~repro.vis.table.ColumnTable`
column by column: each column is converted to Python scalars once
(``tolist``) and formatted as JSON tokens, missing and non-finite cells
become ``null``, and the separators and each column's tokens are
slice-assigned into one list that is joined once, so no row dict is
built.  The small rest of the spec (title, encodings, filters) is
plain-typed by :func:`json_safe` and encoded by ``json.dumps``.
Non-finite floats are written as ``null`` everywhere, since RFC 8259 JSON
has no ``NaN`` or ``Infinity``.

A spec written with the frame its pass ran on takes the tokens of that
frame's columns from the computation cache
(:meth:`~repro.core.executor.cache.ComputationCache.tokens`).  The
dataframe executor hands a frame's own ``Column`` objects to its scatter
tables, so each Correlation scatter shows two of the frame's measure
columns: a column the table holds under its name in the frame, as that
very object, is formatted once per column version and shared by every
spec and pass that shows it.  Every other column (aggregates, filtered or
sampled subsets, a column the frame has since replaced) is formatted
where it is written, and so is every column of a spec written without a
frame or with the cache off.

:func:`to_vegalite` is ``json.loads`` of the writer's vega-lite text, so a
notebook or HTML rendering holds exactly the values the service serves.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from json.encoder import encode_basestring_ascii as _json_string
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..core.executor.cache import computation_cache
from ..dataframe.column import Column
from ..dataframe.dtypes import BOOL, DATETIME, FLOAT64, INT64
from .spec import VisSpec, candidate_key
from .table import ColumnTable

if TYPE_CHECKING:  # pragma: no cover
    from ..dataframe import DataFrame

__all__ = ["to_vegalite", "json_safe", "spec_payload"]

_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Types :func:`json_safe` returns as they are.
_PLAIN = (str, int, bool, type(None))


def spec_payload(
    spec: VisSpec,
    score: float | None = None,
    frame: "DataFrame | None" = None,
    key: str | None = None,
) -> bytes:
    """The service's wire bytes for one recommended visualization.

    Everything the API needs to render and rank: the vega-lite spec (data
    inline), the interestingness score, and enough summary fields (mark,
    title, fields, filters) for clients that only list recommendations
    without rendering them.  ``key`` is the stable candidate identity
    (:func:`~repro.vis.spec.candidate_key`) that per-vis provenance maps
    are keyed on; it is a pure function of the spec's signature, so the
    foreground and background paths emit identical keys; a caller that
    already computed it passes it as ``key``.  ``frame`` is the frame
    the spec's pass ran on: the tokens of its columns come from the
    computation cache.  The bytes are the same with or without it.
    """
    head = {
        "key": candidate_key(spec) if key is None else key,
        "title": spec.title,
        "mark": spec.mark,
        "fields": spec.fields(),
        "filters": json_safe([list(f) for f in spec.filters]),
        "score": None if score is None else json_safe(round(float(score), 6)),
    }
    vegalite = _vegalite_json(spec, frame)
    text = json.dumps(head)[:-1] + ', "vegalite": ' + vegalite + "}"
    return text.encode("utf-8")


def to_vegalite(spec: VisSpec) -> dict[str, Any]:
    """The Vega-Lite spec dict; processed data is embedded inline."""
    return json.loads(_vegalite_json(spec, None))


def json_safe(value: Any) -> Any:
    """Deep-convert ``value`` into plain JSON types (dicts/lists walked).

    numpy scalars become Python scalars, dates ISO strings, and NaN or
    infinite floats ``None``.  Used on a spec's small parts only; data
    cells go through the column writer.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.datetime64):
        return str(value.astype("datetime64[s]"))
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    return value


# ----------------------------------------------------------------------
def _vegalite_json(spec: VisSpec, frame: "DataFrame | None") -> str:
    """The vega-lite spec as JSON text, key order as ``json.dumps`` writes it."""
    mark: Any = {"bar": "bar", "histogram": "bar"}.get(spec.mark, spec.mark)
    if spec.mark == "point":
        mark = {"type": "point", "filled": True, "opacity": 0.7}
    if spec.mark == "geoshape":
        mark = {"type": "geoshape"}
    head = {
        "$schema": _SCHEMA,
        "title": spec.title,
        "mark": mark,
        "encoding": {enc.channel: enc.to_vegalite() for enc in spec.encodings},
    }
    if spec.data is None:
        data = '{"name": "table"}'
    else:
        data = '{"values": ' + _values_json(spec.data, frame) + "}"
    text = json.dumps(json_safe(head))[:-1] + ', "data": ' + data
    if spec.filters:
        transform = [{"filter": _filter_expr(*f)} for f in spec.filters]
        text += ', "transform": ' + json.dumps(transform)
    return text + "}"


def _values_json(table: ColumnTable, frame: "DataFrame | None") -> str:
    """The rows of ``table`` as a JSON array of objects.

    One list holds each row's separators and tokens in order.  Each
    column's separator and tokens are slice-assigned into it, and it is
    joined once.
    """
    rows = len(table)
    if not rows:
        return "[]"
    width = 2 * len(table.columns)
    parts: list[str] = [""] * (width * rows)
    for at, (name, col) in enumerate(table.columns.items()):
        key = _json_string(name) + ": "
        parts[2 * at :: width] = [(", " if at else "}, {") + key] * rows
        parts[2 * at + 1 :: width] = _column_tokens(name, col, frame)
        if not at:
            parts[0] = "[{" + key
    return "".join(parts) + "}]"


def _column_tokens(name: str, col: Column, frame: "DataFrame | None") -> Sequence[str]:
    """``col``'s tokens: from the cache when ``col`` is ``frame``'s column ``name``."""
    if frame is not None:
        try:
            shown = frame.column(name)
        except KeyError:
            shown = None
        if shown is col:
            return computation_cache.tokens(frame, name, _tokens)
    return _tokens(col)


def _tokens(col: Column) -> list[str]:
    """Each cell as a JSON token; missing and non-finite cells are ``null``."""
    values, missing, kind = col.values, col.mask, col.dtype
    if kind is not DATETIME:  # the storage the dtype promises, as Column.to_list reads it
        values = values.astype(kind.numpy_dtype, copy=False)
    if kind is FLOAT64:
        missing = missing | ~np.isfinite(values)
    gaps = bool(missing.any())
    if gaps:
        values = values[~missing]
    if kind is FLOAT64:
        tokens = list(map(float.__repr__, values.tolist()))
    elif kind is INT64:
        tokens = list(map(int.__repr__, values.tolist()))
    elif kind is BOOL:
        tokens = np.where(values, "true", "false").tolist()
    elif kind is DATETIME:
        text = values.astype("datetime64[s]").astype(str).tolist()
        tokens = list(map(_json_string, text))
    else:
        tokens = list(map(_json_string, values.tolist()))
    if not gaps:
        return tokens
    out = np.full(len(col), "null", dtype=object)
    out[~missing] = tokens
    return out.tolist()


def _js_string(text: str) -> str:
    """``text`` as a single-quoted Vega expression string literal."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _filter_expr(attr: str, op: str, value: Any) -> str:
    literal = _js_string(value) if isinstance(value, str) else repr(value)
    js_op = {"=": "==", "!=": "!=", ">": ">", "<": "<", ">=": ">=", "<=": "<="}[op]
    return f"datum[{_js_string(attr)}] {js_op} {literal}"
