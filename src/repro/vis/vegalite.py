"""VisSpec -> Vega-Lite v5 JSON dict, plus wire-safe payloads.

:func:`to_vegalite` builds the chart spec for notebook/HTML rendering,
sanitizing every inline ``data.values`` cell as it builds the rows;
:func:`spec_payload` wraps it into the fully JSON-serializable record the
recommendation service stores and serves (the rest of the spec is
deep-sanitized via :func:`json_safe`, so numpy scalars and datetimes can
never leak into a stored payload and fail at response time).
"""

from __future__ import annotations

import datetime as _dt
from typing import Any

import numpy as np

from .spec import VisSpec

__all__ = ["to_vegalite", "json_safe", "spec_payload"]

_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"


def _json_safe(value: Any) -> Any:
    if value is None:
        return None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, np.datetime64):
        return str(value.astype("datetime64[s]"))
    if isinstance(value, (_dt.date, _dt.datetime)):
        return value.isoformat()
    if isinstance(value, float) and np.isnan(value):
        return None
    return value


def to_vegalite(spec: VisSpec) -> dict[str, Any]:
    """Build the Vega-Lite spec; processed data is embedded inline."""
    encoding: dict[str, Any] = {}
    for enc in spec.encodings:
        encoding[enc.channel] = enc.to_vegalite()

    mark: Any = {"bar": "bar", "histogram": "bar"}.get(spec.mark, spec.mark)
    if spec.mark == "point":
        mark = {"type": "point", "filled": True, "opacity": 0.7}
    if spec.mark == "geoshape":
        mark = {"type": "geoshape"}

    out: dict[str, Any] = {
        "$schema": _SCHEMA,
        "title": spec.title,
        "mark": mark,
        "encoding": encoding,
    }
    if spec.data is not None:
        out["data"] = {
            "values": [
                {k: _json_safe(v) for k, v in row.items()} for row in spec.data
            ]
        }
    else:
        out["data"] = {"name": "table"}
    if spec.filters:
        out["transform"] = [
            {"filter": _filter_expr(attr, op, value)}
            for attr, op, value in spec.filters
        ]
    return out


def json_safe(value: Any) -> Any:
    """Deep-sanitize ``value`` into plain JSON types (dicts/lists walked)."""
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    return _json_safe(value)


def spec_payload(spec: VisSpec, score: float | None = None) -> dict[str, Any]:
    """The service's wire format for one recommended visualization.

    Everything the API needs to render and rank: the vega-lite spec (data
    inline), the interestingness score, and enough summary fields (mark,
    title, fields, filters) for clients that only list recommendations
    without rendering them.  ``key`` is the stable candidate identity
    (:func:`~repro.vis.spec.candidate_key`) that per-vis provenance maps
    are keyed on; it is a pure function of the spec's signature, so the
    foreground and background paths emit identical keys.  Guaranteed
    ``json.dumps``-able.
    """
    from .spec import candidate_key

    vegalite = to_vegalite(spec)
    # to_vegalite already sanitized every ``data.values`` cell; the deep
    # walk covers the rest of the spec (the data slot keeps its key order).
    data, vegalite["data"] = vegalite["data"], None
    vegalite = json_safe(vegalite)
    vegalite["data"] = data
    return {
        "key": candidate_key(spec),
        "title": spec.title,
        "mark": spec.mark,
        "fields": spec.fields(),
        "filters": json_safe([list(f) for f in spec.filters]),
        "score": None if score is None else round(float(score), 6),
        "vegalite": vegalite,
    }


def _filter_expr(attr: str, op: str, value: Any) -> str:
    literal = f"'{value}'" if isinstance(value, str) else repr(value)
    js_op = {"=": "==", "!=": "!=", ">": ">", "<": "<", ">=": ">=", "<=": "<="}[op]
    return f"datum['{attr}'] {js_op} {literal}"
