"""Interestingness scoring for ranking visualizations within an action.

Each score is in [0, 1] (larger = more interesting) and dispatches on the
structure of the spec, following Lux's published heuristics:

- scatter of two measures ............ |Pearson correlation|
- histogram of one measure ........... normalized |skewness|
- bar of counts over a dimension ..... deviation from the uniform distribution
- bar/line of an aggregated measure .. dispersion of the aggregate across groups
- filtered visualization ............. L2 deviation of the filtered
  distribution from the unfiltered one (the SeeDB-style measure)
- colored scatter .................... between-group separation of y by color

Column access (float conversion, factorization, standardized vectors for
Pearson) routes through the executor's shared computation cache, so scoring
a whole candidate set reads each column once per frame version.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..dataframe import DataFrame
from ..dataframe.dtypes import BOOL, FLOAT64, INT64
from ..vis.spec import VisSpec
from ..vis.table import ColumnTable
from .executor.base import Executor
from .executor.cache import computation_cache as _cache

__all__ = ["needs_executed_data", "score_vis"]

#: Marks whose score reads executor-processed data (group-by outputs).
_EXECUTED_MARKS = ("bar", "line", "area", "geoshape", "rect")


def needs_executed_data(spec: VisSpec) -> bool:
    """Whether :func:`score_vis` requires processed data for ``spec``.

    Rankers batch-execute exactly these specs up front (via
    ``Executor.execute_many``) so scoring never falls back to one-at-a-time
    execution; statistical scores (scatter, histogram) read columns
    directly and need no processing, and a filtered spec with no
    dimension or value to compare (a filtered scatter) scores 0.0 unread.
    """
    if spec.filters:
        return _deviation_keys(spec) is not None
    return spec.mark in _EXECUTED_MARKS


def _clamp(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return 0.0
    return max(0.0, min(1.0, x))


def _paired_valid(frame: DataFrame, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
    xa = _cache.to_float(frame, a)
    xb = _cache.to_float(frame, b)
    ok = ~(np.isnan(xa) | np.isnan(xb))
    return xa[ok], xb[ok]


def _pearson(frame: DataFrame, a: str, b: str) -> float:
    # Standardized vectors (computed once per frame version by the shared
    # computation cache) reduce the Correlation action's O(m^2) pairwise
    # Pearson scores to dot products.  The cache keys on a weakref to the
    # frame rather than a raw id(), so a collected frame's recycled id can
    # never alias another frame's vectors.
    za = _cache.standardized(frame, a)
    zb = _cache.standardized(frame, b)
    if za is not None and zb is not None:
        return _clamp(abs(float(np.dot(za, zb))))
    # Fallback: pairwise-complete observations when NaNs are present.
    x, y = _paired_valid(frame, a, b)
    if len(x) < 3 or x.std() == 0 or y.std() == 0:
        return 0.0
    return _clamp(abs(float(np.corrcoef(x, y)[0, 1])))


#: Relative precision below which the second moment counts as zero.
_EPS = np.finfo(np.float64).eps


def _skew(v: np.ndarray) -> float:
    """The biased Fisher-Pearson skewness ``m3 / m2**1.5`` of ``v``.

    Bit-identical to ``scipy.stats.skew(v)``: the moments are computed in
    scipy's operation order, and the result is NaN where scipy's guard
    treats ``m2`` as zero against the mean (near-constant data).
    """
    with np.errstate(all="ignore"):
        mean = v.mean()
        d = v - mean
        sq = d**2
        m2 = sq.mean()
        m3 = (sq * d).mean()
        if m2 <= (_EPS * mean) ** 2:
            return math.nan
        return float(m3 / m2**1.5)


def _skewness(frame: DataFrame, attr: str) -> float:
    v = _cache.to_float(frame, attr)
    v = v[~np.isnan(v)]
    if len(v) < 3 or v.std() == 0:
        return 0.0
    skew = abs(_skew(v))
    # Map |skew| in [0, inf) to [0, 1); |skew|=2 is already very skewed.
    return _clamp(skew / (1.0 + skew))


def _unevenness(counts: np.ndarray) -> float:
    """Deviation of a count distribution from uniform (Lux's bar score)."""
    total = counts.sum()
    if total <= 0 or len(counts) < 2:
        return 0.0
    p = counts / total
    uniform = np.full(len(p), 1.0 / len(p))
    # Normalize the L2 distance by its maximum (all mass in one bucket).
    max_dist = math.sqrt((1 - 1 / len(p)) ** 2 + (len(p) - 1) * (1 / len(p)) ** 2)
    return _clamp(float(np.linalg.norm(p - uniform)) / max_dist)


def _dispersion(values: np.ndarray) -> float:
    """Spread of an aggregated measure across groups (coeff. of variation)."""
    v = values[~np.isnan(values)]
    if len(v) < 2:
        return 0.0
    mean = abs(v.mean())
    if mean < 1e-12:
        return _clamp(float(v.std()))
    return _clamp(float(v.std() / mean))


def _group_separation(frame: DataFrame, measure: str, color: str) -> float:
    """Between-group variance fraction of ``measure`` explained by ``color``."""
    y = _cache.to_float(frame, measure)
    codes, _ = _cache.factorize(frame, color)
    ok = ~np.isnan(y) & (codes >= 0)
    y, codes = y[ok], codes[ok]
    if len(y) < 3 or y.var() == 0:
        return 0.0
    grand = y.mean()
    between = 0.0
    for g in np.unique(codes):
        grp = y[codes == g]
        between += len(grp) * (grp.mean() - grand) ** 2
    total = ((y - grand) ** 2).sum()
    return _clamp(between / total) if total > 0 else 0.0


def _deviation_keys(spec: VisSpec) -> tuple[str, str] | None:
    """(dimension key, value key) a filter deviation compares, if both exist."""
    dim_key = _dimension_key(spec)
    val_key = _value_key(spec)
    if dim_key is None or val_key is None:
        return None
    return dim_key, val_key


def _reference(
    spec: VisSpec, frame: DataFrame, executor: Executor, keys: tuple[str, str]
) -> tuple[list[Any], np.ndarray] | None:
    """The unfiltered distribution ``spec``'s filtered one is compared with."""
    reference = VisSpec(spec.mark, spec.encodings, filters=[])
    try:
        executor.execute(reference, frame)
    except Exception:
        return None
    if not reference.data:
        return None
    ref = _by_label(reference.data, *keys)
    labels = [k for k in ref if k is not None]
    if not labels:
        return None
    return labels, _normalize(np.array([ref[k] for k in labels], dtype=float))


def _filter_deviation(
    spec: VisSpec, frame: DataFrame, executor: Executor, references: dict
) -> float:
    """SeeDB-style deviation: filtered vs unfiltered aggregate distribution.

    ``references`` maps a mark and its encodings to their unfiltered
    reference (:func:`_reference`), so the candidates of one ranking call
    that share a reference execute it once.
    """
    keys = _deviation_keys(spec)
    if keys is None:
        return 0.0
    if spec.data is None:
        executor.execute(spec, frame)
    if not spec.data:
        return 0.0
    key = (spec.mark, tuple(spec.encodings))
    if key not in references:
        references[key] = _reference(spec, frame, executor, keys)
    reference = references[key]
    if reference is None:
        return 0.0
    labels, ref_vec = reference
    fil = _by_label(spec.data, *keys)
    fil_vec = _normalize(np.array([fil.get(k, 0.0) for k in labels], dtype=float))
    return _clamp(float(np.linalg.norm(ref_vec - fil_vec)) / math.sqrt(2))


def _numbers(table: ColumnTable, name: str) -> np.ndarray:
    """Column ``name`` as floats; 0.0 where a row holds no number.

    Missing cells, text and dates count as 0.0, and so does every row
    when the table has no such column.
    """
    col = table.columns.get(name)
    if col is None or col.dtype not in (INT64, FLOAT64, BOOL):
        return np.zeros(len(table))
    out = col.values.astype(np.float64)
    out[col.mask] = 0.0
    return out


def _by_label(table: ColumnTable, dim_key: str, val_key: str) -> dict[Any, float]:
    """``label -> value`` over the rows; a repeated label keeps its last value."""
    col = table.columns.get(dim_key)
    labels = col.to_list() if col is not None else [None] * len(table)
    return dict(zip(labels, _numbers(table, val_key).tolist()))


def _normalize(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    return v / s if s > 0 else v


def _dimension_key(spec: VisSpec) -> str | None:
    for enc in spec.encodings:
        if enc.channel in ("x", "y") and not enc.aggregate and enc.field:
            return enc.field
    return None


def _value_key(spec: VisSpec) -> str | None:
    for enc in spec.encodings:
        if enc.aggregate:
            return enc.field if enc.field else "count"
    return None


def score_vis(
    spec: VisSpec,
    frame: DataFrame,
    executor: Executor,
    references: "dict | None" = None,
) -> float:
    """Score one visualization on (a sample of) ``frame``.

    The executor is used when the score needs processed data (count bars and
    filter deviation); statistical scores read columns directly.  A ranker
    passes one ``references`` dict per frame it scores on, so filtered
    candidates share their unfiltered references (see
    :func:`_filter_deviation`); without one, each call executes its own.
    """
    try:
        if spec.filters:
            return _filter_deviation(
                spec, frame, executor, {} if references is None else references
            )

        # This branch is only reached for unfiltered specs (the filtered
        # case returned above), so the frame is already the full subset.
        subset = frame
        x, y, color = spec.x, spec.y, spec.color
        if spec.mark in ("point", "tick"):
            if (
                color is not None
                and color.field
                and color.field_type != "quantitative"
                and y is not None
            ):
                return _group_separation(subset, y.field, color.field)
            if x is not None and y is not None and x.field and y.field:
                return _pearson(subset, x.field, y.field)
            return 0.0
        if spec.mark == "histogram":
            enc = x if x is not None and x.bin else y
            return _skewness(subset, enc.field) if enc is not None else 0.0
        if spec.mark in ("bar", "line", "area", "geoshape"):
            if spec.data is None:
                executor.execute(spec, subset)
            val_key = _value_key(spec)
            if val_key is None:
                return 0.0
            values = _numbers(spec.data, val_key)
            if val_key == "count":
                return _unevenness(values)
            return _dispersion(values)
        if spec.mark == "rect":
            if spec.data is None:
                executor.execute(spec, subset)
            return _unevenness(_numbers(spec.data, "count"))
    except Exception:
        # Scoring must never break the always-on display (§10.3).
        return 0.0
    return 0.0
