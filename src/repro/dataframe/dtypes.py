"""Data type system for the dataframe substrate.

The substrate supports five logical dtypes, each backed by a numpy storage
dtype plus a boolean validity mask (``True`` marks a *missing* entry):

==========  =================  ==========================================
logical     numpy storage      notes
==========  =================  ==========================================
``int64``   ``np.int64``       promoted to ``float64`` when nulls appear
``float64`` ``np.float64``     NaN values are treated as missing
``bool``    ``np.bool_``
``string``  ``object``         Python ``str`` elements
``datetime````datetime64[ns]`` ``NaT`` values are treated as missing
==========  =================  ==========================================

Masks are authoritative: a masked slot's payload is an arbitrary fill value
and must never be read by callers.  :func:`coerce` is the single entry point
for turning arbitrary Python/numpy data into a ``(values, mask, dtype)``
triple with these invariants.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Iterable

import numpy as np

__all__ = [
    "INT64",
    "FLOAT64",
    "BOOL",
    "STRING",
    "DATETIME",
    "DType",
    "coerce",
    "fill_value",
    "infer_dtype",
    "is_numeric",
    "result_dtype",
]


class DType:
    """A logical column dtype.

    Instances are singletons (``INT64``, ``FLOAT64``, ``BOOL``, ``STRING``,
    ``DATETIME``); compare with ``is`` or ``==``.
    """

    def __init__(self, name: str, numpy_dtype: Any) -> None:
        self.name = name
        self.numpy_dtype = np.dtype(numpy_dtype)

    def __repr__(self) -> str:
        return f"dtype[{self.name}]"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DType):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)


INT64 = DType("int64", np.int64)
FLOAT64 = DType("float64", np.float64)
BOOL = DType("bool", np.bool_)
STRING = DType("string", object)
DATETIME = DType("datetime", "datetime64[ns]")

_NAT = np.datetime64("NaT", "ns")

_BY_NAME = {d.name: d for d in (INT64, FLOAT64, BOOL, STRING, DATETIME)}
# Convenient aliases accepted anywhere a dtype name is accepted.
_BY_NAME.update(
    {
        "int": INT64,
        "float": FLOAT64,
        "str": STRING,
        "object": STRING,
        "datetime64": DATETIME,
        "datetime64[ns]": DATETIME,
    }
)


def lookup(name: str | DType) -> DType:
    """Resolve a dtype name or instance to the canonical ``DType``."""
    if isinstance(name, DType):
        return name
    try:
        return _BY_NAME[str(name)]
    except KeyError:
        raise TypeError(f"unknown dtype {name!r}") from None


def is_numeric(dtype: DType) -> bool:
    """True for dtypes that participate in arithmetic (int64/float64/bool)."""
    return dtype in (INT64, FLOAT64, BOOL)


def fill_value(dtype: DType) -> Any:
    """The payload stored at masked slots for ``dtype``."""
    if dtype is FLOAT64:
        return np.nan
    if dtype is INT64:
        return np.int64(0)
    if dtype is BOOL:
        return np.bool_(False)
    if dtype is DATETIME:
        return np.datetime64("NaT")
    return None


def result_dtype(left: DType, right: DType) -> DType:
    """Dtype of an arithmetic result between two numeric dtypes."""
    if left is FLOAT64 or right is FLOAT64:
        return FLOAT64
    if left is INT64 or right is INT64:
        return INT64
    return INT64 if (left is BOOL and right is BOOL) else FLOAT64


#: The kinds a scalar's type counts toward, in precedence order (``bool``
#: subclasses ``int``).  Any other type but ``None``'s is a string's.
_KINDS = (
    ("bool", (bool, np.bool_)),
    ("int", (int, np.integer)),
    ("float", (float, np.floating)),
    ("datetime", (np.datetime64, _dt.datetime, _dt.date)),
)


def _kind(t: type) -> str:
    for kind, types in _KINDS:
        if issubclass(t, types):
            return kind
    return "string"


def infer_dtype(values: Iterable[Any]) -> DType:
    """Infer the logical dtype of a sequence of Python scalars.

    Missing markers (``None`` and float NaN) are ignored during inference.
    Mixed numeric types promote to float; any non-numeric value makes the
    column a string one.  The distinct types present decide: values are
    read only when floats share the sequence with ints, bools or
    datetimes, to tell NaN-only floats (missing markers) from real ones.
    """
    if not isinstance(values, (list, tuple)):
        values = list(values)  # read twice below
    kinds = {t: _kind(t) for t in set(map(type, values)) if t is not type(None)}
    present = set(kinds.values())
    if "string" in present:
        return STRING
    if "float" in present and len(present) > 1:
        floats = {t for t, kind in kinds.items() if kind == "float"}
        # NaN is the only float unequal to itself.
        if not any(v == v for v in values if type(v) in floats):
            present.discard("float")
    if "datetime" in present:
        return DATETIME if present == {"datetime"} else STRING
    if "float" in present or not present:
        return FLOAT64
    return INT64 if "int" in present else BOOL


def _missing(v: Any) -> bool:
    """Whether a list cell is missing: ``None``, or a float that is NaN
    (the only float unequal to itself)."""
    return v is None or (isinstance(v, float) and v != v)


def _mask_from_nan(values: np.ndarray) -> np.ndarray:
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype.kind == "M":
        return np.isnat(values)
    return np.zeros(len(values), dtype=bool)


def coerce(
    data: Any,
    dtype: str | DType | None = None,
) -> tuple[np.ndarray, np.ndarray, DType]:
    """Coerce arbitrary 1-D data into ``(values, mask, dtype)``.

    ``data`` may be a numpy array, a list/tuple of scalars, or a scalar
    paired with an explicit dtype.  When ``dtype`` is given, the data is cast
    to it; otherwise the dtype is inferred.
    """
    target = lookup(dtype) if dtype is not None else None

    if isinstance(data, np.ndarray):
        return _coerce_ndarray(data, target)

    data = list(data)
    if target is None:
        target = infer_dtype(data)
    if target is STRING:
        values = np.array(
            [v if isinstance(v, str) else None if _missing(v) else str(v) for v in data],
            dtype=object,
        )
        return values, np.equal(values, None), STRING
    if target is DATETIME:
        values = np.array(
            [_NAT if _missing(v) else np.datetime64(v, "ns") for v in data],
            dtype="datetime64[ns]",
        )
        return values, np.isnat(values), DATETIME

    # Numeric path: collect into float first to tolerate None/NaN, then
    # narrow back to the requested integer/bool container where possible.
    values_f = np.array([np.nan if v is None else float(v) for v in data], dtype=np.float64)
    mask = np.isnan(values_f)
    n = len(values_f)
    if target is FLOAT64:
        return values_f, mask, FLOAT64
    if mask.any() and target is INT64:
        # Int with nulls: keep int container; masked payloads are 0.
        out = np.zeros(n, dtype=np.int64)
        ok = ~mask
        out[ok] = values_f[ok].astype(np.int64)
        return out, mask, INT64
    if target is INT64:
        return values_f.astype(np.int64), mask, INT64
    if target is BOOL:
        out = np.zeros(n, dtype=bool)
        ok = ~mask
        out[ok] = values_f[ok] != 0.0
        return out, mask, BOOL
    raise TypeError(f"cannot coerce to {target!r}")


def _coerce_ndarray(
    arr: np.ndarray, target: DType | None
) -> tuple[np.ndarray, np.ndarray, DType]:
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D data, got shape {arr.shape}")
    kind = arr.dtype.kind
    if target is None:
        if kind in ("i", "u"):
            target = INT64
        elif kind == "f":
            target = FLOAT64
        elif kind == "b":
            target = BOOL
        elif kind == "M":
            target = DATETIME
        elif kind in ("U", "S", "O"):
            # Object arrays can still hold numbers; go through the list path.
            return coerce(arr.tolist(), None)
        else:
            raise TypeError(f"unsupported array dtype {arr.dtype}")

    if target is STRING and kind in ("U", "S"):
        values = arr.astype(object)
        return values, np.zeros(len(arr), dtype=bool), STRING
    if target is STRING and kind == "O":
        return coerce(arr.tolist(), STRING)
    if target is DATETIME:
        if kind == "M":
            values = arr.astype("datetime64[ns]")
        else:
            return coerce(arr.tolist(), DATETIME)
        return values, np.isnat(values), DATETIME
    if target is INT64:
        if kind == "f":
            mask = np.isnan(arr)
            if mask.any():
                out = np.zeros(len(arr), dtype=np.int64)
                out[~mask] = arr[~mask].astype(np.int64)
                return out, mask, INT64
            return arr.astype(np.int64), mask, INT64
        if kind in ("i", "u", "b"):
            return arr.astype(np.int64), np.zeros(len(arr), dtype=bool), INT64
        return coerce(arr.tolist(), INT64)
    if target is FLOAT64:
        if kind in ("i", "u", "b", "f"):
            values = arr.astype(np.float64)
            return values, np.isnan(values), FLOAT64
        return coerce(arr.tolist(), FLOAT64)
    if target is BOOL:
        if kind == "b":
            return arr.copy(), np.zeros(len(arr), dtype=bool), BOOL
        if kind in ("i", "u", "f"):
            mask = _mask_from_nan(arr)
            out = np.zeros(len(arr), dtype=bool)
            out[~mask] = arr[~mask] != 0
            return out, mask, BOOL
        return coerce(arr.tolist(), BOOL)
    if target is STRING:
        return coerce(arr.tolist(), STRING)
    raise TypeError(f"cannot coerce array of {arr.dtype} to {target!r}")
