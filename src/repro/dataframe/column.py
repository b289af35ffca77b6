"""Typed 1-D column: the storage unit behind Series and DataFrame.

A :class:`Column` owns a numpy values array and a boolean validity mask
(``True`` = missing).  All dataframe operations bottom out in Column methods,
which keeps null semantics in exactly one place.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterator

import numpy as np

from . import dtypes
from .dtypes import BOOL, DATETIME, FLOAT64, INT64, STRING, DType

__all__ = ["Column"]


class Column:
    """An immutable-by-convention typed vector with missing-value support."""

    __slots__ = ("values", "mask", "dtype")

    def __init__(self, values: np.ndarray, mask: np.ndarray, dtype: DType) -> None:
        self.values = values
        self.mask = mask
        self.dtype = dtype

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_data(cls, data: Any, dtype: str | DType | None = None) -> "Column":
        """Build a column from arbitrary 1-D data (see :func:`dtypes.coerce`)."""
        if isinstance(data, Column):
            return data.astype(dtype) if dtype is not None else data.copy()
        values, mask, dt = dtypes.coerce(data, dtype)
        return cls(values, mask, dt)

    @classmethod
    def full(cls, n: int, value: Any, dtype: str | DType | None = None) -> "Column":
        """A length-``n`` column of a repeated scalar."""
        if value is None:
            dt = dtypes.lookup(dtype) if dtype is not None else STRING
            values = np.full(n, dtypes.fill_value(dt), dtype=dt.numpy_dtype)
            return cls(values, np.ones(n, dtype=bool), dt)
        return cls.from_data([value] * n, dtype)

    def copy(self) -> "Column":
        return Column(self.values.copy(), self.mask.copy(), self.dtype)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Any:
        if self.mask[i]:
            return None
        v = self.values[i]
        if self.dtype is FLOAT64:
            return float(v)
        if self.dtype is INT64:
            return int(v)
        if self.dtype is BOOL:
            return bool(v)
        return v

    def __repr__(self) -> str:
        head = ", ".join(repr(self[i]) for i in range(min(len(self), 6)))
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.dtype.name}>[{head}{suffix}] (n={len(self)})"

    def equals(self, other: "Column") -> bool:
        """Exact equality, treating missing slots as equal to each other."""
        if self.dtype is not other.dtype or len(self) != len(other):
            return False
        if not np.array_equal(self.mask, other.mask):
            return False
        ok = ~self.mask
        if self.dtype is STRING:
            return all(a == b for a, b in zip(self.values[ok], other.values[ok]))
        return bool(np.array_equal(self.values[ok], other.values[ok]))

    # ------------------------------------------------------------------
    # Selection / rearrangement
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position.  ``-1`` produces a missing slot."""
        indices = np.asarray(indices)
        neg = indices < 0
        safe = np.where(neg, 0, indices)
        values = self.values[safe]
        mask = self.mask[safe] | neg
        if neg.any():
            values = values.copy()
            values[neg] = dtypes.fill_value(self.dtype)
        return Column(values, mask, self.dtype)

    def filter(self, keep: np.ndarray) -> "Column":
        """Select rows where boolean ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        return Column(self.values[keep], self.mask[keep], self.dtype)

    def slice(self, sl: slice) -> "Column":
        return Column(self.values[sl], self.mask[sl], self.dtype)

    def concat(self, other: "Column") -> "Column":
        """Append ``other``; dtypes unify via numeric promotion or string."""
        if self.dtype is other.dtype:
            return Column(
                np.concatenate([self.values, other.values]),
                np.concatenate([self.mask, other.mask]),
                self.dtype,
            )
        if dtypes.is_numeric(self.dtype) and dtypes.is_numeric(other.dtype):
            target = dtypes.result_dtype(self.dtype, other.dtype)
            return self.astype(target).concat(other.astype(target))
        return self.astype(STRING).concat(other.astype(STRING))

    # ------------------------------------------------------------------
    # Casting
    # ------------------------------------------------------------------
    def astype(self, dtype: str | DType) -> "Column":
        target = dtypes.lookup(dtype)
        if target is self.dtype:
            return self.copy()
        if target is STRING:
            out = np.empty(len(self), dtype=object)
            for i in range(len(self)):
                out[i] = None if self.mask[i] else str(self[i])
            return Column(out, self.mask.copy(), STRING)
        if self.dtype is STRING and target in (INT64, FLOAT64):
            data = [None if self.mask[i] else _parse_number(self.values[i]) for i in range(len(self))]
            values, mask, _ = dtypes.coerce(data, target)
            return Column(values, mask, target)
        if self.dtype is STRING and target is DATETIME:
            from .datetimes import parse_datetime_column

            return parse_datetime_column(self)
        values, mask, dt = dtypes.coerce(self.values, target)
        mask = mask | self.mask
        return Column(values, mask, dt)

    def to_float(self) -> np.ndarray:
        """Valid payloads as float64 with NaN at missing slots."""
        if self.dtype is FLOAT64:
            out = self.values.copy()
            out[self.mask] = np.nan
            return out
        if self.dtype is DATETIME:
            out = self.values.astype("datetime64[ns]").astype(np.int64).astype(np.float64)
            out[self.mask] = np.nan
            return out
        if self.dtype is STRING:
            raise TypeError("cannot convert string column to float")
        out = self.values.astype(np.float64)
        out[self.mask] = np.nan
        return out

    def to_list(self) -> list[Any]:
        """``[self[i] for i in range(len(self))]``, converted in one pass."""
        if self.dtype is DATETIME:
            out = list(self.values)
        else:
            out = self.values.astype(self.dtype.numpy_dtype, copy=False).tolist()
        for i in np.flatnonzero(self.mask).tolist():
            out[i] = None
        return out

    # ------------------------------------------------------------------
    # Missing data
    # ------------------------------------------------------------------
    def isna(self) -> np.ndarray:
        return self.mask.copy()

    def null_count(self) -> int:
        return int(self.mask.sum())

    def fillna(self, value: Any) -> "Column":
        out = self.copy()
        if not out.mask.any():
            return out
        idx = np.flatnonzero(out.mask)
        if self.dtype is STRING:
            for i in idx:
                out.values[i] = str(value)
        elif self.dtype is DATETIME:
            out.values[idx] = np.datetime64(value, "ns")
        else:
            out.values[idx] = value
        out.mask[idx] = False
        return out

    def dropna(self) -> "Column":
        return self.filter(~self.mask)

    # ------------------------------------------------------------------
    # Reductions (missing-aware)
    # ------------------------------------------------------------------
    def _valid_floats(self) -> np.ndarray:
        return self.to_float()[~self.mask]

    def sum(self) -> float:
        v = self._valid_floats()
        return float(v.sum()) if len(v) else 0.0

    def mean(self) -> float:
        v = self._valid_floats()
        return float(v.mean()) if len(v) else float("nan")

    def var(self, ddof: int = 1) -> float:
        v = self._valid_floats()
        return float(v.var(ddof=ddof)) if len(v) > ddof else float("nan")

    def std(self, ddof: int = 1) -> float:
        v = self.var(ddof=ddof)
        return float(np.sqrt(v))

    def median(self) -> float:
        v = self._valid_floats()
        return float(np.median(v)) if len(v) else float("nan")

    def min(self) -> Any:
        if self.dtype is STRING:
            vals = [v for v in self.values[~self.mask]]
            return min(vals) if vals else None
        if self.dtype is DATETIME:
            vals = self.values[~self.mask]
            return vals.min() if len(vals) else None
        v = self._valid_floats()
        if not len(v):
            return None
        m = float(v.min())
        return int(m) if self.dtype is INT64 else m

    def max(self) -> Any:
        if self.dtype is STRING:
            vals = [v for v in self.values[~self.mask]]
            return max(vals) if vals else None
        if self.dtype is DATETIME:
            vals = self.values[~self.mask]
            return vals.max() if len(vals) else None
        v = self._valid_floats()
        if not len(v):
            return None
        m = float(v.max())
        return int(m) if self.dtype is INT64 else m

    def count(self) -> int:
        return int((~self.mask).sum())

    # ------------------------------------------------------------------
    # Uniques / cardinality
    # ------------------------------------------------------------------
    def _valid_keys(self) -> list[Any]:
        """Non-missing values as dict keys, in order: Python scalars for
        numeric dtypes, the stored objects otherwise."""
        valid = self.values[~self.mask]
        return valid.tolist() if dtypes.is_numeric(self.dtype) else list(valid)

    def unique(self) -> list[Any]:
        """Distinct non-missing values in first-appearance order."""
        return list(dict.fromkeys(self._valid_keys()))

    def nunique(self) -> int:
        return len(self.unique())

    def value_counts(self) -> list[tuple[Any, int]]:
        """(value, count) pairs sorted by descending count then value order.

        Values are Python scalars, except datetimes (``numpy.datetime64``).
        """
        counts = Counter(self._valid_keys()).most_common()
        if self.dtype is not STRING:
            return counts
        # A string column may hold numpy strings: report them as str.
        return [(v.item() if hasattr(v, "item") else v, c) for v, c in counts]

    def factorize(self) -> tuple[np.ndarray, list[Any]]:
        """Encode values as integer codes (missing = -1) plus unique labels.

        Labels are Python scalars (``numpy.datetime64`` for datetimes) in
        first-appearance order.
        """
        labels: dict[Any, int] = {}
        codes = np.full(len(self), -1, dtype=np.int64)
        codes[~self.mask] = [labels.setdefault(key, len(labels)) for key in self._valid_keys()]
        return codes, list(labels)

    # ------------------------------------------------------------------
    # Elementwise ops
    # ------------------------------------------------------------------
    def _binary(
        self,
        other: Any,
        op: Callable[[np.ndarray, np.ndarray], np.ndarray],
        out_dtype: DType | None = None,
    ) -> "Column":
        if isinstance(other, Column):
            if len(other) != len(self):
                raise ValueError("length mismatch in column operation")
            o_vals, o_mask = other.values, other.mask
            o_dtype = other.dtype
        else:
            o_vals, o_mask = other, np.zeros(len(self), dtype=bool)
            o_dtype = dtypes.infer_dtype([other]) if other is not None else STRING

        mask = self.mask | o_mask
        if self.dtype is STRING or o_dtype is STRING:
            # String ops are done elementwise through object arrays.
            left = self.values
            right = o_vals.values if isinstance(o_vals, Column) else o_vals
            n = len(self)
            out = np.empty(n, dtype=object)
            for i in range(n):
                if mask[i]:
                    out[i] = None
                    continue
                rv = right[i] if isinstance(right, np.ndarray) else right
                out[i] = op(left[i], rv)
            values, m2, dt = dtypes.coerce(out.tolist(), out_dtype)
            return Column(values, m2 | mask, dt)
        left_f = self.values
        right_f = o_vals
        with np.errstate(divide="ignore", invalid="ignore"):
            result = op(left_f, right_f)
        if out_dtype is None:
            if result.dtype.kind == "b":
                out_dtype = BOOL
            elif result.dtype.kind == "f":
                out_dtype = FLOAT64
            else:
                out_dtype = INT64
        values, m2, dt = dtypes.coerce(np.asarray(result), out_dtype)
        return Column(values, m2 | mask, dt)

    def __add__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a * b)

    def __truediv__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a / b, FLOAT64)

    def __floordiv__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a // b)

    def __mod__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a % b)

    def __pow__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a**b)

    def __neg__(self) -> "Column":
        out = self.copy()
        out.values = -out.values
        return out

    def _compare(
        self,
        other: Any,
        op: Callable[[Any, Any], Any],
        ufunc: "np.ufunc | None" = None,
    ) -> "Column":
        """``op`` per row, missing rows False (and missing in the result).

        A text column compares its objects one row at a time, a failing
        row reading False.  ``ufunc`` is ``op`` as an elementwise numpy call
        (``np.equal`` for ``==``): against a scalar it compares the whole
        object array at once, each element with the same rich comparison,
        and falls back to the row loop if any element refuses.
        """
        if self.dtype is DATETIME and isinstance(other, str):
            other = np.datetime64(other, "ns")
        if self.dtype is STRING:
            if ufunc is not None and np.isscalar(other):
                try:
                    out = ufunc(self.values, other)
                except (TypeError, ValueError):
                    pass
                else:
                    out[self.mask] = False
                    return Column(out, self.mask.copy(), BOOL)
            n = len(self)
            out = np.zeros(n, dtype=bool)
            right = other.values if isinstance(other, Column) else None
            mask = self.mask | (other.mask if isinstance(other, Column) else False)
            for i in range(n):
                if mask if isinstance(mask, bool) else mask[i]:
                    continue
                rv = right[i] if right is not None else other
                try:
                    out[i] = bool(op(self.values[i], rv))
                except TypeError:
                    out[i] = False
            m = mask if isinstance(mask, np.ndarray) else self.mask.copy()
            return Column(out, m.copy(), BOOL)
        return self._binary(other, op, BOOL)

    def __eq__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._compare(other, lambda a, b: a == b, np.equal)

    def __ne__(self, other: Any) -> "Column":  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b, np.not_equal)

    def __lt__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other: Any) -> "Column":
        return self._compare(other, lambda a, b: a >= b)

    def __and__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a & b, BOOL)

    def __or__(self, other: Any) -> "Column":
        return self._binary(other, lambda a, b: a | b, BOOL)

    def __invert__(self) -> "Column":
        if self.dtype is not BOOL:
            raise TypeError("~ requires a boolean column")
        return Column(~self.values, self.mask.copy(), BOOL)

    def isin(self, values: Any) -> "Column":
        pool = set(values)
        out = np.zeros(len(self), dtype=bool)
        ok = ~self.mask
        for i in np.flatnonzero(ok):
            v = self.values[i]
            key = v.item() if hasattr(v, "item") and self.dtype is not DATETIME else v
            out[i] = key in pool
        return Column(out, np.zeros(len(self), dtype=bool), BOOL)

    # ------------------------------------------------------------------
    # Sorting helpers
    # ------------------------------------------------------------------
    def argsort(self, ascending: bool = True) -> np.ndarray:
        """Stable argsort with missing values placed last."""
        ok = ~self.mask
        if self.dtype is STRING:
            valid_idx = np.flatnonzero(ok)
            order = sorted(valid_idx, key=lambda i: self.values[i])
            if not ascending:
                order = order[::-1]
            order = np.asarray(order, dtype=np.int64)
        else:
            keys = self.to_float()
            keys_valid = np.where(ok, keys, np.inf)
            order = np.argsort(keys_valid if ascending else -keys_valid, kind="stable")
            order = order[ok[order]]
        missing = np.flatnonzero(self.mask)
        return np.concatenate([order, missing]) if len(missing) else np.asarray(order)


def _parse_number(text: Any) -> Any:
    if text is None:
        return None
    s = str(text).strip().replace(",", "")
    if not s:
        return None
    try:
        return float(s)
    except ValueError:
        return None
