"""DataFrame: the columnar table at the heart of the substrate.

The class is deliberately subclass-friendly: every operation that produces a
new frame routes through :meth:`DataFrame._wrap`, which hands the subclass
hook :meth:`DataFrame._init_derived` the parent and the operation's name,
and every in-place mutation calls :meth:`DataFrame._notify_mutation`.
``repro.core.frame`` builds ``LuxDataFrame`` on these two hooks to
implement the paper's history tracking and metadata-expiry (``wflow``)
without touching operator logic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import dtypes, observe
from .column import Column
from .dtypes import BOOL, DType
from .index import Index, RangeIndex
from .series import Series, _as_bool_mask

__all__ = ["DataFrame", "concat"]


class _ILocIndexer:
    """Positional row selection: ``df.iloc[3]``, ``df.iloc[1:5]``, masks."""

    def __init__(self, frame: "DataFrame") -> None:
        self._frame = frame

    def __getitem__(self, key: Any) -> Any:
        frame = self._frame
        if isinstance(key, tuple):
            rows, cols = key
            return frame.iloc[rows][frame.columns[cols] if isinstance(cols, int) else cols]
        if isinstance(key, int):
            if key < 0:
                key += len(frame)
            return {name: frame._data[name][key] for name in frame.columns}
        if isinstance(key, slice):
            return frame._slice_rows(key)
        arr = np.asarray(key)
        if arr.dtype.kind == "b":
            return frame._filter_rows(arr)
        return frame._take_rows(arr.astype(np.int64))


class _LocIndexer:
    """Label-based row selection over the frame's index."""

    def __init__(self, frame: "DataFrame") -> None:
        self._frame = frame

    def __getitem__(self, key: Any) -> Any:
        frame = self._frame
        if isinstance(key, (Series, Column)) or (
            isinstance(key, (list, np.ndarray)) and len(key) == len(frame)
            and np.asarray(key).dtype.kind == "b"
        ):
            return frame[key]
        if isinstance(key, list):
            positions = np.asarray([frame.index.get_loc(k) for k in key], dtype=np.int64)
            return frame._take_rows(positions)
        return frame.iloc[frame.index.get_loc(key)]


class DataFrame:
    """An ordered mapping of column name -> :class:`Column`, plus a row index."""

    # Attributes set through normal ``df.attr = ...`` assignment rather than
    # column assignment.  Subclasses extend this.
    _internal_names: set[str] = {
        "_data",
        "_index",
        "_column_order",
    }

    #: Content-version counter, bumped by every in-place mutation.  Caches
    #: that hold derived per-frame state (row samples, the executor's
    #: computation cache) key on it to detect staleness even for plain
    #: frames that have no richer expiry hooks.
    _data_version: int = 0

    def __init__(
        self,
        data: Any = None,
        columns: Sequence[str] | None = None,
        index: Index | None = None,
    ) -> None:
        object.__setattr__(self, "_data", {})
        object.__setattr__(self, "_column_order", [])
        object.__setattr__(self, "_index", None)

        if data is None:
            data = {}
        if isinstance(data, DataFrame):
            for name in data.columns:
                self._data[name] = data._data[name].copy()
            self._column_order = list(data.columns)
            self._index = index if index is not None else data.index
            return
        if isinstance(data, Mapping):
            items = list(data.items())
        elif isinstance(data, list) and data and isinstance(data[0], Mapping):
            keys = list(columns) if columns else list(data[0].keys())
            items = [(k, [row.get(k) for row in data]) for k in keys]
            columns = None
        elif isinstance(data, list) and not data:
            items = [(c, []) for c in (columns or [])]
            columns = None
        else:
            raise TypeError(f"cannot construct DataFrame from {type(data).__name__}")

        n = None
        for name, values in items:
            col = values if isinstance(values, Column) else Column.from_data(
                values.column if isinstance(values, Series) else values
            )
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise ValueError(
                    f"column {name!r} has length {len(col)}, expected {n}"
                )
            self._data[str(name)] = col
            self._column_order.append(str(name))
        if columns is not None:
            missing = [c for c in columns if c not in self._data]
            if missing:
                raise KeyError(f"columns not in data: {missing}")
            self._column_order = [str(c) for c in columns]
        self._index = index if index is not None else RangeIndex(n or 0)
        if self._column_order and len(self._index) != n:
            raise ValueError("index length does not match data")

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _wrap(self, data: dict[str, Column], index: Index, op: str) -> "DataFrame":
        """Construct a derived frame.  Subclasses propagate state here."""
        out = type(self).__new__(type(self))
        object.__setattr__(out, "_data", data)
        object.__setattr__(out, "_column_order", list(data.keys()))
        object.__setattr__(out, "_index", index)
        out._init_derived(parent=self, op=op)
        return out

    def _init_derived(self, parent: "DataFrame", op: str) -> None:
        """Hook for subclasses; base frames carry no extra state."""

    def _notify_mutation(self, op: str, delta: "observe.Delta | None" = None) -> None:
        """Hook called after any in-place change; bumps ``_data_version``.

        ``delta`` describes what the mutation touched (column-level change
        tracking); ``None`` means unknown and consumers assume everything
        changed.  Subclasses overriding this must keep the version bump
        and the observer emission (LuxDataFrame does so via its
        ``_expire`` rules) and must propagate the delta.
        """
        object.__setattr__(self, "_data_version", self._data_version + 1)
        observe.emit(self, op, delta)

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._column_order)

    @property
    def index(self) -> Index:
        return self._index

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), len(self._column_order))

    @property
    def empty(self) -> bool:
        return len(self) == 0 or not self._column_order

    @property
    def dtypes(self) -> dict[str, DType]:
        return {name: self._data[name].dtype for name in self._column_order}

    @property
    def iloc(self) -> _ILocIndexer:
        return _ILocIndexer(self)

    @property
    def loc(self) -> _LocIndexer:
        return _LocIndexer(self)

    def __len__(self) -> int:
        if not self._column_order:
            return len(self._index) if self._index is not None else 0
        return len(self._data[self._column_order[0]])

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._column_order)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, str):
            try:
                col = self._data[key]
            except KeyError:
                raise KeyError(f"column {key!r} not found") from None
            return self._make_series(col, key)
        if isinstance(key, list) and all(isinstance(k, str) for k in key):
            missing = [k for k in key if k not in self._data]
            if missing:
                raise KeyError(f"columns not found: {missing}")
            data = {k: self._data[k] for k in key}
            return self._wrap(data, self._index, op="select_columns")
        if isinstance(key, slice):
            return self._slice_rows(key)
        keep = _as_bool_mask(key, len(self))
        return self._filter_rows(keep)

    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(key, str):
            raise TypeError("column assignment requires a string key")
        if isinstance(value, Series):
            col = value.column.copy()
        elif isinstance(value, Column):
            col = value.copy()
        elif np.isscalar(value) or value is None or isinstance(value, str):
            col = Column.full(len(self) if self._column_order else 0, value)
        else:
            col = Column.from_data(value)
        if self._column_order and len(col) != len(self):
            raise ValueError(
                f"length mismatch: column of {len(col)} vs frame of {len(self)}"
            )
        added = key not in self._data
        # Assigning the first column of an empty frame can change the row
        # set (the index is rebuilt); treat that as a row-level change.
        rows_changed = not self._column_order or (
            self._index is not None and len(self._index) != len(col)
        )
        if added:
            self._column_order.append(key)
        self._data[key] = col
        if self._index is None or len(self._index) != len(col):
            self._index = RangeIndex(len(col))
        self._notify_mutation(
            "setitem",
            observe.Delta.data(
                [key], rows_changed=rows_changed, schema_changed=added
            ),
        )

    def __delitem__(self, key: str) -> None:
        del self._data[key]
        self._column_order.remove(key)
        self._notify_mutation(
            "delitem", observe.Delta.data([key], schema_changed=True)
        )

    def __getattr__(self, name: str) -> Any:
        # Dot access to columns (``df.Age``), mirroring pandas.
        if name.startswith("_"):
            raise AttributeError(name)
        data = self.__dict__.get("_data")
        if data is not None and name in data:
            return self._make_series(data[name], name)
        raise AttributeError(f"{type(self).__name__!s} has no attribute {name!r}")

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._internal_names or name.startswith("_"):
            object.__setattr__(self, name, value)
        elif isinstance(value, (Series, Column, list, np.ndarray)) and name in self._data:
            self[name] = value
        else:
            object.__setattr__(self, name, value)

    def _make_series(self, col: Column, name: str) -> Series:
        return Series(col, name=name, index=self._index)

    # ------------------------------------------------------------------
    # Row selection internals
    # ------------------------------------------------------------------
    def _filter_rows(self, keep: np.ndarray) -> "DataFrame":
        data = {name: self._data[name].filter(keep) for name in self._column_order}
        return self._wrap(data, self._index.filter(keep), op="filter")

    def _take_rows(self, indices: np.ndarray) -> "DataFrame":
        data = {name: self._data[name].take(indices) for name in self._column_order}
        return self._wrap(data, self._index.take(indices), op="take")

    def _slice_rows(self, sl: slice) -> "DataFrame":
        data = {name: self._data[name].slice(sl) for name in self._column_order}
        return self._wrap(data, self._index.slice(sl), op="slice")

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> "DataFrame":
        out = self._slice_rows(slice(0, n))
        out._init_derived(parent=self, op="head")
        return out

    def tail(self, n: int = 5) -> "DataFrame":
        out = self._slice_rows(slice(max(len(self) - n, 0), len(self)))
        out._init_derived(parent=self, op="tail")
        return out

    def copy(self) -> "DataFrame":
        data = {name: self._data[name].copy() for name in self._column_order}
        return self._wrap(data, self._index, op="copy")

    def column(self, name: str) -> Column:
        """Direct access to the underlying storage column."""
        return self._data[name]

    def sample(
        self,
        n: int | None = None,
        frac: float | None = None,
        random_state: int | None = None,
    ) -> "DataFrame":
        if (n is None) == (frac is None):
            raise ValueError("specify exactly one of n or frac")
        size = n if n is not None else int(round(len(self) * float(frac)))
        size = min(size, len(self))
        rng = np.random.default_rng(random_state)
        idx = rng.choice(len(self), size=size, replace=False)
        return self._take_rows(np.sort(idx))

    # ------------------------------------------------------------------
    # Mutating / structural operations
    # ------------------------------------------------------------------
    def rename(
        self, columns: Mapping[str, str], inplace: bool = False
    ) -> "DataFrame | None":
        target = self if inplace else self.copy()
        renamed: set[str] = set()
        for old, new in columns.items():
            if old not in target._data:
                continue
            target._data[str(new)] = target._data.pop(old)
            pos = target._column_order.index(old)
            target._column_order[pos] = str(new)
            renamed.update((old, str(new)))
        if inplace:
            self._notify_mutation(
                "rename", observe.Delta.data(renamed, schema_changed=True)
            )
            return None
        target._init_derived(parent=self, op="rename")
        return target

    def drop(
        self, columns: str | Sequence[str], inplace: bool = False
    ) -> "DataFrame | None":
        names = [columns] if isinstance(columns, str) else list(columns)
        missing = [c for c in names if c not in self._data]
        if missing:
            raise KeyError(f"columns not found: {missing}")
        if inplace:
            for c in names:
                del self._data[c]
                self._column_order.remove(c)
            self._notify_mutation(
                "drop", observe.Delta.data(names, schema_changed=True)
            )
            return None
        data = {
            name: self._data[name] for name in self._column_order if name not in names
        }
        return self._wrap(data, self._index, op="drop")

    def dropna(
        self, subset: Sequence[str] | None = None, inplace: bool = False
    ) -> "DataFrame | None":
        names = list(subset) if subset else self._column_order
        keep = np.ones(len(self), dtype=bool)
        for name in names:
            keep &= ~self._data[name].mask
        if inplace:
            for name in self._column_order:
                self._data[name] = self._data[name].filter(keep)
            self._index = self._index.filter(keep)
            # Row-level change: every column's row alignment moved.
            self._notify_mutation(
                "dropna",
                observe.Delta.data(self._column_order, rows_changed=True),
            )
            return None
        return self._filter_rows(keep)

    def fillna(self, value: Any, inplace: bool = False) -> "DataFrame | None":
        if inplace:
            filled: list[str] = []
            for name in self._column_order:
                if self._data[name].mask.any():
                    try:
                        self._data[name] = self._data[name].fillna(value)
                    except (TypeError, ValueError):
                        continue
                    filled.append(name)
            self._notify_mutation("fillna", observe.Delta.data(filled))
            return None
        out = self.copy()
        out.fillna(value, inplace=True)
        out._init_derived(parent=self, op="fillna")
        return out

    def isna(self) -> "DataFrame":
        data = {
            name: Column(
                self._data[name].isna(), np.zeros(len(self), dtype=bool), BOOL
            )
            for name in self._column_order
        }
        return self._wrap(data, self._index, op="isna")

    def reset_index(self, drop: bool = False) -> "DataFrame":
        data: dict[str, Column] = {}
        if not drop and not self._index.is_default:
            data[self._index.name or "index"] = self._index.column.copy()
        for name in self._column_order:
            data[name] = self._data[name]
        return self._wrap(data, RangeIndex(len(self)), op="reset_index")

    def set_index(self, name: str) -> "DataFrame":
        if name not in self._data:
            raise KeyError(name)
        data = {c: self._data[c] for c in self._column_order if c != name}
        return self._wrap(data, Index(self._data[name].copy(), name=name), op="set_index")

    # ------------------------------------------------------------------
    # Sorting
    # ------------------------------------------------------------------
    def sort_values(
        self, by: str | Sequence[str], ascending: bool | Sequence[bool] = True
    ) -> "DataFrame":
        names = [by] if isinstance(by, str) else list(by)
        orders = (
            [ascending] * len(names)
            if isinstance(ascending, bool)
            else list(ascending)
        )
        order = np.arange(len(self), dtype=np.int64)
        # Stable sorts applied from the least-significant key.
        for name, asc in list(zip(names, orders))[::-1]:
            col = self._data[name].take(order)
            order = order[col.argsort(ascending=asc)]
        return self._take_rows(order)

    def nlargest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=False).head(n)

    def nsmallest(self, n: int, column: str) -> "DataFrame":
        return self.sort_values(column, ascending=True).head(n)

    # ------------------------------------------------------------------
    # Reductions & stats
    # ------------------------------------------------------------------
    def _numeric_columns(self) -> list[str]:
        return [
            name
            for name in self._column_order
            if dtypes.is_numeric(self._data[name].dtype)
        ]

    def mean(self) -> dict[str, float]:
        return {c: self._data[c].mean() for c in self._numeric_columns()}

    def sum(self) -> dict[str, float]:
        return {c: self._data[c].sum() for c in self._numeric_columns()}

    def min(self) -> dict[str, Any]:
        return {c: self._data[c].min() for c in self._column_order}

    def max(self) -> dict[str, Any]:
        return {c: self._data[c].max() for c in self._column_order}

    def var(self, ddof: int = 1) -> dict[str, float]:
        return {c: self._data[c].var(ddof=ddof) for c in self._numeric_columns()}

    def count(self) -> dict[str, int]:
        return {c: self._data[c].count() for c in self._column_order}

    def nunique(self) -> dict[str, int]:
        return {c: self._data[c].nunique() for c in self._column_order}

    def describe(self) -> "DataFrame":
        """Numeric summary table in the spirit of ``pandas.describe``."""
        stats = ["count", "mean", "std", "min", "median", "max"]
        numeric = self._numeric_columns()
        data: dict[str, Column] = {}
        for name in numeric:
            col = self._data[name]
            data[name] = Column.from_data(
                [
                    float(col.count()),
                    col.mean(),
                    col.std(),
                    float(col.min()) if col.count() else float("nan"),
                    col.median(),
                    float(col.max()) if col.count() else float("nan"),
                ]
            )
        out = DataFrame(data, index=Index(stats, name="statistic"))
        out._init_derived(parent=self, op="describe")
        return out

    def corr(self) -> "DataFrame":
        """Pairwise Pearson correlation between numeric columns."""
        numeric = self._numeric_columns()
        mat = np.empty((len(numeric), len(numeric)))
        cols = {c: self._data[c].to_float() for c in numeric}
        for i, a in enumerate(numeric):
            for j, b in enumerate(numeric):
                if j < i:
                    mat[i, j] = mat[j, i]
                    continue
                ok = ~np.isnan(cols[a]) & ~np.isnan(cols[b])
                if ok.sum() < 2:
                    mat[i, j] = np.nan
                    continue
                x, y = cols[a][ok], cols[b][ok]
                sx, sy = x.std(), y.std()
                if sx == 0 or sy == 0:
                    mat[i, j] = np.nan
                else:
                    mat[i, j] = float(np.corrcoef(x, y)[0, 1])
        data = {c: Column.from_data(mat[:, j]) for j, c in enumerate(numeric)}
        out = DataFrame(data, index=Index(numeric))
        out._init_derived(parent=self, op="corr")
        return out

    # ------------------------------------------------------------------
    # Relational operators (delegated to sibling modules)
    # ------------------------------------------------------------------
    def groupby(self, by: str | Sequence[str]) -> "GroupBy":
        from .groupby import GroupBy

        return GroupBy(self, [by] if isinstance(by, str) else list(by))

    def merge(
        self,
        right: "DataFrame",
        how: str = "inner",
        on: str | Sequence[str] | None = None,
        left_on: str | Sequence[str] | None = None,
        right_on: str | Sequence[str] | None = None,
        suffixes: tuple[str, str] = ("_x", "_y"),
    ) -> "DataFrame":
        from .join import merge as _merge

        return _merge(
            self,
            right,
            how=how,
            on=on,
            left_on=left_on,
            right_on=right_on,
            suffixes=suffixes,
        )

    def pivot(self, index: str, columns: str, values: str) -> "DataFrame":
        from .reshape import pivot as _pivot

        return _pivot(self, index=index, columns=columns, values=values)

    def pivot_table(
        self,
        index: str,
        columns: str,
        values: str,
        aggfunc: str | Callable = "mean",
    ) -> "DataFrame":
        from .reshape import pivot_table as _pivot_table

        return _pivot_table(
            self, index=index, columns=columns, values=values, aggfunc=aggfunc
        )

    def melt(
        self,
        id_vars: Sequence[str] | None = None,
        value_vars: Sequence[str] | None = None,
        var_name: str = "variable",
        value_name: str = "value",
    ) -> "DataFrame":
        from .reshape import melt as _melt

        return _melt(
            self,
            id_vars=id_vars,
            value_vars=value_vars,
            var_name=var_name,
            value_name=value_name,
        )

    # ------------------------------------------------------------------
    # Conversion / IO
    # ------------------------------------------------------------------
    def to_records(self) -> list[dict[str, Any]]:
        cols = {name: self._data[name] for name in self._column_order}
        return [
            {name: cols[name][i] for name in self._column_order}
            for i in range(len(self))
        ]

    def to_dict(self) -> dict[str, list[Any]]:
        return {name: self._data[name].to_list() for name in self._column_order}

    def to_csv(self, path: str, **kwargs: Any) -> None:
        from .io import to_csv as _to_csv

        _to_csv(self, path, **kwargs)

    def itertuples(self) -> Iterator[tuple[Any, ...]]:
        cols = [self._data[name] for name in self._column_order]
        for i in range(len(self)):
            yield tuple(c[i] for c in cols)

    def equals(self, other: "DataFrame") -> bool:
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns or len(self) != len(other):
            return False
        return all(self._data[c].equals(other._data[c]) for c in self._column_order)

    def content_hash(self) -> int:
        """Order-sensitive hash of the frame's full contents.

        Used by tests and by ``wflow`` freshness assertions to detect any
        accidental mutation (the WYSIWYG invariant from §10.3 of the paper).
        """
        acc = hash((tuple(self._column_order), len(self)))
        for name in self._column_order:
            col = self._data[name]
            acc ^= hash((name, col.dtype.name, col.mask.tobytes()))
            if col.dtype.name == "string":
                acc ^= hash(tuple(col.values.tolist()))
            else:
                acc ^= hash(col.values.tobytes())
        return acc

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return self.to_string(max_rows=10)

    def to_string(self, max_rows: int = 10) -> str:
        n = len(self)
        shown = min(n, max_rows)
        headers = ["" if self._index.is_default else (self._index.name or "")]
        headers += self._column_order
        rows: list[list[str]] = []
        for i in range(shown):
            label = str(self._index[i])
            rows.append(
                [label] + [_fmt(self._data[c][i]) for c in self._column_order]
            )
        widths = [
            max(len(headers[j]), *(len(r[j]) for r in rows)) if rows else len(headers[j])
            for j in range(len(headers))
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        if n > shown:
            lines.append(f"... [{n} rows x {len(self._column_order)} columns]")
        else:
            lines.append(f"[{n} rows x {len(self._column_order)} columns]")
        return "\n".join(lines)


def _fmt(v: Any) -> str:
    if v is None:
        return "NaN"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def concat(frames: Iterable[DataFrame]) -> DataFrame:
    """Vertically stack frames; columns are unioned in first-seen order."""
    frames = [f for f in frames if f is not None]
    if not frames:
        return DataFrame({})
    order: list[str] = []
    for f in frames:
        for c in f.columns:
            if c not in order:
                order.append(c)
    pieces: dict[str, Column] = {}
    for name in order:
        dtype = next(f.column(name).dtype for f in frames if name in f)
        parts: list[Column] = []
        for f in frames:
            if name in f:
                parts.append(f.column(name))
            else:
                parts.append(Column.full(len(f), None, dtype))
        col = parts[0]
        for p in parts[1:]:
            col = col.concat(p)
        pieces[name] = col
    return frames[0]._wrap(pieces, RangeIndex(sum(len(f) for f in frames)), op="concat")
