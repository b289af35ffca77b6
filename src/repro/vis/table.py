"""ColumnTable: a chart's executed data as typed columns.

Executors fill :attr:`VisSpec.data <repro.vis.spec.VisSpec.data>` with one
of these: an ordered map from chart field name to a
:class:`~repro.dataframe.column.Column` (numpy values plus a missing-value
mask), in the order the chart's fields appear.  Scoring reads the arrays,
and the vega-lite writer (:mod:`repro.vis.vegalite`) encodes them column
by column.  Row dicts are built only when something iterates or indexes
the table (the ASCII renderer, ``Vis.data`` users, tests); each row is
exactly what ``DataFrame.to_records`` would give for the same columns.

Names follow dict semantics: a name given twice keeps its first position
and its last column, just as a repeated key in a row-dict literal does.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..dataframe.column import Column

__all__ = ["ColumnTable"]


class ColumnTable:
    """Equal-length named columns; iterating yields row dicts."""

    __slots__ = ("columns", "_rows")

    def __init__(
        self, columns: "Mapping[str, Column] | Iterable[tuple[str, Column]]" = ()
    ) -> None:
        self.columns: dict[str, Column] = dict(columns)
        lengths = {len(col) for col in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        self._rows = lengths.pop() if lengths else 0

    @classmethod
    def from_frame(cls, frame: Any) -> "ColumnTable":
        """The columns of a ``DataFrame``, shared, in its column order."""
        return cls((name, frame.column(name)) for name in frame.columns)

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Sequence[Sequence[Any]]) -> "ColumnTable":
        """Columns inferred from row tuples of Python scalars (``None`` = missing)."""
        cells = list(zip(*rows)) if rows else [()] * len(names)
        return cls(zip(names, (Column.from_data(list(c)) for c in cells)))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = list(self.columns)
        cells = [col.to_list() for col in self.columns.values()]
        return (dict(zip(names, row)) for row in zip(*cells))

    def __getitem__(self, i: int) -> dict[str, Any]:
        return {name: col[i] for name, col in self.columns.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ColumnTable, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ColumnTable({self._rows} rows: {', '.join(self.columns)})"

    def take(self, order: np.ndarray) -> "ColumnTable":
        """Rows gathered by position, every column alike."""
        return ColumnTable((name, col.take(order)) for name, col in self.columns.items())
