"""VisSpec: a complete, renderer-independent visualization specification.

A spec is the *output* of Lux's intent compiler: mark + encodings +
(optionally) the processed data the execution engine attaches as a
:class:`~repro.vis.table.ColumnTable`.  Renderers (Vega-Lite JSON, ASCII,
HTML, code export) all consume this one object, mirroring the paper's
swappable-renderer design (Fig. 8).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Sequence

from .encoding import Encoding
from .marks import MARKS

if TYPE_CHECKING:  # pragma: no cover
    from .table import ColumnTable

__all__ = ["VisSpec", "candidate_key", "filter_signature"]


def filter_signature(filters: Any) -> tuple:
    """Hashable identity of a filter clause list (order-insensitive).

    The single definition shared by spec dedup (:meth:`VisSpec.signature`)
    and the executor's shared-scan cache, so the two identities can never
    drift apart.
    """
    return tuple(sorted((a, op, repr(v)) for a, op, v in filters))


def candidate_key(spec: "VisSpec") -> str:
    """Stable per-vis identity string derived from :meth:`VisSpec.signature`.

    The key is deterministic across processes (pure function of mark,
    encodings, and filter signature — no ids, no hashes of live objects),
    so the precompute engine's candidate keys, store entries, and
    provenance maps can all refer to the same vis by the same short token.
    """
    raw = repr(spec.signature()).encode("utf-8")
    return hashlib.blake2b(raw, digest_size=8).hexdigest()


class VisSpec:
    """Mark + encodings + optional inline data and filter description."""

    def __init__(
        self,
        mark: str,
        encodings: Sequence[Encoding],
        title: str | None = None,
        filters: Sequence[tuple[str, str, Any]] = (),
    ) -> None:
        if mark not in MARKS:
            raise ValueError(f"unknown mark {mark!r}")
        self.mark = mark
        self.encodings = list(encodings)
        self.filters = list(filters)
        self.title = title or self._default_title()
        #: The executed data as typed columns, in chart-field order; None
        #: until an executor processes the spec.
        self.data: "ColumnTable | None" = None

    # ------------------------------------------------------------------
    def get_encoding(self, channel: str) -> Encoding | None:
        for enc in self.encodings:
            if enc.channel == channel:
                return enc
        return None

    @property
    def x(self) -> Encoding | None:
        return self.get_encoding("x")

    @property
    def y(self) -> Encoding | None:
        return self.get_encoding("y")

    @property
    def color(self) -> Encoding | None:
        return self.get_encoding("color")

    def fields(self) -> list[str]:
        return [e.field for e in self.encodings if e.field]

    def _default_title(self) -> str:
        parts = [e.title for e in self.encodings if e.channel in ("x", "y")]
        title = " vs ".join(parts) if len(parts) == 2 else (parts[0] if parts else "")
        if self.filters:
            conds = ", ".join(f"{a} {op} {v}" for a, op, v in self.filters)
            title = f"{title} ({conds})" if title else conds
        return title

    def filter_description(self) -> str:
        return " and ".join(f"{a} {op} {v!r}" for a, op, v in self.filters)

    # ------------------------------------------------------------------
    def to_vegalite(self) -> dict[str, Any]:
        """The Vega-Lite v5 spec dict: the decoded bytes of the writer."""
        from .vegalite import to_vegalite

        return to_vegalite(self)

    def to_ascii(self, width: int = 60, height: int = 14) -> str:
        """Render to a unicode terminal chart (requires processed data)."""
        from .ascii import render_ascii

        return render_ascii(self, width=width, height=height)

    def to_altair_code(self) -> str:
        """Python source for the equivalent Altair chart (export feature)."""
        from .code_export import to_altair_code

        return to_altair_code(self)

    def to_matplotlib_code(self) -> str:
        """Python source for the equivalent matplotlib chart."""
        from .code_export import to_matplotlib_code

        return to_matplotlib_code(self)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        encs = ", ".join(
            f"{e.channel}={e.field or 'count()'}"
            + (f":{e.aggregate}" if e.aggregate else "")
            for e in self.encodings
        )
        state = "processed" if self.data is not None else "unprocessed"
        return f"VisSpec<{self.mark}>({encs}) [{state}]"

    def signature(self) -> tuple:
        """Hashable identity used for caching and deduplication."""
        encs = tuple(
            # resolved_bin_size, not the raw field: an explicit size equal
            # to the config default and an unset size (0-sentinel) render
            # identically and must dedupe identically.
            (e.channel, e.field, e.field_type, e.aggregate, e.bin,
             e.resolved_bin_size)
            for e in sorted(self.encodings, key=lambda e: e.channel)
        )
        return (self.mark, encs, filter_signature(self.filters))
