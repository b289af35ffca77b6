"""Vis: an intent applied to a specific dataframe instance (§4.A)."""

from __future__ import annotations

from typing import Any

from ..dataframe import DataFrame
from ..vis.spec import VisSpec
from ..vis.table import ColumnTable
from .clause import Clause
from .compiler import CompiledVis, compile_intent
from .errors import IntentError
from .executor.base import get_executor
from .intent import parse_intent
from .metadata import Metadata, compute_metadata
from .validator import validate_intent

__all__ = ["Vis"]


def metadata_for(frame: DataFrame) -> Metadata:
    """Metadata for a frame, reusing the LuxDataFrame cache when present."""
    cached = getattr(frame, "metadata", None)
    if isinstance(cached, Metadata):
        return cached
    return compute_metadata(frame)


class Vis:
    """A single visualization: compiled spec + processed data + score.

    >>> Vis(["Age", "Education"], df)          # doctest: +SKIP

    The intent must compile to exactly one visualization — unions and
    wildcards belong in :class:`~repro.core.vislist.VisList`.
    """

    def __init__(
        self,
        intent: Any,
        source: DataFrame | None = None,
        title: str | None = None,
        score: float | None = None,
    ) -> None:
        self._intent: list[Clause] = parse_intent(intent)
        self._title_override = title
        self.score: float | None = score
        self.spec: VisSpec | None = None
        self.source: DataFrame | None = None
        if source is not None:
            self.refresh_source(source)

    # ------------------------------------------------------------------
    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledVis,
        source: DataFrame | None = None,
        score: float | None = None,
        process: bool = True,
    ) -> "Vis":
        """Internal fast path used by VisList and the action generators."""
        vis = cls.__new__(cls)
        vis._intent = compiled.clauses
        vis._title_override = None
        vis.score = score
        vis.spec = compiled.spec
        vis.source = source
        if source is not None and process and compiled.spec.data is None:
            get_executor().execute(compiled.spec, source)
        return vis

    # ------------------------------------------------------------------
    @property
    def intent(self) -> list[Clause]:
        return list(self._intent)

    @property
    def mark(self) -> str | None:
        return self.spec.mark if self.spec is not None else None

    @property
    def title(self) -> str:
        if self._title_override:
            return self._title_override
        return self.spec.title if self.spec is not None else repr(self._intent)

    @property
    def data(self) -> ColumnTable | None:
        """The executed chart data; iterating it yields row dicts."""
        return self.spec.data if self.spec is not None else None

    # ------------------------------------------------------------------
    def refresh_source(self, frame: DataFrame) -> "Vis":
        """(Re)compile and (re)process this Vis against ``frame``."""
        metadata = metadata_for(frame)
        validate_intent(self._intent, metadata)
        candidates = compile_intent(self._intent, metadata)
        if not candidates:
            raise IntentError(
                "intent did not compile to any valid visualization "
                "(check data types and cardinalities)."
            )
        if len(candidates) > 1:
            raise IntentError(
                f"intent specifies {len(candidates)} visualizations; "
                "use VisList for multi-visualization intents."
            )
        compiled = candidates[0]
        self._intent = compiled.clauses
        self.spec = compiled.spec
        self.source = frame
        get_executor().execute(self.spec, frame)
        return self

    def compute_score(self) -> float:
        """Interestingness of this Vis on its source (cached)."""
        from .interestingness import score_vis

        if self.score is None:
            if self.spec is None or self.source is None:
                raise IntentError("Vis has no source; call refresh_source first")
            self.score = score_vis(self.spec, self.source, get_executor())
        return self.score

    # ------------------------------------------------------------------
    # Renderers / export
    # ------------------------------------------------------------------
    def _require_spec(self) -> VisSpec:
        if self.spec is None:
            raise IntentError("Vis has no source; call refresh_source first")
        return self.spec

    def to_vegalite(self) -> dict[str, Any]:
        return self._require_spec().to_vegalite()

    def to_altair_code(self) -> str:
        return self._require_spec().to_altair_code()

    def to_matplotlib_code(self) -> str:
        return self._require_spec().to_matplotlib_code()

    def to_ascii(self, width: int = 60, height: int = 14) -> str:
        return self._require_spec().to_ascii(width=width, height=height)

    def __repr__(self) -> str:
        if self.spec is None:
            return f"<Vis {self._intent!r} (unattached)>"
        score = f", score={self.score:.3f}" if self.score is not None else ""
        return f"<Vis ({self.title}) mark={self.spec.mark}{score}>"
