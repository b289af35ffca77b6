"""LuxDataFrame: the always-on dataframe (§4, §7).

Subclasses the substrate DataFrame so *every* dataframe operation keeps
working unchanged, while two hooks implement the paper's machinery:

- ``_init_derived`` propagates intent + history to derived frames and
  keeps a weak reference to the parent (``parent_frame``); a derived
  frame shares no computation-cache entries with its parent;
- ``_notify_mutation`` expires metadata, recommendations, the cached
  sample, and the executor's shared computation cache whenever the frame's
  content changes (the *wflow* expiry rules: inplace ops, column updates
  via bracket/dot assignment, label changes), bumping ``_data_version`` so
  every version-keyed cache entry becomes unreachable.

Printing the frame (``repr``) triggers lazy recomputation of metadata and
recommendations; unmodified re-prints hit the memoized results.
"""

from __future__ import annotations

import warnings
import weakref
from typing import Any

from ..dataframe import DataFrame, Series
from ..dataframe import observe
from ..dataframe.io import read_csv as _read_csv
from ..vis.html import render_widget
from .clause import Clause
from .config import config
from .errors import LuxWarning
from .executor.cache import computation_cache
from .history import History
from . import usage_log
from .intent import parse_intent
from .metadata import Metadata, compute_metadata, refresh_metadata
from .optimizer.scheduler import RecommendationSet, run_actions
from .validator import validate_intent
from .vis import Vis
from .vislist import VisList

__all__ = ["LuxDataFrame", "LuxSeries", "read_csv"]


class LuxSeries(Series):
    """A Series that displays its univariate visualization when printed.

    Implements the paper's Series structure-based recommendation: printing a
    single column shows a histogram (quantitative) or bar chart (nominal)
    built through the same machinery as full dataframes.
    """

    def _wrap(self, column, index=None) -> "LuxSeries":
        return LuxSeries(
            column,
            name=self.name,
            index=index if index is not None else None,
        )

    def to_lux_frame(self) -> "LuxDataFrame":
        name = self.name or "value"
        frame = LuxDataFrame({name: self.column})
        return frame

    @property
    def visualization(self) -> Vis | None:
        """The univariate Vis for this series (None when not visualizable)."""
        name = self.name or "value"
        try:
            frame = self.to_lux_frame()
            return Vis([name], frame)
        except Exception:
            return None

    def __repr__(self) -> str:
        base = super().__repr__()
        if not config.always_on or len(self) == 0:
            return base
        vis = self.visualization
        if vis is None:
            return base
        try:
            return f"{base}\n\n{vis.to_ascii()}"
        except Exception:
            return base


class LuxDataFrame(DataFrame):
    """A DataFrame carrying intent, metadata, history, and recommendations."""

    _internal_names = DataFrame._internal_names | {
        "_intent_clauses",
        "_metadata_cache",
        "_metadata_version",
        "_recs_cache",
        "_recs_version",
        "_history",
        "_parent_ref",
        "_sample_cache",
        "_exported",
        "_data_version",
        "_intent_epoch",
        "_restored_type_overrides",
        "_metadata_delta",
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._setup_lux_state()
        super().__init__(*args, **kwargs)
        if isinstance(args[0] if args else None, LuxDataFrame):
            source = args[0]
            self._intent_clauses = [c.copy() for c in source._intent_clauses]
            self._history = source._history.copy()

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------
    def _setup_lux_state(self) -> None:
        object.__setattr__(self, "_intent_clauses", [])
        object.__setattr__(self, "_metadata_cache", None)
        object.__setattr__(self, "_metadata_version", -1)
        object.__setattr__(self, "_recs_cache", None)
        object.__setattr__(self, "_recs_version", (-1, -1))
        object.__setattr__(self, "_history", History())
        object.__setattr__(self, "_parent_ref", None)
        object.__setattr__(self, "_sample_cache", None)
        object.__setattr__(self, "_exported", [])
        object.__setattr__(self, "_data_version", 0)
        object.__setattr__(self, "_intent_epoch", 0)
        #: Explicit set_data_type overrides carried across a snapshot
        #: restore: the restored frame has no metadata cache yet, so the
        #: first _compute_metadata seeds its overrides from here.
        object.__setattr__(self, "_restored_type_overrides", {})
        #: Union of all data deltas since the last metadata computation.
        #: ``None`` means no mutation is pending; ``_compute_metadata``
        #: consumes it to rescan only the columns that actually changed.
        object.__setattr__(self, "_metadata_delta", None)

    def _init_derived(self, parent: DataFrame | None, op: str) -> None:
        """Propagate Lux state from parent to derived frames (§6, history)."""
        if not hasattr(self, "_history"):
            self._setup_lux_state()
        if isinstance(parent, LuxDataFrame):
            self._history = History()
            self._history.extend_from(parent._history)
            self._intent_clauses = [c.copy() for c in parent._intent_clauses]
            self._parent_ref = weakref.ref(parent)
        if op and op not in ("copy", "select_columns"):
            self._history.append(op)

    def _notify_mutation(
        self, op: str, delta: "observe.Delta | None" = None
    ) -> None:
        if not hasattr(self, "_history"):
            self._setup_lux_state()
        self._history.append(op)
        self._expire(op, delta)
        if not config.lazy_maintain and config.always_on:
            # no-opt condition: recompute eagerly after every change.
            self._refresh_all()

    def _expire(self, op: str = "mutation", delta: "observe.Delta | None" = None) -> None:
        """Expire cached metadata/recommendations/sample (wflow rules).

        Bumping ``_data_version`` is what makes every version-keyed cache
        (the metadata and recommendation memos, whose stamps it no longer
        matches, the row sample, the executor's computation cache, its
        sample links, the SQL executor's connection cache) unreachable.  The
        explicit ``invalidate`` below frees the executor cache's memory
        eagerly — and, when ``delta`` names the changed columns with the
        row set intact, *migrates* the slot instead: primitives keyed on
        untouched columns survive the version bump (delta-aware
        invalidation), so a single-column edit does not throw away every
        other column's floats, factorizations, and masks.
        """
        self._sample_cache = None
        self._data_version += 1
        pending = delta if delta is not None else observe.Delta.unknown()
        if self._metadata_delta is not None:
            pending = self._metadata_delta.union(pending)
        self._metadata_delta = pending
        computation_cache.invalidate(self, delta)
        observe.emit(self, op, delta)

    def expire_recommendations(self) -> None:
        self._recs_version = (-1, -1)

    def _refresh_all(self) -> None:
        self._compute_metadata()
        self._compute_recommendations()

    def _make_series(self, col, name: str) -> LuxSeries:
        return LuxSeries(col, name=name, index=self._index)

    # ------------------------------------------------------------------
    # Intent (§5)
    # ------------------------------------------------------------------
    @property
    def intent(self) -> list[Clause]:
        return list(self._intent_clauses)

    @intent.setter
    def intent(self, value: Any) -> None:
        clauses = parse_intent(value)
        validate_intent(clauses, self.metadata)
        self._intent_clauses = clauses
        # Intent changes expire recommendations but not metadata (§8.2).
        self._expire_recommendation_state()
        usage_log.record("intent", clauses=[repr(c) for c in clauses])

    def clear_intent(self) -> None:
        self._intent_clauses = []
        self._expire_recommendation_state()

    def _expire_recommendation_state(
        self, delta: "observe.Delta | None" = None
    ) -> None:
        """Expire recommendations (but not metadata) and signal observers.

        ``_intent_epoch`` is the recommendation-only sibling of
        ``_data_version``: the service's result store keys on both, so an
        intent change makes stored payloads unreachable without discarding
        data-level caches, and the emitted event lets the precompute
        engine refresh the store in the background.  The default delta is
        *intent-only* (no data dirty); callers that also shift semantics
        (``set_data_type``) pass a richer delta naming the columns.
        """
        self._intent_epoch += 1
        observe.emit(self, "intent", delta or observe.Delta.intent())

    @property
    def current_vis(self) -> VisList | None:
        """Visualization(s) of the user-specified intent itself."""
        if not self._intent_clauses:
            return None
        try:
            return VisList(self._intent_clauses, self)
        except Exception as exc:
            warnings.warn(f"could not render intent: {exc}", LuxWarning)
            return None

    # ------------------------------------------------------------------
    # Metadata (§8.1) — lazy + memoized under wflow
    # ------------------------------------------------------------------
    @property
    def metadata(self) -> Metadata:
        if (
            self._metadata_cache is None
            or self._metadata_version != self._data_version
            or not config.lazy_maintain
        ):
            self._compute_metadata()
        return self._metadata_cache

    def _compute_metadata(self) -> None:
        # Stamp the result with the version it started from: a background
        # pass may race an analyst mutating the frame, and stamping the
        # version current at the end would mark metadata the mutation
        # already expired as fresh (served as current by the next pass).
        start_version = self._data_version
        # Snapshot-and-clear the accumulated delta: a mutation racing this
        # computation re-accumulates into a fresh delta AND moves the
        # version, so the stamp check in ``metadata`` forces another pass
        # that rescans whatever the race touched.
        pending = self._metadata_delta
        self._metadata_delta = None
        previous = self._metadata_cache
        if previous is not None:
            # Preserve explicit user data-type overrides across refreshes.
            overrides = getattr(previous, "_overrides", {})
        else:
            # First computation after a snapshot restore: the overrides
            # live on the frame until a metadata cache exists to hold them.
            overrides = dict(getattr(self, "_restored_type_overrides", {}) or {})
        if (
            previous is not None
            and pending is not None
            and pending.columns_changed is not None
            and not pending.rows_changed
            and previous.n_rows == len(self)
        ):
            # Fine-grained path: the delta names exactly which columns
            # changed with the row set intact — including columns added,
            # dropped or renamed — so only those columns are rescanned;
            # the rest keep their AttributeMeta and per-column version
            # stamp, which content-keyed reuse downstream relies on.
            meta = refresh_metadata(
                self, previous, pending.columns_changed, start_version
            )
        else:
            meta = compute_metadata(self, version=start_version)
        for name, data_type in overrides.items():
            if name in meta:
                meta.override(name, data_type)
        meta._overrides = dict(overrides)
        self._metadata_cache = meta
        self._metadata_version = start_version

    def set_data_type(self, types: dict[str, str]) -> None:
        """Override inferred semantic data types (§8.1)."""
        meta = self.metadata
        for name, data_type in types.items():
            meta.override(name, data_type)
        stored = getattr(meta, "_overrides", {})
        stored.update(types)
        meta._overrides = stored
        # A type override changes what the named columns *mean* (which
        # candidates the actions enumerate over them) without touching
        # their data: the delta names them so delta-aware consumers rerun
        # exactly the affected actions.
        self._expire_recommendation_state(
            observe.Delta(
                columns_changed=frozenset(types),
                schema_changed=True,
                intent_changed=True,
            )
        )

    @property
    def data_types(self) -> dict[str, str]:
        return {a.name: a.data_type for a in self.metadata}

    @property
    def history(self) -> History:
        return self._history

    @property
    def parent_frame(self) -> "LuxDataFrame | None":
        if self._parent_ref is None:
            return None
        return self._parent_ref()

    # ------------------------------------------------------------------
    # Recommendations (§6, §7.2) — lazy + memoized under wflow
    # ------------------------------------------------------------------
    @property
    def recommendations(self) -> RecommendationSet:
        if (
            self._recs_cache is None
            or self._recs_version != (self._data_version, self._intent_epoch)
            or not config.lazy_maintain
        ):
            self._compute_recommendations()
        return self._recs_cache

    @property
    def recommendation(self) -> RecommendationSet:
        """Alias matching the Lux API (``df.recommendation``)."""
        return self.recommendations

    def _compute_recommendations(self) -> None:
        # Same stamping rationale as ``_compute_metadata``: a pass racing a
        # mutation must not stamp its (possibly torn) result as current.
        start_version = (self._data_version, self._intent_epoch)
        self._recs_cache = self._run_recommendations()
        self._recs_version = start_version

    def _run_recommendations(self) -> RecommendationSet:
        """One recommendation pass under the current config; memoizes nothing."""
        from .actions.registry import default_registry

        metadata = self.metadata
        try:
            applicable = default_registry.applicable(self)
            return run_actions(applicable, self, metadata)
        except Exception as exc:
            # Failproofing (§10.3): never break the display.
            warnings.warn(
                f"recommendation generation failed ({exc}); "
                "falling back to the plain table view.",
                LuxWarning,
            )
            recs = RecommendationSet()
            recs._done.set()
            return recs

    # ------------------------------------------------------------------
    # Widget export (§3)
    # ------------------------------------------------------------------
    def export(self, action: str, index: int = 0) -> Vis:
        """Export one recommended Vis (the widget's export button)."""
        vis = self.recommendations[action][index]
        self._exported.append(vis)
        usage_log.record("export", action=action, index=index)
        return vis

    @property
    def exported(self) -> VisList:
        return VisList(visualizations=list(self._exported), source=self)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        table = super().__repr__()
        usage_log.record(
            "print", rows=len(self), cols=len(self.columns),
            always_on=config.always_on,
        )
        if not config.always_on:
            return table
        try:
            recs = self.recommendations
            names = recs.keys() if not config.streaming else recs.ready
            summary = ", ".join(
                f"{name} ({len(recs._results[name])})" for name in names
            )
        except Exception as exc:  # failproof fallback to the table (§10.3)
            warnings.warn(f"Lux view unavailable: {exc}", LuxWarning)
            return table
        if config.default_display == "lux":
            return f"{table}\n\n{self._render_dashboard()}"
        hint = (
            f"\n[Lux] actions: {summary}"
            "\n      toggle with repro.config.default_display = 'lux'; "
            "df.show(); df.save_as_html('widget.html')"
        )
        return table + hint

    def _render_dashboard(self, charts_per_action: int = 2) -> str:
        recs = self.recommendations
        blocks = []
        for name in recs.keys():
            vislist = recs[name]
            blocks.append(f"=== {name} ({len(vislist)}) ===")
            for vis in list(vislist)[:charts_per_action]:
                try:
                    blocks.append(vis.to_ascii())
                except Exception:
                    blocks.append(f"  {vis!r}")
        return "\n".join(blocks)

    def show(self, charts_per_action: int = 2) -> None:
        """Print the ASCII dashboard (the terminal 'Lux view')."""
        print(self._render_dashboard(charts_per_action=charts_per_action))

    def to_report(self, path: str, title: str | None = None,
                  charts_per_action: int = 4) -> str:
        """Write a static, shareable HTML report of all recommendations.

        Reproduces the §10.3 downstream-reporting integration: unlike the
        per-frame widget, a report is a one-shot document (optionally
        combining several frames via :func:`repro.vis.render_report`).
        """
        from ..vis.report import render_report

        html = render_report(
            {title or f"Dataframe ({len(self)} rows)": self},
            title=title or "Lux report",
            charts_per_action=charts_per_action,
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(html)
        return path

    def save_as_html(self, path: str, max_table_rows: int = 20) -> str:
        """Write the interactive HTML widget; returns the path."""
        recs = self.recommendations
        actions = {name: recs[name].specs() for name in recs.keys()}
        html = render_widget(
            actions,
            table_records=self.head(max_table_rows).to_records(),
            table_columns=self.columns,
            title=f"LuxDataFrame ({len(self)} rows x {len(self.columns)} cols)",
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(html)
        return path


def read_csv(path_or_buffer: Any, **kwargs: Any) -> LuxDataFrame:
    """Load a CSV directly into a LuxDataFrame (``lux.read_csv`` analogue)."""
    return _read_csv(path_or_buffer, frame_cls=LuxDataFrame, **kwargs)
