"""Cross-visualization computation cache: the shared-scan optimization.

One recommendation pass executes dozens of candidate visualizations over
the *same* frame, and each candidate independently repeats the same
relational primitives: evaluating filter masks, factorizing group-key
columns, converting columns to float, and deriving histogram bin edges.
The :class:`ComputationCache` memoizes those primitives per frame so the
whole candidate set performs each scan exactly once — the in-process
analogue of the shared-scan execution in the HTAP literature (Polynesia,
arXiv:2103.00798).

The last section is the service's, not the executor's: a frame column's
JSON tokens, one per cell, as the vega-lite writer formats them
(:meth:`ComputationCache.tokens`).  Scatter tables hold the frame's own
``Column`` objects, so every spec of a pass, and every later pass, that
shows an unchanged frame column writes it from one formatted tuple.

Invalidation contract
---------------------
Entries are keyed on *(frame identity, content version)*:

- **Identity** is held through a ``weakref`` to the frame, never through a
  bare ``id()``.  A raw-id key is unsafe: once the frame is collected its
  id can be recycled by an unrelated frame, silently aliasing cached
  vectors onto the wrong data.  The weakref both proves the original
  object is still alive and evicts the slot the moment it dies.
- **Version** is the frame's ``_data_version`` counter.  Every in-place
  mutation bumps it (``DataFrame._notify_mutation`` on the substrate,
  ``LuxDataFrame._expire`` under the paper's *wflow* rules), so a slot
  recorded at version *v* is unreachable after any mutation.
  ``LuxDataFrame._expire`` additionally calls :meth:`ComputationCache.
  invalidate` with the mutation's column-level delta: when the row set is
  intact and the changed columns are known, the slot is *migrated* to the
  new version and only entries reading a changed column are evicted —
  everything keyed on untouched columns survives the bump (delta-aware
  invalidation); a column's JSON tokens are dropped only when that column
  changed.  Row-set changes, unknown deltas, and plain frames (which
  never call ``invalidate``) fall back to whole-slot drop/replacement.

Byte budget
-----------
The cache is bounded by **bytes**, not entry counts
(``config.computation_cache_budget_mb``): every cached vector accounts its
exact ``ndarray.nbytes`` (rows x dtype width), groupings account their
``group_ids`` + ``valid`` arrays (~9 bytes/row), and a token tuple
accounts 49 bytes plus its text per token (an ASCII ``str``) and 8 per
tuple slot: ~60-75 bytes per cell.  When an insertion pushes
the total over budget, entries are evicted least-recently-used first,
cheapest-to-recompute sections first (tokens, a Python call per cell,
last), coldest frame slots first — so on a
10M-row frame the cache degrades to fewer memoized scans instead of
pinning gigabytes the way a fixed 64-masks bound would.

Sample links
------------
:meth:`link_sample` registers a row sample cut by ``get_sample`` together
with its parent frame and row indices.  While both stay unmutated, the
sample's floats, factorizations, groupings and filter masks are *derived*
from the parent's cached vectors by fancy indexing — so the approximate
scoring pass (pass 1, on the sample) performs its scans on the parent and
thereby pre-warms the exact pass (pass 2, on the full frame).  Derived
values are bit-identical to direct computation for floats and masks;
factorizations reuse the parent's label table (a valid factorization with
the parent's label order), which downstream groupings compact to observed
groups.  Every other child frame (filtered, sliced, sampled by the user)
has no link: it computes its primitives from its own columns in its own
slot.

All public methods honor ``config.computation_cache``: when the toggle is
off they compute the requested primitive directly without reading or
writing the store, so ablation benchmarks measure the true uncached cost.

Thread safety: the slot map is guarded by a cache-wide lock, but each
frame slot carries **its own lock** so concurrent filter groups fanned out
by ``DataFrameExecutor.execute_many`` contend per-frame, not globally.
Primitives are computed outside any lock behind a per-key single flight:
a miss marks its key in flight under the slot lock, and a concurrent
lookup of that key waits for that computation and takes its value as a
hit.  So concurrent batches over one frame compute each primitive once,
and none observes a torn entry; lock order is always cache lock -> slot
lock.  Cached arrays are marked read-only before they are shared.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, NamedTuple, Sequence, TYPE_CHECKING

import numpy as np

from ...dataframe.groupby import _Grouping
from ...vis.spec import filter_signature
from ..config import config

if TYPE_CHECKING:  # pragma: no cover
    from ...dataframe import DataFrame
    from ...dataframe.column import Column

__all__ = ["ComputationCache", "computation_cache", "filter_signature"]


def _grouping_nbytes(grouping: _Grouping) -> int:
    return int(grouping.group_ids.nbytes + grouping.valid.nbytes)


def _factorized_nbytes(entry: tuple[np.ndarray, list[Any]]) -> int:
    codes, labels = entry
    return int(codes.nbytes) + 8 * len(labels)


def _array_nbytes(value: np.ndarray | None) -> int:
    return 0 if value is None else int(value.nbytes)


def _tokens_nbytes(tokens: tuple[str, ...]) -> int:
    """49 bytes and the text per ``str`` token, and a pointer per tuple slot."""
    return 57 * len(tokens) + sum(map(len, tokens))


def _frozen(value: np.ndarray | None) -> np.ndarray | None:
    """``value`` marked read-only, so it can be shared."""
    if value is not None:
        value.setflags(write=False)
    return value


class _Flight:
    """What waiters on a slot entry's computation wait on, and its value."""

    __slots__ = ("done", "value")

    def __init__(self) -> None:
        self.done = threading.Event()
        #: The computed entry, or ``_MISSING`` if the computation raised.
        self.value: Any = _MISSING


class _FrameSlot:
    """All memoized primitives for one (frame, version) pair.

    Every section is an LRU ``OrderedDict`` and every entry is byte-
    accounted in ``nbytes``; the slot's own ``lock`` guards all of it, so
    two frames never contend on one another's bookkeeping.
    """

    #: Eviction order under byte pressure: cheapest to recompute first.
    #: A mask is one vectorized comparison, edges are O(1) after the float
    #: view exists; groupings (a full factorize + unique pass) come late,
    #: and JSON tokens (a Python call per cell) last.
    SECTIONS = (
        "masks",
        "edges",
        "standardized",
        "floats",
        "factorized",
        "groupings",
        "tokens",
    )

    _SIZERS: dict[str, Callable[[Any], int]] = {
        "masks": _array_nbytes,
        "edges": _array_nbytes,
        "standardized": _array_nbytes,
        "floats": _array_nbytes,
        "factorized": _factorized_nbytes,
        "groupings": _grouping_nbytes,
        "tokens": _tokens_nbytes,
    }

    __slots__ = (
        "ref",
        "version",
        "lock",
        "nbytes",
        "hits",
        "misses",
        "floats",
        "factorized",
        "groupings",
        "standardized",
        "edges",
        "masks",
        "tokens",
        "flights",
    )

    def __init__(self, ref: "weakref.ref", version: int) -> None:
        self.ref = ref
        self.version = version
        self.lock = threading.Lock()
        self.nbytes = 0  # guarded-by: lock
        self.hits = 0  # guarded-by: lock
        self.misses = 0  # guarded-by: lock
        #: column name -> read-only float64 view (NaN at missing slots)
        self.floats: "OrderedDict[str, np.ndarray]" = OrderedDict()  # guarded-by: lock
        #: column name -> (codes, labels) from factorize()
        self.factorized: "OrderedDict[str, tuple[np.ndarray, list[Any]]]" = (  # guarded-by: lock
            OrderedDict()
        )
        #: key tuple -> prepared _Grouping (the group-by's expensive half)
        self.groupings: "OrderedDict[tuple[str, ...], _Grouping]" = OrderedDict()  # guarded-by: lock
        #: column name -> standardized vector (or None when unusable)
        self.standardized: "OrderedDict[str, np.ndarray | None]" = OrderedDict()  # guarded-by: lock
        #: (column name, bin count) -> histogram bin edges
        self.edges: "OrderedDict[tuple[str, int], np.ndarray]" = OrderedDict()  # guarded-by: lock
        #: filter signature -> boolean row mask
        self.masks: "OrderedDict[tuple, np.ndarray]" = OrderedDict()  # guarded-by: lock
        #: column name -> the column's JSON tokens, one per cell
        self.tokens: "OrderedDict[str, tuple[str, ...]]" = OrderedDict()  # guarded-by: lock
        #: (section, key) -> the computation of that entry in progress:
        #: None, or the _Flight its first waiter attached
        self.flights: "dict[tuple[str, Any], _Flight | None]" = {}  # guarded-by: lock

    # The caller holds ``self.lock`` for all three helpers below.
    def _get(self, section: str, key: Any) -> Any:  # requires-lock: lock
        store: OrderedDict = getattr(self, section)
        if key in store:
            store.move_to_end(key)
            self.hits += 1
            return store[key]
        return _MISSING

    def _put(self, section: str, key: Any, value: Any) -> None:  # requires-lock: lock
        """Insert an entry; its key's single flight means it is not there yet."""
        getattr(self, section)[key] = value
        self.nbytes += self._SIZERS[section](value)

    def _evict_one(self) -> bool:  # requires-lock: lock
        """Drop the LRU entry of the first non-empty section; False if empty."""
        for section in self.SECTIONS:
            store: OrderedDict = getattr(self, section)
            if store:
                _, value = store.popitem(last=False)
                self.nbytes -= self._SIZERS[section](value)
                return True
        return False


class _SampleLink(NamedTuple):
    """A registered ranking sample -> parent row-subset relationship."""

    sample_ref: "weakref.ref"
    parent_ref: "weakref.ref"
    indices: np.ndarray
    sample_version: int
    parent_version: int


class ComputationCache:
    """Memoizes per-frame relational primitives across a candidate set."""

    def __init__(self, max_frames: int = 8, budget_bytes: int | None = None) -> None:
        self._slots: "OrderedDict[int, _FrameSlot]" = OrderedDict()  # guarded-by: _lock
        self._links: dict[int, _SampleLink] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        self._max_frames = max_frames
        self._budget_override = budget_bytes

    # ------------------------------------------------------------------
    # Slot bookkeeping
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return bool(config.computation_cache)

    def budget_bytes(self) -> int:
        """The active byte budget; 0 means unbounded."""
        if self._budget_override is not None:
            return self._budget_override
        return max(int(config.computation_cache_budget_mb), 0) << 20

    def _slot(self, frame: "DataFrame") -> _FrameSlot | None:
        """The live slot for ``frame``, creating/replacing as needed."""
        # Identity key is weakref-validated on every read and evicted on
        # collection, so a recycled id can never alias.  check: ignore[unstable-key]
        key = id(frame)
        version = getattr(frame, "_data_version", 0)
        with self._lock:
            slot = self._slots.get(key)
            if slot is not None and slot.ref() is frame and slot.version == version:
                self._slots.move_to_end(key)
                return slot
            try:
                ref = weakref.ref(frame, lambda _, key=key: self._evict(key))
            except TypeError:  # pragma: no cover - all repo frames weakref
                return None
            slot = _FrameSlot(ref, version)
            self._slots[key] = slot
            self._slots.move_to_end(key)
            while len(self._slots) > self._max_frames:
                self._slots.popitem(last=False)
            return slot

    def _evict(self, key: int) -> None:
        with self._lock:
            self._slots.pop(key, None)
            self._links.pop(key, None)

    def invalidate(self, frame: "DataFrame", delta: Any = None) -> None:
        """Invalidate ``frame``'s slot after a ``_data_version`` bump.

        Without a delta (or when the delta says the row set moved or the
        changed columns are unknown) the whole slot is dropped, as before.
        With a column-level delta the slot is *migrated* instead: it is
        re-keyed to the frame's new version and only the entries that read
        a changed column are evicted — floats, factorizations,
        standardized vectors, bin edges and JSON tokens keyed on untouched columns,
        groupings whose key columns are all untouched, and masks whose
        filter columns are all untouched survive the bump.  Intent-only
        deltas touch no data at all and keep the slot whole.
        """
        if delta is not None and getattr(delta, "intent_only", False):
            return
        if (
            delta is None
            or delta.columns_changed is None
            or delta.rows_changed
        ):
            self._evict(id(frame))
            return
        self._migrate(frame, delta.columns_changed)

    def _migrate(self, frame: "DataFrame", columns: frozenset) -> None:
        """Re-key ``frame``'s slot to its current version, evicting only
        the entries whose inputs intersect ``columns``.

        Safe because the caller guarantees the row set is unchanged: a
        cached vector over an untouched column is bit-identical at the new
        version.
        """
        # Weakref-validated identity key (see _slot).  check: ignore[unstable-key]
        key = id(frame)
        version = getattr(frame, "_data_version", 0)
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or slot.ref() is not frame:
                return
            with slot.lock:
                if slot.version == version:
                    return
                slot.version = version
                for section, affected in (
                    ("floats", lambda k: k in columns),
                    ("factorized", lambda k: k in columns),
                    ("standardized", lambda k: k in columns),
                    ("edges", lambda k: k[0] in columns),
                    ("groupings", lambda k: any(c in columns for c in k)),
                    (
                        "masks",
                        lambda k: any(attr in columns for attr, _, _ in k),
                    ),
                    ("tokens", lambda k: k in columns),
                ):
                    store: OrderedDict = getattr(slot, section)
                    for entry_key in [k for k in store if affected(k)]:
                        value = store.pop(entry_key)
                        slot.nbytes -= _FrameSlot._SIZERS[section](value)

    def clear(self) -> None:
        with self._lock:
            self._slots.clear()
            self._links.clear()

    def stats(self) -> dict[str, int]:
        """Occupancy / traffic counters, summed across slots (introspection).

        ``links`` counts the live ranking-sample links (:meth:`link_sample`).
        """
        with self._lock:
            slots = list(self._slots.values())
            links = len(self._links)
        return {
            "frames": len(slots),
            "floats": sum(len(s.floats) for s in slots),
            "groupings": sum(len(s.groupings) for s in slots),
            "masks": sum(len(s.masks) for s in slots),
            "bytes": sum(s.nbytes for s in slots),
            "hits": sum(s.hits for s in slots),
            "misses": sum(s.misses for s in slots),
            "links": links,
        }

    def _memo(
        self,
        frame: "DataFrame",
        section: str,
        key: Any,
        compute: Callable[[], Any],
        direct: Callable[[], Any],
    ) -> Any:
        """The ``section`` entry for ``key`` in ``frame``'s slot, computed once.

        With the cache off, ``direct()`` is the answer.  Otherwise a miss
        marks the key in flight under the slot lock and runs ``compute()``
        outside it, and a concurrent lookup of the key waits for that
        computation and counts a hit.  A computation that raises clears
        the mark and wakes its waiters, who look the key up again.  The
        mark is a bare ``None`` until a lookup waits on it, so a miss
        nobody waits for allocates no event.
        """
        slot = self._slot(frame) if self.enabled else None
        if slot is None:
            return direct()
        mark = (section, key)
        while True:
            with slot.lock:
                out = slot._get(section, key)
                if out is not _MISSING:
                    return out
                if mark not in slot.flights:
                    slot.flights[mark] = None
                    slot.misses += 1
                    break
                flight = slot.flights[mark]
                if flight is None:
                    flight = slot.flights[mark] = _Flight()
            flight.done.wait()
            if flight.value is not _MISSING:
                with slot.lock:
                    slot.hits += 1
                return flight.value
        value = _MISSING
        try:
            value = compute()
        finally:
            self._land(slot, section, key, value)
        return value

    def _land(self, slot: _FrameSlot, section: str, key: Any, value: Any) -> None:
        """Store a computed entry, end its flight and enforce the budget.

        ``value`` is ``_MISSING`` when the computation raised: nothing is
        stored.  An entry whose size alone exceeds the whole budget goes to
        its waiters but is not stored: storing one would evict every
        smaller entry and then be evicted itself, degrading the cache to
        zero hits (the 10M-row case, where one float64 view is 80MB
        against the 64MiB default budget).
        """
        budget = self.budget_bytes()
        keep = value is not _MISSING and not (
            budget and _FrameSlot._SIZERS[section](value) > budget
        )
        with slot.lock:
            if keep:
                slot._put(section, key, value)
            flight = slot.flights.pop((section, key))
        if flight is not None:
            flight.value = value
            flight.done.set()
        if keep:
            self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict LRU entries until total bytes fit the configured budget.

        Walks frame slots coldest-first; within a slot, sections are
        evicted cheapest-to-recompute first (``_FrameSlot.SECTIONS``).  A
        slot emptied by eviction is dropped unless it is the hottest one
        (the slot serving the current pass keeps its identity so in-flight
        lookups re-fill it rather than recreate it).
        """
        budget = self.budget_bytes()
        if budget <= 0:
            return
        with self._lock:
            total = sum(s.nbytes for s in self._slots.values())
            if total <= budget:
                return
            for key in list(self._slots):
                slot = self._slots.get(key)
                if slot is None:  # pragma: no cover - concurrent weakref death
                    continue
                with slot.lock:
                    while total > budget and slot._evict_one():
                        total = sum(s.nbytes for s in self._slots.values())
                    if slot.nbytes == 0 and key != next(reversed(self._slots)):
                        self._slots.pop(key, None)
                if total <= budget:
                    return

    # ------------------------------------------------------------------
    # Sample links (pre-warming the parent frame's slot)
    # ------------------------------------------------------------------
    def link_sample(
        self, sample: "DataFrame", parent: "DataFrame", indices: np.ndarray
    ) -> None:
        """Register ``sample`` as ``parent.iloc[indices]``, immutably cut.

        While both frames stay at their registration versions, primitives
        requested on the sample are derived from the parent's cached
        vectors (computing them on the parent first), so a sampled ranking
        pass pre-warms the full-frame pass that follows it.
        """
        if sample is parent:
            return
        # Weakref-validated identity key (see _slot).  check: ignore[unstable-key]
        key = id(sample)
        try:
            sample_ref = weakref.ref(sample, lambda _, k=key: self._unlink(k))
            parent_ref = weakref.ref(parent)
        except TypeError:  # pragma: no cover - all repo frames weakref
            return
        indices = np.asarray(indices, dtype=np.int64)
        indices.setflags(write=False)
        link = _SampleLink(
            sample_ref,
            parent_ref,
            indices,
            getattr(sample, "_data_version", 0),
            getattr(parent, "_data_version", 0),
        )
        with self._lock:
            self._links[key] = link

    def _unlink(self, key: int) -> None:
        with self._lock:
            self._links.pop(key, None)

    def _parent_view(self, frame: "DataFrame") -> "tuple[DataFrame, np.ndarray] | None":
        """(parent, row indices) when ``frame`` is a still-valid sample cut."""
        with self._lock:
            # Weakref-validated identity key (see _slot).  check: ignore[unstable-key]
            link = self._links.get(id(frame))
        if link is None or link.sample_ref() is not frame:
            return None
        parent = link.parent_ref()
        if parent is None:
            return None
        if getattr(frame, "_data_version", 0) != link.sample_version:
            return None
        if getattr(parent, "_data_version", 0) != link.parent_version:
            return None
        return parent, link.indices

    # ------------------------------------------------------------------
    # Memoized primitives
    # ------------------------------------------------------------------
    def to_float(self, frame: "DataFrame", name: str) -> np.ndarray:
        """``frame.column(name).to_float()``, computed once per version.

        The returned array is shared and read-only; fancy indexing (the way
        every caller consumes it) copies, so downstream code is unaffected.
        """

        def compute() -> np.ndarray:
            view = self._parent_view(frame)
            if view is not None:
                parent, idx = view
                return _frozen(self.to_float(parent, name)[idx])
            return _frozen(frame.column(name).to_float())

        return self._memo(
            frame, "floats", name, compute, lambda: frame.column(name).to_float()
        )

    def factorize(
        self, frame: "DataFrame", name: str
    ) -> tuple[np.ndarray, list[Any]]:
        """``frame.column(name).factorize()``, computed once per version.

        For a linked sample the codes are sliced from the parent's
        factorization (reusing its label table), so the scan happens on —
        and stays cached for — the parent.
        """

        def compute() -> tuple[np.ndarray, list[Any]]:
            view = self._parent_view(frame)
            if view is not None:
                parent, idx = view
                parent_codes, labels = self.factorize(parent, name)
                return _frozen(parent_codes[idx]), labels
            codes, labels = frame.column(name).factorize()
            return _frozen(codes), labels

        return self._memo(
            frame, "factorized", name, compute, lambda: frame.column(name).factorize()
        )

    def grouping(self, frame: "DataFrame", keys: tuple[str, ...]) -> _Grouping:
        """A prepared :class:`_Grouping` (factorized + combined group ids).

        This is the expensive half of every group-by; per-key factorizations
        route through :meth:`factorize` so single-column and multi-column
        groupings over the same key share one scan.

        For a linked sample the whole prepared grouping is *derived* from
        the parent's (slice ``group_ids``, recompact observed codes — see
        :meth:`_Grouping.from_parent`), so pass 1 builds — and pass 2 then
        reuses — the full-frame grouping without the sample refactorizing
        or re-uniquing anything.
        """
        keys = tuple(keys)

        def compute() -> _Grouping:
            view = self._parent_view(frame)
            if view is not None:
                parent, idx = view
                return _Grouping.from_parent(self.grouping(parent, keys), idx)
            return _Grouping(
                frame, keys, factorize=lambda name: self.factorize(frame, name)
            )

        return self._memo(frame, "groupings", keys, compute, lambda: _Grouping(frame, keys))

    def standardized(self, frame: "DataFrame", name: str) -> np.ndarray | None:
        """Zero-mean vector scaled so pairwise Pearson is a dot product.

        Returns None when NaNs or zero variance make the fast path invalid
        (callers fall back to pairwise-complete correlation).  Never
        derived from a sample link: standardization constants (mean, std)
        differ between a sample and its parent.
        """
        return self._memo(
            frame,
            "standardized",
            name,
            lambda: _frozen(self._compute_standardized(frame, name)),
            lambda: self._compute_standardized(frame, name),
        )

    def _compute_standardized(
        self, frame: "DataFrame", name: str
    ) -> np.ndarray | None:
        v = self.to_float(frame, name)
        if np.isnan(v).any():
            return None
        std = v.std()
        if std == 0 or len(v) < 3:
            return None
        return (v - v.mean()) / (std * np.sqrt(len(v)))

    def bin_edges(
        self,
        frame: "DataFrame",
        name: str,
        bins: int,
        valid_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """Histogram bin edges over the column's valid values.

        Valid means finite: NaN (missing) and +-inf are left out.  Callers
        that already hold the filtered values pass them via
        ``valid_values`` so the uncached path converts the column once,
        not twice.  Never derived from a sample link: edges depend on the
        subset's min/max, not just its rows.
        """
        return self._memo(
            frame,
            "edges",
            (name, int(bins)),
            lambda: _frozen(self._compute_edges(frame, name, bins, valid_values)),
            lambda: self._compute_edges(frame, name, bins, valid_values),
        )

    def _compute_edges(
        self,
        frame: "DataFrame",
        name: str,
        bins: int,
        valid_values: np.ndarray | None = None,
    ) -> np.ndarray:
        if valid_values is None:
            valid_values = self.to_float(frame, name)
            valid_values = valid_values[np.isfinite(valid_values)]
        return np.histogram_bin_edges(valid_values, bins=bins)

    def filter_mask(
        self,
        frame: "DataFrame",
        filters: Any,
        compute: Callable[["DataFrame"], np.ndarray],
    ) -> np.ndarray:
        """The boolean row mask for a filter clause list.

        ``compute`` receives the frame to evaluate against: for a linked
        sample the mask is computed on the *parent* and sliced down, so
        pass 1 leaves the full-frame mask warm for pass 2.

        Only the mask is stored, never the materialized subframe: a
        subframe is a full row copy and pinning it process-wide would
        retain GBs on large static frames.  Batch executors that want
        subframe sharing hold the subframe locally for the duration of
        their batch (see ``DataFrameExecutor.execute_many``).
        """

        def derive() -> np.ndarray:
            view = self._parent_view(frame)
            if view is not None:
                parent, idx = view
                return _frozen(self.filter_mask(parent, filters, compute)[idx])
            return _frozen(compute(frame))

        return self._memo(
            frame, "masks", filter_signature(filters), derive, lambda: compute(frame)
        )

    def tokens(
        self,
        frame: "DataFrame",
        name: str,
        format: Callable[["Column"], Sequence[str]],
    ) -> Sequence[str]:
        """``format(frame.column(name))``, the column's JSON tokens, once per version.

        ``format`` is the vega-lite writer's cell formatter.  The cached
        value is a tuple, so every spec and pass that shows the column
        shares it.  Never derived from a sample link: the writer asks only
        for the columns of the frame a pass ran on.
        """
        return self._memo(
            frame,
            "tokens",
            name,
            lambda: tuple(format(frame.column(name))),
            lambda: format(frame.column(name)),
        )


#: Sentinel distinguishing "not cached yet" from a cached None.
_MISSING = object()

#: The process-wide cache shared by executors, scoring, and the optimizer.
computation_cache = ComputationCache()
