"""Dataframe metadata: attribute statistics and semantic type inference (§8.1).

For every column the engine computes unique values (capped), cardinality,
min/max, and null counts, then infers one of Lux's semantic data types:
``quantitative``, ``nominal``, ``temporal``, ``geographic``, or ``id``.
Misclassifications can be overridden via ``LuxDataFrame.set_data_type``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..dataframe import DataFrame

__all__ = ["AttributeMeta", "Metadata", "compute_metadata", "refresh_metadata"]

#: Column-name cues for geographic attributes.
_GEO_NAMES = {
    "country",
    "countries",
    "nation",
    "state",
    "states",
    "province",
    "county",
    "city",
    "cities",
    "region",
    "continent",
    "iso2",
    "iso3",
    "iso_code",
    "country_code",
    "zip",
    "zipcode",
    "postal_code",
    "neighbourhood",
    "neighborhood",
    "neighbourhood_group",
}

#: Column-name cues for temporal attributes stored as numbers/strings.
_TEMPORAL_NAMES = {"date", "year", "month", "day", "time", "timestamp", "datetime"}

#: A small gazetteer for value-based geographic detection.
_KNOWN_PLACES = {
    # countries
    "united states", "china", "india", "brazil", "russia", "japan", "germany",
    "france", "italy", "canada", "mexico", "spain", "australia", "argentina",
    "nigeria", "egypt", "pakistan", "indonesia", "turkey", "iran", "thailand",
    "south africa", "colombia", "kenya", "ukraine", "poland", "afghanistan",
    "rwanda", "norway", "sweden", "denmark", "finland", "switzerland",
    "netherlands", "belgium", "austria", "portugal", "greece", "chile",
    "peru", "vietnam", "philippines", "malaysia", "singapore", "new zealand",
    "south korea", "united kingdom", "ireland", "israel", "saudi arabia",
    # US states
    "california", "texas", "florida", "new york", "illinois", "ohio",
    "washington", "oregon", "georgia", "virginia", "michigan", "arizona",
    "alabama", "colorado", "nevada", "utah", "massachusetts", "maryland",
}

#: Unique-value lists are capped to bound metadata cost on huge columns.
UNIQUE_CAP = 1000


@dataclass
class AttributeMeta:
    """Statistics and inferred semantics for one column."""

    name: str
    dtype: str
    data_type: str  # quantitative | nominal | temporal | geographic | id
    cardinality: int
    unique_values: list[Any] = field(default_factory=list)
    unique_truncated: bool = False
    min: Any = None
    max: Any = None
    null_count: int = 0

    @property
    def is_measure(self) -> bool:
        return self.data_type == "quantitative"

    @property
    def is_dimension(self) -> bool:
        return self.data_type in ("nominal", "temporal", "geographic")


class Metadata:
    """Container mapping column name -> :class:`AttributeMeta`.

    ``column_versions`` maps each column to the frame ``_data_version`` its
    :class:`AttributeMeta` was computed at.  Partial recomputes (a delta
    naming the changed columns) re-stamp only those columns; untouched
    columns keep their old stamp, making staleness observable per column
    rather than per frame.
    """

    def __init__(
        self,
        attributes: dict[str, AttributeMeta],
        n_rows: int,
        column_versions: dict[str, int] | None = None,
    ) -> None:
        self.attributes = attributes
        self.n_rows = n_rows
        if column_versions is None:
            column_versions = {name: 0 for name in attributes}
        self.column_versions = column_versions

    def __getitem__(self, name: str) -> AttributeMeta:
        return self.attributes[name]

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def __iter__(self):
        return iter(self.attributes.values())

    def columns_of_type(self, *data_types: str) -> list[str]:
        return [a.name for a in self if a.data_type in data_types]

    @property
    def measures(self) -> list[str]:
        return self.columns_of_type("quantitative")

    @property
    def dimensions(self) -> list[str]:
        return self.columns_of_type("nominal", "temporal", "geographic")

    def override(self, name: str, data_type: str) -> None:
        """User correction of a misclassified column (§8.1)."""
        valid = ("quantitative", "nominal", "temporal", "geographic", "id")
        if data_type not in valid:
            raise ValueError(f"data_type must be one of {valid}")
        self.attributes[name].data_type = data_type


def _looks_geographic(name: str, meta_values: list[Any]) -> bool:
    base = name.lower().strip().replace(" ", "_")
    if base in _GEO_NAMES:
        return True
    if meta_values:
        sample = [str(v).lower() for v in meta_values[:50] if v is not None]
        if sample:
            hits = sum(1 for v in sample if v in _KNOWN_PLACES)
            return hits / len(sample) > 0.5
    return False


def _looks_temporal_name(name: str) -> bool:
    base = name.lower().strip()
    return base in _TEMPORAL_NAMES or base.endswith(("_date", "_time", "_year"))


def _looks_like_id(name: str, cardinality: int, n_rows: int, dtype: str) -> bool:
    base = name.lower().strip()
    if not (base == "id" or base.endswith(("_id", " id", "id_")) or base.endswith("id")):
        return False
    if dtype in ("int64", "string") and n_rows > 0:
        return cardinality > 0.95 * n_rows and n_rows >= 10
    return False


def infer_data_type(
    name: str,
    dtype: str,
    cardinality: int,
    n_rows: int,
    unique_values: list[Any],
) -> str:
    """Apply Lux's type-inference rules (internal dtype + cardinality)."""
    if dtype == "datetime":
        return "temporal"
    if _looks_like_id(name, cardinality, n_rows, dtype):
        return "id"
    if dtype == "string":
        if _looks_geographic(name, unique_values):
            return "geographic"
        return "nominal"
    if dtype == "bool":
        return "nominal"
    if dtype in ("int64", "float64"):
        if _looks_temporal_name(name) and dtype == "int64":
            # Integer years etc. behave temporally.
            return "temporal"
        # Low-cardinality integers act as categories (e.g. ratings 1-5).
        if dtype == "int64" and cardinality <= 12 and cardinality < max(n_rows, 1):
            return "nominal"
        return "quantitative"
    return "nominal"


def compute_attribute_meta(frame: DataFrame, name: str) -> AttributeMeta:
    col = frame.column(name)
    uniques = col.unique()
    truncated = len(uniques) > UNIQUE_CAP
    cardinality = len(uniques)
    stored = uniques[:UNIQUE_CAP]
    dtype = col.dtype.name
    data_type = infer_data_type(name, dtype, cardinality, len(frame), stored)
    is_orderable = dtype != "string"
    return AttributeMeta(
        name=name,
        dtype=dtype,
        data_type=data_type,
        cardinality=cardinality,
        unique_values=stored,
        unique_truncated=truncated,
        min=col.min() if is_orderable else None,
        max=col.max() if is_orderable else None,
        null_count=col.null_count(),
    )


def compute_metadata(frame: DataFrame, version: int = 0) -> Metadata:
    """Compute full metadata for a frame (the expensive, cacheable step)."""
    attributes = {name: compute_attribute_meta(frame, name) for name in frame.columns}
    versions = {name: version for name in attributes}
    return Metadata(attributes, n_rows=len(frame), column_versions=versions)


def refresh_metadata(
    frame: DataFrame,
    previous: Metadata,
    columns: frozenset[str],
    version: int,
) -> Metadata:
    """Recompute metadata for ``columns`` only, reusing ``previous`` for the
    rest.

    Callers must have established that the row set is unchanged
    (``len(frame)`` equals ``previous.n_rows``) and that ``columns`` names
    every column whose values changed, including added and renamed ones —
    only then is carrying an old :class:`AttributeMeta` sound.  Columns
    new to the frame are scanned and vanished ones dropped.  The rebuilt
    attribute dict follows ``frame.columns`` order, so a partial refresh
    is indistinguishable from a full one apart from the per-column
    version stamps.
    """
    attributes: dict[str, AttributeMeta] = {}
    versions: dict[str, int] = {}
    for name in frame.columns:
        if name in columns or name not in previous.attributes:
            attributes[name] = compute_attribute_meta(frame, name)
            versions[name] = version
        else:
            attributes[name] = previous.attributes[name]
            versions[name] = previous.column_versions.get(name, 0)
    return Metadata(attributes, n_rows=len(frame), column_versions=versions)
