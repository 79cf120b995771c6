"""Core domain types and venue-category taxonomy handling.

The taxonomy file is line-oriented UTF-8 text::

    # comment
    Drink<TAB>Bar
    FastFood<TAB>Bakery
    !exclude<TAB>Restaurant

Each data line assigns one subcategory to a class (``Drink``, ``FastFood``,
``SlowFood`` or ``Other``); ``!exclude`` lines drop a subcategory name
wherever it appears.  Feature order is the file declaration order, with each
class forming one contiguous block (classes ordered by first appearance).
Every vector in the pipeline uses this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataError, TaxonomyError, utf8_input

VALID_CLASS_IDS = ("Drink", "FastFood", "SlowFood", "Other")

AREA_KINDS = ("country", "city", "grid_cell")


@dataclass(frozen=True)
class Taxonomy:
    """The ordered subcategory universe, grouped into contiguous class blocks."""

    class_ids: tuple[str, ...]
    subcategories: tuple[str, ...]
    class_ranges: Mapping[str, tuple[int, int]]
    excluded: frozenset[str] = frozenset()
    _index: Mapping[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, name in enumerate(self.subcategories):
            if name in index:
                raise TaxonomyError(f"duplicate subcategory: {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)
        covered = sorted(self.class_ranges[c] for c in self.class_ids)
        pos = 0
        for lo, hi in covered:
            if lo != pos or hi <= lo:
                raise TaxonomyError("class ranges must tile the feature axis contiguously")
            pos = hi
        if pos != len(self.subcategories):
            raise TaxonomyError("class ranges do not cover every subcategory")

    @property
    def m(self) -> int:
        """Total feature count (number of subcategories)."""
        return len(self.subcategories)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise TaxonomyError(f"unknown subcategory: {name!r}") from None

    def class_of(self, name: str) -> str:
        i = self.index_of(name)
        for class_id in self.class_ids:
            lo, hi = self.class_ranges[class_id]
            if lo <= i < hi:
                return class_id
        raise TaxonomyError(f"subcategory {name!r} not covered by any class")

    def _range(self, class_id: str) -> tuple[int, int]:
        try:
            return self.class_ranges[class_id]
        except KeyError:
            raise TaxonomyError(f"unknown class id: {class_id!r}") from None


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse and validate a taxonomy file.

    Raises TaxonomyError on duplicate subcategories, unknown class ids,
    malformed lines, or classes left empty after exclusions.
    """
    entries: list[tuple[str, str]] = []
    excluded: set[str] = set()
    with utf8_input(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, name = line.partition("\t")
            head, name = head.strip(), name.strip()
            if not sep or not name:
                raise TaxonomyError(f"line {lineno}: expected 'class<TAB>subcategory'")
            if head == "!exclude":
                excluded.add(name)
                continue
            if head not in VALID_CLASS_IDS:
                raise TaxonomyError(f"line {lineno}: unknown class id {head!r}")
            entries.append((head, name))

    declared: list[str] = []
    for class_id, _ in entries:
        if class_id not in declared:
            declared.append(class_id)
    if not declared:
        raise TaxonomyError("taxonomy defines no subcategories")

    by_class: dict[str, list[str]] = {c: [] for c in declared}
    seen: set[str] = set()
    for class_id, name in entries:
        if name in excluded:
            continue
        if name in seen:
            raise TaxonomyError(f"duplicate subcategory: {name!r}")
        seen.add(name)
        by_class[class_id].append(name)

    for class_id in declared:
        if not by_class[class_id]:
            raise TaxonomyError(f"class {class_id!r} has no subcategories after exclusions")

    subcategories: list[str] = []
    ranges: dict[str, tuple[int, int]] = {}
    for class_id in declared:
        lo = len(subcategories)
        subcategories.extend(by_class[class_id])
        ranges[class_id] = (lo, len(subcategories))

    return Taxonomy(
        class_ids=tuple(declared),
        subcategories=tuple(subcategories),
        class_ranges=ranges,
        excluded=frozenset(excluded),
    )


def reference_taxonomy_path() -> Path:
    """Path of the food-and-drink taxonomy shipped with the package."""
    return Path(__file__).parent / "data" / "taxonomy_fooddrink.txt"


@dataclass(frozen=True, eq=False)
class UserProfile:
    """Per-user preference vector over the taxonomy's subcategories:
    ``bits`` holds 0/1 presence flags."""

    user_id: str
    bits: np.ndarray
    checkin_count: int
    home_country: str | None = None


@dataclass(frozen=True)
class Area:
    """A geographic unit: a country, a city bounding box, or one grid cell.

    Grid cells use half-open intervals on their north/east edges except in
    the final row/column, so a point inside the city box falls in exactly
    one cell.
    """

    area_id: str
    kind: str
    country_code: str | None = None
    bbox: tuple[float, float, float, float] | None = None  # min_lon, min_lat, max_lon, max_lat
    closed_max_lon: bool = True
    closed_max_lat: bool = True

    def __post_init__(self):
        if self.kind not in AREA_KINDS:
            raise DataError(f"unknown area kind: {self.kind!r}")
        if self.bbox is not None:
            min_lon, min_lat, max_lon, max_lat = self.bbox
            if not (min_lon <= max_lon and min_lat <= max_lat):
                raise DataError(f"invalid bounding box for area {self.area_id!r}")


def class_slice(taxonomy: Taxonomy, vec, class_id: str) -> np.ndarray:
    """Project feature vectors (the last axis) onto one class's contiguous
    block.  Concatenating the class slices in declared order reconstructs
    the full vector."""
    lo, hi = taxonomy._range(class_id)
    arr = np.asarray(vec)
    if arr.shape[-1] != taxonomy.m:
        raise DataError(
            f"vector length {arr.shape[-1]} does not match taxonomy size {taxonomy.m}"
        )
    return arr[..., lo:hi]
