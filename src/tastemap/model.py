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
    _classes: tuple[str, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for i, name in enumerate(self.subcategories):
            if index.setdefault(name, i) != i:
                raise TaxonomyError(f"duplicate subcategory: {name!r}")
        object.__setattr__(self, "_index", index)
        classes: list[str] = []  # the class of each subcategory
        for (lo, hi), class_id in sorted((self.class_ranges[c], c) for c in self.class_ids):
            if lo != len(classes) or not lo < hi <= self.m:
                raise TaxonomyError("class ranges must tile the feature axis contiguously")
            classes += [class_id] * (hi - lo)
        if len(classes) != self.m:
            raise TaxonomyError("class ranges do not cover every subcategory")
        object.__setattr__(self, "_classes", tuple(classes))

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
        return self._classes[self.index_of(name)]

    def block(self, class_id: str) -> slice:
        """The class's contiguous block of the feature axis: index the last
        axis of any per-subcategory array with it.  The blocks of
        ``class_ids`` tile the axis."""
        try:
            return slice(*self.class_ranges[class_id])
        except KeyError:
            raise TaxonomyError(f"unknown class id: {class_id!r}") from None


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse and validate a taxonomy file.

    Raises TaxonomyError on malformed lines, unknown class ids, classes left
    empty after exclusions, or duplicate subcategories.
    """
    by_class: dict[str, list[str]] = {}  # classes in order of first appearance
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
            elif head in VALID_CLASS_IDS:
                by_class.setdefault(head, []).append(name)
            else:
                raise TaxonomyError(f"line {lineno}: unknown class id {head!r}")
    if not by_class:
        raise TaxonomyError("taxonomy defines no subcategories")

    subcategories: list[str] = []
    ranges: dict[str, tuple[int, int]] = {}
    for class_id, names in by_class.items():
        lo = len(subcategories)
        subcategories += (name for name in names if name not in excluded)
        if len(subcategories) == lo:
            raise TaxonomyError(f"class {class_id!r} has no subcategories after exclusions")
        ranges[class_id] = (lo, len(subcategories))
    # Taxonomy refuses a name listed twice.
    return Taxonomy(tuple(by_class), tuple(subcategories), ranges, frozenset(excluded))


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
