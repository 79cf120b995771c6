"""Check-in parsing, offline reverse geocoding, user filtering and city grids.

Corpus files are JSON Lines (``{"user":..,"venue":..,"lat":..,"lon":..,
"ts":..,"subcat":..}``) or CSV with the same header names.  Timestamps are
ISO-8601 with no UTC offset and are kept as venue-local wall-clock times.

The polygon file has one closed ring per line::

    AA<TAB>lon,lat;lon,lat;lon,lat;...

A country may span several lines (several rings, unioned).  Geocoding is a
plain point-in-polygon test with points on a ring edge counting as inside.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import DataError, ParseError
from .model import Area, CheckIn, Taxonomy

CORPUS_FIELDS = ("user", "venue", "lat", "lon", "ts", "subcat")
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


class Corpus:
    """An immutable check-in table held as numpy columns.

    Row columns: ``lat``, ``lon`` (float64), ``ts`` (datetime64[us],
    venue-local wall-clock time), ``hour`` and ``is_weekend`` (derived from
    ``ts``), ``subcat_idx`` (into ``taxonomy.subcategories``), ``user_idx``
    (into ``user_ids``) and ``venue_idx`` (into ``venue_ids``).  The string
    tables are sorted and dense: they hold exactly the ids some row uses.
    Every aggregation in the pipeline runs on these columns.

    ``Corpus(checkins, taxonomy)`` builds the columns from validated
    records; :meth:`from_columns` wraps columns that already exist.
    """

    def __init__(
        self,
        checkins: Iterable[CheckIn],
        taxonomy: Taxonomy,
        skipped_unknown: int = 0,
        malformed_lines: int = 0,
    ):
        checkins = list(checkins)
        n = len(checkins)
        user_ids = sorted({c.user_id for c in checkins})
        venue_ids = sorted({c.venue_id for c in checkins})
        user_of = {u: i for i, u in enumerate(user_ids)}
        venue_of = {v: i for i, v in enumerate(venue_ids)}
        # Whole microseconds since 1970; np.array(datetimes) is about 5x slower.
        micros = np.fromiter(((c.ts - _EPOCH) // _MICROSECOND for c in checkins), np.int64, n)
        self._assign(
            taxonomy,
            lat=np.fromiter((c.lat for c in checkins), np.float64, n),
            lon=np.fromiter((c.lon for c in checkins), np.float64, n),
            ts=micros.view("datetime64[us]"),
            subcat_idx=np.fromiter(
                (taxonomy.index_of(c.subcategory) for c in checkins), np.int64, n
            ),
            user_idx=np.fromiter((user_of[c.user_id] for c in checkins), np.int64, n),
            user_ids=tuple(user_ids),
            venue_idx=np.fromiter((venue_of[c.venue_id] for c in checkins), np.int64, n),
            venue_ids=tuple(venue_ids),
            skipped_unknown=skipped_unknown,
            malformed_lines=malformed_lines,
        )

    @classmethod
    def from_columns(cls, taxonomy: Taxonomy, **columns) -> "Corpus":
        """A corpus over existing columns: ``lat``, ``lon``, ``ts``,
        ``subcat_idx``, ``user_idx``, ``user_ids``, ``venue_idx`` and
        ``venue_ids`` (tables sorted and dense), and optionally
        ``skipped_unknown`` and ``malformed_lines``."""
        corpus = cls.__new__(cls)
        corpus._assign(taxonomy, **columns)
        return corpus

    def _assign(
        self,
        taxonomy: Taxonomy,
        *,
        lat: np.ndarray,
        lon: np.ndarray,
        ts: np.ndarray,
        subcat_idx: np.ndarray,
        user_idx: np.ndarray,
        user_ids: Sequence[str],
        venue_idx: np.ndarray,
        venue_ids: Sequence[str],
        skipped_unknown: int = 0,
        malformed_lines: int = 0,
    ) -> None:
        self.taxonomy = taxonomy
        self.skipped_unknown = skipped_unknown
        self.malformed_lines = malformed_lines
        self.lat = np.asarray(lat, np.float64)
        self.lon = np.asarray(lon, np.float64)
        self.ts = np.asarray(ts, "datetime64[us]")
        days = self.ts.astype("datetime64[D]")
        self.hour = ((self.ts - days) // np.timedelta64(1, "h")).astype(np.int64)
        # Day 0 of datetime64 (1970-01-01) is a Thursday, weekday 3.
        self.is_weekend = (days.astype(np.int64) + 3) % 7 >= 5
        self.subcat_idx = np.asarray(subcat_idx, np.int64)
        self.user_idx = np.asarray(user_idx, np.int64)
        self.user_ids: tuple[str, ...] = tuple(user_ids)
        self.venue_idx = np.asarray(venue_idx, np.int64)
        self.venue_ids: tuple[str, ...] = tuple(venue_ids)

    def __len__(self) -> int:
        return len(self.lat)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def subset(self, mask: np.ndarray) -> "Corpus":
        """The rows where ``mask`` is true, in order, with the user and
        venue tables cut down to the ids those rows use."""
        mask = np.asarray(mask, np.bool_)
        user_idx, user_ids = _densify(self.user_idx[mask], self.user_ids)
        venue_idx, venue_ids = _densify(self.venue_idx[mask], self.venue_ids)
        return Corpus.from_columns(
            self.taxonomy,
            lat=self.lat[mask],
            lon=self.lon[mask],
            ts=self.ts[mask],
            subcat_idx=self.subcat_idx[mask],
            user_idx=user_idx,
            user_ids=user_ids,
            venue_idx=venue_idx,
            venue_ids=venue_ids,
            skipped_unknown=self.skipped_unknown,
            malformed_lines=self.malformed_lines,
        )

    def filter_users(self, keep: Iterable[str]) -> "Corpus":
        keep_set = set(keep)
        kept = np.fromiter((u in keep_set for u in self.user_ids), np.bool_, self.n_users)
        return self.subset(kept[self.user_idx])


def _densify(idx: np.ndarray, table: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Renumber ``idx`` onto the entries of ``table`` it uses, keeping their order."""
    used, dense = np.unique(idx, return_inverse=True)
    return dense.astype(np.int64), tuple(table[i] for i in used.tolist())


class _UnknownSubcategory(Exception):
    pass


def _build_checkin(rec: Mapping[str, object], taxonomy: Taxonomy) -> CheckIn:
    try:
        user = str(rec["user"])
        venue = str(rec["venue"])
        lat = float(rec["lat"])  # type: ignore[arg-type]
        lon = float(rec["lon"])  # type: ignore[arg-type]
        ts = datetime.fromisoformat(str(rec["ts"]))
        subcat = str(rec["subcat"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad record: {exc}") from exc
    if subcat not in taxonomy:
        raise _UnknownSubcategory(subcat)
    return CheckIn(user, venue, lat, lon, ts, subcat)


def parse_corpus(source, taxonomy: Taxonomy, error_budget: float = 0.001) -> Corpus:
    """Parse a JSONL or CSV check-in stream into a validated Corpus.

    Records naming an unknown subcategory are skipped and counted.  Malformed
    records (bad JSON, missing fields, out-of-range coordinates, offset-
    carrying timestamps) are tolerated up to ``error_budget`` as a fraction
    of data lines; beyond that the parse aborts, citing the first bad line.
    """
    if not 0.0 <= error_budget <= 1.0:
        raise DataError(f"error budget must lie in [0, 1], got {error_budget:g}")
    if isinstance(source, (str, Path)):
        force_csv = Path(source).suffix.lower() == ".csv"
        with open(source, encoding="utf-8") as fh:
            return _parse_stream(fh, taxonomy, error_budget, force_csv)
    return _parse_stream(source, taxonomy, error_budget, force_csv=False)


def _parse_stream(source, taxonomy: Taxonomy, error_budget: float, force_csv: bool) -> Corpus:
    first = ""
    lines = iter(source)
    for line in lines:
        if line.strip():
            first = line
            break

    checkins: list[CheckIn] = []
    skipped_unknown = 0
    malformed = 0
    first_bad: int | None = None
    total = 0

    if not first:
        return Corpus([], taxonomy)

    first_row = next(csv.reader(io.StringIO(first)), [])
    csv_mode = force_csv or set(first_row) == set(CORPUS_FIELDS)

    if not csv_mode:
        def records():
            yield 1, first
            for i, line in enumerate(lines, 2):
                yield i, line

        for lineno, raw in records():
            if not raw.strip():
                continue
            total += 1
            try:
                rec = json.loads(raw)
                if not isinstance(rec, dict):
                    raise DataError("expected a JSON object")
                checkins.append(_build_checkin(rec, taxonomy))
            except _UnknownSubcategory:
                skipped_unknown += 1
            except (json.JSONDecodeError, DataError):
                malformed += 1
                if first_bad is None:
                    first_bad = lineno
    else:
        header = first_row
        if set(header) != set(CORPUS_FIELDS):
            raise ParseError(
                f"line 1: CSV header must name exactly {CORPUS_FIELDS}", line_number=1
            )
        reader = csv.DictReader(lines, fieldnames=header)
        for lineno, row in enumerate(reader, 2):
            if row is None or all(v in (None, "") for v in row.values()):
                continue
            total += 1
            try:
                if None in row or None in row.values():
                    raise DataError("wrong number of fields")
                checkins.append(_build_checkin(row, taxonomy))
            except _UnknownSubcategory:
                skipped_unknown += 1
            except DataError:
                malformed += 1
                if first_bad is None:
                    first_bad = lineno

    if malformed > error_budget * total:
        raise ParseError(
            f"{malformed} malformed record(s) in {total} lines exceeds the error "
            f"budget ({error_budget:g}); first bad line: {first_bad}",
            line_number=first_bad,
        )
    return Corpus(checkins, taxonomy, skipped_unknown, malformed)


# ---------------------------------------------------------------------------
# Offline reverse geocoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeoIndex:
    """Country polygons packed into flat arrays for the containment kernels."""

    countries: tuple[str, ...]
    ring_x: np.ndarray
    ring_y: np.ndarray
    ring_indptr: np.ndarray
    ring_country: np.ndarray
    ring_bbox: np.ndarray


def load_geo_index(path: str | Path) -> GeoIndex:
    """Load the one-ring-per-line polygon file; rings are closed on load."""
    countries: list[str] = []
    seen: dict[str, int] = {}
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    ring_country: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            code, sep, coords = line.partition("\t")
            code = code.strip()
            if not sep or not code:
                raise DataError(f"geo file line {lineno}: expected 'country<TAB>ring'")
            try:
                pts = [tuple(float(v) for v in pair.split(",")) for pair in coords.split(";") if pair.strip()]
            except ValueError as exc:
                raise DataError(f"geo file line {lineno}: bad coordinate: {exc}") from exc
            if len(pts) < 3:
                raise DataError(f"geo file line {lineno}: ring needs at least 3 vertices")
            if pts[0] != pts[-1]:
                pts.append(pts[0])
            if code not in seen:
                seen[code] = len(countries)
                countries.append(code)
            ring_country.append(seen[code])
            arr = np.asarray(pts, np.float64)
            xs.append(arr[:, 0])
            ys.append(arr[:, 1])

    if not countries:
        raise DataError("geo file defines no polygons")
    lengths = np.fromiter((x.shape[0] for x in xs), np.int64, len(xs))
    indptr = np.zeros(len(xs) + 1, np.int64)
    np.cumsum(lengths, out=indptr[1:])
    bbox = np.empty((len(xs), 4), np.float64)
    for i, (x, y) in enumerate(zip(xs, ys)):
        bbox[i] = (x.min(), y.min(), x.max(), y.max())
    return GeoIndex(
        countries=tuple(countries),
        ring_x=np.concatenate(xs),
        ring_y=np.concatenate(ys),
        ring_indptr=indptr,
        ring_country=np.asarray(ring_country, np.int64),
        ring_bbox=bbox,
    )


def geocode(geo: GeoIndex, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Country index per coordinate pair, -1 where nothing matches."""
    lats = np.ascontiguousarray(lats, np.float64)
    lons = np.ascontiguousarray(lons, np.float64)
    return _kernels.assign_countries(
        lons, lats, geo.ring_x, geo.ring_y, geo.ring_indptr, geo.ring_country, geo.ring_bbox
    )


def point_to_country(lat: float, lon: float, geo: GeoIndex) -> str | None:
    """Country containing the point (boundary-inclusive), or None."""
    if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
        raise DataError("coordinates out of range")
    code = geocode(geo, np.array([lat]), np.array([lon]))[0]
    return None if code < 0 else geo.countries[code]


# ---------------------------------------------------------------------------
# Home-country assignment and user filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassStats:
    checkins: int
    venues: int
    users: int


@dataclass(frozen=True)
class IngestReport:
    total_checkins: int
    users_total: int
    users_discarded_mixed_country: int
    discard_fraction: float
    per_class: Mapping[str, ClassStats]
    skipped_unknown_subcategory: int = 0
    malformed_lines: int = 0

    def to_dict(self) -> dict:
        return {
            "total_checkins": self.total_checkins,
            "users_total": self.users_total,
            "users_discarded_mixed_country": self.users_discarded_mixed_country,
            "discard_fraction": self.discard_fraction,
            "per_class": {
                c: {"checkins": s.checkins, "venues": s.venues, "users": s.users}
                for c, s in self.per_class.items()
            },
            "skipped_unknown_subcategory": self.skipped_unknown_subcategory,
            "malformed_lines": self.malformed_lines,
        }


def assign_home_country(corpus: Corpus, geo: GeoIndex) -> tuple[dict[str, str], IngestReport]:
    """Map each user to a home country iff all their check-ins geocode there.

    Users with check-ins in more than one country, or with any check-in that
    no polygon contains, are excluded and counted.  The result is a pure
    function of the check-in set, so row order never matters.
    """
    n_users = corpus.n_users
    home: dict[str, str] = {}
    if len(corpus):
        codes = geocode(geo, corpus.lat, corpus.lon)
        cmin = np.full(n_users, np.iinfo(np.int64).max, np.int64)
        cmax = np.full(n_users, np.iinfo(np.int64).min, np.int64)
        np.minimum.at(cmin, corpus.user_idx, codes)
        np.maximum.at(cmax, corpus.user_idx, codes)
        for i, user in enumerate(corpus.user_ids):
            if cmin[i] == cmax[i] and cmin[i] >= 0:
                home[user] = geo.countries[cmin[i]]

    discarded = n_users - len(home)
    per_class: dict[str, ClassStats] = {}
    for class_id in corpus.taxonomy.class_ids:
        lo, hi = corpus.taxonomy.class_ranges[class_id]
        mask = (corpus.subcat_idx >= lo) & (corpus.subcat_idx < hi)
        venues = np.unique(corpus.venue_idx[mask]).size
        users = np.unique(corpus.user_idx[mask]).size
        per_class[class_id] = ClassStats(int(mask.sum()), venues, users)

    report = IngestReport(
        total_checkins=len(corpus),
        users_total=n_users,
        users_discarded_mixed_country=discarded,
        discard_fraction=(discarded / n_users) if n_users else 0.0,
        per_class=per_class,
        skipped_unknown_subcategory=corpus.skipped_unknown,
        malformed_lines=corpus.malformed_lines,
    )
    return home, report


def home_codes_array(corpus: Corpus, home: Mapping[str, str]) -> np.ndarray:
    """Per-check-in country code taken from the owning user's home country.

    Valid for corpora already filtered to users with a resolved home, where
    by construction every check-in lies in that country.
    """
    try:
        per_user = [home[u] for u in corpus.user_ids]
    except KeyError as exc:
        raise DataError(f"user {exc.args[0]!r} has no home country") from None
    return np.asarray(per_user, dtype=object)[corpus.user_idx]


def filter_active_users(corpus: Corpus, min_checkins: int = 7) -> Corpus:
    """Keep only users with at least ``min_checkins`` check-ins."""
    if min_checkins < 1:
        raise DataError("min_checkins must be >= 1")
    if not len(corpus):
        return corpus
    counts = np.bincount(corpus.user_idx, minlength=corpus.n_users)
    return corpus.subset(counts[corpus.user_idx] >= min_checkins)


# ---------------------------------------------------------------------------
# City grids
# ---------------------------------------------------------------------------


def grid_partition(city: Area, rows: int, cols: int) -> list[Area]:
    """Tile a city's bounding box into rows x cols non-overlapping cells.

    Cells are half-open on their north/east edges except in the last row and
    column, which are closed, so every point in the box lands in exactly one
    cell.  Cell ids are ``{city}:{row}:{col}`` in row-major order.
    """
    if rows < 1 or cols < 1:
        raise DataError("grid must have at least one row and one column")
    if city.bbox is None:
        raise DataError(f"city {city.area_id!r} has no bounding box")
    min_lon, min_lat, max_lon, max_lat = city.bbox
    if max_lon <= min_lon or max_lat <= min_lat:
        raise DataError(f"degenerate bounding box for city {city.area_id!r}")
    dlat = (max_lat - min_lat) / rows
    dlon = (max_lon - min_lon) / cols
    cells = []
    for r in range(rows):
        lat_lo = min_lat + r * dlat
        lat_hi = max_lat if r == rows - 1 else min_lat + (r + 1) * dlat
        for c in range(cols):
            lon_lo = min_lon + c * dlon
            lon_hi = max_lon if c == cols - 1 else min_lon + (c + 1) * dlon
            cells.append(
                Area(
                    area_id=f"{city.area_id}:{r}:{c}",
                    kind="grid_cell",
                    bbox=(lon_lo, lat_lo, lon_hi, lat_hi),
                    row=r,
                    col=c,
                    closed_max_lon=(c == cols - 1),
                    closed_max_lat=(r == rows - 1),
                    attributes={"city": city.area_id},
                )
            )
    return cells


def area_mask(corpus: Corpus, area: Area, checkin_countries: np.ndarray | None = None) -> np.ndarray:
    """Boolean row mask of the check-ins lying inside an area."""
    if area.kind == "country":
        if area.country_code is None:
            raise DataError(f"country area {area.area_id!r} has no country code")
        if checkin_countries is None:
            raise DataError("country-level masking needs per-check-in countries")
        return checkin_countries == area.country_code
    if area.bbox is None:
        raise DataError(f"area {area.area_id!r} has no bounding box")
    min_lon, min_lat, max_lon, max_lat = area.bbox
    ok_lon = (corpus.lon >= min_lon) & (
        (corpus.lon <= max_lon) if area.closed_max_lon else (corpus.lon < max_lon)
    )
    ok_lat = (corpus.lat >= min_lat) & (
        (corpus.lat <= max_lat) if area.closed_max_lat else (corpus.lat < max_lat)
    )
    return ok_lon & ok_lat


def top_cells(corpus: Corpus, cells: Sequence[Area], n: int) -> list[Area]:
    """The n most popular cells by check-in count.

    Ties break toward the lexicographically smaller cell id; asking for more
    cells than have any check-ins is an error.
    """
    counted = [(int(area_mask(corpus, cell).sum()), cell) for cell in cells]
    nonempty = [(cnt, cell) for cnt, cell in counted if cnt > 0]
    if n > len(nonempty):
        raise DataError(f"asked for {n} cells but only {len(nonempty)} are nonempty")
    nonempty.sort(key=lambda pair: (-pair[0], pair[1].area_id))
    return [cell for _, cell in nonempty[:n]]
