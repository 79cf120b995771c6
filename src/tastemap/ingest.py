"""Check-in parsing, offline reverse geocoding, user filtering and city grids.

Corpus files are JSON Lines (``{"user":..,"venue":..,"lat":..,"lon":..,
"ts":..,"subcat":..}``) or CSV with the same header names.  Timestamps are
ISO-8601 with no UTC offset (``datetime.fromisoformat``) and are kept as
venue-local wall-clock times.  Parsing validates each record and writes it
straight into the numpy columns of a :class:`Corpus`, the one in-memory form
of a check-in table.

The polygon file has one closed ring per line::

    AA<TAB>lon,lat;lon,lat;lon,lat;...

Each vertex is exactly two finite numbers.  A country may span several lines
(several rings, unioned).  Geocoding is a plain point-in-polygon test with
points on a ring edge counting as inside.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .errors import DataError, ParseError, utf8_input
from .model import Area, Taxonomy

CORPUS_FIELDS = ("user", "venue", "lat", "lon", "ts", "subcat")
# The row columns of a Corpus, as its constructor names them.
COLUMNS = ("lat", "lon", "ts", "subcat_idx", "user_idx", "venue_idx")
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


class Corpus:
    """An immutable check-in table held as numpy columns.

    Row columns: ``lat``, ``lon`` (float64), ``ts`` (datetime64[us],
    venue-local wall-clock time), ``hour`` and ``is_weekend`` (derived from
    ``ts``), ``subcat_idx`` (into ``taxonomy.subcategories``), ``user_idx``
    (into ``user_ids``) and ``venue_idx`` (into ``venue_ids``).  The user and
    venue tables are sorted and dense: they hold exactly the ids some row
    uses.  One per-user column, ``user_country``, indexes each user's home
    country in the sorted table ``countries``, or is -1 where the user has
    none (as after :func:`parse_corpus`; :func:`assign_home_country` sets
    it).  This is the one form a corpus takes: :func:`parse_corpus`,
    :meth:`subset` and ``store.read_store`` all build it from columns, and
    every aggregation in the pipeline runs on them.
    """

    def __init__(
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
        countries: Sequence[str] = (),
        user_country: np.ndarray | None = None,
        skipped_unknown: int = 0,
        malformed_lines: int = 0,
    ):
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
        self.countries: tuple[str, ...] = tuple(countries)
        if user_country is None:
            user_country = np.full(len(self.user_ids), -1)
        self.user_country = np.asarray(user_country, np.int64)

    def __len__(self) -> int:
        return len(self.lat)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def subset(self, mask: np.ndarray) -> "Corpus":
        """The rows where ``mask`` is true, in order, with the user and
        venue tables cut down to the ids those rows use.  ``countries``
        stays whole, so a country can outlive its last user."""
        mask = np.asarray(mask, np.bool_)
        users, user_idx = np.unique(self.user_idx[mask], return_inverse=True)
        venues, venue_idx = np.unique(self.venue_idx[mask], return_inverse=True)
        return Corpus(
            self.taxonomy,
            lat=self.lat[mask],
            lon=self.lon[mask],
            ts=self.ts[mask],
            subcat_idx=self.subcat_idx[mask],
            user_idx=user_idx,
            user_ids=[self.user_ids[i] for i in users.tolist()],
            venue_idx=venue_idx,
            venue_ids=[self.venue_ids[i] for i in venues.tolist()],
            countries=self.countries,
            user_country=self.user_country[users],
            skipped_unknown=self.skipped_unknown,
            malformed_lines=self.malformed_lines,
        )


def _encode(ids: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each id's position in the sorted table of the distinct ids."""
    table = sorted(set(ids))
    position = {s: i for i, s in enumerate(table)}
    return np.fromiter(map(position.__getitem__, ids), np.int64, len(ids)), table


class _UnknownSubcategory(Exception):
    pass


def _row(rec: Mapping[str, object], taxonomy: Taxonomy) -> tuple:
    """``(user, venue, lat, lon, micros, subcat_idx)`` of one record, where
    ``micros`` counts whole microseconds since 1970.

    A field that does not coerce makes the record malformed; a record that
    coerces but names an unknown subcategory is skipped; only then is an
    out-of-range coordinate (NaN and inf included) or a timestamp with a
    UTC offset malformed.
    """
    try:
        user = str(rec["user"])
        venue = str(rec["venue"])
        lat = float(rec["lat"])  # type: ignore[arg-type]
        lon = float(rec["lon"])  # type: ignore[arg-type]
        ts = datetime.fromisoformat(str(rec["ts"]))
        subcat = str(rec["subcat"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad record: {exc}") from exc
    if subcat not in taxonomy:
        raise _UnknownSubcategory(subcat)
    if not -90.0 <= lat <= 90.0:
        raise DataError(f"latitude out of range: {lat!r}")
    if not -180.0 <= lon <= 180.0:
        raise DataError(f"longitude out of range: {lon!r}")
    if ts.tzinfo is not None:
        raise DataError("timestamps must be naive venue-local times (no UTC offset)")
    return user, venue, lat, lon, (ts - _EPOCH) // _MICROSECOND, taxonomy.index_of(subcat)


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
        with utf8_input(source), open(source, encoding="utf-8") as fh:
            return _parse_stream(fh, taxonomy, error_budget, force_csv)
    return _parse_stream(source, taxonomy, error_budget, force_csv=False)


def _records(source, force_csv: bool) -> Iterator[tuple[int, object]]:
    """``(line number, record)`` for each data line of a corpus stream, with
    a DataError in place of a line that holds no one record.

    The first non-blank line decides the format: the CSV header, or else the
    first JSON line.  Line numbers are physical lines of the stream, blank
    lines and the header included; a CSV row is numbered by its last line.
    Blank lines and wholly empty CSV rows are no records.
    """
    lines = enumerate(source, 1)
    first_no, first = next(((n, line) for n, line in lines if line.strip()), (0, ""))
    if not first:
        return
    header = next(csv.reader(io.StringIO(first)), [])
    if not force_csv and set(header) != set(CORPUS_FIELDS):
        for lineno, raw in itertools.chain([(first_no, first)], lines):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                yield lineno, DataError(f"bad JSON: {exc}")
                continue
            yield lineno, rec if isinstance(rec, dict) else DataError("expected a JSON object")
        return
    if set(header) != set(CORPUS_FIELDS):
        raise ParseError(f"line {first_no}: CSV header must name exactly {CORPUS_FIELDS}",
                         line_number=first_no)
    width = len(header)
    # A repeated column name keeps its last position, as in a dict.
    position = {name: i for i, name in enumerate(header)}
    reader = csv.reader(raw for _, raw in lines)
    for row in reader:
        lineno = first_no + reader.line_num
        if not row:
            continue
        if len(row) != width:
            if len(row) < width and not any(row[i] for i in position.values() if i < len(row)):
                continue
            yield lineno, DataError("wrong number of fields")
        elif any(row[i] for i in position.values()):
            yield lineno, {name: row[i] for name, i in position.items()}


def _parse_stream(source, taxonomy: Taxonomy, error_budget: float, force_csv: bool) -> Corpus:
    rows: list[tuple] = []
    skipped_unknown = 0
    malformed = 0
    first_bad: int | None = None
    total = 0
    for lineno, rec in _records(source, force_csv):
        total += 1
        try:
            if isinstance(rec, DataError):
                raise rec
            rows.append(_row(rec, taxonomy))
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
    users, venues, lat, lon, micros, subcat_idx = zip(*rows) if rows else ((),) * 6
    user_idx, user_ids = _encode(users)
    venue_idx, venue_ids = _encode(venues)
    return Corpus(
        taxonomy,
        lat=np.array(lat, np.float64),
        lon=np.array(lon, np.float64),
        ts=np.array(micros, np.int64).view("datetime64[us]"),
        subcat_idx=np.array(subcat_idx, np.int64),
        user_idx=user_idx,
        user_ids=user_ids,
        venue_idx=venue_idx,
        venue_ids=venue_ids,
        skipped_unknown=skipped_unknown,
        malformed_lines=malformed,
    )


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


def _vertex(text: str, lineno: int) -> tuple[float, float]:
    """One ``lon,lat`` vertex of a geo file ring: exactly two finite numbers."""
    try:
        lon, lat = map(float, text.split(","))
        if math.isfinite(lon) and math.isfinite(lat):
            return lon, lat
    except ValueError:
        pass
    raise DataError(f"geo file line {lineno}: vertex {text.strip()!r} is not two finite "
                    "numbers 'lon,lat'")


def load_geo_index(path: str | Path) -> GeoIndex:
    """Load the one-ring-per-line polygon file; rings are closed on load."""
    countries: list[str] = []
    seen: dict[str, int] = {}
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    ring_country: list[int] = []
    with utf8_input(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            code, sep, coords = line.partition("\t")
            code = code.strip()
            if not sep or not code:
                raise DataError(f"geo file line {lineno}: expected 'country<TAB>ring'")
            pts = [_vertex(pair, lineno) for pair in coords.split(";") if pair.strip()]
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


def assign_home_country(corpus: Corpus, geo: GeoIndex) -> tuple[Corpus, IngestReport]:
    """The users whose check-ins all geocode to one country, with that
    country as their home, and the ingest report of the whole corpus.

    Users with check-ins in more than one country, or with any check-in that
    no polygon contains, are excluded and counted.  The result is a pure
    function of the check-in set, so row order never matters.
    """
    n_users = corpus.n_users
    home = np.full(n_users, -1, np.int64)
    if len(corpus):
        codes = geocode(geo, corpus.lat, corpus.lon)
        cmin = np.full(n_users, np.iinfo(np.int64).max, np.int64)
        cmax = np.full(n_users, np.iinfo(np.int64).min, np.int64)
        np.minimum.at(cmin, corpus.user_idx, codes)
        np.maximum.at(cmax, corpus.user_idx, codes)
        one_country = cmin == cmax
        home[one_country] = cmin[one_country]
    homed = np.flatnonzero(home >= 0)
    homes, countries = _encode([geo.countries[c] for c in home[homed].tolist()])
    user_country = np.full(n_users, -1, np.int64)
    user_country[homed] = homes

    discarded = n_users - len(homed)
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
    located = Corpus(
        corpus.taxonomy,
        **{name: getattr(corpus, name) for name in COLUMNS},
        user_ids=corpus.user_ids,
        venue_ids=corpus.venue_ids,
        countries=countries,
        user_country=user_country,
        skipped_unknown=corpus.skipped_unknown,
        malformed_lines=corpus.malformed_lines,
    )
    return located.subset(user_country[corpus.user_idx] >= 0), report


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
                    closed_max_lon=(c == cols - 1),
                    closed_max_lat=(r == rows - 1),
                )
            )
    return cells


def area_mask(corpus: Corpus, area: Area) -> np.ndarray:
    """Boolean row mask of the check-ins lying inside an area; at country
    level, the check-ins of the users whose home it is."""
    if area.kind == "country":
        if area.country_code is None:
            raise DataError(f"country area {area.area_id!r} has no country code")
        if area.country_code not in corpus.countries:
            raise DataError(f"country {area.country_code!r} is no home country of this corpus")
        return (corpus.user_country == corpus.countries.index(area.country_code))[corpus.user_idx]
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


def top_cells(cell_ids: Sequence[str], totals: Sequence[int], n: int) -> list[int]:
    """Positions of the n most popular cells, given each cell's id and
    check-in count.

    Ties break toward the lexicographically smaller cell id; asking for more
    cells than have any check-ins is an error.
    """
    nonempty = [(-int(total), cell_id, i)
                for i, (cell_id, total) in enumerate(zip(cell_ids, totals, strict=True))
                if total > 0]
    if n > len(nonempty):
        raise DataError(f"asked for {n} cells but only {len(nonempty)} are nonempty")
    return [i for _, _, i in sorted(nonempty)[:n]]
