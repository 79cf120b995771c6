"""Check-in parsing, offline reverse geocoding, user filtering and city grids.

Corpus files are JSON Lines (``{"user":..,"venue":..,"lat":..,"lon":..,
"ts":..,"subcat":..}``) or CSV with the same header names.  Timestamps are
ISO-8601 with no UTC offset (``datetime.fromisoformat``) and are kept as
venue-local wall-clock times.  Parsing decodes each JSON line on its own,
then validates ``CHUNK_LINES`` records at a time on columns (coercion, the
subcategory lookup, coordinate ranges, UTC offsets) and appends the records
that pass to the numpy columns of a :class:`Corpus`, the one in-memory form
of a check-in table.  Only those columns and the distinct user and venue ids
outlive a chunk; no Python object per record does.

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
import json.scanner
import math
import operator
import re
from dataclasses import KW_ONLY, dataclass, replace
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
# The edge list's field separator and every character ``str.splitlines``
# breaks a line on: a record whose user id holds one is malformed.
USER_ID_BREAKS = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
# The dtype a Corpus field is normalized to, or tuple for an id table.
_FIELD_KINDS = {"lat": np.float64, "lon": np.float64, "ts": "datetime64[us]",
                "subcat_idx": np.int64, "user_idx": np.int64, "venue_idx": np.int64,
                "user_country": np.int64, "user_ids": tuple, "venue_ids": tuple, "countries": tuple}


@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """An immutable check-in table held as numpy columns: what ingest read,
    and nothing derived from it.

    Row columns: ``lat``, ``lon`` (float64), ``ts`` (datetime64[us],
    venue-local wall-clock time, from which ``prefs.region_counts`` takes
    the day group and hour), ``subcat_idx`` (into ``taxonomy.subcategories``),
    ``user_idx`` (into ``user_ids``) and ``venue_idx`` (into ``venue_ids``).
    The user and venue tables are sorted and dense: they hold exactly the
    ids some row uses.  One per-user column, ``user_country``, indexes each
    user's home country in the sorted table ``countries``, or is -1 where the
    user has none (as after :func:`parse_corpus`; :func:`assign_home_country`
    sets it).  :func:`parse_corpus` and ``store.read_store`` build a corpus
    from columns; every other corpus, :meth:`subset`'s included, is a
    ``dataclasses.replace`` copy, which keeps every field it does not name.
    """

    taxonomy: Taxonomy
    _: KW_ONLY
    lat: np.ndarray
    lon: np.ndarray
    ts: np.ndarray
    subcat_idx: np.ndarray
    user_idx: np.ndarray
    user_ids: Sequence[str]
    venue_idx: np.ndarray
    venue_ids: Sequence[str]
    countries: Sequence[str] = ()
    user_country: np.ndarray | None = None
    skipped_unknown: int = 0
    malformed_lines: int = 0

    def __post_init__(self) -> None:
        if self.user_country is None:
            object.__setattr__(self, "user_country", np.full(len(self.user_ids), -1))
        for name, kind in _FIELD_KINDS.items():
            value = getattr(self, name)
            value = tuple(value) if kind is tuple else np.asarray(value, kind)
            object.__setattr__(self, name, value)

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
        rows = {name: getattr(self, name)[mask] for name in ("lat", "lon", "ts", "subcat_idx")}
        return replace(self, **rows, user_idx=user_idx, venue_idx=venue_idx,
                       user_ids=[self.user_ids[i] for i in users.tolist()],
                       venue_ids=[self.venue_ids[i] for i in venues.tolist()],
                       user_country=self.user_country[users])


def _encode(ids: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each id's position in the sorted table of the distinct ids."""
    table = sorted(set(ids))
    position = {s: i for i, s in enumerate(table)}
    return np.fromiter(map(position.__getitem__, ids), np.int64, len(ids)), table


def check_error_budget(error_budget: float) -> None:
    """Raise DataError unless ``error_budget`` lies in [0, 1]."""
    if not 0.0 <= error_budget <= 1.0:
        raise DataError(f"error budget must lie in [0, 1], got {error_budget:g}")


def parse_corpus(source, taxonomy: Taxonomy, error_budget: float = 0.001) -> Corpus:
    """Parse a JSONL or CSV check-in stream into a validated Corpus.

    Records naming an unknown subcategory are skipped and counted.  Malformed
    records (bad JSON, missing fields, out-of-range coordinates, offset-
    carrying timestamps, user ids with a tab or line break) are tolerated up
    to a fraction ``error_budget`` of data lines; beyond that the parse
    aborts, citing the first bad line.
    """
    check_error_budget(error_budget)
    if isinstance(source, (str, Path)):
        force_csv = Path(source).suffix.lower() == ".csv"
        with utf8_input(source), open(source, encoding="utf-8") as fh:
            return _parse_stream(fh, taxonomy, error_budget, force_csv)
    return _parse_stream(source, taxonomy, error_budget, force_csv=False)


# The C scanner behind json.loads, and the JSON whitespace json.loads skips
# around a value.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())
_JSON_SPACE = " \t\n\r"
# What a line that holds no record reads as: a record lacking every field.
_NO_RECORD: Mapping[str, object] = {}


def _json_object(line: str) -> Mapping[str, object]:
    """The object ``json.loads(line)`` returns, or ``_NO_RECORD`` where that
    raises or returns anything but an object.

    The line is decoded on its own, never joined to another, by the scanner
    and decoder settings of ``json.loads``: the value must start at the
    first character that is not JSON whitespace (so a byte-order mark is an
    error) and end at the last.
    """
    text = line.strip(_JSON_SPACE)
    try:
        value, end = _scan_json(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return _NO_RECORD
    return value if end == len(text) and type(value) is dict else _NO_RECORD


def _records(source, force_csv: bool) -> Iterator[tuple[int, Mapping[str, object]]]:
    """``(line number, record)`` for each data line of a corpus stream, with
    ``_NO_RECORD`` for a line that holds no one record.

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
            if raw.strip():
                yield lineno, _json_object(raw)
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
            yield lineno, _NO_RECORD
        elif any(row[i] for i in position.values()):
            yield lineno, {name: row[i] for name, i in position.items()}


# Records validated at a time: every per-record object lives for one chunk,
# and only numpy columns and the distinct ids outlive it.
CHUNK_LINES = 4096
# What a field that does not coerce raises.
_COERCION_ERRORS = (KeyError, TypeError, ValueError, OverflowError)


def _timestamp(value: object) -> datetime:
    return datetime.fromisoformat(str(value))


def _field(recs: Sequence[Mapping[str, object]], name: str, convert, fill):
    """``convert(rec[name])`` for each record, with ``fill`` where that
    raises a coercion error, and the mask of those records."""
    failed = np.zeros(len(recs), np.bool_)
    try:
        return list(map(convert, map(operator.itemgetter(name), recs))), failed
    except _COERCION_ERRORS:
        pass
    values = []
    for i, rec in enumerate(recs):
        try:
            values.append(convert(rec[name]))
        except _COERCION_ERRORS:
            values.append(fill)
            failed[i] = True
    return values, failed


def _number(ids: list[str], numbers: dict[str, int]) -> np.ndarray:
    """Each id's number in ``numbers``, where a new id gets the next number."""
    for new in dict.fromkeys(ids):
        numbers.setdefault(new, len(numbers))
    return np.fromiter(map(numbers.__getitem__, ids), np.int64, len(ids))


def _parse_stream(source, taxonomy: Taxonomy, error_budget: float, force_csv: bool) -> Corpus:
    """Validate the records of a stream chunk by chunk, on columns.

    A field that does not coerce makes its record malformed; a record that
    coerces but names an unknown subcategory is skipped; only then is an
    out-of-range coordinate (NaN and inf included), a timestamp with a UTC
    offset or a user id holding a ``USER_ID_BREAKS`` character malformed.
    """
    subcat_index = {name: i for i, name in enumerate(taxonomy.subcategories)}
    user_codes: dict[str, int] = {}
    venue_codes: dict[str, int] = {}
    parts: list[tuple[np.ndarray, ...]] = []
    skipped_unknown = malformed = total = 0
    first_bad: int | None = None
    records = _records(source, force_csv)
    while True:
        # Two lists rather than one of (line, record) pairs: pairs that live
        # for a whole chunk cost the garbage collector more than they save.
        linenos, recs = [], []
        for lineno, rec in itertools.islice(records, CHUNK_LINES):
            linenos.append(lineno)
            recs.append(rec)
        if not recs:
            break
        total += len(recs)
        users, bad_user = _field(recs, "user", str, "")
        venues, bad_venue = _field(recs, "venue", str, "")
        lat, bad_lat = _field(recs, "lat", float, 0.0)
        lon, bad_lon = _field(recs, "lon", float, 0.0)
        stamps, bad_ts = _field(recs, "ts", _timestamp, _EPOCH)
        subcats, bad_subcat = _field(recs, "subcat", str, "")
        del recs
        uncoerced = bad_user | bad_venue | bad_lat | bad_lon | bad_ts | bad_subcat
        subcat_idx = np.fromiter(map(subcat_index.get, subcats, itertools.repeat(-1)),
                                 np.int64, len(subcats))
        unknown = ~uncoerced & (subcat_idx < 0)
        lat = np.fromiter(lat, np.float64, len(lat))
        lon = np.fromiter(lon, np.float64, len(lon))
        invalid = ~((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0))
        invalid |= np.fromiter((ts.tzinfo is not None for ts in stamps), np.bool_, len(stamps))
        if USER_ID_BREAKS.search("\0".join(users)):
            invalid |= np.fromiter((USER_ID_BREAKS.search(u) is not None for u in users),
                                   np.bool_, len(users))
        bad = uncoerced | (invalid & ~unknown)
        keep = ~(bad | unknown)
        skipped_unknown += int(unknown.sum())
        malformed += int(bad.sum())
        if first_bad is None and bad.any():
            first_bad = linenos[int(bad.argmax())]
        kept = keep.tolist()
        micros = [(ts - _EPOCH) // _MICROSECOND for ts in itertools.compress(stamps, kept)]
        parts.append((
            lat[keep], lon[keep], np.fromiter(micros, np.int64, len(micros)), subcat_idx[keep],
            _number(list(itertools.compress(users, kept)), user_codes),
            _number(list(itertools.compress(venues, kept)), venue_codes),
        ))

    if malformed > error_budget * total:
        raise ParseError(
            f"{malformed} malformed record(s) in {total} lines exceeds the error "
            f"budget ({error_budget:g}); first bad line: {first_bad}",
            line_number=first_bad,
        )
    lat, lon, micros, subcat_idx, user_code, venue_code = (
        [np.concatenate(col) for col in zip(*parts)] if parts else [np.empty(0, np.int64)] * 6
    )
    # Codes number the ids in order of first use; a Corpus indexes them sorted.
    user_rank, user_ids = _encode(list(user_codes))
    venue_rank, venue_ids = _encode(list(venue_codes))
    return Corpus(
        taxonomy,
        lat=lat,
        lon=lon,
        ts=micros.view("datetime64[us]"),
        subcat_idx=subcat_idx,
        user_idx=user_rank[user_code],
        user_ids=user_ids,
        venue_idx=venue_rank[venue_code],
        venue_ids=venue_ids,
        skipped_unknown=skipped_unknown,
        malformed_lines=malformed,
    )


# ---------------------------------------------------------------------------
# Offline reverse geocoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeoIndex:
    """Country codes in order of first appearance, and one ``(country index,
    x, y)`` per closed ring in file order, with x the longitudes and y the
    latitudes."""

    countries: tuple[str, ...]
    rings: tuple[tuple[int, np.ndarray, np.ndarray], ...]


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
    rings: list[tuple[int, np.ndarray, np.ndarray]] = []
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
            x, y = np.asarray(pts, np.float64).T
            rings.append((seen[code], x, y))

    if not countries:
        raise DataError("geo file defines no polygons")
    return GeoIndex(countries=tuple(countries), rings=tuple(rings))


def geocode(geo: GeoIndex, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Country index per coordinate pair, -1 where nothing matches."""
    lats = np.ascontiguousarray(lats, np.float64)
    lons = np.ascontiguousarray(lons, np.float64)
    return _kernels.assign_countries(lons, lats, geo.rings)


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
        block = corpus.taxonomy.block(class_id)
        mask = (corpus.subcat_idx >= block.start) & (corpus.subcat_idx < block.stop)
        # bincount, not np.unique, which would import numpy.ma (10 ms).
        venues = int(np.count_nonzero(np.bincount(corpus.venue_idx[mask])))
        users = int(np.count_nonzero(np.bincount(corpus.user_idx[mask])))
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
    located = replace(corpus, countries=countries, user_country=user_country)
    return located.subset(user_country[corpus.user_idx] >= 0), report


def check_min_checkins(min_checkins: int) -> None:
    """Raise DataError unless ``min_checkins`` is at least 1."""
    if min_checkins < 1:
        raise DataError("min_checkins must be >= 1")


def filter_active_users(corpus: Corpus, min_checkins: int = 7) -> Corpus:
    """Keep only users with at least ``min_checkins`` check-ins."""
    check_min_checkins(min_checkins)
    if not len(corpus):
        return corpus
    counts = np.bincount(corpus.user_idx, minlength=corpus.n_users)
    return corpus.subset(counts[corpus.user_idx] >= min_checkins)


# ---------------------------------------------------------------------------
# City grids
# ---------------------------------------------------------------------------


def check_grid_shape(rows: int, cols: int) -> None:
    """Raise DataError unless the grid has at least one row and one column."""
    if rows < 1 or cols < 1:
        raise DataError("grid must have at least one row and one column")


def grid_partition(city: Area, rows: int, cols: int) -> list[Area]:
    """Tile a city's bounding box into rows x cols non-overlapping cells.

    Cells are half-open on their north/east edges except in the last row and
    column, which are closed, so every point in the box lands in exactly one
    cell.  Cell ids are ``{city}:{row}:{col}`` in row-major order.
    """
    check_grid_shape(rows, cols)
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


def check_top(n: int) -> None:
    """Raise DataError if the cell count ``n`` of ``--top`` is negative."""
    if n < 0:
        raise DataError(f"--top must be >= 0, got {n}")


def top_cells(cell_ids: Sequence[str], totals: Sequence[int], n: int) -> list[int]:
    """Positions of the n most popular cells, given each cell's id and
    check-in count.

    Ties break toward the lexicographically smaller cell id; asking for more
    cells than have any check-ins is an error.
    """
    check_top(n)
    nonempty = [(-int(total), cell_id, i)
                for i, (cell_id, total) in enumerate(zip(cell_ids, totals, strict=True))
                if total > 0]
    if n > len(nonempty):
        raise DataError(f"asked for {n} cells but only {len(nonempty)} are nonempty")
    return [i for _, _, i in sorted(nonempty)[:n]]
