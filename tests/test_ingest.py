"""Corpus parsing, reverse geocoding, home assignment, grids."""

import csv
import io
import json
import math
from collections import Counter
from datetime import datetime, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, home_map, jsonl_text, make_checkin, write_jsonl
from tastemap import _kernels, ingest
from tastemap.errors import DataError, ParseError
from tastemap.ingest import (
    CORPUS_FIELDS,
    ClassStats,
    area_mask,
    assign_home_country,
    filter_active_users,
    geocode,
    grid_partition,
    load_geo_index,
    parse_corpus,
    top_cells,
)
from tastemap.model import Area
from tastemap.prefs import area_cubes


class TestParseCorpus:
    def test_empty_stream(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [])
        assert len(parse_corpus(path, toy_tax)) == 0

    def test_single_line(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [make_checkin()])
        corpus = parse_corpus(path, toy_tax)
        assert len(corpus) == 1
        assert toy_tax.subcategories[corpus.subcat_idx[0]] == "Pub"

    def test_unknown_subcategory_skipped_not_fatal(self, toy_tax, tmp_path):
        records = [make_checkin(user=f"u{i}") for i in range(9)]
        records.append(make_checkin(user="u9", subcat="Moon Base"))
        corpus = parse_corpus(write_jsonl(tmp_path / "c.jsonl", records), toy_tax)
        assert len(corpus) == 9
        assert corpus.skipped_unknown == 1

    def test_malformed_beyond_budget_aborts_with_line(self, toy_tax, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = ['{"user": "u1"'] + [
            json.dumps(make_checkin(user=f"u{i}")) for i in range(9)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_corpus(path, toy_tax)
        assert err.value.line_number == 1
        assert "line: 1" in str(err.value)

    def test_jsonl_error_names_the_physical_line(self, toy_tax):
        text = "\n\n\n" + '{"user": "u1"\n' + jsonl_text([make_checkin()])
        with pytest.raises(ParseError) as err:
            parse_corpus(io.StringIO(text), toy_tax, error_budget=0)
        assert err.value.line_number == 4
        assert "line: 4" in str(err.value)

    def test_csv_error_names_the_physical_line(self, toy_tax):
        text = ("user,venue,lat,lon,ts,subcat\n\n\n"
                "u1,v1,95.0,2.5,2024-04-16T09:30:00,Pub\n"
                "u2,v2,3.0,4.0,2024-04-20T20:00:00,Bakery\n")
        with pytest.raises(ParseError) as err:
            parse_corpus(io.StringIO(text), toy_tax, error_budget=0)
        assert err.value.line_number == 4
        with pytest.raises(ParseError) as err:
            parse_corpus(io.StringIO("\n" + text), toy_tax, error_budget=0)
        assert err.value.line_number == 5

    def test_malformed_within_budget_counted(self, toy_tax, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = ["not json"] + [
            json.dumps(make_checkin(user=f"u{i}")) for i in range(9)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = parse_corpus(path, toy_tax, error_budget=0.2)
        assert len(corpus) == 9
        assert corpus.malformed_lines == 1

    def test_out_of_range_coordinates_are_malformed(self, toy_tax, tmp_path):
        for lat, lon in [(95.0, 1.0), (91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -181.0),
                         (math.nan, 0.0), (0.0, math.inf)]:
            path = write_jsonl(tmp_path / "c.jsonl", [make_checkin(lat=lat, lon=lon)])
            with pytest.raises(ParseError):
                parse_corpus(path, toy_tax)

    def test_offset_timestamp_is_malformed(self, toy_tax, tmp_path):
        for ts in ["2024-04-16T12:00:00+01:00", "2024-04-16T12:00:00+02:00",
                   "2024-04-16T12:00:00Z"]:
            path = write_jsonl(tmp_path / "c.jsonl", [make_checkin(ts=ts)])
            with pytest.raises(ParseError):
                parse_corpus(path, toy_tax)

    @pytest.mark.parametrize("user", ["a\tb", "a\nb", "a\r", "\x85", "a\u2029b"])
    def test_user_id_with_a_tab_or_line_break_is_malformed(self, toy_tax, tmp_path, user):
        records = [make_checkin(user="u0"), make_checkin(user=user)]
        records += [make_checkin(user=f"u{i}") for i in range(1, 9)]
        path = write_jsonl(tmp_path / "c.jsonl", records)
        corpus = parse_corpus(path, toy_tax, error_budget=0.1)
        assert (len(corpus), corpus.malformed_lines) == (9, 1)
        assert user not in corpus.user_ids
        with pytest.raises(ParseError) as err:
            parse_corpus(path, toy_tax)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("line", [
        json.dumps(make_checkin()).replace('"lat": 1.0', f'"lat": 1{"0" * 400}'),  # no float
        json.dumps(make_checkin()).replace('"lat": 1.0', f'"lat": 1{"0" * 5000}'),  # no int
        "[" * 100_000,  # nested too deep for the JSON decoder
    ], ids=["float_overflow", "int_digit_limit", "deep_nesting"])
    def test_line_python_cannot_convert_is_malformed(self, toy_tax, line):
        corpus = parse_corpus(io.StringIO(line + "\n" + jsonl_text([make_checkin()])), toy_tax,
                              error_budget=0.5)
        assert (len(corpus), corpus.malformed_lines) == (1, 1)

    def test_csv_round_trip(self, toy_tax, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "user,venue,lat,lon,ts,subcat\n"
            "u1,v1,1.5,2.5,2024-04-16T09:30:00,Pub\n"
            "u2,v2,3.0,4.0,2024-04-20T20:00:00,Bakery\n",
            encoding="utf-8",
        )
        corpus = parse_corpus(path, toy_tax)
        assert len(corpus) == 2
        assert corpus.ts.astype(object).tolist() == [datetime(2024, 4, 16, 9, 30),
                                                      datetime(2024, 4, 20, 20)]

    def test_csv_bad_header_rejected(self, toy_tax, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("user,venue,lat\nu1,v1,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_corpus(path, toy_tax)


# -- Reference oracle: the record validation of the CheckIn-record parser,
# kept verbatim (``_build_checkin``, then ``CheckIn.__post_init__``) with the
# accounting loop that drove it.


class _OracleUnknown(Exception):
    pass


def oracle_checkin(rec, taxonomy):
    try:
        user = str(rec["user"])
        venue = str(rec["venue"])
        lat = float(rec["lat"])
        lon = float(rec["lon"])
        ts = datetime.fromisoformat(str(rec["ts"]))
        subcat = str(rec["subcat"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad record: {exc}") from exc
    if subcat not in taxonomy:
        raise _OracleUnknown(subcat)
    if not -90.0 <= lat <= 90.0:
        raise DataError(f"latitude out of range: {lat!r}")
    if not -180.0 <= lon <= 180.0:
        raise DataError(f"longitude out of range: {lon!r}")
    if ts.tzinfo is not None:
        raise DataError("timestamps must be naive venue-local times (no UTC offset)")
    # A tab, or a character that splits the id into two lines.
    if "\t" in user or len((user + "x").splitlines()) > 1:
        raise DataError(f"user id {user!r} holds a tab or a line break")
    return user, venue, lat, lon, ts, subcat


def oracle_parse(text, taxonomy, error_budget):
    """``(checkins, skipped_unknown, malformed)``, or ParseError over budget."""
    lines = iter(io.StringIO(text))
    first_no, first = 0, ""
    for first_no, line in enumerate(lines, 1):
        if line.strip():
            first = line
            break
    checkins, skipped, malformed, first_bad, total = [], 0, 0, None, 0
    if not first:
        return checkins, 0, 0
    first_row = next(csv.reader(io.StringIO(first)), [])
    if set(first_row) != set(CORPUS_FIELDS):
        numbered = [(first_no, first), *enumerate(lines, first_no + 1)]
        for lineno, raw in numbered:
            if not raw.strip():
                continue
            total += 1
            try:
                rec = json.loads(raw)
                if not isinstance(rec, dict):
                    raise DataError("expected a JSON object")
                checkins.append(oracle_checkin(rec, taxonomy))
            except _OracleUnknown:
                skipped += 1
            except (json.JSONDecodeError, DataError):
                malformed += 1
                first_bad = first_bad or lineno
    else:
        reader = csv.DictReader(lines, fieldnames=first_row)
        for row in reader:
            lineno = first_no + reader.line_num
            if row is None or all(v in (None, "") for v in row.values()):
                continue
            total += 1
            try:
                if None in row or None in row.values():
                    raise DataError("wrong number of fields")
                checkins.append(oracle_checkin(row, taxonomy))
            except _OracleUnknown:
                skipped += 1
            except DataError:
                malformed += 1
                first_bad = first_bad or lineno
    if malformed > error_budget * total:
        raise ParseError("over budget", line_number=first_bad)
    return checkins, skipped, malformed


def oracle_columns(checkins, taxonomy):
    users = sorted({c[0] for c in checkins})
    venues = sorted({c[1] for c in checkins})
    epoch = datetime(1970, 1, 1)
    return {
        "lat": np.array([c[2] for c in checkins], np.float64),
        "lon": np.array([c[3] for c in checkins], np.float64),
        "ts": np.array([(c[4] - epoch) // timedelta(microseconds=1) for c in checkins],
                       np.int64).view("datetime64[us]"),
        "subcat_idx": np.array([taxonomy.index_of(c[5]) for c in checkins], np.int64),
        "user_idx": np.array([users.index(c[0]) for c in checkins], np.int64),
        "venue_idx": np.array([venues.index(c[1]) for c in checkins], np.int64),
        "user_ids": tuple(users),
        "venue_ids": tuple(venues),
    }


SUBCATS = ("Pub", "Wine Bar", "Bakery", "Steakhouse", "Sushi Restaurant")
BAD_NUMBERS = [95.0, -91.0, 181.0, -180.5, math.nan, math.inf, -math.inf, "abc", "", "1.5"]
field_values = {
    "user": st.sampled_from(["u1", "u2", "\u00fc", "u 3", 7, "u\t4", "u\n5", "u\u20286"]),
    "venue": st.sampled_from(["v1", "v2", "v,3"]),
    "lat": st.one_of(st.floats(-90.0, 90.0), st.sampled_from(BAD_NUMBERS)),
    "lon": st.one_of(st.floats(-180.0, 180.0), st.sampled_from(BAD_NUMBERS)),
    "ts": st.one_of(
        st.datetimes(min_value=datetime(1, 1, 1)).map(datetime.isoformat),
        st.sampled_from(["2024-04-16T12:00:00+01:00", "2024-04-20T23:59:59Z", "yesterday",
                         "2024-13-01T00:00:00", "2024-04-16 08:30", "20240416T083000"]),
    ),
    "subcat": st.sampled_from(["Pub", "Bakery", "Sushi Restaurant", "Moon Base", "pub"]),
}
records = st.fixed_dictionaries(field_values).flatmap(
    lambda rec: st.sets(st.sampled_from(CORPUS_FIELDS), max_size=1).map(
        lambda drop: {k: v for k, v in rec.items() if k not in drop}))


@st.composite
def jsonl_stream(draw):
    lines = draw(st.lists(st.one_of(
        records.map(json.dumps), records.map(json.dumps), records.map(json.dumps),
        st.sampled_from(["", "   ", '{"user": "u1"', "[1, 2]", "3", '"text"', "null", "{}"]),
    ), max_size=12))
    return "".join(line + "\n" for line in lines)


def csv_cell(value):
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def csv_stream(draw):
    header = draw(st.permutations(CORPUS_FIELDS))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "short", "long", "blank", "empty"]))
        if kind == "blank":
            out.write("\n")
            continue
        rec = draw(records)
        row = [csv_cell(rec.get(name, "")) for name in header]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif kind == "long":
            row.append("extra")
        elif kind == "empty":
            row = [""] * draw(st.integers(1, len(header)))
        writer.writerow(row)
    return out.getvalue()


class TestParseEquivalence:
    """parse_corpus equals the CheckIn-record parser on mixed good and bad streams."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(jsonl_stream(), csv_stream()),
           leading=st.sampled_from(["", "\n", "  \n\n"]),
           budget=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_columns_and_counts_equal_the_record_parser(self, toy_tax, text, leading, budget):
        text = leading + text
        try:
            checkins, skipped, malformed = oracle_parse(text, toy_tax, budget)
        except ParseError as want:
            with pytest.raises(ParseError) as got:
                parse_corpus(io.StringIO(text), toy_tax, budget)
            assert got.value.line_number == want.line_number
            return
        corpus = parse_corpus(io.StringIO(text), toy_tax, budget)
        assert (corpus.skipped_unknown, corpus.malformed_lines) == (skipped, malformed)
        for name, want in oracle_columns(checkins, toy_tax).items():
            got = getattr(corpus, name)
            if isinstance(want, tuple):
                assert got == want, name
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_parse_equals_oracle(text, taxonomy, budget):
    """parse_corpus and oracle_parse agree on the columns, both counts and
    the line an over-budget ParseError cites."""
    try:
        checkins, skipped, malformed = oracle_parse(text, taxonomy, budget)
    except ParseError as want:
        with pytest.raises(ParseError) as got:
            parse_corpus(io.StringIO(text), taxonomy, budget)
        assert got.value.line_number == want.line_number
        return
    corpus = parse_corpus(io.StringIO(text), taxonomy, budget)
    assert (corpus.skipped_unknown, corpus.malformed_lines) == (skipped, malformed)
    for name, want in oracle_columns(checkins, taxonomy).items():
        got = getattr(corpus, name)
        if isinstance(want, tuple):
            assert got == want, name
        else:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


# Three lines that are each malformed alone, but that decode to three
# objects once joined into one JSON array with commas.
JOINABLE = ['{"a":[{"b":1}', '{"c":2}]}', '{"x":1},{"y":2}']
good_lines = records.map(json.dumps)


@st.composite
def chunk_edge_stream(draw):
    """JSON lines where each kind of line the parser must judge on its own
    can fall at either edge of a chunk."""
    lines = draw(st.lists(st.one_of(
        good_lines, good_lines,
        st.just("\n".join(JOINABLE)),
        st.sampled_from(["1,2", "", "   ", "\x0b", "[1, 2]", "null", "{}", '"text"']),
        good_lines.map(lambda line: " \t" + line),  # json.loads skips JSON whitespace
        good_lines.map(lambda line: line + "\r"),
        good_lines.map(lambda line: line + "\x0b"),  # ... but no other whitespace
        good_lines.map(lambda line: line + "\xa0"),
        good_lines.map(lambda line: "\ufeff" + line),
    ), max_size=16))
    return "".join(line + "\n" for line in lines)


class TestParseAcrossChunks:
    """Chunked parsing equals the record parser wherever chunks cut the stream."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(chunk_edge_stream(), csv_stream()),
           leading=st.sampled_from(["", "\n", "  \n\n"]),
           budget=st.sampled_from([0.0, 0.25, 0.5, 1.0]), chunk=st.integers(1, 7))
    def test_columns_and_counts_equal_the_record_parser(self, toy_tax, text, leading, budget,
                                                        chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "CHUNK_LINES", chunk)
            assert_parse_equals_oracle(leading + text, toy_tax, budget)

    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_lines_that_only_decode_joined_are_malformed(self, toy_tax, chunk):
        good = [json.dumps(make_checkin(user=f"u{i}")) for i in range(4)]
        text = "".join(line + "\n" for line in [good[0], *JOINABLE, *good[1:], "1,2"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "CHUNK_LINES", chunk)
            corpus = parse_corpus(io.StringIO(text), toy_tax, error_budget=1.0)
            assert (len(corpus), corpus.malformed_lines) == (4, 4)
            assert_parse_equals_oracle(text, toy_tax, 1.0)
            with pytest.raises(ParseError) as err:
                parse_corpus(io.StringIO(text), toy_tax, error_budget=0.25)
            assert err.value.line_number == 2


def country_at(lat, lon, geo):
    """The country ``geocode`` finds for one point, None for none."""
    (code,) = geocode(geo, np.array([lat]), np.array([lon])).tolist()
    return None if code < 0 else geo.countries[code]


class TestPointToCountry:
    def test_centroid(self, two_country_geo):
        assert country_at(5.0, 5.0, two_country_geo) == "AA"

    def test_outside_all_polygons(self, two_country_geo):
        assert country_at(5.0, 15.0, two_country_geo) is None

    def test_edge_is_inside(self, two_country_geo):
        assert country_at(0.0, 5.0, two_country_geo) == "AA"
        assert country_at(10.0, 10.0, two_country_geo) == "AA"

    def test_second_country(self, two_country_geo):
        assert country_at(5.0, 25.0, two_country_geo) == "BB"

    def test_multi_ring_country(self, tmp_path):
        path = tmp_path / "geo.txt"
        path.write_text(
            "AA\t0,0;1,0;1,1;0,1;0,0\nAA\t5,5;6,5;6,6;5,6;5,5\n", encoding="utf-8"
        )
        geo = load_geo_index(path)
        assert country_at(0.5, 0.5, geo) == "AA"
        assert country_at(5.5, 5.5, geo) == "AA"
        assert country_at(3.0, 3.0, geo) is None


class TestGeoVertices:
    """Every vertex of a geo file ring is exactly two finite numbers; any
    other vertex is a DataError naming the file line."""

    @pytest.mark.parametrize("ring", [
        "0,0;1,0;nan,1;0,1",
        "0,0;1,0;1,inf;0,1",
        "0,0;1,0;1,1,7;0,1",
        "0;1;1;0",
        "0,0;1,0;1;0,1",
        "0,0;1,0;1,x;0,1",
    ], ids=["nan", "inf", "three-numbers", "one-number-ring", "mixed-lengths", "not-a-number"])
    def test_bad_vertex_names_the_line(self, tmp_path, ring):
        path = tmp_path / "geo.txt"
        path.write_text(f"AA\t0,0;1,0;1,1;0,1\nBB\t{ring}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"^geo file line 2: vertex '[^']*' is not two finite"):
            load_geo_index(path)

    def test_spaces_around_numbers_are_allowed(self, tmp_path):
        path = tmp_path / "geo.txt"
        path.write_text("AA\t 0, 0; 1 ,0;1,1 ;0,1\n", encoding="utf-8")
        assert load_geo_index(path).rings[0][1].tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]


def ray_cast(x, y, ring):
    """Even-odd ray casting in exact arithmetic; a point on an edge is inside."""
    x, y = Fraction(x), Fraction(y)
    inside = False
    for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
        x1, y1, x2, y2 = map(Fraction, (x1, y1, x2, y2))
        if ((x2 - x1) * (y - y1) == (x - x1) * (y2 - y1)
                and min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)):
            return True
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


quarters = st.integers(-4, 84).map(lambda q: q / 4)


@st.composite
def densified_ring(draw):
    """A rectangle whose sides are split into 1-4 collinear segments each."""
    x0, x1 = sorted(draw(st.lists(quarters, min_size=2, max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(quarters, min_size=2, max_size=2, unique=True)))
    ring = []
    for (ax, ay), (bx, by) in (((x0, y0), (x1, y0)), ((x1, y0), (x1, y1)),
                               ((x1, y1), (x0, y1)), ((x0, y1), (x0, y0))):
        k = draw(st.integers(1, 4))
        ring += [(ax + (bx - ax) * i / k, ay + (by - ay) * i / k) for i in range(k)]
    if draw(st.booleans()):
        ring.reverse()
    return ring + [ring[0]]


class TestGeocodeOracle:
    @settings(max_examples=80, deadline=None)
    @given(rings=st.lists(st.tuples(st.sampled_from(["AA", "BB", "CC"]), densified_ring()),
                          min_size=1, max_size=4),
           free=st.lists(st.tuples(st.one_of(quarters, st.floats(-1.0, 21.0)),
                                   st.one_of(quarters, st.floats(-1.0, 21.0))), max_size=30),
           block=st.integers(1, 16), data=st.data())
    def test_geocode_equals_ray_cast(self, tmp_path_factory, rings, free, block, data):
        # Vertices and edge midpoints of the rings lie exactly on an edge.
        on_edges = [((ax + bx) / 2, (ay + by) / 2) if data.draw(st.booleans()) else (ax, ay)
                    for _, ring in rings for (ax, ay), (bx, by) in zip(ring, ring[1:])]
        points = free + data.draw(st.lists(st.sampled_from(on_edges), max_size=20))
        path = tmp_path_factory.mktemp("geo") / "geo.txt"
        path.write_text("".join(f"{code}\t" + ";".join(f"{x!r},{y!r}" for x, y in ring) + "\n"
                                for code, ring in rings), encoding="utf-8")
        geo = load_geo_index(path)
        lons = np.array([x for x, _ in points], np.float64)
        lats = np.array([y for _, y in points], np.float64)
        # Rings have 4-16 edges, so chunks of 1-4 points cross many boundaries.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "RAY_BLOCK_ELEMENTS", block)
            codes = geocode(geo, lats, lons)
        got = [geo.countries[i] if i >= 0 else None for i in codes.tolist()]
        want = [next((code for code, ring in rings if ray_cast(x, y, ring)), None)
                for x, y in points]
        assert got == want


@st.composite
def general_ring(draw):
    """A closed ring of 3-12 integer or quarter vertices: often non-convex
    or self-crossing, with horizontal edges and repeated vertices."""
    coord = st.one_of(st.integers(0, 8).map(float), st.integers(0, 32).map(lambda q: q / 4))
    ring = [(draw(coord), draw(coord))]
    for _ in range(draw(st.integers(2, 11))):
        x, y = ring[-1]
        step = draw(st.sampled_from(["free", "free", "horizontal", "repeat"]))
        ring.append((x, y) if step == "repeat" else (draw(coord), y if step == "horizontal"
                                                     else draw(coord)))
    return ring + [ring[0]]


@st.composite
def points_on_ring(draw, ring):
    """Points where the ray cast is decided by an equality: vertices, points
    on horizontal edges, and points level with an edge's lowest or highest y."""
    (ax, ay), (bx, by) = draw(st.sampled_from(list(zip(ring, ring[1:]))))
    kind = draw(st.sampled_from(["vertex", "level_min", "level_max", "on_horizontal"]))
    if kind == "vertex":
        return ax, ay
    if kind == "on_horizontal" and ay == by:
        lo, hi = sorted((ax, bx))
        return draw(st.integers(int(lo * 4), int(hi * 4))) / 4, ay
    x = draw(st.one_of(st.sampled_from([ax, bx]), st.integers(-1, 33).map(lambda q: q / 4)))
    return x, (min(ay, by) if kind == "level_min" else max(ay, by))


class TestGeocodeGeneralRings:
    """The ray cast over candidate edges equals the exact even-odd rule on
    general rings, with blocks small enough to split one edge's points.

    Every coordinate is a multiple of 1/4 below 10, so the float ray cast is
    exact on slanted edges too: where the exact crossing equals a point's x,
    it is a representable quotient."""

    @settings(max_examples=150, deadline=None)
    @given(rings=st.lists(st.tuples(st.sampled_from(["AA", "BB"]), general_ring()),
                          min_size=1, max_size=3),
           free=st.lists(st.tuples(quarters, quarters), max_size=10),
           block=st.integers(1, 16), data=st.data())
    def test_geocode_equals_ray_cast(self, tmp_path_factory, rings, free, block, data):
        points = free + [data.draw(points_on_ring(ring)) for _, ring in rings for _ in range(8)]
        path = tmp_path_factory.mktemp("geo") / "geo.txt"
        path.write_text("".join(f"{code}\t" + ";".join(f"{x!r},{y!r}" for x, y in ring) + "\n"
                                for code, ring in rings), encoding="utf-8")
        geo = load_geo_index(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "RAY_BLOCK_ELEMENTS", block)
            codes = geocode(geo, np.array([y for _, y in points]), np.array([x for x, _ in points]))
        got = [geo.countries[i] if i >= 0 else None for i in codes.tolist()]
        want = [next((code for code, ring in rings if ray_cast(x, y, ring)), None)
                for x, y in points]
        assert got == want


class TestAssignHomeCountry:
    def test_all_checkins_one_country(self, toy_tax, two_country_geo):
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user="u1", lat=1.0, lon=i + 1.0) for i in range(3)],
        )
        located, report = assign_home_country(corpus, two_country_geo)
        assert home_map(located) == {"u1": "AA"}
        assert located.countries == ("AA",) and len(located) == 3
        assert report.users_discarded_mixed_country == 0

    def test_located_keeps_the_rows_of_homed_users(self, toy_tax, two_country_geo):
        checkins = [
            make_checkin(user="a", lat=1.0, lon=1.0),
            make_checkin(user="m", lat=1.0, lon=1.0),
            make_checkin(user="b", lat=1.0, lon=21.0, subcat="Bakery"),
            make_checkin(user="m", lat=1.0, lon=21.0),
            make_checkin(user="a", lat=2.0, lon=3.0, subcat="Steakhouse"),
        ]
        located, _ = assign_home_country(corpus_of(toy_tax, checkins), two_country_geo)
        assert home_map(located) == {"a": "AA", "b": "BB"}
        assert located.countries == ("AA", "BB")
        kept = [c for c in checkins if c["user"] != "m"]
        assert located.lon.tolist() == [c["lon"] for c in kept]
        assert [located.user_ids[i] for i in located.user_idx] == [c["user"] for c in kept]

    def test_mixed_country_user_excluded(self, toy_tax, two_country_geo):
        corpus = corpus_of(
            toy_tax,
            [
                make_checkin(user="u1", lat=5.0, lon=5.0),
                make_checkin(user="u1", lat=5.0, lon=25.0),
            ],
        )
        located, report = assign_home_country(corpus, two_country_geo)
        assert home_map(located) == {} and len(located) == 0
        assert report.users_discarded_mixed_country == 1

    def test_unresolvable_user_excluded(self, toy_tax, two_country_geo):
        corpus = corpus_of(toy_tax, [make_checkin(user="u1", lat=5.0, lon=15.0)])
        located, _ = assign_home_country(corpus, two_country_geo)
        assert home_map(located) == {} and located.countries == ()

    def test_discard_fraction_one_percent(self, toy_tax, two_country_geo):
        checkins = [make_checkin(user=f"u{i:03d}", lat=1.0, lon=1.0) for i in range(99)]
        checkins += [
            make_checkin(user="u099", lat=1.0, lon=1.0),
            make_checkin(user="u099", lat=1.0, lon=25.0),
        ]
        _, report = assign_home_country(corpus_of(toy_tax, checkins), two_country_geo)
        assert report.users_total == 100
        assert report.discard_fraction == pytest.approx(0.01)

    def test_order_independence(self, toy_tax, two_country_geo):
        rng = np.random.default_rng(3)
        checkins = []
        for i in range(30):
            lon = 1.0 + (i % 7) if i % 3 else 21.0 + (i % 7)
            checkins.extend(
                make_checkin(user=f"u{i}", venue=f"v{j}", lat=2.0, lon=lon) for j in range(3)
            )
        base, _ = assign_home_country(corpus_of(toy_tax, checkins), two_country_geo)
        for _ in range(3):
            shuffled = list(checkins)
            rng.shuffle(shuffled)
            again, _ = assign_home_country(corpus_of(toy_tax, shuffled), two_country_geo)
            assert home_map(again) == home_map(base)

    def test_per_class_stats(self, toy_tax, two_country_geo):
        corpus = corpus_of(
            toy_tax,
            [
                make_checkin(user="u1", venue="p1", subcat="Pub"),
                make_checkin(user="u1", venue="p1", subcat="Pub"),
                make_checkin(user="u2", venue="b1", subcat="Bakery"),
            ],
        )
        _, report = assign_home_country(corpus, two_country_geo)
        assert report.per_class["Drink"].checkins == 2
        assert report.per_class["Drink"].venues == 1
        assert report.per_class["Drink"].users == 1
        assert report.per_class["FastFood"].users == 1
        assert report.per_class["SlowFood"].checkins == 0

    # Spots inside AA (0..10 x 0..10, edges included), inside BB (20..30),
    # and in no country.
    SPOTS = {"AA": [(5.0, 5.0), (0.0, 3.0), (10.0, 10.0)], "BB": [(5.0, 25.0), (0.0, 20.0)],
             None: [(5.0, 15.0), (11.0, 5.0), (-0.5, 25.0)]}

    @settings(max_examples=80, deadline=None)
    @given(visits=st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]),
                                     st.sampled_from(["AA", "AA", "BB", None]),
                                     st.integers(0, 4), st.sampled_from(SUBCATS)),
                           max_size=30),
           data=st.data())
    def test_equals_a_per_user_country_set_loop(self, toy_tax, two_country_geo, visits, data):
        checkins = [make_checkin(user=user, venue=f"v{venue}", lat=lat, lon=lon, subcat=subcat)
                    for user, country, venue, subcat in visits
                    for lat, lon in [data.draw(st.sampled_from(self.SPOTS[country]))]]
        located, report = assign_home_country(corpus_of(toy_tax, checkins), two_country_geo)
        seen = {}
        for (user, country, _, _) in visits:
            seen.setdefault(user, set()).add(country)
        home = {u: next(iter(c)) for u, c in seen.items() if len(c) == 1 and None not in c}
        assert home_map(located) == home
        assert located.countries == tuple(sorted(set(home.values())))
        kept = [c for c in checkins if c["user"] in home]
        assert [located.user_ids[i] for i in located.user_idx] == [c["user"] for c in kept]
        assert located.lon.tolist() == [c["lon"] for c in kept]
        assert (report.total_checkins, report.users_total) == (len(checkins), len(seen))
        assert report.users_discarded_mixed_country == len(seen) - len(home)
        for class_id in toy_tax.class_ids:
            hits = [c for c in checkins if toy_tax.class_of(c["subcat"]) == class_id]
            assert report.per_class[class_id] == ClassStats(
                len(hits), len({c["venue"] for c in hits}), len({c["user"] for c in hits}))


class TestFilterActiveUsers:
    def _corpus(self, toy_tax, counts):
        checkins = []
        for user, n in counts.items():
            checkins.extend(make_checkin(user=user, venue=f"v{i}") for i in range(n))
        return corpus_of(toy_tax, checkins)

    def test_exactly_seven_retained(self, toy_tax):
        corpus = self._corpus(toy_tax, {"u1": 7, "u2": 6})
        out = filter_active_users(corpus, 7)
        assert out.user_ids == ("u1",)

    def test_six_dropped(self, toy_tax):
        corpus = self._corpus(toy_tax, {"u1": 6})
        assert filter_active_users(corpus, 7).n_users == 0

    def test_threshold_one_is_identity(self, toy_tax):
        corpus = self._corpus(toy_tax, {"u1": 3, "u2": 1})
        assert len(filter_active_users(corpus, 1)) == len(corpus)

    def test_threshold_below_one_rejected(self, toy_tax):
        with pytest.raises(DataError):
            filter_active_users(self._corpus(toy_tax, {"u1": 1}), 0)

    @settings(max_examples=80, deadline=None)
    @given(users=st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=40),
           min_checkins=st.integers(1, 12))
    def test_equals_a_counter_loop(self, toy_tax, users, min_checkins):
        checkins = [make_checkin(user=u, venue=f"v{i}") for i, u in enumerate(users)]
        counts = Counter(users)
        kept = [c for c in checkins if counts[c["user"]] >= min_checkins]
        out = filter_active_users(corpus_of(toy_tax, checkins), min_checkins)
        assert out.user_ids == tuple(sorted({c["user"] for c in kept}))
        assert [out.venue_ids[i] for i in out.venue_idx] == [c["venue"] for c in kept]


class TestGridPartition:
    CITY = Area("metro", "city", bbox=(0.0, 0.0, 1.0, 1.0))

    def test_one_by_one_equals_bbox(self):
        cells = grid_partition(self.CITY, 1, 1)
        assert len(cells) == 1
        assert cells[0].bbox == (0.0, 0.0, 1.0, 1.0)

    def test_two_by_two_quarter_cells(self):
        cells = grid_partition(self.CITY, 2, 2)
        assert len(cells) == 4
        for cell in cells:
            lo_x, lo_y, hi_x, hi_y = cell.bbox
            assert (hi_x - lo_x) * (hi_y - lo_y) == pytest.approx(0.25)
        assert [c.area_id for c in cells] == [
            "metro:0:0", "metro:0:1", "metro:1:0", "metro:1:1"
        ]

    def test_center_point_in_exactly_one_cell(self, toy_tax):
        cells = grid_partition(self.CITY, 2, 2)
        corpus = corpus_of(toy_tax, [make_checkin(lat=0.5, lon=0.5)])
        hits = [c.area_id for c in cells if area_mask(corpus, c)[0]]
        assert hits == ["metro:1:1"]

    def test_every_checkin_in_exactly_one_cell(self, toy_tax):
        rng = np.random.default_rng(11)
        checkins = [
            make_checkin(user=f"u{i}", lat=float(rng.uniform(0, 1)), lon=float(rng.uniform(0, 1)))
            for i in range(200
            )
        ]
        corpus = corpus_of(toy_tax, checkins)
        cells = grid_partition(self.CITY, 3, 4)
        membership = np.zeros(len(corpus), int)
        for cell in cells:
            membership += area_mask(corpus, cell).astype(int)
        assert (membership == 1).all()

    def test_cell_counts_sum_to_city_count(self, toy_tax):
        rng = np.random.default_rng(12)
        corpus = corpus_of(
            toy_tax,
            [
                make_checkin(user=f"u{i}", lat=float(rng.uniform(0, 1)), lon=float(rng.uniform(0, 1)))
                for i in range(100)
            ],
        )
        cells = grid_partition(self.CITY, 5, 5)
        total = sum(int(area_mask(corpus, c).sum()) for c in cells)
        assert total == int(area_mask(corpus, self.CITY).sum()) == 100

    def test_degenerate_bbox_rejected(self):
        flat = Area("flat", "city", bbox=(0.0, 0.0, 1.0, 0.0))
        with pytest.raises(DataError):
            grid_partition(flat, 2, 2)


def cell_totals(corpus, cells):
    """Check-ins per cell, as the CLI passes them to top_cells."""
    return area_cubes(corpus, cells).sum(axis=(1, 2, 3))


def top_ids(cells, totals, n):
    """Ids of the cells whose positions top_cells returns, in its order."""
    return [cells[i].area_id for i in top_cells([c.area_id for c in cells], totals, n)]


class TestTopCells:
    def _fixture(self, toy_tax):
        city = Area("metro", "city", bbox=(0.0, 0.0, 1.0, 1.0))
        cells = grid_partition(city, 2, 2)
        # cell (0,0): 5 check-ins, (0,1): 3, (1,0): 3, (1,1): 0
        spots = [(0.25, 0.25)] * 5 + [(0.25, 0.75)] * 3 + [(0.75, 0.25)] * 3
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user=f"u{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(spots)],
        )
        return cells, cell_totals(corpus, cells)

    def test_tie_broken_by_cell_id(self, toy_tax):
        cells, totals = self._fixture(toy_tax)
        assert top_ids(cells, totals, 2) == ["metro:0:0", "metro:0:1"]

    def test_all_nonempty_is_permutation(self, toy_tax):
        cells, totals = self._fixture(toy_tax)
        assert set(top_ids(cells, totals, 3)) == {"metro:0:0", "metro:0:1", "metro:1:0"}

    def test_uniform_counts_sorted_by_id(self, toy_tax):
        city = Area("metro", "city", bbox=(0.0, 0.0, 1.0, 1.0))
        cells = grid_partition(city, 1, 3)
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user=f"u{i}", lat=0.5, lon=x) for i, x in enumerate((0.1, 0.5, 0.9))],
        )
        top = top_ids(cells, cell_totals(corpus, cells), 3)
        assert top == ["metro:0:0", "metro:0:1", "metro:0:2"]

    def test_too_many_requested(self, toy_tax):
        cells, totals = self._fixture(toy_tax)
        with pytest.raises(DataError):
            top_ids(cells, totals, 4)

    def test_negative_count_is_refused(self):
        with pytest.raises(DataError, match="--top must be >= 0, got -1"):
            top_cells(["a", "b", "c"], [3, 2, 1], -1)

    def test_tie_broken_by_id_string_not_row(self):
        # Rows 2 and 10 tie; "c:10:0" sorts before "c:2:0" although row 2
        # comes first in row-major order.
        cells = grid_partition(Area("c", "city", bbox=(0.0, 0.0, 1.0, 12.0)), 12, 1)
        totals = [0] * 12
        totals[2] = totals[10] = 3
        totals[5] = 1
        assert top_ids(cells, totals, 2) == ["c:10:0", "c:2:0"]
        assert top_ids(cells, totals, 3) == ["c:10:0", "c:2:0", "c:5:0"]
        assert top_cells([c.area_id for c in cells], totals, 3) == [10, 2, 5]
        with pytest.raises(DataError, match="only 3 are nonempty"):
            top_ids(cells, totals, 4)

    @settings(max_examples=150, deadline=None)
    @given(cells=st.dictionaries(st.text("ab:0129", min_size=1, max_size=4),
                                 st.integers(0, 3), max_size=12),
           n=st.integers(0, 13))
    def test_equals_a_sort_over_total_then_id(self, cells, n):
        ids, totals = list(cells), list(cells.values())
        ranked = sorted((i for i, t in enumerate(totals) if t > 0),
                        key=lambda i: (-totals[i], ids[i]))
        if n > len(ranked):
            with pytest.raises(DataError, match=f"only {len(ranked)} are nonempty"):
                top_cells(ids, totals, n)
        else:
            assert top_cells(ids, totals, n) == ranked[:n]
