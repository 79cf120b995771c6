"""Corpus parsing, reverse geocoding, home assignment, grids."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, jsonl_record, make_checkin, write_jsonl
from tastemap import _kernels
from tastemap.errors import DataError, ParseError
from tastemap.ingest import (
    area_mask,
    assign_home_country,
    filter_active_users,
    geocode,
    grid_partition,
    load_geo_index,
    parse_corpus,
    point_to_country,
    top_cells,
)
from tastemap.model import Area


class TestParseCorpus:
    def test_empty_stream(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [])
        assert len(parse_corpus(path, toy_tax)) == 0

    def test_single_line(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [jsonl_record()])
        corpus = parse_corpus(path, toy_tax)
        assert len(corpus) == 1
        assert toy_tax.subcategories[corpus.subcat_idx[0]] == "Pub"

    def test_unknown_subcategory_skipped_not_fatal(self, toy_tax, tmp_path):
        records = [jsonl_record(user=f"u{i}") for i in range(9)]
        records.append(jsonl_record(user="u9", subcat="Moon Base"))
        corpus = parse_corpus(write_jsonl(tmp_path / "c.jsonl", records), toy_tax)
        assert len(corpus) == 9
        assert corpus.skipped_unknown == 1

    def test_malformed_beyond_budget_aborts_with_line(self, toy_tax, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = ['{"user": "u1"'] + [
            __import__("json").dumps(jsonl_record(user=f"u{i}")) for i in range(9)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_corpus(path, toy_tax)
        assert err.value.line_number == 1
        assert "line: 1" in str(err.value)

    def test_malformed_within_budget_counted(self, toy_tax, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = ["not json"] + [
            __import__("json").dumps(jsonl_record(user=f"u{i}")) for i in range(9)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = parse_corpus(path, toy_tax, error_budget=0.2)
        assert len(corpus) == 9
        assert corpus.malformed_lines == 1

    def test_out_of_range_coordinates_are_malformed(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [jsonl_record(lat=95.0)])
        with pytest.raises(ParseError):
            parse_corpus(path, toy_tax)

    def test_offset_timestamp_is_malformed(self, toy_tax, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [jsonl_record(ts="2024-04-16T12:00:00+01:00")])
        with pytest.raises(ParseError):
            parse_corpus(path, toy_tax)

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
        assert corpus.is_weekend.tolist() == [False, True]

    def test_csv_bad_header_rejected(self, toy_tax, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("user,venue,lat\nu1,v1,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_corpus(path, toy_tax)


class TestPointToCountry:
    def test_centroid(self, two_country_geo):
        assert point_to_country(5.0, 5.0, two_country_geo) == "AA"

    def test_outside_all_polygons(self, two_country_geo):
        assert point_to_country(5.0, 15.0, two_country_geo) is None

    def test_edge_is_inside(self, two_country_geo):
        assert point_to_country(0.0, 5.0, two_country_geo) == "AA"
        assert point_to_country(10.0, 10.0, two_country_geo) == "AA"

    def test_second_country(self, two_country_geo):
        assert point_to_country(5.0, 25.0, two_country_geo) == "BB"

    def test_out_of_range_rejected(self, two_country_geo):
        with pytest.raises(DataError):
            point_to_country(95.0, 0.0, two_country_geo)

    def test_multi_ring_country(self, tmp_path):
        path = tmp_path / "geo.txt"
        path.write_text(
            "AA\t0,0;1,0;1,1;0,1;0,0\nAA\t5,5;6,5;6,6;5,6;5,5\n", encoding="utf-8"
        )
        geo = load_geo_index(path)
        assert point_to_country(0.5, 0.5, geo) == "AA"
        assert point_to_country(5.5, 5.5, geo) == "AA"
        assert point_to_country(3.0, 3.0, geo) is None


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


class TestAssignHomeCountry:
    def test_all_checkins_one_country(self, toy_tax, two_country_geo):
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user="u1", lat=1.0, lon=i + 1.0) for i in range(3)],
        )
        home, report = assign_home_country(corpus, two_country_geo)
        assert home == {"u1": "AA"}
        assert report.users_discarded_mixed_country == 0

    def test_mixed_country_user_excluded(self, toy_tax, two_country_geo):
        corpus = corpus_of(
            toy_tax,
            [
                make_checkin(user="u1", lat=5.0, lon=5.0),
                make_checkin(user="u1", lat=5.0, lon=25.0),
            ],
        )
        home, report = assign_home_country(corpus, two_country_geo)
        assert home == {}
        assert report.users_discarded_mixed_country == 1

    def test_unresolvable_user_excluded(self, toy_tax, two_country_geo):
        corpus = corpus_of(toy_tax, [make_checkin(user="u1", lat=5.0, lon=15.0)])
        home, _ = assign_home_country(corpus, two_country_geo)
        assert home == {}

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
            assert again == base

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
        return corpus, cells

    def test_tie_broken_by_cell_id(self, toy_tax):
        corpus, cells = self._fixture(toy_tax)
        top = top_cells(corpus, cells, 2)
        assert [c.area_id for c in top] == ["metro:0:0", "metro:0:1"]

    def test_all_nonempty_is_permutation(self, toy_tax):
        corpus, cells = self._fixture(toy_tax)
        top = top_cells(corpus, cells, 3)
        assert {c.area_id for c in top} == {"metro:0:0", "metro:0:1", "metro:1:0"}

    def test_uniform_counts_sorted_by_id(self, toy_tax):
        city = Area("metro", "city", bbox=(0.0, 0.0, 1.0, 1.0))
        cells = grid_partition(city, 1, 3)
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user=f"u{i}", lat=0.5, lon=x) for i, x in enumerate((0.1, 0.5, 0.9))],
        )
        top = top_cells(corpus, cells, 3)
        assert [c.area_id for c in top] == ["metro:0:0", "metro:0:1", "metro:0:2"]

    def test_too_many_requested(self, toy_tax):
        corpus, cells = self._fixture(toy_tax)
        with pytest.raises(DataError):
            top_cells(corpus, cells, 4)
