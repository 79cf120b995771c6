"""Property tests of the per-area count cube and every product reduced from it.

Random small corpora mix overlapping city boxes, grid cells whose last row
and column are closed, points on those closing edges, empty areas and
countries.  Every product must equal a loop over the check-ins, and must not
depend on the order of the check-in rows.
"""

import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, make_checkin, with_homes
from tastemap.errors import EmptyAreaError, UndefinedMetric
from tastemap.ingest import grid_partition
from tastemap.model import Area
from tastemap.prefs import area_cubes, normalized_rows, region_counts
from tastemap.signatures import (
    DAY_GROUPS,
    correlation_matrix,
    entropy_summary,
    pearson,
    period_counts,
    spatiotemporal_vector,
    subcategory_entropy,
    temporal_series,
)

CITY = Area("city", "city", bbox=(0.0, 0.0, 2.0, 2.0))
AREAS = [
    CITY,
    Area("overlap", "city", bbox=(1.0, 1.0, 3.0, 3.0)),
    Area("far", "city", bbox=(10.0, 10.0, 11.0, 11.0)),  # always empty
    *grid_partition(CITY, 2, 2),
]
COUNTRIES = [Area(c, "country", country_code=c) for c in ("AA", "BB", "CC")]  # CC is empty
COORDS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)  # includes every cell edge and the closed ones
SETTINGS = settings(max_examples=60, deadline=None)

rows = st.lists(
    st.tuples(
        st.sampled_from(COORDS),  # lon
        st.sampled_from(COORDS),  # lat
        st.integers(0, 6),  # subcategory of the toy taxonomy
        # local time: any weekday, before and after 1970, to the microsecond
        st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)),
        st.sampled_from(("AA", "BB")),  # home country of the row's user
    ),
    max_size=40,
)


def build(toy_tax, data):
    checkins = [
        make_checkin(user=f"u{i}", lat=lat, lon=lon, subcat=toy_tax.subcategories[s],
                     ts=stamp.isoformat())
        for i, (lon, lat, s, stamp, _) in enumerate(data)
    ]
    home = {f"u{i}": row[4] for i, row in enumerate(data)}
    return with_homes(corpus_of(toy_tax, checkins), home, countries=("AA", "BB", "CC"))


def inside(area, lon, lat, country):
    if area.kind == "country":
        return country == area.country_code
    min_lon, min_lat, max_lon, max_lat = area.bbox
    ok_lon = min_lon <= lon and (lon <= max_lon if area.closed_max_lon else lon < max_lon)
    ok_lat = min_lat <= lat and (lat <= max_lat if area.closed_max_lat else lat < max_lat)
    return ok_lon and ok_lat


def slot(stamp):
    """Day group (1 on Saturday and Sunday) and hour of a check-in time."""
    return int(stamp.weekday() >= 5), stamp.hour


def brute_cube(toy_tax, data, area):
    cube = np.zeros((toy_tax.m, 2, 24), np.int64)
    for lon, lat, s, stamp, country in data:
        if inside(area, lon, lat, country):
            cube[(s, *slot(stamp))] += 1
    return cube


def brute_entropy(column):
    total = sum(column)
    if total == 0:
        return None
    return -sum(c / total * math.log2(c / total) for c in column if c)


def products(toy_tax, corpus):
    """Every per-area product of a corpus, as plain comparable values."""
    out = {}
    for area in AREAS + COUNTRIES:
        out[area.area_id, "cube"] = region_counts(corpus, area).tolist()
        cubes = area_cubes(corpus, [area])
        out[area.area_id, "counts"] = cubes.sum(axis=(2, 3)).tolist()
        for class_id in toy_tax.class_ids:
            for group in DAY_GROUPS:
                series = temporal_series(cubes, toy_tax, class_id, group)
                out[area.area_id, class_id, group] = series.tolist()
        try:
            out[area.area_id, "st"] = spatiotemporal_vector(cubes, [area.area_id]).tolist()
        except EmptyAreaError:
            out[area.area_id, "st"] = None
    for level in (AREAS, COUNTRIES):
        entropies = subcategory_entropy(area_cubes(corpus, level).sum(axis=(2, 3)))
        out[level[0].kind, "entropy"] = entropies
        out[level[0].kind, "summary"] = entropy_summary(toy_tax, level[0].kind, entropies)
    return out


@SETTINGS
@given(data=rows)
def test_counts_and_curves_equal_check_in_loops(toy_tax, data):
    corpus = build(toy_tax, data)
    for area in AREAS + COUNTRIES:
        cube = brute_cube(toy_tax, data, area)
        assert np.array_equal(region_counts(corpus, area), cube)
        cubes = area_cubes(corpus, [area])
        spatial = cubes.sum(axis=(2, 3))
        assert spatial.tolist() == [cube.sum(axis=(1, 2)).tolist()]

        for class_id in toy_tax.class_ids:
            lo, hi = toy_tax.class_ranges[class_id]
            for w, group in enumerate(DAY_GROUPS):
                hourly = [int(cube[lo:hi, w, h].sum()) for h in range(24)]
                peak = max(hourly)
                want = [c / peak if peak else 0.0 for c in hourly]
                got = temporal_series(cubes, toy_tax, class_id, group)
                assert got.tolist() == [want]

        slots = [0] * (8 * toy_tax.m)
        for lon, lat, s, stamp, country in data:
            w, h = slot(stamp)
            if inside(area, lon, lat, country):
                slots[s * 8 + 4 * w + h // 6] += 1
        if max(slots) == 0:
            with pytest.raises(EmptyAreaError):
                spatiotemporal_vector(cubes, [area.area_id])
        else:
            sig = spatiotemporal_vector(cubes, [area.area_id])
            assert sig.tolist() == [[c / max(slots) for c in slots]]


@SETTINGS
@given(data=rows)
def test_stacked_cubes_equal_check_in_loops(toy_tax, data):
    corpus = build(toy_tax, data)
    got = area_cubes(corpus, AREAS + COUNTRIES)
    want = np.stack([brute_cube(toy_tax, data, area) for area in AREAS + COUNTRIES])
    assert got.dtype == np.int64
    assert np.array_equal(got, want)

    slots = np.zeros((len(want), 8 * toy_tax.m), np.int64)
    for i, area in enumerate(AREAS + COUNTRIES):
        for lon, lat, s, stamp, country in data:
            w, h = slot(stamp)
            if inside(area, lon, lat, country):
                slots[i, s * 8 + 4 * w + h // 6] += 1
    assert np.array_equal(period_counts(got), slots)


@SETTINGS
@given(data=rows)
def test_entropy_equals_check_in_loops(toy_tax, data):
    corpus = build(toy_tax, data)
    for level in (AREAS, COUNTRIES):
        matrix = [brute_cube(toy_tax, data, area).sum(axis=(1, 2)) for area in level]
        want = [brute_entropy([int(row[s]) for row in matrix]) for s in range(toy_tax.m)]
        got = subcategory_entropy(area_cubes(corpus, level).sum(axis=(2, 3)))
        assert len(got) == toy_tax.m
        for s in range(toy_tax.m):
            if want[s] is None:
                assert got[s] is None
            else:
                assert got[s] == pytest.approx(want[s], abs=1e-12)
        for row in entropy_summary(toy_tax, level[0].kind, got):
            lo, hi = toy_tax.class_ranges[row.class_id]
            defined = [h for h in want[lo:hi] if h is not None]
            assert row.level == level[0].kind
            assert row.n_subcategories == len(defined)
            if defined:
                assert row.mean == pytest.approx(np.mean(defined), abs=1e-12)
                assert row.sigma == pytest.approx(np.std(defined), abs=1e-12)
            else:
                assert row.mean is None and row.sigma is None


@SETTINGS
@given(data=rows, seed=st.integers(0, 2**32 - 1))
def test_products_invariant_under_row_permutation(toy_tax, data, seed):
    order = np.random.default_rng(seed).permutation(len(data))
    shuffled = [data[i] for i in order]
    assert products(toy_tax, build(toy_tax, shuffled)) == products(toy_tax, build(toy_tax, data))


count_vectors = st.lists(
    st.tuples(
        st.lists(st.integers(0, 9), min_size=7, max_size=7),
        st.sampled_from((None, "Drink", "FastFood", "SlowFood")),  # class block made constant
        st.integers(0, 9),
    ),
    min_size=2,
    max_size=8,
)


@SETTINGS
@given(vectors=count_vectors)
def test_correlation_matrix_equals_pairwise_pearson(toy_tax, vectors):
    counts_ = []
    for counts, constant, level in vectors:
        counts = np.array(counts)
        if constant is not None:
            lo, hi = toy_tax.class_ranges[constant]
            counts[lo:hi] = level
        if counts.max() == 0:
            counts[0] = 1
        counts_.append(counts)
    labels = [f"a{i}" for i in range(len(vectors))]
    sigs = normalized_rows(np.array(counts_), labels)
    for scope in ("all", *toy_tax.class_ids):
        matrix = correlation_matrix(sigs, toy_tax, scope)
        rows_ = [s if scope == "all" else s[toy_tax.block(scope)] for s in sigs]
        for i, x in enumerate(rows_):
            for j, y in enumerate(rows_):
                try:
                    want = pearson(x, y)
                except UndefinedMetric:
                    assert np.isnan(matrix[i, j])
                    continue
                assert matrix[i, j] == pytest.approx(want, abs=1e-12)
                if i == j:
                    assert matrix[i, j] == 1.0
