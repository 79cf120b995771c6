"""Binary user profiles and normalized area count rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, make_checkin, with_homes
from tastemap.errors import DataError, EmptyAreaError
from tastemap.ingest import grid_partition
from tastemap.model import Area
from tastemap.prefs import (
    area_cubes,
    build_profiles,
    normalized_rows,
    region_counts,
)


def one_profile(toy_tax, records):
    """The profile build_profiles gives a one-user corpus."""
    (profile,) = build_profiles(corpus_of(toy_tax, records))
    return profile


class TestBinaryProfile:
    def test_single_checkin_sets_one_bit(self, toy_tax):
        profile = one_profile(toy_tax, [make_checkin(subcat="Pub")])
        assert profile.bits.sum() == 1
        assert profile.bits[toy_tax.index_of("Pub")] == 1
        assert profile.checkin_count == 1

    def test_repeat_checkins_do_not_change_bits(self, toy_tax):
        five = one_profile(toy_tax, [make_checkin(subcat="Pub", venue=f"v{i}") for i in range(5)])
        one = one_profile(toy_tax, [make_checkin(subcat="Pub")])
        assert np.array_equal(five.bits, one.bits)
        assert five.checkin_count == 5

    def test_two_distinct_subcategories(self, toy_tax):
        checkins = [
            make_checkin(subcat="Pub"),
            make_checkin(subcat="Bakery"),
            make_checkin(subcat="Pub"),
        ]
        profile = one_profile(toy_tax, checkins)
        assert profile.bits.sum() == 2

    def test_invariant_under_reorder_and_duplication(self, toy_tax):
        rng = np.random.default_rng(5)
        names = toy_tax.subcategories
        for _ in range(20):
            picks = rng.choice(len(names), size=rng.integers(1, 10))
            checkins = [make_checkin(subcat=names[i], venue=f"v{k}") for k, i in enumerate(picks)]
            base = one_profile(toy_tax, checkins).bits
            shuffled = list(checkins) + [checkins[0]]
            rng.shuffle(shuffled)
            assert np.array_equal(one_profile(toy_tax, shuffled).bits, base)

    def test_build_profiles_matches_per_user(self, toy_tax):
        checkins = [
            make_checkin(user="b", subcat="Pub"),
            make_checkin(user="a", subcat="Bakery"),
            make_checkin(user="a", subcat="Steakhouse"),
        ]
        profiles = build_profiles(with_homes(corpus_of(toy_tax, checkins), {"a": "AA"}))
        assert [p.user_id for p in profiles] == ["a", "b"]
        assert [p.home_country for p in profiles] == ["AA", None]
        expect = one_profile(toy_tax, [c for c in checkins if c["user"] == "a"])
        assert np.array_equal(profiles[0].bits, expect.bits)
        assert profiles[0].bits.dtype == np.uint8
        assert np.flatnonzero(profiles[0].bits).tolist() == sorted(
            toy_tax.index_of(name) for name in ("Bakery", "Steakhouse"))


class TestRegionCounts:
    AREA = Area("box", "city", bbox=(0.0, 0.0, 2.0, 2.0))

    def test_empty_area_all_zero(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin(lat=5.0, lon=5.0)])
        assert not region_counts(corpus, self.AREA).any()

    def test_counts_only_inside(self, toy_tax):
        checkins = [make_checkin(user=f"u{i}", subcat="Pub", lat=1.0, lon=1.0) for i in range(3)]
        checkins.append(make_checkin(user="u9", subcat="Pub", lat=5.0, lon=5.0))
        counts = region_counts(corpus_of(toy_tax, checkins), self.AREA).sum(axis=(1, 2))
        assert counts[toy_tax.index_of("Pub")] == 3
        assert counts.sum() == 3

    def test_grid_cells_sum_to_city(self, toy_tax):
        rng = np.random.default_rng(7)
        names = toy_tax.subcategories
        checkins = [
            make_checkin(
                user=f"u{i}",
                subcat=names[rng.integers(len(names))],
                lat=float(rng.uniform(0, 2)),
                lon=float(rng.uniform(0, 2)),
            )
            for i in range(150)
        ]
        corpus = corpus_of(toy_tax, checkins)
        cells = grid_partition(self.AREA, 3, 3)
        total = area_cubes(corpus, cells).sum(axis=0)
        assert np.array_equal(total, region_counts(corpus, self.AREA))

    def test_unknown_country_raises_and_homed_corpus_counts(self, toy_tax):
        checkins = [make_checkin(user="u1"), make_checkin(user="u2"), make_checkin(user="u2")]
        corpus = corpus_of(toy_tax, checkins)
        area = Area("AA", "country", country_code="AA")
        with pytest.raises(DataError):
            region_counts(corpus, area)
        homed = with_homes(corpus, {"u1": "AA", "u2": "BB"})
        assert region_counts(homed, area).sum() == 1
        assert region_counts(homed, Area("BB", "country", country_code="BB")).sum() == 2
        with pytest.raises(DataError):
            region_counts(homed, Area("CC", "country", country_code="CC"))


def one_row(counts) -> list[float]:
    """``normalized_rows`` of a single count vector."""
    (row,) = normalized_rows(np.array([counts]), ["a"])
    return row.tolist()


class TestRegionProfile:
    def test_direct_formula(self):
        assert np.array_equal(one_row([4, 2, 0]), [1.0, 0.5, 0.0])

    def test_single_entry(self):
        assert one_row([7]) == [1.0]

    def test_ties_share_the_max(self):
        assert one_row([3, 3]) == [1.0, 1.0]

    def test_all_zero_is_empty_area(self):
        with pytest.raises(EmptyAreaError):
            one_row(np.zeros(5, int))

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            one_row([1, -1])

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            counts = rng.integers(0, 50, size=12)
            counts[rng.integers(12)] = 17  # guarantee nonzero
            base = one_row(counts)
            for lam in (2, 10, 1000):
                scaled = one_row(counts * lam)
                assert np.array_equal(scaled, base)

    def test_max_is_exactly_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            counts = rng.integers(0, 100, size=8)
            if counts.max() == 0:
                counts[0] = 1
            assert max(one_row(counts)) == 1.0


# Rows of one width; small values give ties, the large ones exceed 2**53.
count_matrices = st.integers(1, 6).flatmap(
    lambda width: st.lists(
        st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1)),
                 min_size=width, max_size=width),
        min_size=1,
        max_size=6,
    )
)


class TestNormalizedRows:
    @settings(max_examples=200, deadline=None)
    @given(rows=count_matrices)
    def test_each_row_over_its_max_bit_for_bit(self, rows):
        counts = np.array(rows, np.int64)
        ids = [f"a{i}" for i in range(len(rows))]
        empty = [i for i, row in enumerate(counts) if row.max() == 0]
        if empty:
            with pytest.raises(EmptyAreaError, match=f"^area 'a{empty[0]}' has no check-ins$"):
                normalized_rows(counts, ids)
            return
        got = normalized_rows(counts, ids)
        want = np.stack([row / float(row.max()) for row in counts])
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_first_empty_row_is_named(self):
        counts = np.array([[1, 0], [0, 0], [2, 1], [0, 0]])
        with pytest.raises(EmptyAreaError, match="^area 'DD' has no check-ins$"):
            normalized_rows(counts, ["AA", "DD", "BB", "EE"])

    def test_row_count_must_match_ids(self):
        with pytest.raises(DataError):
            normalized_rows(np.ones((2, 3), int), ["a"])
