"""Binary user profiles and normalized area signatures."""

import numpy as np
import pytest

from conftest import corpus_of, make_checkin, with_homes
from tastemap.errors import DataError, EmptyAreaError
from tastemap.ingest import grid_partition
from tastemap.model import Area
from tastemap.prefs import (
    area_cubes,
    build_profiles,
    region_counts,
    region_profile,
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


class TestRegionProfile:
    def test_direct_formula(self):
        sig = region_profile(np.array([4, 2, 0]), "a")
        assert np.array_equal(sig.normalized, [1.0, 0.5, 0.0])
        assert np.array_equal(sig.raw_counts, [4, 2, 0])

    def test_single_entry(self):
        assert region_profile(np.array([7]), "a").normalized.tolist() == [1.0]

    def test_ties_share_the_max(self):
        assert region_profile(np.array([3, 3]), "a").normalized.tolist() == [1.0, 1.0]

    def test_all_zero_is_empty_area(self):
        with pytest.raises(EmptyAreaError):
            region_profile(np.zeros(5, int), "a")

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            region_profile(np.array([1, -1]), "a")

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            counts = rng.integers(0, 50, size=12)
            counts[rng.integers(12)] = 17  # guarantee nonzero
            base = region_profile(counts, "a").normalized
            for lam in (2, 10, 1000):
                scaled = region_profile(counts * lam, "a").normalized
                assert np.array_equal(scaled, base)

    def test_max_is_exactly_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            counts = rng.integers(0, 100, size=8)
            if counts.max() == 0:
                counts[0] = 1
            assert region_profile(counts, "a").normalized.max() == 1.0
