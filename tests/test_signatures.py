"""Pearson matrices, temporal curves, spatio-temporal layout, entropy."""

import math

import numpy as np
import pytest

from conftest import corpus_of, make_checkin
from tastemap.errors import DataError, EmptyAreaError, UndefinedMetric
from tastemap.model import Area
from tastemap.prefs import region_profile
from tastemap.signatures import (
    class_period_indices,
    correlation_matrix,
    entropy_summary,
    pearson,
    spatiotemporal_index,
    spatiotemporal_vector,
    subcategory_entropy,
    temporal_series,
)

BOX = Area("box", "city", bbox=(0.0, 0.0, 2.0, 2.0))


def two_pass_pearson(x, y):
    """Independent oracle: explicit two-pass loops, no numpy."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


class TestPearson:
    def test_self_correlation(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, x) == 1.0

    def test_negated_affine(self):
        x = np.array([1.0, 2.0, 5.0])
        assert pearson(x, -x + 3.0) == -1.0

    def test_hand_example(self):
        r = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert r == pytest.approx(15.0 / math.sqrt(228.0), abs=1e-12)
        assert r == pytest.approx(0.9934, abs=1e-4)

    def test_constant_vector_undefined(self):
        with pytest.raises(UndefinedMetric):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_constant_with_inexact_mean_undefined(self):
        # mean([0.1]*3) is not exactly 0.1, so the centred vector is not zero
        with pytest.raises(UndefinedMetric):
            pearson([0.1] * 3, [0.0, 1.0, 2.0])
        with pytest.raises(UndefinedMetric):
            pearson([0.0, 1.0, 2.0], [0.1] * 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x = rng.normal(size=20)
            y = rng.normal(size=20)
            assert pearson(x, y) == pytest.approx(two_pass_pearson(x, y), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            x = rng.normal(size=15)
            y = rng.normal(size=15)
            base = pearson(x, y)
            alpha = float(rng.uniform(0.1, 5.0))
            beta = float(rng.normal())
            assert pearson(alpha * x + beta, y) == pytest.approx(base, abs=1e-12)
            assert pearson(-alpha * x + beta, y) == pytest.approx(-base, abs=1e-12)


class TestCorrelationMatrix:
    def test_identical_signatures_fully_correlated(self, toy_tax):
        counts = np.array([4, 2, 1, 0, 3, 2, 1])
        sigs = [region_profile(counts, "a"), region_profile(counts * 3, "b")]
        matrix = correlation_matrix(sigs, toy_tax)
        assert matrix.values[0, 1] == pytest.approx(1.0)
        assert matrix.values[0, 0] == 1.0

    def test_scope_restricts_to_class_block(self, ref_tax):
        rng = np.random.default_rng(23)
        sigs = [
            region_profile(rng.integers(1, 40, size=ref_tax.m), f"a{i}") for i in range(3)
        ]
        matrix = correlation_matrix(sigs, ref_tax, scope="Drink")
        lo, hi = ref_tax.class_ranges["Drink"]
        assert hi - lo == 21
        expected = two_pass_pearson(
            sigs[0].normalized[lo:hi].tolist(), sigs[1].normalized[lo:hi].tolist()
        )
        assert matrix.values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_disjoint_support_anticorrelated(self, toy_tax):
        a = region_profile(np.array([5, 5, 5, 0, 0, 0, 0]), "a")
        b = region_profile(np.array([0, 0, 0, 5, 5, 5, 5]), "b")
        matrix = correlation_matrix([a, b], toy_tax)
        assert matrix.values[0, 1] < 0

    def test_matches_brute_force_on_random_areas(self, toy_tax):
        rng = np.random.default_rng(24)
        sigs = []
        for i in range(8):
            counts = rng.integers(0, 30, size=toy_tax.m)
            counts[rng.integers(toy_tax.m)] += 5
            sigs.append(region_profile(counts, f"a{i}"))
        matrix = correlation_matrix(sigs, toy_tax)
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                expected = two_pass_pearson(sigs[i].normalized.tolist(), sigs[j].normalized.tolist())
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_signature_marked_nan(self, toy_tax):
        flat = region_profile(np.ones(7, int), "flat")
        varied = region_profile(np.array([3, 1, 0, 0, 2, 0, 1]), "varied")
        matrix = correlation_matrix([flat, varied], toy_tax)
        assert np.isnan(matrix.values[0, 1])
        assert np.isnan(matrix.values[0, 0])
        assert matrix.values[1, 1] == 1.0

    def test_constant_class_block_is_nan_against_every_area(self, ref_tax):
        # Every Drink count at 1 and one other count at 10: the Drink block of
        # the normalized vector is a constant 0.1, whose mean is inexact.
        lo, hi = ref_tax.class_ranges["Drink"]
        flat = np.ones(ref_tax.m, int)
        flat[hi] = 10
        rng = np.random.default_rng(28)
        sigs = [region_profile(flat, "flat")] + [
            region_profile(rng.integers(1, 40, size=ref_tax.m), f"a{i}") for i in range(3)
        ]
        values = correlation_matrix(sigs, ref_tax, scope="Drink").values
        assert np.isnan(values[0]).all() and np.isnan(values[:, 0]).all()
        assert not np.isnan(values[1:, 1:]).any()

    def test_matches_pairwise_pearson_with_constant_rows(self, ref_tax):
        rng = np.random.default_rng(29)
        counts = rng.integers(0, 30, size=(12, ref_tax.m))
        counts[:, 0] = 40
        counts[3] = 7  # constant everywhere
        lo, hi = ref_tax.class_ranges["FastFood"]
        counts[5, lo:hi] = 3  # constant FastFood block
        sigs = [region_profile(row, f"a{i}") for i, row in enumerate(counts)]
        for scope in ("all", "FastFood"):
            values = correlation_matrix(sigs, ref_tax, scope).values
            vectors = [s.normalized if scope == "all" else s.normalized[lo:hi] for s in sigs]
            for i in range(12):
                for j in range(12):
                    try:
                        want = pearson(vectors[i], vectors[j])
                    except UndefinedMetric:
                        assert np.isnan(values[i, j])
                        continue
                    assert values[i, j] == pytest.approx(want, abs=1e-12)
            assert np.isnan(values[3]).all()
            assert np.isnan(values[5]).all() == (scope == "FastFood")


class TestTemporalSeries:
    def test_single_hour_peak(self, toy_tax):
        corpus = corpus_of(
            toy_tax,
            [make_checkin(user=f"u{i}", ts="2024-04-16T12:30:00") for i in range(4)],
        )
        series = temporal_series(corpus, BOX, "Drink", "weekday")
        assert series.bins[12] == 1.0
        assert series.bins.sum() == 1.0

    def test_two_peak_normalization(self, toy_tax):
        checkins = [make_checkin(user=f"a{i}", ts="2024-04-16T08:00:00") for i in range(10)]
        checkins += [make_checkin(user=f"b{i}", ts="2024-04-16T18:00:00") for i in range(5)]
        series = temporal_series(corpus_of(toy_tax, checkins), BOX, "Drink", "weekday")
        assert series.bins[8] == 1.0
        assert series.bins[18] == 0.5

    def test_weekend_split(self, toy_tax):
        checkins = [
            make_checkin(user="u1", ts="2024-04-16T10:00:00"),  # Tuesday
            make_checkin(user="u2", ts="2024-04-20T22:00:00"),  # Saturday
        ]
        corpus = corpus_of(toy_tax, checkins)
        weekday = temporal_series(corpus, BOX, "Drink", "weekday")
        weekend = temporal_series(corpus, BOX, "Drink", "weekend")
        assert weekday.bins[10] == 1.0 and weekday.bins[22] == 0.0
        assert weekend.bins[22] == 1.0 and weekend.bins[10] == 0.0

    def test_class_filter(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin(subcat="Bakery", ts="2024-04-16T09:00:00")])
        assert temporal_series(corpus, BOX, "Drink", "weekday").bins.sum() == 0.0
        assert temporal_series(corpus, BOX, "FastFood", "weekday").bins[9] == 1.0

    def test_order_independence(self, toy_tax):
        rng = np.random.default_rng(25)
        checkins = [
            make_checkin(user=f"u{i}", ts=f"2024-04-16T{rng.integers(24):02d}:00:00")
            for i in range(40)
        ]
        base = temporal_series(corpus_of(toy_tax, checkins), BOX, "Drink", "weekday").bins
        shuffled = list(checkins)
        rng.shuffle(shuffled)
        again = temporal_series(corpus_of(toy_tax, shuffled), BOX, "Drink", "weekday").bins
        assert np.array_equal(base, again)

    def test_scaling_invariance(self, toy_tax):
        checkins = [make_checkin(user=f"u{i}", ts="2024-04-16T07:00:00") for i in range(3)]
        checkins += [make_checkin(user=f"w{i}", ts="2024-04-16T19:00:00") for i in range(6)]
        base = temporal_series(corpus_of(toy_tax, checkins), BOX, "Drink", "weekday").bins
        tripled = temporal_series(corpus_of(toy_tax, checkins * 3), BOX, "Drink", "weekday").bins
        assert np.array_equal(base, tripled)

    def test_bad_day_group_rejected(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin()])
        with pytest.raises(DataError):
            temporal_series(corpus, BOX, "Drink", "holiday")


class TestSpatiotemporalVector:
    def test_reference_taxonomy_gives_808(self, ref_tax):
        corpus = corpus_of(ref_tax, [make_checkin(subcat="Pub")])
        sig = spatiotemporal_vector(corpus, BOX)
        assert sig.normalized.shape == (808,)
        assert sig.variant == "spatiotemporal_808"

    def test_one_subcategory_gives_8(self, tmp_path):
        from conftest import write_taxonomy
        from tastemap.model import load_taxonomy

        tax = load_taxonomy(write_taxonomy(tmp_path / "t.txt", "Drink\tPub\n"))
        corpus = corpus_of(tax, [make_checkin(subcat="Pub")])
        assert spatiotemporal_vector(corpus, BOX).normalized.shape == (8,)

    def test_single_checkin_lights_one_coordinate(self, toy_tax):
        # Tuesday 13:00 -> weekday block, period [12,18)
        corpus = corpus_of(toy_tax, [make_checkin(subcat="Pub", ts="2024-04-16T13:00:00")])
        sig = spatiotemporal_vector(corpus, BOX)
        expected = toy_tax.index_of("Pub") * 8 + 0 * 4 + 2
        assert sig.normalized[expected] == 1.0
        assert sig.normalized.sum() == 1.0

    def test_empty_area_raises(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin(lat=50.0, lon=50.0)])
        with pytest.raises(EmptyAreaError):
            spatiotemporal_vector(corpus, BOX)

    def test_index_formula_against_layout(self, toy_tax):
        rng = np.random.default_rng(26)
        names = toy_tax.subcategories
        days = {False: "2024-04-17", True: "2024-04-21"}  # Wednesday / Sunday
        for _ in range(200):
            s = int(rng.integers(len(names)))
            hour = int(rng.integers(24))
            weekend = bool(rng.integers(2))
            ts = f"{days[weekend]}T{hour:02d}:05:00"
            corpus = corpus_of(toy_tax, [make_checkin(subcat=names[s], ts=ts)])
            sig = spatiotemporal_vector(corpus, BOX)
            hand = 8 * s + 4 * int(weekend) + hour // 6
            assert sig.normalized[hand] == 1.0
            assert spatiotemporal_index(s, weekend, hour) == hand

    def test_class_period_indices_cover_block(self, ref_tax):
        idx = class_period_indices(ref_tax, "FastFood", "weekend")
        assert idx.shape == (27 * 4,)
        lo, hi = ref_tax.class_ranges["FastFood"]
        for flat in idx:
            s, rem = divmod(int(flat), 8)
            assert lo <= s < hi and rem >= 4

    def test_class_period_indices_follow_the_index_formula(self, ref_tax):
        lo, hi = ref_tax.class_ranges["Drink"]
        for group, weekend in (("weekday", False), ("weekend", True)):
            want = [spatiotemporal_index(s, weekend, 6 * p) for s in range(lo, hi) for p in range(4)]
            assert class_period_indices(ref_tax, "Drink", group).tolist() == want


class TestEntropy:
    def areas(self, n):
        return [Area(f"c{i}", "country", country_code=f"c{i}") for i in range(n)]

    def corpus_with_area_counts(self, toy_tax, counts, subcat="Pub"):
        """counts[i] check-ins at areas c{i}, plus the matching country array."""
        checkins, countries = [], []
        for i, n in enumerate(counts):
            for k in range(n):
                checkins.append(make_checkin(user=f"u{i}_{k}", subcat=subcat))
                countries.append(f"c{i}")
        return corpus_of(toy_tax, checkins), np.asarray(countries, dtype=object)

    def test_single_area_zero_entropy(self, toy_tax):
        corpus, countries = self.corpus_with_area_counts(toy_tax, [5, 0])
        h = subcategory_entropy(corpus, "Pub", self.areas(2), countries)
        assert h == 0.0

    def test_uniform_over_four_is_two_bits(self, toy_tax):
        corpus, countries = self.corpus_with_area_counts(toy_tax, [3, 3, 3, 3])
        h = subcategory_entropy(corpus, "Pub", self.areas(4), countries)
        assert h == 2.0

    def test_three_one_split(self, toy_tax):
        corpus, countries = self.corpus_with_area_counts(toy_tax, [3, 1])
        h = subcategory_entropy(corpus, "Pub", self.areas(2), countries)
        assert h == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_zero_total_undefined(self, toy_tax):
        corpus, countries = self.corpus_with_area_counts(toy_tax, [2])
        with pytest.raises(UndefinedMetric):
            subcategory_entropy(corpus, "Wine Bar", self.areas(1), countries)

    def test_uniform_attains_log2_exactly(self, toy_tax):
        for n in (2, 4, 8, 16):
            corpus, countries = self.corpus_with_area_counts(toy_tax, [2] * n)
            h = subcategory_entropy(corpus, "Pub", self.areas(n), countries)
            assert h == float(np.log2(n))

    def test_entropy_bounded_by_support(self, toy_tax):
        rng = np.random.default_rng(27)
        for _ in range(20):
            counts = rng.integers(0, 6, size=6).tolist()
            if sum(counts) == 0:
                counts[0] = 1
            corpus, countries = self.corpus_with_area_counts(toy_tax, counts)
            h = subcategory_entropy(corpus, "Pub", self.areas(6), countries)
            support = sum(1 for c in counts if c > 0)
            assert -1e-12 <= h <= np.log2(support) + 1e-12


class TestEntropySummary:
    def test_single_subcategory_zero_spread(self, toy_tax):
        checkins = [make_checkin(user=f"u{i}", subcat="Pub") for i in range(4)]
        countries = np.asarray(["c0"] * 4, dtype=object)
        areas = [Area("c0", "country", country_code="c0")]
        rows = {r.class_id: r for r in entropy_summary(corpus_of(toy_tax, checkins), areas, countries)}
        assert rows["Drink"].mean == 0.0
        assert rows["Drink"].sigma == 0.0
        assert rows["Drink"].n_subcategories == 1
        assert rows["FastFood"].mean is None

    def test_population_sigma_convention(self, toy_tax):
        # Pub uniform over 2 areas (H=1), Wine Bar uniform over 8 (H=3): mean 2, sigma 1
        checkins, countries = [], []
        for i in range(2):
            checkins.append(make_checkin(user=f"p{i}", subcat="Pub"))
            countries.append(f"c{i}")
        for i in range(8):
            checkins.append(make_checkin(user=f"w{i}", subcat="Wine Bar"))
            countries.append(f"c{i}")
        areas = [Area(f"c{i}", "country", country_code=f"c{i}") for i in range(8)]
        rows = {
            r.class_id: r
            for r in entropy_summary(corpus_of(toy_tax, checkins), areas, np.asarray(countries, object))
        }
        assert rows["Drink"].n_subcategories == 2
        assert rows["Drink"].mean == pytest.approx(2.0)
        assert rows["Drink"].sigma == pytest.approx(1.0)
        assert rows["Drink"].level == "country"

    def test_schema_has_class_level_mean_sigma(self, toy_tax):
        checkins = [make_checkin(subcat="Pub")]
        areas = [Area("c0", "country", country_code="c0")]
        rows = entropy_summary(corpus_of(toy_tax, checkins), areas, np.asarray(["c0"], object))
        assert [r.class_id for r in rows] == list(toy_tax.class_ids)
        first = rows[0]
        assert hasattr(first, "level") and hasattr(first, "mean") and hasattr(first, "sigma")
