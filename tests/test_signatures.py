"""Pearson matrices, temporal curves, spatio-temporal layout, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus_of, make_checkin, with_homes
from tastemap.errors import DataError, EmptyAreaError, UndefinedMetric
from tastemap.model import Area
from tastemap.prefs import area_cubes, normalized_rows
from tastemap.signatures import (
    class_period_indices,
    correlation_matrix,
    entropy_summary,
    pearson,
    spatiotemporal_vector,
    subcategory_entropy,
    temporal_series,
)

BOX = Area("box", "city", bbox=(0.0, 0.0, 2.0, 2.0))


def spatial_counts(corpus, areas):
    """Area x subcategory check-in counts, reduced from the areas' cubes."""
    return area_cubes(corpus, areas).sum(axis=(2, 3))


def signatures(counts):
    """Labels a0, a1, ... and the normalized rows of area count vectors."""
    labels = [f"a{i}" for i in range(len(counts))]
    return labels, normalized_rows(np.array(counts), labels)


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
        matrix = correlation_matrix(*signatures([counts, counts * 3]), toy_tax)
        assert matrix.values[0, 1] == pytest.approx(1.0)
        assert matrix.values[0, 0] == 1.0

    def test_scope_restricts_to_class_block(self, ref_tax):
        rng = np.random.default_rng(23)
        labels, sigs = signatures(rng.integers(1, 40, size=(3, ref_tax.m)))
        matrix = correlation_matrix(labels, sigs, ref_tax, scope="Drink")
        lo, hi = ref_tax.class_ranges["Drink"]
        assert hi - lo == 21
        expected = two_pass_pearson(sigs[0, lo:hi].tolist(), sigs[1, lo:hi].tolist())
        assert matrix.values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_disjoint_support_anticorrelated(self, toy_tax):
        matrix = correlation_matrix(
            *signatures([[5, 5, 5, 0, 0, 0, 0], [0, 0, 0, 5, 5, 5, 5]]), toy_tax
        )
        assert matrix.values[0, 1] < 0

    def test_matches_brute_force_on_random_areas(self, toy_tax):
        rng = np.random.default_rng(24)
        counts = []
        for _ in range(8):
            counts.append(rng.integers(0, 30, size=toy_tax.m))
            counts[-1][rng.integers(toy_tax.m)] += 5
        labels, sigs = signatures(counts)
        matrix = correlation_matrix(labels, sigs, toy_tax)
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                expected = two_pass_pearson(sigs[i].tolist(), sigs[j].tolist())
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_constant_signature_marked_nan(self, toy_tax):
        labels = ["flat", "varied"]
        rows = normalized_rows(np.array([[1] * 7, [3, 1, 0, 0, 2, 0, 1]]), labels)
        matrix = correlation_matrix(labels, rows, toy_tax)
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
        counts = [flat, *rng.integers(1, 40, size=(3, ref_tax.m))]
        values = correlation_matrix(*signatures(counts), ref_tax, scope="Drink").values
        assert np.isnan(values[0]).all() and np.isnan(values[:, 0]).all()
        assert not np.isnan(values[1:, 1:]).any()

    def test_matches_pairwise_pearson_with_constant_rows(self, ref_tax):
        rng = np.random.default_rng(29)
        counts = rng.integers(0, 30, size=(12, ref_tax.m))
        counts[:, 0] = 40
        counts[3] = 7  # constant everywhere
        lo, hi = ref_tax.class_ranges["FastFood"]
        counts[5, lo:hi] = 3  # constant FastFood block
        labels, sigs = signatures(counts)
        for scope in ("all", "FastFood"):
            values = correlation_matrix(labels, sigs, ref_tax, scope).values
            vectors = [s if scope == "all" else s[lo:hi] for s in sigs]
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


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), scope=st.sampled_from(["all", "Drink", "FastFood"]))
    def test_exactly_symmetric_nan_rows_included(self, toy_tax, data, scope):
        n = data.draw(st.integers(2, 9))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts = rng.integers(0, 50, size=(n, toy_tax.m))
        counts[:, 0] += 1  # no empty area
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
            counts[i] = counts[i, 0]  # constant everywhere
        lo, hi = toy_tax.class_ranges["Drink"]
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
            counts[i, lo:hi] = 3  # constant Drink block
        labels, sigs = signatures(counts)
        values = correlation_matrix(labels, sigs, toy_tax, scope).values
        # bit for bit: equal values, equal signs of zero, equal NaNs
        assert np.array_equal(values.view(np.uint64), values.T.view(np.uint64))
        block = slice(None) if scope == "all" else slice(*toy_tax.class_ranges[scope])
        vectors = sigs[:, block]
        constant = np.ptp(vectors, axis=1) == 0
        assert np.array_equal(np.isnan(values).all(axis=1), constant)
        assert np.array_equal(np.isnan(values), constant[:, None] | constant[None, :])


class TestTemporalSeries:
    @staticmethod
    def curve(toy_tax, checkins, class_id="Drink", day_group="weekday"):
        """The one row of ``temporal_series`` for the area BOX."""
        cubes = area_cubes(corpus_of(toy_tax, checkins), [BOX])
        (series,) = temporal_series(cubes, toy_tax, class_id, day_group)
        return series

    def test_single_hour_peak(self, toy_tax):
        series = self.curve(
            toy_tax,
            [make_checkin(user=f"u{i}", ts="2024-04-16T12:30:00") for i in range(4)],
        )
        assert series[12] == 1.0
        assert series.sum() == 1.0

    def test_two_peak_normalization(self, toy_tax):
        checkins = [make_checkin(user=f"a{i}", ts="2024-04-16T08:00:00") for i in range(10)]
        checkins += [make_checkin(user=f"b{i}", ts="2024-04-16T18:00:00") for i in range(5)]
        series = self.curve(toy_tax, checkins)
        assert series[8] == 1.0
        assert series[18] == 0.5

    def test_weekend_split(self, toy_tax):
        checkins = [
            make_checkin(user="u1", ts="2024-04-16T10:00:00"),  # Tuesday
            make_checkin(user="u2", ts="2024-04-20T22:00:00"),  # Saturday
        ]
        weekday = self.curve(toy_tax, checkins, day_group="weekday")
        weekend = self.curve(toy_tax, checkins, day_group="weekend")
        assert weekday[10] == 1.0 and weekday[22] == 0.0
        assert weekend[22] == 1.0 and weekend[10] == 0.0

    def test_class_filter(self, toy_tax):
        checkins = [make_checkin(subcat="Bakery", ts="2024-04-16T09:00:00")]
        assert self.curve(toy_tax, checkins, "Drink").sum() == 0.0
        assert self.curve(toy_tax, checkins, "FastFood")[9] == 1.0

    def test_order_independence(self, toy_tax):
        rng = np.random.default_rng(25)
        checkins = [
            make_checkin(user=f"u{i}", ts=f"2024-04-16T{rng.integers(24):02d}:00:00")
            for i in range(40)
        ]
        base = self.curve(toy_tax, checkins)
        shuffled = list(checkins)
        rng.shuffle(shuffled)
        again = self.curve(toy_tax, shuffled)
        assert np.array_equal(base, again)

    def test_scaling_invariance(self, toy_tax):
        checkins = [make_checkin(user=f"u{i}", ts="2024-04-16T07:00:00") for i in range(3)]
        checkins += [make_checkin(user=f"w{i}", ts="2024-04-16T19:00:00") for i in range(6)]
        base = self.curve(toy_tax, checkins)
        tripled = self.curve(toy_tax, checkins * 3)
        assert np.array_equal(base, tripled)

    def test_bad_day_group_rejected(self, toy_tax):
        with pytest.raises(DataError):
            self.curve(toy_tax, [make_checkin()], day_group="holiday")


class TestSpatiotemporalVector:
    @staticmethod
    def signature(corpus):
        """The one row of ``spatiotemporal_vector`` for the area BOX."""
        (sig,) = spatiotemporal_vector(area_cubes(corpus, [BOX]), [BOX.area_id])
        return sig

    def test_reference_taxonomy_gives_808(self, ref_tax):
        corpus = corpus_of(ref_tax, [make_checkin(subcat="Pub")])
        sig = self.signature(corpus)
        assert sig.shape == (808,)

    def test_one_subcategory_gives_8(self, tmp_path):
        from conftest import write_taxonomy
        from tastemap.model import load_taxonomy

        tax = load_taxonomy(write_taxonomy(tmp_path / "t.txt", "Drink\tPub\n"))
        corpus = corpus_of(tax, [make_checkin(subcat="Pub")])
        assert self.signature(corpus).shape == (8,)

    def test_single_checkin_lights_one_coordinate(self, toy_tax):
        # Tuesday 13:00 -> weekday block, period [12,18)
        corpus = corpus_of(toy_tax, [make_checkin(subcat="Pub", ts="2024-04-16T13:00:00")])
        sig = self.signature(corpus)
        expected = toy_tax.index_of("Pub") * 8 + 0 * 4 + 2
        assert sig[expected] == 1.0
        assert sig.sum() == 1.0

    def test_empty_area_raises(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin(lat=50.0, lon=50.0)])
        with pytest.raises(EmptyAreaError):
            self.signature(corpus)

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
            sig = self.signature(corpus)
            hand = 8 * s + 4 * int(weekend) + hour // 6
            assert sig[hand] == 1.0

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
            want = [8 * s + 4 * int(weekend) + p for s in range(lo, hi) for p in range(4)]
            assert class_period_indices(ref_tax, "Drink", group).tolist() == want


class TestEntropy:
    def areas(self, n):
        return [Area(f"c{i}", "country", country_code=f"c{i}") for i in range(n)]

    def entropy(self, corpus, subcat, areas):
        """The entry of ``subcategory_entropy`` for one subcategory."""
        return subcategory_entropy(spatial_counts(corpus, areas))[corpus.taxonomy.index_of(subcat)]

    def corpus_with_area_counts(self, toy_tax, counts, subcat="Pub"):
        """counts[i] check-ins at area c{i}, each by its own user homed there."""
        checkins, home = [], {}
        for i, n in enumerate(counts):
            for k in range(n):
                checkins.append(make_checkin(user=f"u{i}_{k}", subcat=subcat))
                home[f"u{i}_{k}"] = f"c{i}"
        return with_homes(corpus_of(toy_tax, checkins), home,
                          countries=[f"c{i}" for i in range(len(counts))])

    def test_single_area_zero_entropy(self, toy_tax):
        corpus = self.corpus_with_area_counts(toy_tax, [5, 0])
        h = self.entropy(corpus, "Pub", self.areas(2))
        assert h == 0.0

    def test_uniform_over_four_is_two_bits(self, toy_tax):
        corpus = self.corpus_with_area_counts(toy_tax, [3, 3, 3, 3])
        h = self.entropy(corpus, "Pub", self.areas(4))
        assert h == 2.0

    def test_three_one_split(self, toy_tax):
        corpus = self.corpus_with_area_counts(toy_tax, [3, 1])
        h = self.entropy(corpus, "Pub", self.areas(2))
        assert h == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_zero_total_undefined(self, toy_tax):
        corpus = self.corpus_with_area_counts(toy_tax, [2])
        assert self.entropy(corpus, "Wine Bar", self.areas(1)) is None

    def test_uniform_attains_log2_exactly(self, toy_tax):
        for n in (2, 4, 8, 16):
            corpus = self.corpus_with_area_counts(toy_tax, [2] * n)
            h = self.entropy(corpus, "Pub", self.areas(n))
            assert h == float(np.log2(n))

    def test_entropy_bounded_by_support(self, toy_tax):
        rng = np.random.default_rng(27)
        for _ in range(20):
            counts = rng.integers(0, 6, size=6).tolist()
            if sum(counts) == 0:
                counts[0] = 1
            corpus = self.corpus_with_area_counts(toy_tax, counts)
            h = self.entropy(corpus, "Pub", self.areas(6))
            support = sum(1 for c in counts if c > 0)
            assert -1e-12 <= h <= np.log2(support) + 1e-12


class TestEntropySummary:
    def test_single_subcategory_zero_spread(self, toy_tax):
        checkins = [make_checkin(user=f"u{i}", subcat="Pub") for i in range(4)]
        corpus = with_homes(corpus_of(toy_tax, checkins), {f"u{i}": "c0" for i in range(4)})
        areas = [Area("c0", "country", country_code="c0")]
        entropies = subcategory_entropy(spatial_counts(corpus, areas))
        rows = {r.class_id: r for r in entropy_summary(toy_tax, "country", entropies)}
        assert rows["Drink"].mean == 0.0
        assert rows["Drink"].sigma == 0.0
        assert rows["Drink"].n_subcategories == 1
        assert rows["FastFood"].mean is None

    def test_population_sigma_convention(self, toy_tax):
        # Pub uniform over 2 areas (H=1), Wine Bar uniform over 8 (H=3): mean 2, sigma 1
        checkins, home = [], {}
        for i in range(2):
            checkins.append(make_checkin(user=f"p{i}", subcat="Pub"))
            home[f"p{i}"] = f"c{i}"
        for i in range(8):
            checkins.append(make_checkin(user=f"w{i}", subcat="Wine Bar"))
            home[f"w{i}"] = f"c{i}"
        areas = [Area(f"c{i}", "country", country_code=f"c{i}") for i in range(8)]
        corpus = with_homes(corpus_of(toy_tax, checkins), home)
        entropies = subcategory_entropy(spatial_counts(corpus, areas))
        rows = {r.class_id: r for r in entropy_summary(toy_tax, areas[0].kind, entropies)}
        assert rows["Drink"].n_subcategories == 2
        assert rows["Drink"].mean == pytest.approx(2.0)
        assert rows["Drink"].sigma == pytest.approx(1.0)
        assert rows["Drink"].level == "country"

    def test_schema_has_class_level_mean_sigma(self, toy_tax):
        checkins = [make_checkin(subcat="Pub")]
        areas = [Area("c0", "country", country_code="c0")]
        corpus = with_homes(corpus_of(toy_tax, checkins), {"u1": "c0"})
        entropies = subcategory_entropy(spatial_counts(corpus, areas))
        rows = entropy_summary(toy_tax, "country", entropies)
        assert [r.class_id for r in rows] == list(toy_tax.class_ids)
        first = rows[0]
        assert hasattr(first, "level") and hasattr(first, "mean") and hasattr(first, "sigma")
