"""PCA, spherical k-means, cosine ranking, Spearman, survey comparison."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tastemap.boundaries import (
    PcaModel,
    compare_with_survey,
    fit_pca,
    kmeans_cosine,
    rank_by_cosine,
    select_components,
    spearman,
)
from tastemap.errors import DataError, UndefinedMetric
from tastemap.synth import adjusted_rand_index


def planted_rank(rank, n_areas=30, n_features=808, seed=0):
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(n_areas, rank))
    right = rng.normal(size=(rank, n_features))
    return left @ right + 3.0


class TestFitPca:
    def test_collinear_points_have_one_component(self):
        t = np.linspace(0.0, 5.0, 12)
        data = np.stack([2 * t + 1, -t, 0.5 * t]).T
        model = fit_pca(data)
        assert model.ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert (model.ratios[1:] < 1e-9).all()

    def test_two_points_have_rank_one(self):
        model = fit_pca(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        nonzero = (model.eigenvalues > model.eigenvalues[0] * 1e-12).sum()
        assert nonzero == 1

    def test_planted_rank_three(self):
        model = fit_pca(planted_rank(3))
        assert (model.ratios > 1e-9).sum() == 3

    def test_reconstruction_round_trip(self):
        data = planted_rank(5, seed=2)
        model = fit_pca(data)
        rebuilt = model.reconstruct(model.transform(data))
        assert np.abs(rebuilt - data).max() < 1e-9

    def test_components_orthonormal(self):
        model = fit_pca(planted_rank(4, n_areas=12, n_features=30, seed=3))
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-9

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(4)
        model = fit_pca(rng.normal(size=(40, 10)))
        assert model.ratios.sum() == pytest.approx(1.0, abs=1e-9)

    def test_eigenvalues_sorted_descending(self):
        rng = np.random.default_rng(5)
        model = fit_pca(rng.normal(size=(25, 9)))
        assert (np.diff(model.eigenvalues) <= 1e-12).all()

    def test_gram_route_matches_explicit_covariance_spectrum(self):
        rng = np.random.default_rng(6)
        wide = rng.normal(size=(8, 40))  # fewer rows than columns -> Gram route
        model = fit_pca(wide)
        centered = wide - wide.mean(axis=0)
        full_spectrum = np.linalg.eigvalsh(centered.T @ centered / (wide.shape[0] - 1))[::-1]
        np.testing.assert_allclose(model.eigenvalues, full_spectrum[: len(model.eigenvalues)],
                                   atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(wide=st.booleans(), data=st.data())
    def test_largest_entry_of_each_component_is_positive(self, wide, data):
        # wide: fewer rows than columns, so fit_pca takes the Gram route.
        n = data.draw(st.integers(2, 7))
        d = data.draw(st.integers(n + 1, 9) if wide else st.integers(1, n))
        X = data.draw(arrays(np.float64, (n, d), elements=st.integers(-5, 5).map(float)))
        assume((X != X[0]).any())
        components = fit_pca(X).components
        for row in components:
            assert row[np.abs(row).argmax()] > 0

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            fit_pca(np.ones((1, 4)))

    def test_nonfinite_rejected(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(DataError):
            fit_pca(bad)

    def test_constant_rows_rejected(self):
        with pytest.raises(DataError):
            fit_pca(np.ones((5, 4)))


class TestSelectComponents:
    def test_single_full_ratio(self):
        model = PcaModel(
            mean=np.zeros(2),
            components=np.eye(1, 2),
            eigenvalues=np.array([2.0]),
            ratios=np.array([1.0]),
        )
        assert select_components(model) == 1

    def test_trailing_zero_not_needed(self):
        model = PcaModel(
            mean=np.zeros(3),
            components=np.eye(3),
            eigenvalues=np.array([0.6, 0.4, 0.0]),
            ratios=np.array([0.6, 0.4, 0.0]),
        )
        assert select_components(model, 1.0) == 2

    def test_partial_coverage(self):
        model = PcaModel(
            mean=np.zeros(3),
            components=np.eye(3),
            eigenvalues=np.array([0.6, 0.3, 0.1]),
            ratios=np.array([0.6, 0.3, 0.1]),
        )
        assert select_components(model, 0.85) == 2
        assert select_components(model, 0.95) == 3

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_planted_rank_selected(self, rank):
        model = fit_pca(planted_rank(rank, seed=rank))
        assert select_components(model, 1.0) == rank


def bundles(angle_deg=60.0, jitter_deg=5.0, per_bundle=10):
    pts, labels = [], []
    for b, center in enumerate((0.0, math.radians(angle_deg))):
        for jit in np.linspace(-math.radians(jitter_deg), math.radians(jitter_deg), per_bundle):
            pts.append([math.cos(center + jit), math.sin(center + jit)])
            labels.append(b)
    return np.asarray(pts), labels


class TestKmeansCosine:
    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(6, 4))
        report = kmeans_cosine(data, k=6, seed=0)
        assert sorted(report.assignments.values()) == sorted(range(6))
        assert report.objective == pytest.approx(0.0, abs=1e-12)

    def test_recovers_two_bundles(self):
        data, truth = bundles()
        report = kmeans_cosine(data, k=2, seed=0)
        predicted = [report.assignments[str(i)] for i in range(len(truth))]
        assert adjusted_rand_index(truth, predicted) == 1.0

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 6))
        report = kmeans_cosine(data, k=4, seed=1)
        diffs = np.diff(report.objective_history)
        assert (diffs <= 1e-10).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(25, 5))
        a = kmeans_cosine(data, k=3, seed=11, area_ids=[f"x{i}" for i in range(25)])
        b = kmeans_cosine(data, k=3, seed=11, area_ids=[f"x{i}" for i in range(25)])
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(30, 4))
        scales = rng.uniform(0.5, 20.0, size=30)
        a = kmeans_cosine(data, k=3, seed=2)
        b = kmeans_cosine(data * scales[:, None], k=3, seed=2)
        assert a.assignments == b.assignments

    def test_k_larger_than_rows_rejected(self):
        with pytest.raises(DataError):
            kmeans_cosine(np.ones((2, 2)), k=3, seed=0)

    def test_zero_row_rejected(self):
        data = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError):
            kmeans_cosine(data, k=1, seed=0)

    def test_area_ids_label_assignments(self):
        data, _ = bundles()
        ids = [f"area{i:02d}" for i in range(len(data))]
        report = kmeans_cosine(data, k=2, seed=0, area_ids=ids)
        assert set(report.assignments) == set(ids)

    def test_empty_cluster_repair_keeps_k_clusters(self):
        # Only two distinct directions but k=3: seeding lands on a duplicate
        # and the repair path must still deliver three nonempty clusters.
        data = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
        for seed in range(5):
            report = kmeans_cosine(data, k=3, seed=seed)
            assert len(set(report.assignments.values())) == 3

    @pytest.mark.parametrize("data, k", [
        ([[-1.0], [1.0], [2.0]], 3),
        ([[-1.0], [1.0], [2.0], [3.0], [4.0]], 5),
        ([[-0.015], [0.985], [0.514], [1.236], [0.733]], 5),
    ])
    def test_too_few_directions_for_k_is_undefined(self, data, k):
        # Two directions cannot hold k nonempty clusters once the repair path
        # has to empty one cluster to fill another.
        for seed in range(3):
            with pytest.raises(UndefinedMetric):
                kmeans_cosine(np.array(data), k=k, seed=seed)


class TestRankByCosine:
    def test_identical_vector_ranks_first(self):
        vectors = {"t": [1.0, 0.0], "same": [2.0, 0.0], "off": [1.0, 1.0]}
        assert rank_by_cosine("t", vectors)[0] == "same"

    def test_hand_ordering(self):
        vectors = {
            "t": [1.0, 0.0],
            "diag": [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)],
            "orth": [0.0, 1.0],
        }
        assert rank_by_cosine("t", vectors) == ["diag", "orth"]

    def test_scaling_leaves_rank_unchanged(self):
        rng = np.random.default_rng(11)
        vectors = {f"a{i}": rng.normal(size=5) for i in range(8)}
        base = rank_by_cosine("a0", vectors)
        scaled = {k: np.asarray(v) * rng.uniform(0.1, 9.0) for k, v in vectors.items()}
        assert rank_by_cosine("a0", scaled) == base

    def test_tie_broken_by_id(self):
        vectors = {"t": [1.0, 0.0], "b": [3.0, 0.0], "a": [2.0, 0.0]}
        assert rank_by_cosine("t", vectors) == ["a", "b"]

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            rank_by_cosine("t", {"t": [1.0, 0.0], "z": [0.0, 0.0]})

    def test_missing_target_rejected(self):
        with pytest.raises(DataError):
            rank_by_cosine("nope", {"t": [1.0]})


class TestSpearman:
    def test_identical_ranks(self):
        rho, p = spearman(list("abcd"), list("abcd"))
        assert rho == 1.0
        assert p == pytest.approx(2.0 / math.factorial(4))

    def test_reversed_ranks(self):
        rho, _ = spearman(list("abcde"), list("edcba"))
        assert rho == -1.0

    def test_hand_example_exact(self):
        rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        assert rho == 0.8

    def test_closed_form_on_random_permutations(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(3, 25))
            items = [f"i{k}" for k in range(n)]
            a = [items[k] for k in rng.permutation(n)]
            b = [items[k] for k in rng.permutation(n)]
            rho, _ = spearman(a, b)
            pos_a = {item: i for i, item in enumerate(a)}
            pos_b = {item: i for i, item in enumerate(b)}
            d2 = sum((pos_a[i] - pos_b[i]) ** 2 for i in items)
            closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
            assert rho == pytest.approx(closed, abs=1e-12)

    def test_perfect_rank_p_value_tiny(self):
        _, p = spearman(list(range(16)), list(range(16)))
        assert p < 1e-10

    def test_permutation_invariance_of_its_sign(self):
        rho_fwd, _ = spearman([1, 2, 3, 4, 5], [2, 1, 3, 5, 4])
        rho_rev, _ = spearman([1, 2, 3, 4, 5], [4, 5, 3, 1, 2])
        assert rho_fwd == -rho_rev

    def test_mismatched_items_rejected(self):
        with pytest.raises(DataError):
            spearman([1, 2, 3], [1, 2, 4])

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            spearman([1, 2], [2, 1])

    def test_exact_method_agrees_with_t_on_direction(self):
        rho_t, p_t = spearman([1, 2, 3, 4, 5], [1, 3, 2, 4, 5])
        rho_e, p_e = spearman([1, 2, 3, 4, 5], [1, 3, 2, 4, 5], method="exact")
        assert rho_t == rho_e
        assert 0.0 < p_e <= 1.0

    def test_exact_method_size_limit(self):
        items = list(range(9))
        with pytest.raises(DataError):
            spearman(items, items, method="exact")


class TestCompareWithSurvey:
    def coords(self, n=8, seed=13):
        rng = np.random.default_rng(seed)
        return {f"c{i}": rng.normal(size=2) for i in range(n)}

    def test_self_comparison_all_perfect(self):
        survey = self.coords()
        rows = compare_with_survey(survey, survey, sorted(survey))
        assert all(r.rho == 1.0 for r in rows)
        assert all(r.rank_survey == r.rank_ours for r in rows)

    def test_swapping_two_countries_perturbs(self):
        survey = self.coords(10)
        ours = dict(survey)
        ours["c0"], ours["c1"] = survey["c1"], survey["c0"]
        rows = {r.country: r for r in compare_with_survey(ours, survey, sorted(survey))}
        assert rows["c0"].rho < 1.0
        assert rows["c1"].rho < 1.0
        # Oracle: recompute one row by hand.
        target = "c0"
        ra = rank_by_cosine(target, {c: survey[c] for c in survey})
        rb = rank_by_cosine(target, {c: ours[c] for c in ours})
        rho, p = spearman(ra, rb)
        assert rows[target].rho == pytest.approx(rho)
        assert rows[target].p_value == pytest.approx(p)

    def test_missing_country_rejected(self):
        survey = self.coords(5)
        ours = dict(survey)
        del ours["c3"]
        with pytest.raises(DataError):
            compare_with_survey(ours, survey, sorted(survey))

    def test_significance_flag_matches_p(self):
        survey = self.coords(12, seed=14)
        rows = compare_with_survey(survey, survey, sorted(survey))
        for r in rows:
            assert r.significant == (r.p_value < 0.05)
