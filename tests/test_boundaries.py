"""PCA, spherical k-means, cosine ranking, Spearman, survey comparison."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from ari import adjusted_rand_index
from tastemap.boundaries import (
    _t_two_sided,
    centered_rows,
    compare_with_survey,
    cosine_rankings,
    fit_pca,
    kmeans_cosine,
    pca_scores,
    spearman,
)
from tastemap.errors import DataError, UndefinedMetric


def planted_rank(rank, n_areas=30, n_features=808, seed=0):
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(n_areas, rank))
    right = rng.normal(size=(rank, n_features))
    return left @ right + 3.0


def axis_data(*variances):
    """Rows at plus and minus sqrt(v) on each axis: the covariance spectrum
    is proportional to ``variances``."""
    rows = []
    for i, v in enumerate(variances):
        for sign in (1.0, -1.0):
            row = np.zeros(len(variances))
            row[i] = sign * math.sqrt(v)
            rows.append(row)
    return np.array(rows)


def integer_matrix(data, wide):
    """A small integer-valued matrix that is not constant; ``wide`` means
    fewer rows than columns, so fit_pca takes the Gram route."""
    n = data.draw(st.integers(2, 7))
    d = data.draw(st.integers(n + 1, 9) if wide else st.integers(1, n))
    X = data.draw(arrays(np.float64, (n, d), elements=st.integers(-5, 5).map(float)))
    assume((X != X[0]).any())
    return X


def exact_ranking(target, vectors):
    """Oracle: the other ids by descending signed squared cosine to the
    target, in exact rationals over the integers and the decimal values the
    floats print as; ties by id."""
    dec = {a: [Fraction(x) if isinstance(x, (int, np.integer)) else Fraction(repr(float(x)))
               for x in v] for a, v in vectors.items()}
    t = dec[target]

    def signed_cos2(a):
        dot = sum(x * y for x, y in zip(t, dec[a]))
        return dot * abs(dot) / (sum(x * x for x in t) * sum(x * x for x in dec[a]))

    return sorted((a for a in vectors if a != target), key=lambda a: (-signed_cos2(a), a))


def planted_vectors(data, ids, dim):
    """Nonzero vectors whose entries are two-decimal multiples c * m / 100 of
    a few integer directions m, so many are exactly proportional (2m and 3m
    tie at one cosine); a few are arbitrary floats instead."""
    directions = data.draw(st.lists(
        st.lists(st.integers(-60, 60), min_size=dim, max_size=dim).filter(any),
        min_size=1, max_size=3))
    out = {}
    for name in ids:
        if data.draw(st.integers(0, 5)) == 0:
            out[name] = np.array(data.draw(st.lists(
                st.floats(-100, 100).filter(lambda x: abs(x) > 1e-6),
                min_size=dim, max_size=dim)))
        else:
            m = data.draw(st.sampled_from(directions))
            c = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            out[name] = np.array([c * k / 100 for k in m])
    return out


@st.composite
def tied_big_integer_vectors(draw, min_others=0):
    """Five-dimensional integer vectors whose entries reach from 2^62 to
    2^66 in magnitude, with an exact cosine tie that is not a proportion:
    a = (3k, 4k, 0, 0, 0) and b = (3k, 2k, 2k, 2k, 2k) both lie at cosine
    3/5 from t = (m, 0, 0, 0, 0).  The axes are permuted and the ids drawn,
    so the tie orders either way."""
    k = draw(st.integers(2**61, 2**64 - 1))
    m = draw(st.integers(2**62, 2**66 - 1))
    size = st.integers(2**62, 2**66 - 1)
    rest = draw(st.lists(st.lists(size | size.map(lambda x: -x), min_size=5, max_size=5),
                         min_size=min_others, max_size=4))
    rows = [[m, 0, 0, 0, 0], [3 * k, 4 * k, 0, 0, 0], [3 * k, 2 * k, 2 * k, 2 * k, 2 * k], *rest]
    axes = draw(st.permutations(range(5)))
    ids = draw(st.permutations("abcdefg"))
    return {a: [row[j] for j in axes] for a, row in zip(ids, rows)}


class TestFitPca:
    def test_collinear_points_have_one_component(self):
        t = np.linspace(0.0, 5.0, 12)
        data = np.stack([2 * t + 1, -t, 0.5 * t]).T
        eigenvalues = fit_pca(data).eigenvalues
        share = eigenvalues / eigenvalues.sum()
        assert share[0] == pytest.approx(1.0, abs=1e-9)
        assert (share[1:] < 1e-9).all()

    def test_two_points_have_rank_one(self):
        model = fit_pca(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
        nonzero = (model.eigenvalues > model.eigenvalues[0] * 1e-12).sum()
        assert nonzero == 1

    def test_planted_rank_three(self):
        eigenvalues = fit_pca(planted_rank(3)).eigenvalues
        assert (eigenvalues / eigenvalues.sum() > 1e-9).sum() == 3
        # Both routes drop the numerically zero spectrum by one relative
        # rule: fewer rows than columns (Gram) and at least as many (covariance).
        for n_areas, n_features in ((30, 808), (60, 20), (40, 40)):
            model = fit_pca(planted_rank(3, n_areas, n_features, seed=n_features))
            assert model.eigenvalues.shape == (3,)
            assert model.components.shape == (3, n_features)
            assert (model.eigenvalues >= model.eigenvalues[0] * 1e-12).all()

    def test_reconstruction_round_trip(self):
        data = planted_rank(5, seed=2)
        model = fit_pca(data)
        scores = pca_scores(data)
        rebuilt = scores @ model.components[: scores.shape[1]] + model.mean
        assert np.abs(rebuilt - data).max() < 1e-9

    def test_components_orthonormal(self):
        model = fit_pca(planted_rank(4, n_areas=12, n_features=30, seed=3))
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-9

    def test_ratios_sum_to_one(self):
        # The scores' variances, one per kept component, add up to all of it.
        data = np.random.default_rng(4).normal(size=(40, 10))
        kept = pca_scores(data).var(axis=0, ddof=1).sum()
        assert kept / data.var(axis=0, ddof=1).sum() == pytest.approx(1.0, abs=1e-9)

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
        components = fit_pca(integer_matrix(data, wide)).components
        for row in components:
            assert row[np.abs(row).argmax()] > 0

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            fit_pca(np.ones((1, 4)))

    def test_extreme_magnitudes(self):
        for scale in (1e-170, 1e200):
            vectors = {"t": [scale, scale], "a": [1.0, 0.0], "b": [3.0, 3.0], "c": [0.0, 2.0]}
            assert cosine_rankings(vectors)["t"] == ["b", "a", "c"]
            vectors = {"t": [1.0, 2.0], "a": [-scale, 0.0], "b": [scale, 2 * scale]}
            assert cosine_rankings(vectors)["t"] == ["b", "a"]

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
        assert pca_scores(axis_data(2.0, 0.0)).shape[1] == 1

    def test_trailing_zero_not_needed(self):
        assert pca_scores(axis_data(0.6, 0.4, 0.0), 1.0).shape[1] == 2

    def test_partial_coverage(self):
        data = axis_data(0.6, 0.3, 0.1)
        assert pca_scores(data, 0.85).shape[1] == 2
        assert pca_scores(data, 0.95).shape[1] == 3

    @pytest.mark.parametrize("coverage", [0.0, -0.1, 1.0 + 1e-12, 2.0, math.nan])
    def test_coverage_outside_unit_interval_rejected(self, coverage):
        data = planted_rank(3)
        with pytest.raises(DataError):
            pca_scores(data, coverage)
        assert pca_scores(data, 1e-9).shape[1] == 1

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_planted_rank_selected(self, rank):
        assert pca_scores(planted_rank(rank, seed=rank), 1.0).shape[1] == rank

    @settings(max_examples=100, deadline=None)
    @given(wide=st.booleans(), data=st.data())
    def test_scores_reproduce_the_gram_matrix(self, wide, data):
        # Oracle: the centred rows' Gram matrix and its spectrum.  The scores
        # must span it (S S^T = Xc Xc^T) on orthogonal columns that carry its
        # nonzero eigenvalues in descending order (S^T S = diag), so they are
        # right up to the sign of each component.
        X = integer_matrix(data, wide)
        xc = X - X.mean(axis=0)
        gram = xc @ xc.T
        eigenvalues = np.linalg.eigvalsh(gram)[::-1]
        zeroed = np.where(eigenvalues < eigenvalues[0] * 1e-12, 0.0, eigenvalues)
        p = int(np.argmax(np.cumsum(zeroed / zeroed.sum()) >= 1.0 - 1e-9)) + 1
        scores = pca_scores(X)
        atol = 1e-8 * float(np.trace(gram))
        assert scores.shape == (len(X), p)
        np.testing.assert_allclose(scores @ scores.T, gram, rtol=0.0, atol=atol)
        np.testing.assert_allclose(scores.T @ scores, np.diag(eigenvalues[:p]), rtol=0.0,
                                   atol=atol)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_result_is_a_fixed_point(self, data):
        # Every row sits at its most similar centroid, every centroid is the
        # mean direction of its rows (where they have one: opposite rows
        # cancel), and the objective is their summed cosine distance.
        n = data.draw(st.integers(1, 40))
        X = data.draw(arrays(np.float64, (n, data.draw(st.integers(1, 6))),
                             elements=st.integers(-5, 5).map(float)))
        X[~X.any(axis=1), 0] = 1.0  # a zero row has no direction
        k = data.draw(st.integers(1, min(n, 6)))
        try:
            report = kmeans_cosine(X, k=k, seed=data.draw(st.integers(0, 99)))
        except UndefinedMetric:
            assume(False)
        unit = X / np.linalg.norm(X, axis=1, keepdims=True)
        labels = np.array([report.assignments[str(i)] for i in range(n)])
        sims = unit @ report.centroids.T
        own = sims[np.arange(n), labels]
        assert (own >= sims.max(axis=1) - 1e-9).all()
        for c in range(k):
            direction = unit[labels == c].sum(axis=0)
            norm = np.linalg.norm(direction)
            if norm > 0:
                np.testing.assert_allclose(report.centroids[c], direction / norm,
                                           rtol=0.0, atol=1e-9)
        assert report.objective == pytest.approx(float((1.0 - own).sum()), abs=1e-9)

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
        assert cosine_rankings(vectors)["t"][0] == "same"

    def test_hand_ordering(self):
        vectors = {
            "t": [1.0, 0.0],
            "diag": [1.0 / math.sqrt(2), 1.0 / math.sqrt(2)],
            "orth": [0.0, 1.0],
        }
        assert cosine_rankings(vectors)["t"] == ["diag", "orth"]

    def test_scaling_leaves_rank_unchanged(self):
        rng = np.random.default_rng(11)
        vectors = {f"a{i}": rng.normal(size=5) for i in range(8)}
        base = cosine_rankings(vectors)["a0"]
        scaled = {k: np.asarray(v) * rng.uniform(0.1, 9.0) for k, v in vectors.items()}
        assert cosine_rankings(scaled)["a0"] == base

    def test_tie_broken_by_id(self):
        vectors = {"t": [1.0, 0.0], "b": [3.0, 0.0], "a": [2.0, 0.0]}
        assert cosine_rankings(vectors)["t"] == ["a", "b"]

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            cosine_rankings({"t": [1.0, 0.0], "z": [0.0, 0.0]})

    def test_decimal_multiples_tie_and_order_by_id(self):
        # 0.3,0.6 is 1.5 times 0.2,0.4 in decimals but not in binary.
        vectors = {"t": [0.7, 0.1], "b": [0.2, 0.4], "a": [0.3, 0.6], "d": [0.1, -0.9]}
        assert cosine_rankings(vectors)["t"] == ["a", "b", "d"]

    def test_extreme_magnitudes(self):
        for scale in (1e-170, 1e200):
            vectors = {"t": [scale, scale], "a": [1.0, 0.0], "b": [3.0, 3.0], "c": [0.0, 2.0]}
            assert cosine_rankings(vectors)["t"] == ["b", "a", "c"]
            vectors = {"t": [1.0, 2.0], "a": [-scale, 0.0], "b": [scale, 2 * scale]}
            assert cosine_rankings(vectors)["t"] == ["b", "a"]

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            cosine_rankings({"t": [1.0, 0.0], "n": [np.nan, 1.0]})

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_exact_rational_ranking(self, data):
        dim = data.draw(st.integers(1, 6))
        ids = data.draw(st.permutations([f"a{i}" for i in range(data.draw(st.integers(2, 9)))]))
        vectors = planted_vectors(data, ids, dim)
        target = data.draw(st.sampled_from(ids))
        assert cosine_rankings(vectors)[target] == exact_ranking(target, vectors)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_centered_rows_rank_like_exactly_centered_rationals(self, data):
        """Integer entries are exact: ``centered_rows`` ranks like the rows
        less their mean in rationals, planted ties included."""
        dim = data.draw(st.integers(1, 6))
        ids = [f"a{i}" for i in range(data.draw(st.integers(3, 9)))]
        vectors = planted_vectors(data, ids, dim)
        rows = [[Fraction(float(x)) for x in vectors[a]] for a in ids]
        mean = [sum(col) / len(rows) for col in zip(*rows)]
        exact = {a: [x - m for x, m in zip(row, mean)] for a, row in zip(ids, rows)}
        assume(all(any(v) for v in exact.values()))
        target = data.draw(st.sampled_from(ids))

        def key(a):
            dot = sum(x * y for x, y in zip(exact[target], exact[a]))
            return -dot * abs(dot) / sum(x * x for x in exact[a]), a

        want = sorted((a for a in ids if a != target), key=key)
        centered = dict(zip(ids, centered_rows(list(vectors.values()))))
        assert cosine_rankings(centered)[target] == want

    @settings(max_examples=200, deadline=None)
    @given(vectors=tied_big_integer_vectors())
    @example(vectors={"t": [2**62, 0, 0, 0, 0],
                      "b": [3 * (2**61 + 2**9 + 1), 4 * (2**61 + 2**9 + 1), 0, 0, 0],
                      "a": [3 * (2**61 + 2**9 + 1), *[2 * (2**61 + 2**9 + 1)] * 4]})
    def test_big_integer_rows_rank_exactly(self, vectors):
        """Entries past 2^63 stay exact integers: no float rounding breaks a
        tie or orders two near cosines."""
        for target in vectors:
            assert cosine_rankings(vectors)[target] == exact_ranking(target, vectors)


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
            n = int(rng.integers(3, 400))
            items = [f"i{k}" for k in range(n)]
            a = [items[k] for k in rng.permutation(n)]
            b = [items[k] for k in rng.permutation(n)]
            rho, _ = spearman(a, b)
            pos_a = {item: i for i, item in enumerate(a)}
            pos_b = {item: i for i, item in enumerate(b)}
            d2 = sum((pos_a[i] - pos_b[i]) ** 2 for i in items)
            assert rho == float(1 - Fraction(6 * d2, n**3 - n))

    def test_perfect_rank_p_value_tiny(self):
        _, p = spearman(list(range(16)), list(range(16)))
        assert p < 1e-10

    def test_perfect_rank_p_value_is_rounded_once(self):
        # 2.0 / n! rounds n! first: one ulp off at n = 23, 26, 29, 31, ...
        for n in range(3, 171):
            want = float(Fraction(2, math.factorial(n)))
            assert spearman(list(range(n)), list(range(n))) == (1.0, want)
            assert spearman(list(range(n)), list(range(n))[::-1]) == (-1.0, want)

    def test_perfect_rank_p_value_past_float_factorials(self):
        # n! overflows a float from n = 171 on; 2/n! is rounded once there.
        assert spearman(list(range(171)), list(range(171))) == (1.0, 1.61158007928862e-309)
        assert spearman(list(range(200)), list(range(200))[::-1]) == (-1.0, 0.0)

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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_scipy_spearmanr(self, data):
        n = data.draw(st.integers(3, 39))
        a = data.draw(st.permutations(range(n)))
        b = data.draw(st.permutations(range(n)))
        rho, p = spearman(a, b)
        pos_b = {item: i for i, item in enumerate(b)}
        want_rho, want_p = stats.spearmanr(np.arange(n), [pos_b[item] for item in a])
        assert rho == pytest.approx(want_rho, rel=1e-12)
        if abs(rho) == 1.0:
            # scipy reports p = 0 here; the exact permutation bound is 2/n!,
            # rounded once.
            assert p == float(Fraction(2, math.factorial(n)))
        else:
            assert p == pytest.approx(want_p, rel=1e-12)

    @pytest.mark.parametrize("n", range(3, 40))
    def test_tail_matches_stdtr_at_every_rank_sum(self, n):
        # Every even sum of squared rank differences strictly between 0 and
        # its maximum (n^3 - n)/3: a superset of the achievable |rho| < 1.
        nu = n - 2
        d2 = np.arange(2, (n**3 - n) // 3 - 1, 2)
        rho = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        t = rho * np.sqrt(nu / (1.0 - rho * rho))
        want = 2.0 * special.stdtr(nu, -np.abs(t))
        got = np.array([_t_two_sided(float(v), nu) for v in t])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 7, 20, 37])
    def test_tail_at_the_branch_edge(self, nu):
        for t in (2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0), 1.5, 2.5, 40.0):
            for sign in (1.0, -1.0):
                want = 2.0 * float(special.stdtr(nu, -t))
                assert _t_two_sided(sign * t, nu) == pytest.approx(want, rel=1e-12)

    def test_tail_closed_forms_for_one_and_two_degrees(self):
        # nu = 1 is Cauchy: p = 1 - 2 atan|t| / pi; nu = 2: p = 1 - |t| / sqrt(2 + t^2).
        for t in (0.1, 0.5, 1.0, 2.0, 2.01, 3.0, 10.0, 1e3):
            assert _t_two_sided(t, 1) == pytest.approx(1.0 - 2.0 * math.atan(t) / math.pi,
                                                       rel=1e-12)
            assert _t_two_sided(t, 2) == pytest.approx(1.0 - t / math.sqrt(2.0 + t * t),
                                                       rel=1e-12)


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
        ra = cosine_rankings({c: survey[c] for c in survey})[target]
        rb = cosine_rankings({c: ours[c] for c in ours})[target]
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_exact_rankings_and_scipy_spearmanr(self, data):
        countries = [f"c{i}" for i in range(data.draw(st.integers(4, 12)))]
        survey = planted_vectors(data, countries, 2)
        ours = planted_vectors(data, countries, data.draw(st.integers(1, 6)))
        rows = compare_with_survey(ours, survey, countries)
        assert [r.country for r in rows] == countries
        for r in rows:
            want_survey = exact_ranking(r.country, survey)
            want_ours = exact_ranking(r.country, ours)
            assert r.rank_survey == tuple(want_survey)
            assert r.rank_ours == tuple(want_ours)
            m = len(want_ours)
            if want_survey in (want_ours, want_ours[::-1]):
                assert r.rho == (1.0 if want_survey == want_ours else -1.0)
                assert r.p_value == float(Fraction(2, math.factorial(m)))
                p = r.p_value
            else:
                pos = {c: i for i, c in enumerate(want_ours)}
                rho, p = stats.spearmanr(np.arange(m), [pos[c] for c in want_survey])
                assert r.rho == pytest.approx(rho, rel=1e-12, abs=1e-15)
                assert r.p_value == pytest.approx(p, rel=1e-12)
            assert r.significant == (p < 0.05)

    @settings(max_examples=100, deadline=None)
    @given(ours=tied_big_integer_vectors(min_others=1), data=st.data())
    def test_big_integer_rows_rank_exactly(self, ours, data):
        countries = sorted(ours)
        survey = planted_vectors(data, countries, 2)
        for r in compare_with_survey(ours, survey, countries):
            assert r.rank_ours == tuple(exact_ranking(r.country, ours))
            assert r.rank_survey == tuple(exact_ranking(r.country, survey))
            pos = {c: i for i, c in enumerate(r.rank_ours)}
            n = len(pos)
            d2 = sum((i - pos[c]) ** 2 for i, c in enumerate(r.rank_survey))
            assert r.rho == float(1 - Fraction(6 * d2, n**3 - n))
