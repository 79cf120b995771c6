"""Jaccard scores, network construction, components and assortativity."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tastemap.errors import DataError, UndefinedMetric, UndefinedSimilarity
from tastemap.model import UserProfile
from tastemap.simnet import (
    SimilarityNetwork,
    build_network,
    build_networks,
    categorical_assortativity,
    component_sizes,
    degree_assortativity,
    jaccard_score,
    largest_component_fractions,
)

PAPER_LADDER = (65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0)


def profile(user, ones, m=12, country=None):
    bits = np.zeros(m, np.uint8)
    bits[list(ones)] = 1
    return UserProfile(user_id=user, bits=bits, checkin_count=len(ones), home_country=country)


def brute_force_edges(profiles, threshold):
    """Independent oracle: frozensets and exact integer comparison."""
    ordered = sorted(profiles, key=lambda p: p.user_id)
    sets = [frozenset(np.nonzero(p.bits)[0].tolist()) for p in ordered]
    edges = set()
    for i, j in combinations(range(len(ordered)), 2):
        union = len(sets[i] | sets[j])
        if union == 0:
            continue
        if 100 * len(sets[i] & sets[j]) >= threshold * union:
            edges.add((ordered[i].user_id, ordered[j].user_id))
    return edges


def network_edge_ids(net):
    return {(net.nodes[i], net.nodes[j]) for i, j in net.edges}


class TestJaccardScore:
    def test_identical_nonzero_is_100(self):
        u = profile("u", [1, 5, 7])
        assert jaccard_score(u, u) == 100.0

    def test_disjoint_is_zero(self):
        assert jaccard_score(profile("u", [0, 1]), profile("v", [2, 3])) == 0.0

    def test_partial_overlap(self):
        score = jaccard_score(profile("u", [1, 2]), profile("v", [2, 3]))
        assert score == pytest.approx(100.0 / 3.0)

    def test_both_empty_undefined(self):
        with pytest.raises(UndefinedSimilarity):
            jaccard_score(profile("u", []), profile("v", []))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = profile("u", rng.choice(12, size=rng.integers(1, 8), replace=False))
            b = profile("v", rng.choice(12, size=rng.integers(1, 8), replace=False))
            assert jaccard_score(a, b) == jaccard_score(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            jaccard_score(profile("u", [0], m=4), profile("v", [0], m=5))


class TestBuildNetwork:
    def test_three_identical_profiles_form_triangle(self):
        profiles = [profile(f"u{i}", [2, 4]) for i in range(3)]
        net = build_network(profiles, 100.0)
        assert net.n_nodes == 3
        assert net.n_edges == 3
        assert component_sizes(net) == [3]

    def test_below_threshold_pair_leaves_empty_network(self):
        # one shared feature of two each: score 100/3*... ones {0,1} vs {1,2} -> 33.33
        a, b = profile("a", [0, 1]), profile("b", [1, 2])
        assert jaccard_score(a, b) == pytest.approx(100.0 / 3.0)
        net = build_network([a, b], 65.0)
        assert net.n_nodes == 0 and net.n_edges == 0
        assert net.isolated_removed == 2

    def test_half_similarity_pair_at_65(self):
        # ones {0,1,2} vs {1,2,3}: intersection 2, union 4 -> exactly 50
        a, b = profile("a", [0, 1, 2]), profile("b", [1, 2, 3])
        assert jaccard_score(a, b) == 50.0
        assert build_network([a, b], 65.0).n_nodes == 0

    def test_threshold_zero_connects_all_defined_pairs(self):
        profiles = [profile("a", [0]), profile("b", [1]), profile("c", [2]), profile("d", [])]
        net = build_network(profiles, 0.0)
        # d has an empty vector: defined against nonzero users (score 0), so deg 3
        assert net.n_nodes == 4
        assert net.n_edges == 6

    def test_two_empty_profiles_share_no_edge_at_zero(self):
        profiles = [profile("a", []), profile("b", []), profile("c", [3])]
        net = build_network(profiles, 0.0)
        assert network_edge_ids(net) == {("a", "c"), ("b", "c")}

    def test_threshold_bounds_checked(self):
        with pytest.raises(DataError):
            build_network([profile("a", [1])], 101.0)

    def test_threshold_at_exact_boundary_is_inclusive(self):
        # intersection 13, union 20 -> exactly 65
        a = profile("a", range(13), m=40)
        b = profile("b", range(20), m=40)
        assert build_network([a, b], 65.0).n_edges == 1

    def test_oracle_equivalence_random_profiles(self):
        rng = np.random.default_rng(42)
        m = 30
        profiles = []
        for i in range(120):
            pool = rng.integers(0, 3)
            base = [0, 1, 2, 3] if pool == 0 else [4, 5, 6] if pool == 1 else [7, 8]
            extra = rng.choice(m, size=rng.integers(0, 4), replace=False).tolist()
            profiles.append(profile(f"u{i:03d}", set(base + extra), m=m))
        for threshold in PAPER_LADDER:
            net = build_network(profiles, threshold)
            assert network_edge_ids(net) == brute_force_edges(profiles, threshold), threshold

    def test_duplicate_user_ids_rejected(self):
        with pytest.raises(DataError):
            build_network([profile("a", [1]), profile("a", [2])], 50.0)


class TestComponents:
    def test_triangle(self):
        net = build_network([profile(f"u{i}", [1]) for i in range(3)], 100.0)
        assert component_sizes(net) == [3]

    def test_triangle_plus_disjoint_edge(self):
        profiles = [profile(f"t{i}", [1]) for i in range(3)]
        profiles += [profile("p1", [5, 6]), profile("p2", [5, 6])]
        net = build_network(profiles, 100.0)
        assert component_sizes(net) == [3, 2]
        f1, f2 = largest_component_fractions(component_sizes(net))
        assert (f1, f2) == (0.6, 0.4)

    def test_empty_network(self):
        net = build_network([profile("a", [0]), profile("b", [1])], 65.0)
        assert component_sizes(net) == []
        assert largest_component_fractions(component_sizes(net)) == (0.0, 0.0)

    def test_largest_component_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            profiles = []
            for i in range(50):
                ones = rng.choice(10, size=rng.integers(1, 6), replace=False)
                profiles.append(profile(f"u{i:02d}", ones, m=10))
            previous_largest = None
            previous_edges = None
            for threshold in PAPER_LADDER:
                net = build_network(profiles, threshold)
                largest = component_sizes(net)[0] if net.n_nodes else 0
                edges = network_edge_ids(net)
                if previous_largest is not None:
                    assert largest <= previous_largest
                    assert edges <= previous_edges
                previous_largest = largest
                previous_edges = edges


def fixture_network(edges, attrs):
    nodes = sorted(attrs)
    index = {u: i for i, u in enumerate(nodes)}
    packed = tuple(sorted((min(index[a], index[b]), max(index[a], index[b])) for a, b in edges))
    return SimilarityNetwork(
        threshold=0.0,
        nodes=tuple(nodes),
        edges=packed,
        attributes={u: {"country": v} for u, v in attrs.items()},
    )


def clique(users):
    return [(a, b) for a, b in combinations(users, 2)]


class TestCategoricalAssortativity:
    def test_two_same_country_cliques(self):
        edges = clique(["a1", "a2", "a3"]) + clique(["b1", "b2", "b3"])
        attrs = {u: u[0] for u in ("a1", "a2", "a3", "b1", "b2", "b3")}
        net = fixture_network(edges, attrs)
        assert categorical_assortativity(net, "country") == pytest.approx(1.0, abs=1e-12)

    def test_complete_bipartite_between_countries(self):
        a = [f"a{i}" for i in range(4)]
        b = [f"b{i}" for i in range(4)]
        edges = [(x, y) for x in a for y in b]
        net = fixture_network(edges, {u: u[0] for u in a + b})
        assert categorical_assortativity(net, "country") == pytest.approx(-1.0, abs=1e-12)

    def test_relabeling_attribute_values_is_invariant(self):
        rng = np.random.default_rng(8)
        users = [f"u{i}" for i in range(30)]
        edges = set()
        while len(edges) < 60:
            i, j = rng.choice(30, size=2, replace=False)
            edges.add((users[min(i, j)], users[max(i, j)]))
        values = rng.choice(["x", "y", "z"], size=30)
        net1 = fixture_network(edges, dict(zip(users, values)))
        swap = {"x": "ZZ", "y": "QQ", "z": "AA"}
        net2 = fixture_network(edges, {u: swap[v] for u, v in zip(users, values)})
        r1 = categorical_assortativity(net1, "country")
        r2 = categorical_assortativity(net2, "country")
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_single_attribute_value_undefined(self):
        net = fixture_network(clique(["a", "b", "c"]), {"a": "X", "b": "X", "c": "X"})
        with pytest.raises(UndefinedMetric):
            categorical_assortativity(net, "country")

    def test_no_edges_undefined(self):
        net = SimilarityNetwork(0.0, ("a",), (), {"a": {"country": "X"}})
        with pytest.raises(UndefinedMetric):
            categorical_assortativity(net, "country")

    def test_missing_attribute_rejected(self):
        net = SimilarityNetwork(0.0, ("a", "b"), ((0, 1),), {"a": {"country": "X"}, "b": {}})
        with pytest.raises(DataError):
            categorical_assortativity(net, "country")

    def test_random_attributes_near_zero(self):
        rng = np.random.default_rng(13)
        n = 400
        users = [f"u{i:03d}" for i in range(n)]
        edges = set()
        while len(edges) < 3000:
            i, j = rng.choice(n, size=2, replace=False)
            edges.add((users[min(i, j)], users[max(i, j)]))
        for _ in range(5):
            values = rng.choice(["L", "R"], size=n)
            net = fixture_network(edges, dict(zip(users, values)))
            assert abs(categorical_assortativity(net, "country")) < 0.06


class TestDegreeAssortativity:
    def test_path_of_three(self):
        net = fixture_network([("a", "b"), ("b", "c")], {"a": "X", "b": "X", "c": "X"})
        assert degree_assortativity(net) == pytest.approx(-1.0, abs=1e-12)

    def test_star_is_minus_one(self):
        net = fixture_network(
            [("hub", "l1"), ("hub", "l2"), ("hub", "l3")],
            {u: "X" for u in ("hub", "l1", "l2", "l3")},
        )
        assert degree_assortativity(net) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_manual_pearson_on_clique_plus_path(self):
        users = ["k1", "k2", "k3", "k4", "p1", "p2", "p3"]
        edges = clique(["k1", "k2", "k3", "k4"]) + [("p1", "p2"), ("p2", "p3")]
        net = fixture_network(edges, {u: "X" for u in users})
        deg = {u: 0 for u in users}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        xs, ys = [], []
        for a, b in edges:
            xs += [deg[a], deg[b]]
            ys += [deg[b], deg[a]]
        expected = np.corrcoef(xs, ys)[0, 1]
        assert degree_assortativity(net) == pytest.approx(expected, abs=1e-12)

    def test_degree_regular_network_undefined(self):
        net = fixture_network(clique(["a", "b", "c", "d"]), {u: "X" for u in "abcd"})
        with pytest.raises(UndefinedMetric):
            degree_assortativity(net)

    def test_star_past_int64_cubes_is_exactly_minus_one(self):
        # sum of cubed degrees is 2**63 + 2**21; node ids play no part
        leaves = 1 << 21
        edges = np.zeros((leaves, 2), np.int64)
        edges[:, 1] = np.arange(1, leaves + 1)
        net = SimilarityNetwork(0.0, ("",) * (leaves + 1), edges)
        assert degree_assortativity(net) == -1.0


# ---------------------------------------------------------------------------
# Properties against loop oracles
# ---------------------------------------------------------------------------

profile_rows = st.lists(st.frozensets(st.integers(0, 7), max_size=6), min_size=1, max_size=14)
threshold_lists = st.lists(st.integers(0, 100), max_size=5)


def profiles_of(rows):
    # ids in reverse order of the rows, so sorting by id reorders them
    return [profile(f"u{len(rows) - i:02d}", ones, m=8, country="AB"[i % 2])
            for i, ones in enumerate(rows)]


@settings(max_examples=100, deadline=None)
@given(rows=profile_rows, thresholds=threshold_lists)
def test_build_networks_equals_per_threshold_build_network(rows, thresholds):
    profiles = profiles_of(rows)
    networks = build_networks(profiles, [float(t) for t in thresholds])
    assert len(networks) == len(thresholds)
    for t, net in zip(thresholds, networks):
        single = build_network(profiles, float(t))
        assert net.threshold == single.threshold == float(t)
        assert net.nodes == single.nodes
        assert net.edges.dtype == np.int64 and net.edges.shape == (net.n_edges, 2)
        assert np.array_equal(net.edges, single.edges)
        assert net.attributes == single.attributes
        assert net.isolated_removed == single.isolated_removed == len(rows) - net.n_nodes
        assert network_edge_ids(net) == brute_force_edges(profiles, t)
    ladder = sorted(zip(thresholds, networks), key=lambda pair: pair[0])
    for (_, low), (_, high) in zip(ladder, ladder[1:]):
        assert network_edge_ids(high) <= network_edge_ids(low)


def test_build_networks_checks_every_threshold_first():
    with pytest.raises(DataError):
        build_networks([profile("a", [1]), profile("b", [1])], [65.0, 150.0])
    assert build_networks([], []) == []


def test_tuple_edges_coerced_to_int_array():
    net = SimilarityNetwork(0.0, ("a", "b", "c"), ((0, 1), (1, 2)))
    assert net.edges.dtype == np.int64 and net.edges.tolist() == [[0, 1], [1, 2]]
    assert SimilarityNetwork(0.0, ("a",), ()).edges.shape == (0, 2)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = sorted(draw(st.sets(pairs, max_size=20)))
    values = draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    nodes = tuple(f"u{i:02d}" for i in range(n))
    attrs = {u: {"country": v} for u, v in zip(nodes, values)}
    return SimilarityNetwork(0.0, nodes, tuple(edges), attrs)


def loop_components(net):
    adjacent = {i: set() for i in range(net.n_nodes)}
    for i, j in net.edges.tolist():
        adjacent[i].add(j)
        adjacent[j].add(i)
    seen, sizes = set(), []
    for start in range(net.n_nodes):
        if start in seen:
            continue
        stack, size = [start], 0
        seen.add(start)
        while stack:
            size += 1
            for k in adjacent[stack.pop()] - seen:
                seen.add(k)
                stack.append(k)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def loop_categorical(net):
    """Newman's r in exact fractions; None where it is undefined."""
    if net.n_edges == 0:
        return None
    value = [net.attributes[u]["country"] for u in net.nodes]
    e = {}
    for i, j in net.edges.tolist():
        for a, b in ((value[i], value[j]), (value[j], value[i])):
            e[a, b] = e.get((a, b), 0) + Fraction(1, 2 * net.n_edges)
    levels = sorted(set(value))
    a = {x: sum(e.get((x, y), 0) for y in levels) for x in levels}
    b = {y: sum(e.get((x, y), 0) for x in levels) for y in levels}
    sab = sum(a[x] * b[x] for x in levels)
    if sab == 1:
        return None
    return (sum(e.get((x, x), 0) for x in levels) - sab) / (1 - sab)


def loop_degree(net):
    """Degree correlation over both edge orientations, in exact fractions.
    Both ends' degree lists hold the same values, so r = cov / var."""
    if net.n_edges == 0:
        return None
    deg = [0] * net.n_nodes
    for i, j in net.edges.tolist():
        deg[i] += 1
        deg[j] += 1
    pairs = [(deg[i], deg[j]) for i, j in net.edges.tolist()]
    pairs += [(y, x) for x, y in pairs]
    mean = Fraction(sum(x for x, _ in pairs), len(pairs))
    var = sum((x - mean) ** 2 for x, _ in pairs)
    if var == 0:
        return None
    return sum((x - mean) * (y - mean) for x, y in pairs) / var


def metric_or_none(fn, net):
    try:
        return fn(net)
    except UndefinedMetric:
        return None


@settings(max_examples=150, deadline=None)
@given(net=graphs())
def test_graph_metrics_match_loop_oracles(net):
    assert component_sizes(net) == loop_components(net)
    assert net.degrees().tolist() == [
        sum(k in pair for pair in net.edges.tolist()) for k in range(net.n_nodes)
    ]
    for fn, oracle in ((lambda g: categorical_assortativity(g, "country"), loop_categorical),
                       (degree_assortativity, loop_degree)):
        got, want = metric_or_none(fn, net), oracle(net)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == float(want)


@st.composite
def clique_graphs(draw):
    """Hundreds of nodes in cliques of users with one profile, as the
    synthetic corpora give, mostly of one country each, joined by random
    edges."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=15, max_size=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.cumsum([0, *sizes])
    edges = {pair for lo, hi in zip(starts, starts[1:]) for pair in combinations(range(lo, hi), 2)}
    cross = np.sort(rng.integers(0, starts[-1], (draw(st.integers(0, 300)), 2)), axis=1)
    edges |= {(i, j) for i, j in cross.tolist() if i < j}
    countries = np.repeat(rng.choice(list("xyz"), len(sizes)), sizes)
    strays = rng.random(starts[-1]) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    countries[strays] = rng.choice(list("xyz"), strays.sum())
    nodes = tuple(f"u{i:03d}" for i in range(starts[-1]))
    attrs = {u: {"country": str(c)} for u, c in zip(nodes, countries)}
    return SimilarityNetwork(0.0, nodes, tuple(sorted(edges)), attrs)


@settings(max_examples=30, deadline=None)
@given(net=clique_graphs())
def test_assortativities_on_clique_graphs_equal_rounded_fractions(net):
    for fn, oracle in ((lambda g: categorical_assortativity(g, "country"), loop_categorical),
                       (degree_assortativity, loop_degree)):
        want = oracle(net)
        if want is None:
            with pytest.raises(UndefinedMetric):
                fn(net)
        else:
            assert fn(net) == float(want)
