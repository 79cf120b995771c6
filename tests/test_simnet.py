"""Network construction, components and assortativity on the quotient graph
of profile classes, against the brute-force user graph and the loop metrics
of ``simnet_oracle``; and that oracle's Jaccard score."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simnet_oracle import (
    UndefinedSimilarity,
    brute_force_network,
    jaccard_score,
    loop_categorical,
    loop_components,
    loop_degree,
    user_pair_ids,
)
from tastemap.errors import DataError, UndefinedMetric
from tastemap.model import UserProfile
from tastemap.simnet import (
    NodeColumns,
    ProfileClasses,
    build_network,
    categorical_assortativity,
    check_thresholds,
    component_sizes,
    degree_assortativity,
    largest_component_fractions,
    write_node_attributes,
)

PAPER_LADDER = (65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0)


def profile(user, ones, m=12, country=None):
    bits = np.zeros(m, np.uint8)
    bits[list(ones)] = 1
    return UserProfile(user_id=user, bits=bits, checkin_count=len(ones), home_country=country)


def bit_matrix(profiles):
    return np.array([p.bits for p in profiles])


def network_of(profiles, threshold):
    """The program's network of the profiles, in their order, with the
    classes scored at ``threshold`` itself."""
    return build_network(ProfileClasses(bit_matrix(profiles), threshold), threshold)


def brute_force_edges(profiles, threshold):
    """The oracle's edges as id pairs."""
    return brute_force_network([p.user_id for p in profiles], bit_matrix(profiles),
                               threshold).edge_ids()


def network_edge_ids(net, profiles):
    return set(user_pair_ids(net, [p.user_id for p in profiles]))


def country_codes(profiles):
    """Each profile's home country as the level code the metrics take."""
    return NodeColumns([p.user_id for p in profiles], [p.home_country for p in profiles],
                       {}).codes["country"]


def country_network(profiles, threshold):
    """The oracle's user graph with each node's home country."""
    return brute_force_network([p.user_id for p in profiles], bit_matrix(profiles), threshold,
                               {p.user_id: {"country": p.home_country} for p in profiles})


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
        net = network_of(profiles, 100.0)
        assert net.n_nodes == 3
        assert net.n_edges == 3
        assert component_sizes(net) == [3]

    def test_below_threshold_pair_leaves_empty_network(self):
        # one shared feature of two each: score 100/3*... ones {0,1} vs {1,2} -> 33.33
        a, b = profile("a", [0, 1]), profile("b", [1, 2])
        assert jaccard_score(a, b) == pytest.approx(100.0 / 3.0)
        net = network_of([a, b], 65.0)
        assert net.n_nodes == 0 and net.n_edges == 0
        assert net.isolated_removed == 2

    def test_half_similarity_pair_at_65(self):
        # ones {0,1,2} vs {1,2,3}: intersection 2, union 4 -> exactly 50
        a, b = profile("a", [0, 1, 2]), profile("b", [1, 2, 3])
        assert jaccard_score(a, b) == 50.0
        assert network_of([a, b], 65.0).n_nodes == 0

    def test_threshold_zero_connects_all_defined_pairs(self):
        profiles = [profile("a", [0]), profile("b", [1]), profile("c", [2]), profile("d", [])]
        net = network_of(profiles, 0.0)
        # d has an empty vector: defined against nonzero users (score 0), so deg 3
        assert net.n_nodes == 4
        assert net.n_edges == 6

    def test_two_empty_profiles_share_no_edge_at_zero(self):
        profiles = [profile("a", []), profile("b", []), profile("c", [3])]
        net = network_of(profiles, 0.0)
        assert network_edge_ids(net, profiles) == {("a", "c"), ("b", "c")}

    def test_threshold_bounds_checked(self):
        classes = ProfileClasses(bit_matrix([profile("a", [1])]), 65.0)
        with pytest.raises(DataError):
            build_network(classes, 101.0)

    def test_threshold_at_exact_boundary_is_inclusive(self):
        # intersection 13, union 20 -> exactly 65
        a = profile("a", range(13), m=40)
        b = profile("b", range(20), m=40)
        assert network_of([a, b], 65.0).n_edges == 1

    def test_oracle_equivalence_random_profiles(self):
        rng = np.random.default_rng(42)
        m = 30
        profiles = []
        for i in range(120):
            pool = rng.integers(0, 3)
            base = [0, 1, 2, 3] if pool == 0 else [4, 5, 6] if pool == 1 else [7, 8]
            extra = rng.choice(m, size=rng.integers(0, 4), replace=False).tolist()
            profiles.append(profile(f"u{i:03d}", set(base + extra), m=m))
        classes = ProfileClasses(bit_matrix(profiles), min(PAPER_LADDER))
        for threshold in PAPER_LADDER:
            net = build_network(classes, threshold)
            assert network_edge_ids(net, profiles) == brute_force_edges(profiles, threshold), (
                threshold)


class TestComponents:
    def test_triangle(self):
        net = network_of([profile(f"u{i}", [1]) for i in range(3)], 100.0)
        assert component_sizes(net) == [3]

    def test_triangle_plus_disjoint_edge(self):
        profiles = [profile(f"t{i}", [1]) for i in range(3)]
        profiles += [profile("p1", [5, 6]), profile("p2", [5, 6])]
        net = network_of(profiles, 100.0)
        assert component_sizes(net) == [3, 2]
        f1, f2 = largest_component_fractions(component_sizes(net))
        assert (f1, f2) == (0.6, 0.4)

    def test_empty_network(self):
        net = network_of([profile("a", [0]), profile("b", [1])], 65.0)
        assert component_sizes(net) == []
        assert largest_component_fractions(component_sizes(net)) == (0.0, 0.0)

    def test_largest_component_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            profiles = []
            for i in range(50):
                ones = rng.choice(10, size=rng.integers(1, 6), replace=False)
                profiles.append(profile(f"u{i:02d}", ones, m=10))
            classes = ProfileClasses(bit_matrix(profiles), min(PAPER_LADDER))
            previous_largest = None
            previous_edges = None
            for threshold in PAPER_LADDER:
                net = build_network(classes, threshold)
                largest = component_sizes(net)[0] if net.n_nodes else 0
                edges = network_edge_ids(net, profiles)
                if previous_largest is not None:
                    assert largest <= previous_largest
                    assert edges <= previous_edges
                previous_largest = largest
                previous_edges = edges


def random_profiles(rng, n, m, sizes, countries):
    """``n`` users with random profiles of ``sizes`` set bits out of ``m``
    and random home countries."""
    return [profile(f"u{i:03d}", rng.choice(m, size=rng.integers(*sizes), replace=False), m=m,
                    country=str(rng.choice(countries)))
            for i in range(n)]


def with_countries(profiles, countries):
    return [profile(p.user_id, np.flatnonzero(p.bits), m=len(p.bits), country=c)
            for p, c in zip(profiles, countries)]


class TestCategoricalAssortativity:
    def test_two_same_country_cliques(self):
        # two profile classes, so two cliques at threshold 100
        profiles = [profile(u, [0 if u[0] == "a" else 1], country=u[0])
                    for u in ("a1", "a2", "a3", "b1", "b2", "b3")]
        net = network_of(profiles, 100.0)
        assert component_sizes(net) == [3, 3]
        r = categorical_assortativity(net, country_codes(profiles))
        assert r == pytest.approx(1.0, abs=1e-12)

    def test_complete_bipartite_between_countries(self):
        # K4,4 from pair-indexed bits: a_i holds {e_ij}_j and b_j holds
        # {e_ij}_i, so every cross pair scores 100/7 and every same-side 0.
        e = np.arange(16).reshape(4, 4)
        profiles = ([profile(f"a{i}", e[i], m=16, country="a") for i in range(4)]
                    + [profile(f"b{j}", e[:, j], m=16, country="b") for j in range(4)])
        net = network_of(profiles, 14.0)
        assert network_edge_ids(net, profiles) == {(f"a{i}", f"b{j}")
                                                   for i in range(4) for j in range(4)}
        r = categorical_assortativity(net, country_codes(profiles))
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_relabeling_attribute_values_is_invariant(self):
        rng = np.random.default_rng(8)
        profiles = random_profiles(rng, 30, 8, (2, 5), ["x", "y", "z"])
        net = network_of(profiles, 40.0)
        assert net.n_edges > 0
        swap = {"x": "ZZ", "y": "QQ", "z": "AA"}
        relabeled = with_countries(profiles, [swap[p.home_country] for p in profiles])
        r1 = categorical_assortativity(net, country_codes(profiles))
        r2 = categorical_assortativity(net, country_codes(relabeled))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_single_attribute_value_undefined(self):
        profiles = [profile(u, [0], country="X") for u in "abc"]
        with pytest.raises(UndefinedMetric):
            categorical_assortativity(network_of(profiles, 100.0), country_codes(profiles))

    def test_no_edges_undefined(self):
        profiles = [profile("a", [0], country="X")]
        with pytest.raises(UndefinedMetric):
            categorical_assortativity(network_of(profiles, 65.0), country_codes(profiles))

    def test_missing_attribute_rejected(self):
        profiles = [profile("a", [0], country="X"), profile("b", [0])]
        with pytest.raises(DataError):
            categorical_assortativity(network_of(profiles, 65.0), country_codes(profiles))

    def test_random_attributes_near_zero(self):
        rng = np.random.default_rng(13)
        profiles = random_profiles(rng, 400, 12, (2, 5), ["L"])
        net = network_of(profiles, 40.0)
        assert net.n_edges > 3000
        for _ in range(5):
            values = rng.choice(["L", "R"], size=len(profiles))
            codes = country_codes(with_countries(profiles, values))
            assert abs(categorical_assortativity(net, codes)) < 0.06


class TestDegreeAssortativity:
    def test_path_of_three(self):
        # {0} - {0, 1} - {1}: each neighbouring pair scores 50, the ends 0
        profiles = [profile("a", [0]), profile("b", [0, 1]), profile("c", [1])]
        net = network_of(profiles, 50.0)
        assert network_edge_ids(net, profiles) == {("a", "b"), ("b", "c")}
        assert degree_assortativity(net) == pytest.approx(-1.0, abs=1e-12)

    def test_star_is_minus_one(self):
        # the hub {0, 1, 2} scores 100/3 with each single-bit leaf
        profiles = [profile("hub", [0, 1, 2])] + [profile(f"l{k}", [k]) for k in range(3)]
        net = network_of(profiles, 33.0)
        assert network_edge_ids(net, profiles) == {("hub", f"l{k}") for k in range(3)}
        assert degree_assortativity(net) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_manual_pearson_on_clique_plus_path(self):
        users = ["k1", "k2", "k3", "k4", "p1", "p2", "p3"]
        edges = [(a, b) for i, a in enumerate(users[:4]) for b in users[i + 1:4]]
        edges += [("p1", "p2"), ("p2", "p3")]
        profiles = [profile(u, [5]) for u in users[:4]]
        profiles += [profile("p1", [0]), profile("p2", [0, 1]), profile("p3", [1])]
        net = network_of(profiles, 50.0)
        assert network_edge_ids(net, profiles) == set(edges)
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
        net = network_of([profile(u, [0]) for u in "abcd"], 100.0)
        with pytest.raises(UndefinedMetric):
            degree_assortativity(net)

    def test_star_past_int64_cubes_is_exactly_minus_one(self):
        # At threshold 0 an empty profile scores 0 against the one non-empty
        # profile and has no edge to another empty one, so the users form a
        # star.  The sum of cubed degrees is 2**63 + 2**21.
        leaves = 1 << 21
        bits = np.zeros((leaves + 1, 1), np.uint8)
        bits[0] = 1
        net = build_network(ProfileClasses(bits, 0.0), 0.0)
        assert (net.n_nodes, net.n_edges) == (leaves + 1, leaves)
        assert degree_assortativity(net) == -1.0


# ---------------------------------------------------------------------------
# Properties against the brute-force user graph and the loop oracles
# ---------------------------------------------------------------------------

profile_rows = st.lists(st.frozensets(st.integers(0, 7), max_size=6), min_size=1, max_size=14)
threshold_lists = st.lists(st.integers(0, 100), max_size=5)


def profiles_of(rows):
    return [profile(f"u{i:02d}", ones, m=8, country="AB"[i % 2]) for i, ones in enumerate(rows)]


@settings(max_examples=100, deadline=None)
@given(rows=profile_rows, thresholds=threshold_lists)
def test_build_networks_equals_per_threshold_build_network(rows, thresholds):
    profiles = profiles_of(rows)
    classes = ProfileClasses(bit_matrix(profiles), min(thresholds, default=100))
    networks = [build_network(classes, float(t)) for t in thresholds]
    for t, net in zip(thresholds, networks):
        single = network_of(profiles, float(t))
        assert net.threshold == single.threshold == float(t)
        assert np.array_equal(net.kept, single.kept)
        assert all(us.dtype == vs.dtype == np.int32 for us, vs in net.user_pairs(len(rows)))
        assert network_edge_ids(net, profiles) == network_edge_ids(single, profiles)
        assert net.isolated_removed == single.isolated_removed == len(rows) - net.n_nodes
        assert network_edge_ids(net, profiles) == brute_force_edges(profiles, t)
    ladder = sorted(zip(thresholds, networks), key=lambda pair: pair[0])
    for (_, low), (_, high) in zip(ladder, ladder[1:]):
        assert network_edge_ids(high, profiles) <= network_edge_ids(low, profiles)


def test_build_networks_checks_every_threshold_first():
    with pytest.raises(DataError):
        check_thresholds([65.0, 150.0])
    bits = bit_matrix([profile("a", [1]), profile("b", [1])])
    with pytest.raises(DataError):
        ProfileClasses(bits, 150.0)
    with pytest.raises(DataError):  # below the threshold the classes were scored at
        build_network(ProfileClasses(bits, 65.0), 60.0)
    with pytest.raises(DataError, match="zero profiles"):
        ProfileClasses(np.zeros((0, 12), np.uint8), 65.0)


def metric_or_none(fn, net):
    try:
        return fn(net)
    except UndefinedMetric:
        return None


@st.composite
def clique_profiles(draw):
    """Hundreds of users on 15-25 distinct profiles, in classes of 1-20
    users as the synthetic corpora give, shuffled, each class mostly of one
    country; and a threshold at which some classes join."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=15, max_size=25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.choice(1 << 10, len(sizes), replace=False)
    rows = (distinct[:, None] >> np.arange(10)) & 1
    user_class = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    countries = rng.choice(list("xyz"), len(sizes))[user_class]
    strays = rng.random(len(user_class)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    countries[strays] = rng.choice(list("xyz"), strays.sum())
    profiles = [profile(f"u{i:03d}", np.flatnonzero(rows[c]), m=10, country=str(k))
                for i, (c, k) in enumerate(zip(user_class, countries))]
    return profiles, draw(st.sampled_from([50, 65, 80, 100]))


@settings(max_examples=30, deadline=None)
@given(case=clique_profiles())
def test_assortativities_on_clique_graphs_equal_rounded_fractions(case):
    profiles, threshold = case
    net = network_of(profiles, threshold)
    want = country_network(profiles, threshold)
    codes = country_codes(profiles)
    for fn, oracle in ((lambda g: categorical_assortativity(g, codes), loop_categorical),
                       (degree_assortativity, loop_degree)):
        r = oracle(want)
        if r is None:
            with pytest.raises(UndefinedMetric):
                fn(net)
        else:
            assert fn(net) == float(r)


# ---------------------------------------------------------------------------
# The quotient graph of profile classes against the user-graph oracles
# ---------------------------------------------------------------------------


@st.composite
def duplicated_profiles(draw):
    """Up to 30 users on at most 5 distinct profiles, the empty one among
    the candidates; a user's country and diet need not follow its profile,
    and the diet may be unset."""
    distinct = draw(st.lists(st.frozensets(st.integers(0, 5), max_size=4),
                             min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 30))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    countries = draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    diets = draw(st.lists(st.sampled_from(["veg", "any", "", 'a,"b']), min_size=n, max_size=n))
    ids = sorted(f"u,{i:02d}" if i % 3 else f"u{i:02d}" for i in range(n))
    return [profile(u, ones, m=6, country=c) for u, ones, c in zip(ids, picks, countries)], diets


def loop_node_rows(net):
    """The node table as ``csv.writer`` writes it."""
    keys = sorted({k for u in net.nodes for k in net.attributes[u]})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["user", *keys])
    writer.writerows([u, *(net.attributes[u].get(k, "") for k in keys)] for u in net.nodes)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(case=duplicated_profiles(), middle=st.integers(0, 100), chunk=st.integers(1, 8))
@example(case=([profile(u, ones, m=6, country=c) for u, ones, c in
                 (("a", [], "x"), ("b", [], "y"), ("c", [3], "x"), ("d", [3], "y"), ("e", [], "x"))],
               ["veg"] * 5), middle=65, chunk=1)
def test_quotient_equals_expanded_oracles(tmp_path_factory, case, middle, chunk):
    profiles, diets = case
    ids = [p.user_id for p in profiles]
    attributes = {u: {"diet": d} for u, d in zip(ids, diets) if d}
    thresholds = [0, middle, 100]
    classes = ProfileClasses(bit_matrix(profiles), min(thresholds))
    nodes = NodeColumns(ids, [p.home_country for p in profiles], attributes)
    tmp = tmp_path_factory.mktemp("q")
    for t in thresholds:
        want = brute_force_network(ids, bit_matrix(profiles), t, {
            p.user_id: {"country": p.home_country, **attributes.get(p.user_id, {})}
            for p in profiles})
        net = build_network(classes, t)
        assert [ids[i] for i in np.flatnonzero(net.kept)] == list(want.nodes)
        assert (net.n_nodes, net.n_edges) == (want.n_nodes, want.n_edges)
        assert net.isolated_removed == len(profiles) - want.n_nodes
        pairs = list(net.user_pairs(chunk))
        assert all(len(u) <= max(chunk, len(profiles)) for u, _ in pairs)
        got = [(ids[u], ids[v]) for us, vs in pairs for u, v in zip(us.tolist(), vs.tolist())]
        assert got == [(want.nodes[i], want.nodes[j]) for i, j in want.edges.tolist()]
        assert component_sizes(net) == loop_components(want)
        r = loop_degree(want)
        assert metric_or_none(degree_assortativity, net) == (None if r is None else float(r))
        assert nodes.keys_of(net.kept) == sorted({k for a in want.attributes.values() for k in a})
        for key in nodes.keys:
            if any(key not in want.attributes[u] for u in want.nodes):
                with pytest.raises(DataError):
                    categorical_assortativity(net, nodes.codes[key])
            else:
                r = loop_categorical(want, key)
                assert metric_or_none(lambda q: categorical_assortativity(q, nodes.codes[key]),
                                      net) == (None if r is None else float(r))
        write_node_attributes(net, tmp / "nodes.csv", nodes)
        assert (tmp / "nodes.csv").read_text(encoding="utf-8") == loop_node_rows(want)
