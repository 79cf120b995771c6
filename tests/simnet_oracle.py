"""Reference implementations for the similarity networks: the Jaccard score
of two profiles, the user graph that all-pairs comparison gives, and loop
versions of the graph metrics in exact fractions.  The program holds a
network only as the quotient graph of its profile classes; these build and
measure the user graph itself, one Python object per user and per edge."""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from tastemap.errors import DataError, UndefinedMetric


class UndefinedSimilarity(UndefinedMetric):
    """Jaccard similarity of two empty preference sets (0/0)."""


def jaccard_score(u, v) -> float:
    """Jaccard index of two preference vectors' positive sets, times 100.

    A vector is an array or anything with ``bits``.  Set membership is any
    nonzero entry, so 0/1 vectors and count vectors behave identically.  Two
    all-zero vectors have no defined score (0/0).
    """
    a, b = np.asarray(getattr(u, "bits", u)) != 0, np.asarray(getattr(v, "bits", v)) != 0
    if a.shape != b.shape:
        raise DataError("profiles have different feature counts")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    if union == 0:
        raise UndefinedSimilarity("both preference vectors are empty")
    return 100.0 * inter / union


@dataclass
class Network:
    """A user graph: the node ids, the edges as an int64 (E, 2) array of
    index pairs (i < j) into them in lexicographic order, and each node's
    attributes."""

    nodes: tuple[str, ...]
    edges: np.ndarray
    attributes: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> set[tuple[str, str]]:
        return {(self.nodes[i], self.nodes[j]) for i, j in self.edges.tolist()}


def brute_force_network(ids, bits, threshold, attributes=None) -> Network:
    """The users whose profiles' Jaccard score meets ``threshold``, joined.

    Every pair is scored from Python frozensets, by exact integer
    comparison; two empty profiles share no edge.  The nodes are the users
    with an edge, in the order of ``ids``, each with its entry of
    ``attributes``.
    """
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in bits]
    pairs = []
    for i, j in combinations(range(len(ids)), 2):
        union = len(sets[i] | sets[j])
        if union and 100 * len(sets[i] & sets[j]) >= threshold * union:
            pairs.append((i, j))
    kept = sorted({k for pair in pairs for k in pair})
    index = {k: n for n, k in enumerate(kept)}
    attributes = attributes or {}
    edges = np.array([(index[i], index[j]) for i, j in pairs], np.int64).reshape(-1, 2)
    return Network(tuple(ids[k] for k in kept), edges,
                   {ids[k]: dict(attributes.get(ids[k], {})) for k in kept})


def user_pair_ids(net, ids) -> list[tuple[str, str]]:
    """A program network's edges as id pairs, in the order of
    ``QuotientNetwork.user_pairs``."""
    return [(ids[u], ids[v]) for us, vs in net.user_pairs(max(1, len(ids) ** 2))
            for u, v in zip(us.tolist(), vs.tolist())]


def loop_components(net: Network) -> list[int]:
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


def loop_categorical(net: Network, key: str = "country"):
    """Newman's r over attribute ``key`` in exact fractions; None where it
    is undefined."""
    if net.n_edges == 0:
        return None
    value = [net.attributes[u][key] for u in net.nodes]
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


def loop_degree(net: Network):
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
