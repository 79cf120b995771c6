"""User-similarity networks: thresholded Jaccard graphs and their metrics."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .csvtext import write_rows
from .errors import DataError, UndefinedMetric, UndefinedSimilarity
from .model import UserProfile

# Bytes of edge lines assembled at once by ``write_edge_list``: about 1M
# edges for short ids, and bounded whatever their length.
EDGE_CHUNK_BYTES = 1 << 24
# The edge list's field separator and every character ``str.splitlines``
# breaks a line on: an id holding one cannot be read back from its lines.
_EDGE_LIST_BREAKS = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _bits(profile) -> np.ndarray:
    return profile.bits if isinstance(profile, UserProfile) else np.asarray(profile)


def jaccard_score(u, v) -> float:
    """Jaccard index of two preference vectors' positive sets, times 100.

    Set membership is any nonzero entry, so 0/1 vectors and count vectors
    behave identically.  Two all-zero vectors have no defined score (0/0).
    """
    a, b = _bits(u) != 0, _bits(v) != 0
    if a.shape != b.shape:
        raise DataError("profiles have different feature counts")
    inter = int(np.count_nonzero(a & b))
    union = int(np.count_nonzero(a | b))
    if union == 0:
        raise UndefinedSimilarity("both preference vectors are empty")
    return 100.0 * inter / union


@dataclass(frozen=True, eq=False)
class SimilarityNetwork:
    """Undirected, unweighted graph over users at one similarity threshold.

    ``edges`` is an int64 (E, 2) array of index pairs into ``nodes`` with
    i < j, lexicographic; any sequence of pairs is coerced to it.  Isolated
    nodes are removed at construction and counted.
    """

    threshold: float
    nodes: tuple[str, ...]
    edges: np.ndarray
    attributes: Mapping[str, Mapping[str, str]] = field(default_factory=dict)
    isolated_removed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, np.int64).reshape(-1, 2))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)


def build_networks(
    profiles: Sequence[UserProfile],
    thresholds: Sequence[float],
    attributes: Mapping[str, Mapping[str, str]] | None = None,
) -> list[SimilarityNetwork]:
    """One network per threshold, from a single scoring pass over all pairs.

    Pair scores do not depend on the threshold, so the pairs meeting the
    lowest threshold are scored once and each network keeps the subset that
    meets its own; the edge sets are nested.  Every threshold is checked
    before any pair is scored.
    """
    if not all(0.0 <= t <= 100.0 for t in thresholds):
        raise DataError("threshold must lie in [0, 100]")
    if not thresholds:
        return []
    if not profiles:
        raise DataError("cannot build a network from zero profiles")
    ordered = sorted(profiles, key=lambda p: p.user_id)
    ids = [p.user_id for p in ordered]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate user ids in profiles")
    bits = np.stack([p.bits != 0 for p in ordered]).astype(np.uint8)

    us, vs, inter, union = _kernels.jaccard_edges(bits, min(thresholds))

    networks = []
    for threshold in thresholds:
        ok = 100.0 * inter >= float(threshold) * union
        edges = np.column_stack([us[ok], vs[ok]])
        keep = np.bincount(edges.ravel(), minlength=len(ids)) > 0
        remap = np.cumsum(keep) - 1
        kept = [ordered[idx] for idx in np.flatnonzero(keep).tolist()]
        attrs: dict[str, dict[str, str]] = {}
        for p in kept:
            node_attrs: dict[str, str] = {}
            if p.home_country is not None:
                node_attrs["country"] = p.home_country
            if attributes and p.user_id in attributes:
                node_attrs.update(attributes[p.user_id])
            attrs[p.user_id] = node_attrs
        networks.append(
            SimilarityNetwork(
                threshold=float(threshold),
                nodes=tuple(p.user_id for p in kept),
                edges=remap[edges],
                attributes=attrs,
                isolated_removed=int((~keep).sum()),
            )
        )
    return networks


def build_network(
    profiles: Sequence[UserProfile],
    threshold: float,
    attributes: Mapping[str, Mapping[str, str]] | None = None,
) -> SimilarityNetwork:
    """Connect every pair of users whose Jaccard score meets the threshold.

    Produces exactly the network that brute-force all-pairs comparison would,
    zero-score pairs included at a zero threshold.
    """
    return build_networks(profiles, [threshold], attributes)[0]


def component_sizes(net: SimilarityNetwork) -> list[int]:
    """Connected-component sizes, largest first.

    Min-label propagation: every node points at a node of its component, and
    each round hooks the larger label at the two ends of every edge that
    still disagrees onto the smaller one, then jumps pointers until every
    label is its own root.  Labels only decrease, so the loop ends, with one
    label per component: its smallest node.
    """
    labels = np.arange(net.n_nodes)
    us, vs = net.edges.T
    while True:
        lu, lv = labels[us], labels[vs]
        split = lu != lv
        if not split.any():
            break
        np.minimum.at(labels, np.maximum(lu[split], lv[split]),
                      np.minimum(lu[split], lv[split]))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    sizes = np.bincount(labels, minlength=net.n_nodes)
    return sorted(sizes[sizes > 0].tolist(), reverse=True)


def largest_component_fractions(sizes: Sequence[int]) -> tuple[float, float]:
    """Fractions of nodes in the largest and second-largest components,
    from a network's ``component_sizes``."""
    if not sizes:
        return 0.0, 0.0
    n = sum(sizes)
    return sizes[0] / n, (sizes[1] / n if len(sizes) > 1 else 0.0)


def categorical_assortativity(net: SimilarityNetwork, attribute_key: str) -> float:
    """Newman's discrete assortativity over one node attribute: with m the
    integer mixing matrix of the 2E edge ends (each edge counted both ways)
    and R its row sums, r = (2E trace m - sum R^2) / ((2E)^2 - sum R^2).  A
    network whose nodes all share one value has no defined coefficient, and
    neither does an edgeless network.
    """
    if net.n_edges == 0:
        raise UndefinedMetric("assortativity needs at least one edge")
    try:
        values = [net.attributes[u][attribute_key] for u in net.nodes]
    except KeyError:
        raise DataError(f"attribute {attribute_key!r} missing on some node") from None
    levels = sorted(set(values))
    level_of = {v: i for i, v in enumerate(levels)}
    coded = np.array([level_of[v] for v in values], np.int64)
    k, ends = len(levels), 2 * net.n_edges
    cu, cv = coded[net.edges].T
    mixing = np.bincount(cu * k + cv, minlength=k * k).reshape(k, k)
    mixing += mixing.T
    spread = sum(r * r for r in mixing.sum(axis=1).tolist())
    if spread == ends * ends:
        raise UndefinedMetric("all nodes share one attribute value")
    return (ends * int(np.trace(mixing)) - spread) / (ends * ends - spread)


def degree_assortativity(net: SimilarityNetwork) -> float:
    """Pearson correlation of the degrees at the two ends of each edge, both
    orientations included: an end takes the value d_v d_v times, so sum x =
    sum d^2, sum x^2 = sum d^3 and sum xy = sum d_v s_v, s_v the degree sum
    of v's neighbours (an exact float64 sum, at most 2E).  Degree-regular
    networks (cliques, cycles) have zero variance and no defined r.
    """
    if net.n_edges == 0:
        raise UndefinedMetric("degree assortativity needs at least one edge")
    deg = net.degrees()
    nbr = np.bincount(net.edges.ravel(), deg[net.edges[:, ::-1]].ravel(), net.n_nodes)
    ends, degs = 2 * net.n_edges, deg.tolist()
    sx = sum(d * d for d in degs)
    var = ends * sum(d * d * d for d in degs) - sx * sx
    if var == 0:
        raise UndefinedMetric("degree-regular network has no degree variance")
    return (ends * sum(d * int(s) for d, s in zip(degs, nbr.tolist())) - sx * sx) / var


def check_edge_list_ids(ids: Iterable[str]) -> None:
    """Raise DataError naming the first id that holds a tab or a line break,
    which an edge list line cannot carry."""
    for u in ids:
        if _EDGE_LIST_BREAKS.search(u):
            raise DataError(f"user id {u!r} holds a tab or a line break, "
                            "which the edge list cannot carry")


def write_edge_list(net: SimilarityNetwork, path: str | Path) -> None:
    """UTF-8 ``u<TAB>v`` lines, one per edge in ``net.edges`` order.

    The lines are assembled as bytes, without a Python object per edge: the
    node ids are encoded once into a table padded with 0xFF (a byte UTF-8
    never uses), each chunk of edges becomes a byte matrix of rows
    ``[u | TAB | v | LF]`` by indexing that table, and the padding is
    dropped before writing.  An id holding a tab or a line break is a
    DataError, raised before the file is opened.
    """
    check_edge_list_ids(net.nodes)
    encoded = [u.encode("utf-8") for u in net.nodes]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(e.ljust(width, b"\xff") for e in encoded), np.uint8)
    table = table.reshape(len(encoded), width)
    chunk = max(1, EDGE_CHUNK_BYTES // (2 * width + 2))
    with open(path, "wb") as fh:
        for start in range(0, net.n_edges, chunk):
            pairs = net.edges[start:start + chunk]
            rows = np.empty((len(pairs), 2 * width + 2), np.uint8)
            rows[:, :width] = table[pairs[:, 0]]
            rows[:, width] = ord("\t")
            rows[:, width + 1:-1] = table[pairs[:, 1]]
            rows[:, -1] = ord("\n")
            rows = rows.ravel()
            fh.write(rows[rows != 0xFF].tobytes())


def write_node_attributes(net: SimilarityNetwork, path: str | Path) -> None:
    """CSV of node ids and whatever attributes the nodes carry."""
    keys = sorted({k for attrs in net.attributes.values() for k in attrs})
    write_rows(path, ["user", *keys],
               ([u, *map(net.attributes.get(u, {}).get, keys)] for u in net.nodes))
