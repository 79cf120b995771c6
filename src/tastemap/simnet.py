"""User-similarity networks: thresholded Jaccard graphs and their metrics.

Users with one identical profile form a profile class.  Two users of a
non-empty class score 100 against each other, and every user of a class
scores the same against any other user, so at every threshold a non-empty
class is a clique and two classes are either completely joined or not at
all.  Each network is therefore the expansion of a weighted quotient graph
over the classes (``ProfileClasses``, ``QuotientNetwork``): the distinct
profiles are scored once, every metric is computed on the classes, weighted
by their sizes, and user pairs exist only while an edge list is written.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .csvtext import quote_fields
from .errors import DataError, UndefinedMetric, UndefinedSimilarity
from .model import UserProfile

# Bytes of edge lines assembled at once by the edge-list writers: about 1M
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for each start s and length l, concatenated."""
    lengths = np.asarray(lengths, np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) + np.repeat(starts - ends + lengths, lengths)


def _sums(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """int64 sums of ``weights`` by ``index``.  Every sum taken here is at
    most twice the expanded edge count, which float64 holds exactly."""
    return np.bincount(index, weights, n).astype(np.int64)


def _component_labels(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Each node's component label: the smallest node of its component.

    Min-label propagation: every node points at a node of its component, and
    each round hooks the larger label at the two ends of every edge that
    still disagrees onto the smaller one, then jumps pointers until every
    label is its own root.  Labels only decrease, so the loop ends.
    """
    labels = np.arange(n)
    while True:
        lu, lv = labels[us], labels[vs]
        split = lu != lv
        if not split.any():
            return labels
        np.minimum.at(labels, np.maximum(lu[split], lv[split]),
                      np.minimum(lu[split], lv[split]))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _newman_r(ends: int, trace: int, row_sums: Iterable[int]) -> float:
    """Newman's discrete assortativity from the integer mixing matrix of the
    ``ends`` edge ends: its trace and its row sums R, as
    (2E trace - sum R^2) / ((2E)^2 - sum R^2)."""
    spread = sum(r * r for r in row_sums)
    if spread == ends * ends:
        raise UndefinedMetric("all nodes share one attribute value")
    return (ends * trace - spread) / (ends * ends - spread)


def _degree_r(ends: int, degrees: Iterable[int], neighbour_sums: Iterable[int],
              weights: Iterable[int]) -> float:
    """Pearson correlation of the degrees at the two ends of each edge, both
    orientations included, from each node's degree d and neighbour degree
    sum s, a node of weight w standing for w nodes: an end takes the value
    d_v d_v times, so sum x = sum w d^2, sum x^2 = sum w d^3 and sum xy =
    sum w d s, all exact integers."""
    sx = s3 = sxy = 0
    for d, s, w in zip(degrees, neighbour_sums, weights):
        sx += w * d * d
        s3 += w * d * d * d
        sxy += w * d * s
    var = ends * s3 - sx * sx
    if var == 0:
        raise UndefinedMetric("degree-regular network has no degree variance")
    return (ends * sxy - sx * sx) / var


class ProfileClasses:
    """Users grouped into classes of one identical profile, and the class
    pairs whose Jaccard score meets the lowest threshold.

    ``bits`` holds one profile row per user, in the users' order.  Rows are
    deduplicated by their packed bytes; ``user_class`` maps each user to its
    class, ``sizes`` counts each class's users and ``nonempty`` tells the
    classes whose profile has a set bit.  The distinct rows are scored once
    by ``_kernels.jaccard_edges``; each threshold's network is ``network``.

    For the edge lists, every class keeps the sorted users it is joined to
    at the lowest threshold: the users of the classes it is paired with and,
    for a non-empty class, its own.  They are stored once, as one array of
    ``class * n_users + user`` keys sorted together, each with the pair that
    joins it (``len(pair_a)`` for a class's own users).
    """

    def __init__(self, bits: np.ndarray, min_threshold: float):
        bits = np.asarray(bits) != 0
        n = len(bits)
        packed = np.ascontiguousarray(np.packbits(bits, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse, sizes = np.unique(keys, return_index=True, return_inverse=True,
                                             return_counts=True)
        rows = bits[first]
        self.n_users = n
        self.user_class = inverse.reshape(-1)
        self.sizes = sizes
        self.nonempty = rows.any(axis=1)
        a, b, self.inter, self.union = _kernels.jaccard_edges(rows, min_threshold)
        self.pair_a, self.pair_b = a, b

        members = np.argsort(self.user_class, kind="stable")
        starts = np.cumsum(sizes) - sizes
        own = np.flatnonzero(self.nonempty[self.user_class])
        pair = np.arange(len(a))
        joined_class = np.concatenate([np.repeat(a, sizes[b]), np.repeat(b, sizes[a]),
                                       self.user_class[own]])
        joined_user = np.concatenate([members[_ranges(starts[b], sizes[b])],
                                      members[_ranges(starts[a], sizes[a])], own])
        joined_pair = np.concatenate([np.repeat(pair, sizes[b]), np.repeat(pair, sizes[a]),
                                      np.full(len(own), len(a))])
        key = joined_class * n + joined_user
        order = np.argsort(key)
        self._joined_key = key[order]
        self._joined_pair = joined_pair[order]

    @property
    def n_classes(self) -> int:
        return len(self.sizes)

    def network(self, threshold: float) -> QuotientNetwork:
        """The network of the users whose scores meet ``threshold``, which
        must be at least the lowest threshold."""
        return QuotientNetwork(self, float(threshold),
                               100.0 * self.inter >= float(threshold) * self.union)


class QuotientNetwork:
    """One threshold's network, held on the profile classes.

    ``linked`` marks the scored class pairs that meet the threshold;
    ``degree`` is the degree every user of a class has in the expanded
    network, and ``kept`` marks the users with at least one edge (the
    expanded network's nodes, isolated users being removed).
    """

    def __init__(self, classes: ProfileClasses, threshold: float, linked: np.ndarray):
        self.classes, self.threshold, self.linked = classes, threshold, linked
        self.a, self.b = classes.pair_a[linked], classes.pair_b[linked]
        sizes, k = classes.sizes, classes.n_classes
        self.degree = ((sizes - 1) * classes.nonempty + _sums(self.a, sizes[self.b], k)
                       + _sums(self.b, sizes[self.a], k))
        self.kept = self.degree[classes.user_class] > 0
        self.n_nodes = int(sizes[self.degree > 0].sum())
        self.n_edges = int(sizes @ self.degree) // 2
        self.isolated_removed = classes.n_users - self.n_nodes

    def component_sizes(self) -> list[int]:
        """``component_sizes`` of the expanded network: components of the
        class graph, each as many users as its classes hold."""
        classes = self.classes
        labels = _component_labels(classes.n_classes, self.a, self.b)
        sizes = _sums(labels, np.where(self.degree > 0, classes.sizes, 0), classes.n_classes)
        return sorted(sizes[sizes > 0].tolist(), reverse=True)

    def categorical_assortativity(self, codes: np.ndarray) -> float:
        """``categorical_assortativity`` of the expanded network over one
        attribute, given as each user's level code (-1 where it is unset).

        With H[c, l] the users of class c at level l, the mixing matrix is
        sum over joined class pairs (a, b) of H[a]H[b]^T + H[b]H[a]^T, plus
        H[c]H[c]^T - diag(H[c]) over the non-empty classes.  Its trace and
        row sums (R[l] = sum_c H[c, l] degree[c]) are counted on the nonzero
        entries of H alone.
        """
        if self.n_edges == 0:
            raise UndefinedMetric("assortativity needs at least one edge")
        codes = np.asarray(codes, np.int64)
        if (codes[self.kept] < 0).any():
            raise DataError("attribute missing on some node")
        classes, has = self.classes, codes >= 0
        levels = int(codes.max()) + 1
        cell, h = np.unique(classes.user_class[has] * levels + codes[has], return_counts=True)
        cls, level = np.divmod(cell, levels)
        row = np.searchsorted(cls, np.arange(classes.n_classes + 1))
        # Each entry of class a looks up its level among the entries of b.
        count = row[self.a + 1] - row[self.a]
        mine = _ranges(row[self.a], count)
        wanted = np.repeat(self.b * levels, count) + level[mine]
        theirs = np.minimum(np.searchsorted(cell, wanted), len(cell) - 1)
        hit = cell[theirs] == wanted
        joined = int(h[mine[hit]] @ h[theirs[hit]])
        within = int((h * (h - 1))[classes.nonempty[cls]].sum())
        row_sums = _sums(level, h * self.degree[cls], levels)
        return _newman_r(2 * self.n_edges, 2 * joined + within, row_sums.tolist())

    def degree_assortativity(self) -> float:
        """``degree_assortativity`` of the expanded network: every user of a
        class has the class's degree and neighbour degree sum."""
        if self.n_edges == 0:
            raise UndefinedMetric("degree assortativity needs at least one edge")
        classes, deg = self.classes, self.degree
        reach = classes.sizes * deg
        nbr = ((classes.sizes - 1) * classes.nonempty * deg
               + _sums(self.a, reach[self.b], classes.n_classes)
               + _sums(self.b, reach[self.a], classes.n_classes))
        return _degree_r(2 * self.n_edges, deg.tolist(), nbr.tolist(), classes.sizes.tolist())

    def user_pairs(self, chunk: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The expanded edges as int32 user index pairs (u, v), u < v, in
        lexicographic order, in chunks of about ``chunk`` pairs: a chunk is
        whole users' rows, so it is larger only where one row is.

        User u's row is the part after u of its class's sorted joined users,
        kept where the joining pair meets this threshold.
        """
        classes = self.classes
        n = classes.n_users
        key = classes._joined_key[np.append(self.linked, True)[classes._joined_pair]]
        users = np.arange(n, dtype=np.int32)
        base = classes.user_class * n
        first = np.searchsorted(key, base + users, side="right")
        count = np.searchsorted(key, base + n) - first
        ends = np.cumsum(count)
        lo = 0
        while lo < n:
            hi = max(int(np.searchsorted(ends, ends[lo] - count[lo] + chunk, side="right")),
                     lo + 1)
            at = _ranges(first[lo:hi], count[lo:hi])
            if len(at):
                yield (np.repeat(users[lo:hi], count[lo:hi]),
                       (key[at] - np.repeat(base[lo:hi], count[lo:hi])).astype(np.int32))
            lo = hi


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


def ordered_profiles(profiles: Sequence[UserProfile]) -> list[UserProfile]:
    """The profiles in user id order; zero profiles, or a user id given
    twice, is a DataError."""
    if not profiles:
        raise DataError("cannot build a network from zero profiles")
    ordered = sorted(profiles, key=lambda p: p.user_id)
    if any(p.user_id == q.user_id for p, q in zip(ordered, ordered[1:])):
        raise DataError("duplicate user ids in profiles")
    return ordered


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Raise DataError unless every threshold lies in [0, 100]."""
    if not all(0.0 <= t <= 100.0 for t in thresholds):
        raise DataError("threshold must lie in [0, 100]")


def build_networks(
    profiles: Sequence[UserProfile],
    thresholds: Sequence[float],
    attributes: Mapping[str, Mapping[str, str]] | None = None,
) -> list[SimilarityNetwork]:
    """One network per threshold, from a single scoring pass over the
    distinct profiles (``ProfileClasses``).

    Pair scores do not depend on the threshold, so the pairs meeting the
    lowest threshold are scored once and each network keeps the subset that
    meets its own; the edge sets are nested.  Every threshold is checked
    before any pair is scored.
    """
    check_thresholds(thresholds)
    if not thresholds:
        return []
    ordered = ordered_profiles(profiles)
    classes = ProfileClasses(np.stack([p.bits for p in ordered]), min(thresholds))
    networks = []
    for threshold in thresholds:
        net = classes.network(threshold)
        kept = [ordered[idx] for idx in np.flatnonzero(net.kept).tolist()]
        remap = np.cumsum(net.kept) - 1
        pairs = [np.column_stack(p) for p in net.user_pairs(classes.n_users ** 2)]
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
                edges=remap[np.concatenate(pairs)] if pairs else (),
                attributes=attrs,
                isolated_removed=net.isolated_removed,
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
    """Connected-component sizes, largest first (``_component_labels``)."""
    labels = _component_labels(net.n_nodes, *net.edges.T)
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
    k = len(levels)
    cu, cv = coded[net.edges].T
    mixing = np.bincount(cu * k + cv, minlength=k * k).reshape(k, k)
    mixing += mixing.T
    return _newman_r(2 * net.n_edges, int(np.trace(mixing)), mixing.sum(axis=1).tolist())


def degree_assortativity(net: SimilarityNetwork) -> float:
    """Pearson correlation of the degrees at the two ends of each edge, both
    orientations included (``_degree_r``); s_v, the degree sum of v's
    neighbours, is an exact float64 sum, at most 2E.  Degree-regular
    networks (cliques, cycles) have zero variance and no defined r.
    """
    if net.n_edges == 0:
        raise UndefinedMetric("degree assortativity needs at least one edge")
    deg = net.degrees()
    nbr = np.bincount(net.edges.ravel(), deg[net.edges[:, ::-1]].ravel(), net.n_nodes)
    return _degree_r(2 * net.n_edges, deg.tolist(), map(int, nbr.tolist()),
                     itertools.repeat(1))


def check_edge_list_ids(ids: Iterable[str]) -> None:
    """Raise DataError naming the first id that holds a tab or a line break,
    which an edge list line cannot carry.  The ids are searched as one
    string, and one by one only once that finds such a character."""
    ids = list(ids)
    if _EDGE_LIST_BREAKS.search("\0".join(ids)):
        bad = next(u for u in ids if _EDGE_LIST_BREAKS.search(u))
        raise DataError(f"user id {bad!r} holds a tab or a line break, "
                        "which the edge list cannot carry")


def edge_id_table(ids: Sequence[str]) -> np.ndarray:
    """The ids for ``write_pairs``: each one's UTF-8 bytes padded with 0xFF
    (a byte UTF-8 never uses) to one width of at least a byte, as one
    fixed-size ``np.void`` entry.  An id holding a tab or a line break is a
    DataError."""
    check_edge_list_ids(ids)
    encoded = [u.encode("utf-8") for u in ids]
    width = max(1, max(map(len, encoded), default=0))
    return np.frombuffer(b"".join(e.ljust(width, b"\xff") for e in encoded),
                         np.dtype((np.void, width)))


def pairs_per_chunk(table: np.ndarray) -> int:
    """Edges per chunk of about ``EDGE_CHUNK_BYTES`` of lines."""
    return max(1, EDGE_CHUNK_BYTES // (2 * table.dtype.itemsize + 2))


def write_pairs(path: str | Path, table: np.ndarray,
                pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
    """UTF-8 ``u<TAB>v`` lines, one per index pair of each ``(us, vs)``
    chunk, the ids taken from an ``edge_id_table``.

    The lines are assembled as bytes, without a Python object per edge:
    each chunk becomes an array of fixed-size records ``u TAB v LF`` by
    indexing the table, and the padding, if the ids have any, is dropped
    before writing.
    """
    line = np.dtype([("u", table.dtype), ("tab", np.uint8), ("v", table.dtype), ("lf", np.uint8)])
    padded = bool((table.view(np.uint8) == 0xFF).any())
    with open(path, "wb") as fh:
        for us, vs in pairs:
            rows = np.empty(len(us), line)
            rows["u"] = table.take(us)
            rows["tab"] = ord("\t")
            rows["v"] = table.take(vs)
            rows["lf"] = ord("\n")
            data = rows.view(np.uint8)
            fh.write(data[data != 0xFF].tobytes() if padded else data.tobytes())


def write_edge_list(net: SimilarityNetwork, path: str | Path) -> None:
    """``write_pairs`` of ``net.edges``, in order.  An id holding a tab or a
    line break is a DataError, raised before the file is opened."""
    table = edge_id_table(net.nodes)
    chunk = pairs_per_chunk(table)
    write_pairs(path, table, (net.edges[start:start + chunk].T
                              for start in range(0, net.n_edges, chunk)))


def write_node_attributes(net: SimilarityNetwork, path: str | Path) -> None:
    """CSV of node ids and whatever attributes the nodes carry
    (``NodeColumns.write``)."""
    NodeColumns(net.nodes, [None] * net.n_nodes, net.attributes).write(
        path, np.ones(net.n_nodes, np.bool_))


class NodeColumns:
    """Every user's node attributes as columns: the home country under
    ``country``, then the user's entries of ``attributes`` (which win).

    Per attribute it holds which users have it, each user's level code
    (the index of the value among the attribute's sorted values, -1 where
    unset) and each value CSV-quoted once, so ``write`` and the quotient
    metrics do no per-user work for each threshold.
    """

    def __init__(self, ids: Sequence[str], homes: Sequence[str | None],
                 attributes: Mapping[str, Mapping[str, str]]):
        columns: dict[str, list[str | None]] = {}
        if any(h is not None for h in homes):
            columns["country"] = list(homes)
        index = {u: i for i, u in enumerate(ids)}
        for user, attrs in attributes.items():
            i = index.get(user)
            if i is not None:
                for key, value in attrs.items():
                    columns.setdefault(key, [None] * len(ids))[i] = value
        self.keys = sorted(columns)
        self.codes: dict[str, np.ndarray] = {}
        self._quoted_ids = quote_fields(ids)
        self._quoted: dict[str, list[str]] = {}
        self._lines: dict[tuple[str, ...], list[str]] = {}
        for key in self.keys:
            levels = sorted(set(columns[key]) - {None})
            code = dict(zip(levels, range(len(levels))))
            self.codes[key] = np.array([code.get(v, -1) for v in columns[key]], np.int64)
            quoted = dict(zip(levels, quote_fields(levels)))
            self._quoted[key] = [quoted.get(v, "") for v in columns[key]]

    def keys_of(self, kept: np.ndarray) -> list[str]:
        """The attributes that some kept user has."""
        return [k for k in self.keys if (self.codes[k][kept] >= 0).any()]

    def write(self, path: str | Path, kept: np.ndarray) -> None:
        """A CSV of the ``kept`` users and their attributes, as ``csv``
        writes the rows: a header of ``user`` and the attributes some kept
        user has, then one row per kept user, empty where it has none."""
        keys = tuple(self.keys_of(kept))
        lines = self._lines.get(keys)
        if lines is None:
            if keys:
                lines = [",".join(row) + "\n"
                         for row in zip(self._quoted_ids, *map(self._quoted.get, keys))]
            else:  # csv writes a row of one empty field as ""
                lines = [(q or '""') + "\n" for q in self._quoted_ids]
            self._lines[keys] = lines
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(quote_fields(["user", *keys])) + "\n")
            fh.writelines(itertools.compress(lines, kept.tolist()))
