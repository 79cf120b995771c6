"""User-similarity networks: thresholded Jaccard graphs and their metrics.

Users with one identical profile form a profile class.  Two users of a
non-empty class score 100 against each other, and every user of a class
scores the same against any other user, so at every threshold a non-empty
class is a clique and two classes are either completely joined or not at
all.  Each network is therefore the expansion of a weighted quotient graph
over the classes, and that quotient is the only form a network takes here:

* ``ProfileClasses(bits, lowest_threshold)`` groups the users of a bit
  matrix into classes and scores the distinct profiles once;
* ``build_network(classes, threshold)`` is one threshold's
  ``QuotientNetwork``;
* ``component_sizes``, ``categorical_assortativity`` and
  ``degree_assortativity`` are computed on the classes, weighted by their
  sizes, and equal their values on the user graph bit for bit;
* ``write_edge_list`` and ``write_node_attributes`` write the user graph;
  user pairs exist only while an edge list is written.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _kernels
from .csvtext import quote_fields
from .errors import DataError, UndefinedMetric

# Bytes of edge lines assembled at once by the edge-list writer: about 1M
# edges for short ids, and bounded whatever their length.
EDGE_CHUNK_BYTES = 1 << 24
# The edge list's field separator and every character ``str.splitlines``
# breaks a line on: an id holding one cannot be read back from its lines.
_EDGE_LIST_BREAKS = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


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


def check_thresholds(thresholds: Sequence[float]) -> None:
    """Raise DataError unless every threshold lies in [0, 100]."""
    if not all(0.0 <= t <= 100.0 for t in thresholds):
        raise DataError("threshold must lie in [0, 100]")


class ProfileClasses:
    """Users grouped into classes of one identical profile, and the class
    pairs whose Jaccard score meets the lowest threshold.

    ``bits`` holds one profile row per user, in the users' order; zero users
    is a DataError.  Rows are deduplicated by their packed bytes;
    ``user_class`` maps each user to its class, ``sizes`` counts each
    class's users and ``nonempty`` tells the classes whose profile has a set
    bit.  The distinct rows are scored once by ``_kernels.jaccard_edges``;
    each threshold's network is ``build_network``.

    For the edge lists, every class keeps the sorted users it is joined to
    at the lowest threshold: the users of the classes it is paired with and,
    for a non-empty class, its own.  They are stored once, as one array of
    ``class * n_users + user`` keys sorted together, each with the pair that
    joins it (``len(pair_a)`` for a class's own users).
    """

    def __init__(self, bits: np.ndarray, min_threshold: float):
        bits = np.asarray(bits) != 0
        n = len(bits)
        if n == 0:
            raise DataError("cannot build a network from zero profiles")
        check_thresholds([min_threshold])
        packed = np.ascontiguousarray(np.packbits(bits, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse, sizes = np.unique(keys, return_index=True, return_inverse=True,
                                             return_counts=True)
        rows = bits[first]
        self.n_users = n
        self.min_threshold = float(min_threshold)
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


def build_network(classes: ProfileClasses, threshold: float) -> QuotientNetwork:
    """The network of the users whose Jaccard scores meet ``threshold``:
    exactly the network that brute-force all-pairs comparison would give,
    zero-score pairs included at a zero threshold.  The threshold must lie
    between the classes' lowest threshold and 100."""
    threshold = float(threshold)
    if not classes.min_threshold <= threshold <= 100.0:
        raise DataError(f"threshold must lie in [{classes.min_threshold:g}, 100]")
    return QuotientNetwork(classes, threshold, 100.0 * classes.inter >= threshold * classes.union)


def component_sizes(net: QuotientNetwork) -> list[int]:
    """Connected-component sizes of the user graph, largest first: the
    components of the class graph (``_component_labels``), each as many
    users as its classes hold."""
    classes = net.classes
    labels = _component_labels(classes.n_classes, net.a, net.b)
    sizes = _sums(labels, np.where(net.degree > 0, classes.sizes, 0), classes.n_classes)
    return sorted(sizes[sizes > 0].tolist(), reverse=True)


def largest_component_fractions(sizes: Sequence[int]) -> tuple[float, float]:
    """Fractions of nodes in the largest and second-largest components,
    from a network's ``component_sizes``."""
    if not sizes:
        return 0.0, 0.0
    n = sum(sizes)
    return sizes[0] / n, (sizes[1] / n if len(sizes) > 1 else 0.0)


def categorical_assortativity(net: QuotientNetwork, codes: np.ndarray) -> float:
    """Newman's discrete assortativity of the user graph over one attribute,
    given as each user's level code (-1 where it is unset): with m the
    integer mixing matrix of the 2E edge ends (each edge counted both ways)
    and R its row sums, r = (2E trace m - sum R^2) / ((2E)^2 - sum R^2).  A
    network whose nodes all share one value has no defined coefficient, and
    neither does an edgeless network; an unset value on a node is a
    DataError.

    With H[c, l] the users of class c at level l, m is the sum over joined
    class pairs (a, b) of H[a]H[b]^T + H[b]H[a]^T, plus H[c]H[c]^T -
    diag(H[c]) over the non-empty classes.  Its trace and row sums (R[l] =
    sum_c H[c, l] degree[c]) are counted on the nonzero entries of H alone.
    """
    if net.n_edges == 0:
        raise UndefinedMetric("assortativity needs at least one edge")
    codes = np.asarray(codes, np.int64)
    if (codes[net.kept] < 0).any():
        raise DataError("attribute missing on some node")
    classes, has = net.classes, codes >= 0
    levels = int(codes.max()) + 1
    cell, h = np.unique(classes.user_class[has] * levels + codes[has], return_counts=True)
    cls, level = np.divmod(cell, levels)
    row = np.searchsorted(cls, np.arange(classes.n_classes + 1))
    # Each entry of class a looks up its level among the entries of b.
    count = row[net.a + 1] - row[net.a]
    mine = _ranges(row[net.a], count)
    wanted = np.repeat(net.b * levels, count) + level[mine]
    theirs = np.minimum(np.searchsorted(cell, wanted), len(cell) - 1)
    hit = cell[theirs] == wanted
    joined = int(h[mine[hit]] @ h[theirs[hit]])
    within = int((h * (h - 1))[classes.nonempty[cls]].sum())
    row_sums = _sums(level, h * net.degree[cls], levels)
    return _newman_r(2 * net.n_edges, 2 * joined + within, row_sums.tolist())


def degree_assortativity(net: QuotientNetwork) -> float:
    """Pearson correlation of the degrees at the two ends of each edge of
    the user graph, both orientations included (``_degree_r``): every user
    of a class has the class's degree and neighbour degree sum.
    Degree-regular networks (cliques) have zero variance and no defined r.
    """
    if net.n_edges == 0:
        raise UndefinedMetric("degree assortativity needs at least one edge")
    classes, deg = net.classes, net.degree
    reach = classes.sizes * deg
    nbr = ((classes.sizes - 1) * classes.nonempty * deg
           + _sums(net.a, reach[net.b], classes.n_classes)
           + _sums(net.b, reach[net.a], classes.n_classes))
    return _degree_r(2 * net.n_edges, deg.tolist(), nbr.tolist(), classes.sizes.tolist())


def edge_id_table(ids: Sequence[str]) -> np.ndarray:
    """The ids for ``write_edge_list``: each one's UTF-8 bytes padded with
    0xFF (a byte UTF-8 never uses) to one width of at least a byte, as one
    fixed-size ``np.void`` entry.  An id holding a tab or a line break is a
    DataError naming the first such id.  The ids are searched as one string,
    and one by one only once that finds such a character."""
    if _EDGE_LIST_BREAKS.search("\0".join(ids)):
        bad = next(u for u in ids if _EDGE_LIST_BREAKS.search(u))
        raise DataError(f"user id {bad!r} holds a tab or a line break, "
                        "which the edge list cannot carry")
    encoded = [u.encode("utf-8") for u in ids]
    width = max(1, max(map(len, encoded), default=0))
    return np.frombuffer(b"".join(e.ljust(width, b"\xff") for e in encoded),
                         np.dtype((np.void, width)))


def pairs_per_chunk(table: np.ndarray) -> int:
    """Edges per chunk of about ``EDGE_CHUNK_BYTES`` of lines."""
    return max(1, EDGE_CHUNK_BYTES // (2 * table.dtype.itemsize + 2))


def write_edge_list(net: QuotientNetwork, path: str | Path, table: np.ndarray) -> None:
    """UTF-8 ``u<TAB>v`` lines, one per edge of ``net.user_pairs``, in
    order, the ids taken from the users' ``edge_id_table``.

    The lines are assembled as bytes, without a Python object per edge:
    each chunk of ``pairs_per_chunk`` edges becomes an array of fixed-size
    records ``u TAB v LF`` by indexing the table, and the padding, if the
    ids have any, is dropped before writing.
    """
    line = np.dtype([("u", table.dtype), ("tab", np.uint8), ("v", table.dtype), ("lf", np.uint8)])
    padded = bool((table.view(np.uint8) == 0xFF).any())
    with open(path, "wb") as fh:
        for us, vs in net.user_pairs(pairs_per_chunk(table)):
            rows = np.empty(len(us), line)
            rows["u"] = table.take(us)
            rows["tab"] = ord("\t")
            rows["v"] = table.take(vs)
            rows["lf"] = ord("\n")
            data = rows.view(np.uint8)
            fh.write(data[data != 0xFF].tobytes() if padded else data.tobytes())


class NodeColumns:
    """Every user's node attributes as columns: the home country under
    ``country``, then the user's entries of ``attributes`` (which win).

    Per attribute it holds which users have it, each user's level code
    (the index of the value among the attribute's sorted values, -1 where
    unset) and each value CSV-quoted once, so ``write_node_attributes`` and
    the assortativities do no per-user work for each threshold.
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


def write_node_attributes(net: QuotientNetwork, path: str | Path, nodes: NodeColumns) -> None:
    """A CSV of the network's nodes and their attributes, as ``csv`` writes
    the rows: a header of ``user`` and the attributes some node has, then
    one row per node, empty where it has none.  Each set of attributes'
    lines is joined once per ``nodes``."""
    keys = tuple(nodes.keys_of(net.kept))
    lines = nodes._lines.get(keys)
    if lines is None:
        if keys:
            lines = [",".join(row) + "\n"
                     for row in zip(nodes._quoted_ids, *map(nodes._quoted.get, keys))]
        else:  # csv writes a row of one empty field as ""
            lines = [(q or '""') + "\n" for q in nodes._quoted_ids]
        nodes._lines[keys] = lines
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(quote_fields(["user", *keys])) + "\n")
        fh.writelines(itertools.compress(lines, net.kept.tolist()))
