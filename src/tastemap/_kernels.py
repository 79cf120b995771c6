"""Hot numeric kernels: user-pair scoring and point-in-polygon geocoding.

Both are blocked numpy kernels, so memory stays bounded as inputs grow.
"""

from __future__ import annotations

import numpy as np

# No JIT path remains; perfbench's run record still reads these two flags.
HAVE_NUMBA = False
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# Jaccard pair scoring
#
# The threshold test is done as 100*inter >= threshold*union.  All quantities
# are small integers, exactly representable in float64, so the comparison is
# exact for integer thresholds (no 100*13/20 != 65 surprises).
# ---------------------------------------------------------------------------

BLOCK_ROWS = 256


def jaccard_edges(bits: np.ndarray, threshold: float):
    """All index pairs (i < j), lexicographic, whose Jaccard score (x100)
    meets the threshold, with each pair's intersection and union sizes.

    Rows are scored in blocks of ``BLOCK_ROWS`` against every later row, so
    memory is O(BLOCK_ROWS x n).  Pairs with an empty union never qualify.
    Returns ``(us, vs, inter, union)``, all int64.
    """
    mat = (np.asarray(bits) != 0).astype(np.float64)
    n = mat.shape[0]
    pops = mat.sum(axis=1)
    threshold = float(threshold)
    parts = []
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        inter = mat[lo:hi] @ mat[lo:].T
        union = pops[lo:hi, None] + pops[None, lo:] - inter
        # Row r of the block is user lo + r; column c is user lo + c.
        ok = np.triu((union > 0) & (100.0 * inter >= threshold * union), 1)
        rows, cols = np.nonzero(ok)
        parts.append((rows + lo, cols + lo, inter[rows, cols], union[rows, cols]))
    if not parts:
        return tuple(np.empty(0, np.int64) for _ in range(4))
    return tuple(np.concatenate(col).astype(np.int64) for col in zip(*parts))


# ---------------------------------------------------------------------------
# Point-in-polygon country assignment
#
# Each ring is its own pair of x and y arrays, closed (last vertex == first).
# A point on a ring edge counts as inside.  Rings are tried in file
# order; the first containing ring wins.
#
# A horizontal ray from (x, y) can cross an edge only if the edge straddles y
# (min(y1, y2) <= y < max(y1, y2)), and the point can lie on the edge only if
# y is in the edge's closed y-range.  Every other (point, edge) pair adds
# nothing to either test, so only the pairs whose y lies in the edge's closed
# y-range are evaluated: the points are sorted by y, each edge's candidates
# are one run of that order (two searchsorted calls), and the runs are
# walked as one flat pair index.  Each pair is scored with the same float
# expressions as if every (point, edge) pair were, so the result is the same,
# at a cost of points x the edges their ray meets instead of points x edges.
# ---------------------------------------------------------------------------


# (point, edge) pairs evaluated at once; the temporaries of one block take
# about 100 bytes per pair.
RAY_BLOCK_ELEMENTS = 1 << 18


def _ring_contains(px, py, rx, ry):
    order = np.argsort(py)
    xs, ys = px[order], py[order]
    ex1, ey1, ex2, ey2 = rx[:-1], ry[:-1], rx[1:], ry[1:]
    # Edge e's candidates are sorted positions first[e] .. last[e] - 1.
    first = np.searchsorted(ys, np.minimum(ey1, ey2), side="left")
    last = np.searchsorted(ys, np.maximum(ey1, ey2), side="right")
    ends = np.cumsum(last - first)
    # Flat pair k of edge e is the point at sorted position k + shift[e].
    shift = last - ends
    crossings = np.zeros(xs.size, np.int64)
    touches = np.zeros(xs.size, np.bool_)
    total = int(ends[-1])
    for lo in range(0, total, RAY_BLOCK_ELEMENTS):
        pos = np.arange(lo, min(lo + RAY_BLOCK_ELEMENTS, total))
        edge = np.searchsorted(ends, pos, side="right")
        pos += shift[edge]
        x, y = xs[pos], ys[pos]
        x1, y1, x2, y2 = ex1[edge], ey1[edge], ex2[edge], ey2[edge]
        del edge
        cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        on_edge = (
            (cross == 0.0)
            & (x >= np.minimum(x1, x2))
            & (x <= np.maximum(x1, x2))
            & (y >= np.minimum(y1, y2))
            & (y <= np.maximum(y1, y2))
        )
        del cross
        touches[pos[on_edge]] = True
        straddles = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        np.add.at(crossings, pos[straddles & (x < x_hit)], 1)
    inside = np.empty(xs.size, np.bool_)
    inside[order] = touches | ((crossings % 2) == 1)
    return inside


def assign_countries(px, py, rings):
    """Country index per point (-1 where no ring contains the point).

    ``rings`` holds one ``(country index, x, y)`` per closed ring.  Each ring
    tests the still-unassigned points inside its bbox, against only the
    edges whose closed y-range holds the point's y, in blocks of at most
    ``RAY_BLOCK_ELEMENTS`` (point, edge) pairs, so memory does not grow with
    the point count or the ring size.
    """
    out = np.full(px.shape[0], -1, np.int64)
    for country, rx, ry in rings:
        pending = out == -1
        if not pending.any():
            break
        in_box = (
            pending
            & (px >= rx.min())
            & (py >= ry.min())
            & (px <= rx.max())
            & (py <= ry.max())
        )
        if not in_box.any():
            continue
        idx = np.nonzero(in_box)[0]
        hit = _ring_contains(px[idx], py[idx], rx, ry)
        out[idx[hit]] = country
    return out
