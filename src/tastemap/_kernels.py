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
# Rings are stored closed (last vertex == first) and concatenated into flat
# arrays.  A point on a ring edge counts as inside.  Rings are tried in file
# order; the first containing ring wins.
# ---------------------------------------------------------------------------


# Point x edge elements in one ray-cast temporary (8 MB as float64).
RAY_BLOCK_ELEMENTS = 1 << 20


def _ring_contains(px, py, rx, ry):
    x1, y1 = rx[:-1][None, :], ry[:-1][None, :]
    x2, y2 = rx[1:][None, :], ry[1:][None, :]
    x, y = px[:, None], py[:, None]
    cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
    on_edge = (
        (cross == 0.0)
        & (x >= np.minimum(x1, x2))
        & (x <= np.maximum(x1, x2))
        & (y >= np.minimum(y1, y2))
        & (y <= np.maximum(y1, y2))
    )
    straddles = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = (straddles & (x < x_hit)).sum(axis=1)
    return on_edge.any(axis=1) | ((crossings % 2) == 1)


def assign_countries(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox):
    """Country index per point (-1 where no ring contains the point).

    Each ring tests the still-unassigned points inside its bbox, in chunks
    of about ``RAY_BLOCK_ELEMENTS`` point x edge pairs, so memory does not
    grow with the point count.
    """
    out = np.full(px.shape[0], -1, np.int64)
    for r in range(ring_country.shape[0]):
        pending = out == -1
        if not pending.any():
            break
        in_box = (
            pending
            & (px >= ring_bbox[r, 0])
            & (py >= ring_bbox[r, 1])
            & (px <= ring_bbox[r, 2])
            & (py <= ring_bbox[r, 3])
        )
        if not in_box.any():
            continue
        idx = np.nonzero(in_box)[0]
        lo, hi = ring_indptr[r], ring_indptr[r + 1]
        rx, ry = ring_x[lo:hi], ring_y[lo:hi]
        step = max(1, RAY_BLOCK_ELEMENTS // (hi - lo - 1))
        for start in range(0, idx.size, step):
            chunk = idx[start:start + step]
            hit = _ring_contains(px[chunk], py[chunk], rx, ry)
            out[chunk[hit]] = ring_country[r]
    return out
