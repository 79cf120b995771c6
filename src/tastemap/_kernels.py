"""Hot numeric kernels: user-pair scoring and point-in-polygon geocoding.

Jaccard pair scoring is one blocked numpy kernel.  Ray-casting check-in
coordinates against country polygons ships in two functionally identical
implementations:

* a numba ``@njit`` version (default when numba imports cleanly), and
* a vectorized numpy version.

Set ``TASTEMAP_NUMBA=0`` in the environment to force the numpy path.
"""

from __future__ import annotations

import os

import numpy as np


def _env_wants_numba() -> bool:
    return os.environ.get("TASTEMAP_NUMBA", "1").strip().lower() not in {"0", "false", "no", "off"}


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


NUMBA_ENABLED = HAVE_NUMBA and _env_wants_numba()


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


@njit(cache=True)
def _ring_contains(x, y, ring_x, ring_y, lo, hi):
    inside = False
    for k in range(lo, hi - 1):
        x1 = ring_x[k]
        y1 = ring_y[k]
        x2 = ring_x[k + 1]
        y2 = ring_y[k + 1]
        cross = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        if cross == 0.0:
            if min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2):
                return True
        if (y1 > y) != (y2 > y):
            x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_hit:
                inside = not inside
    return inside


@njit(cache=True)
def _assign_countries_core(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox):
    out = np.full(px.shape[0], -1, np.int64)
    n_rings = ring_country.shape[0]
    for i in range(px.shape[0]):
        x = px[i]
        y = py[i]
        for r in range(n_rings):
            if (
                x < ring_bbox[r, 0]
                or y < ring_bbox[r, 1]
                or x > ring_bbox[r, 2]
                or y > ring_bbox[r, 3]
            ):
                continue
            if _ring_contains(x, y, ring_x, ring_y, ring_indptr[r], ring_indptr[r + 1]):
                out[i] = ring_country[r]
                break
    return out


def assign_countries_numba(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox):
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not available")
    return _assign_countries_core(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox)


def _ring_contains_numpy(px, py, rx, ry):
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


def assign_countries_numpy(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox):
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
        hit = _ring_contains_numpy(px[idx], py[idx], ring_x[lo:hi], ring_y[lo:hi])
        out[idx[hit]] = ring_country[r]
    return out


def assign_countries(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox):
    """Country index per point (-1 where no ring contains the point)."""
    if NUMBA_ENABLED:
        return assign_countries_numba(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox)
    return assign_countries_numpy(px, py, ring_x, ring_y, ring_indptr, ring_country, ring_bbox)
