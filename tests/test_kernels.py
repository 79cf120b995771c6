"""The pair-scoring kernel against a brute-force oracle, and the geocoding
kernel's memory bound (its ray-cast oracle is in tests/test_ingest.py)."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tastemap import _kernels
from tastemap.errors import UndefinedSimilarity
from tastemap.simnet import jaccard_score


class TestDispatcher:
    def test_zero_threshold_keeps_featureless_pairs(self):
        bits = np.zeros((3, 5), np.uint8)
        bits[0, 0] = 1  # users 1 and 2 share nothing with anyone
        us, vs, _, _ = _kernels.jaccard_edges(bits, 0.0)
        pairs = set(zip(us.tolist(), vs.tolist()))
        # pairs with user 0 are defined (union nonzero); the (1,2) pair is 0/0
        assert pairs == {(0, 1), (0, 2)}

    def test_edges_sorted_lexicographically(self):
        rng = np.random.default_rng(33)
        bits = (rng.random((50, 20)) < 0.3).astype(np.uint8)
        us, vs, _, _ = _kernels.jaccard_edges(bits, 10.0)
        pairs = list(zip(us.tolist(), vs.tolist()))
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)


def brute_force_jaccard(bits, threshold):
    """Pairs (i < j) whose defined ``jaccard_score`` meets the threshold, with
    their intersection and union sizes counted from Python sets."""
    sets = [frozenset(np.flatnonzero(row).tolist()) for row in bits]
    out = []
    for i, j in combinations(range(len(bits)), 2):
        try:
            score = jaccard_score(bits[i], bits[j])
        except UndefinedSimilarity:
            continue
        if score >= threshold:
            out.append((i, j, len(sets[i] & sets[j]), len(sets[i] | sets[j])))
    return out


bit_matrices = st.tuples(st.integers(0, 13), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
)
thresholds = st.one_of(st.sampled_from([0, 100]), st.integers(0, 100))


class TestJaccardOracle:
    @settings(max_examples=200, deadline=None)
    @given(bits=bit_matrices, threshold=thresholds, block=st.integers(1, 4))
    def test_matches_brute_force(self, bits, threshold, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "BLOCK_ROWS", block)
            got = _kernels.jaccard_edges(bits, float(threshold))
        assert all(col.dtype == np.int64 for col in got)
        assert list(zip(*(col.tolist() for col in got))) == brute_force_jaccard(bits, threshold)

    def test_empty_rows_pair_only_at_zero_with_a_nonempty_row(self):
        bits = np.array([[0, 0, 0], [1, 0, 1], [0, 0, 0], [1, 0, 1]], np.uint8)
        for block in (1, 2, 3, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_kernels, "BLOCK_ROWS", block)
                us, vs, inter, union = _kernels.jaccard_edges(bits, 0.0)
                assert list(zip(us.tolist(), vs.tolist())) == [(0, 1), (0, 3), (1, 2), (1, 3),
                                                               (2, 3)]
                us, vs, inter, union = _kernels.jaccard_edges(bits, 100.0)
                assert (us.tolist(), vs.tolist(), inter.tolist(), union.tolist()) == (
                    [1], [3], [2], [2])

    def test_no_rows(self):
        got = _kernels.jaccard_edges(np.zeros((0, 4), np.uint8), 65.0)
        assert [col.shape for col in got] == [(0,)] * 4


def test_geocoding_memory_is_bounded_by_the_ray_cast_block():
    # 4,000 points against one 2,049-vertex ring: one unchunked point x edge
    # float64 temporary alone would be 64 MB.
    ang = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
    rx, ry = np.append(np.cos(ang), 1.0), np.append(np.sin(ang), 0.0)
    rng = np.random.default_rng(34)
    px, py = rng.uniform(-1.0, 1.0, 4000), rng.uniform(-1.0, 1.0, 4000)
    ring = (rx, ry, np.array([0, rx.size]), np.array([0]), np.array([[-1.0, -1.0, 1.0, 1.0]]))
    tracemalloc.start()
    try:
        got = _kernels.assign_countries(px, py, *ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r2 = px * px + py * py
    assert (got[r2 < 0.999] == 0).all() and (got[r2 > 1.0] == -1).all()
    assert peak < 64 * 2**20
