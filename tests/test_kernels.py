"""The pair-scoring kernel against a brute-force oracle, and the geocoding
kernel's numba and numpy paths against each other."""

import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tastemap import _kernels
from tastemap.errors import UndefinedSimilarity
from tastemap.simnet import jaccard_score


def random_rings(rng, n_countries=6):
    xs, ys, codes, boxes = [], [], [], []
    for c in range(n_countries):
        cx, cy = rng.uniform(-50, 50), rng.uniform(-30, 30)
        ang = np.linspace(0, 2 * np.pi, 9, endpoint=False)
        radius = rng.uniform(3.0, 9.0)
        rx = cx + radius * np.cos(ang)
        ry = cy + radius * np.sin(ang)
        rx, ry = np.append(rx, rx[0]), np.append(ry, ry[0])
        xs.append(rx)
        ys.append(ry)
        codes.append(c)
        boxes.append((rx.min(), ry.min(), rx.max(), ry.max()))
    indptr = np.zeros(n_countries + 1, np.int64)
    np.cumsum([len(r) for r in xs], out=indptr[1:])
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        indptr,
        np.asarray(codes, np.int64),
        np.asarray(boxes, np.float64),
    )


@pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")
class TestPathEquivalence:
    def test_point_in_polygon_paths_agree(self):
        rng = np.random.default_rng(32)
        rings = random_rings(rng)
        px = rng.uniform(-60, 60, 5000)
        py = rng.uniform(-40, 40, 5000)
        a = _kernels.assign_countries_numpy(px, py, *rings)
        b = _kernels.assign_countries_numba(px, py, *rings)
        assert np.array_equal(a, b)


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


def test_env_flag_disables_numba():
    code = (
        "import os; os.environ['TASTEMAP_NUMBA'] = '0'; "
        "from tastemap import _kernels; "
        "print(_kernels.NUMBA_ENABLED)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "TASTEMAP_NUMBA": "0"},
    )
    assert out.stdout.strip() == "False"


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
