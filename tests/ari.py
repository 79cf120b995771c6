"""The adjusted Rand index, the agreement measure the clustering recovery
tests score predicted labels with."""

from typing import Mapping

import numpy as np

from tastemap.errors import DataError


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of one item set.

    Accepts mappings (item -> label) or two aligned sequences.  Invariant to
    relabeling of cluster ids.
    """
    if isinstance(labels_a, Mapping) or isinstance(labels_b, Mapping):
        if not (isinstance(labels_a, Mapping) and isinstance(labels_b, Mapping)):
            raise DataError("pass two mappings or two sequences, not a mix")
        if set(labels_a) != set(labels_b):
            raise DataError("labelings cover different item sets")
        items = sorted(labels_a)
        a = [labels_a[i] for i in items]
        b = [labels_b[i] for i in items]
    else:
        a = list(labels_a)
        b = list(labels_b)
        if len(a) != len(b):
            raise DataError("labelings cover different item counts")
    n = len(a)
    if n == 0:
        raise DataError("cannot score empty labelings")

    levels_a = {v: i for i, v in enumerate(dict.fromkeys(a))}
    levels_b = {v: i for i, v in enumerate(dict.fromkeys(b))}
    table = np.zeros((len(levels_a), len(levels_b)), np.int64)
    for va, vb in zip(a, b):
        table[levels_a[va], levels_b[vb]] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.int64(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))
