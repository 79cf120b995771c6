"""Per-user binary preference vectors and per-area normalized count rows."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DataError, EmptyAreaError
from .ingest import Corpus, area_mask
from .model import Area, UserProfile


def build_profiles(corpus: Corpus) -> list[UserProfile]:
    """Binary profiles for every user in the corpus, ordered by user id: bit
    i is 1 when the user checked in at subcategory i at least once.  A
    profile carries the user's home country, None where there is none."""
    n, m = corpus.n_users, corpus.taxonomy.m
    mat = np.zeros((n, m), np.uint8)
    mat[corpus.user_idx, corpus.subcat_idx] = 1
    counts = np.bincount(corpus.user_idx, minlength=n)
    homes = [corpus.countries[c] if c >= 0 else None for c in corpus.user_country.tolist()]
    return [
        UserProfile(user_id=u, bits=mat[i], checkin_count=int(counts[i]), home_country=home)
        for i, (u, home) in enumerate(zip(corpus.user_ids, homes))
    ]


def region_counts(corpus: Corpus, area: Area) -> np.ndarray:
    """Check-in counts inside one area by subcategory, day group (0 weekday,
    1 weekend) and local hour, as int64[m, 2, 24].  This is the one place
    where check-ins become per-area counts; every per-area product is a
    reduction of it.  The slot is floor arithmetic on whole hours h since
    1970-01-01, a Thursday: the hour is ``h % 24``, and the weekend (Saturday,
    Sunday) is where ``(h // 24 + 3) % 7 >= 5``, before 1970 as after."""
    m = corpus.taxonomy.m
    mask = area_mask(corpus, area)
    hours = corpus.ts[mask].view(np.int64) // 3_600_000_000  # ts counts microseconds
    cell = (corpus.subcat_idx[mask] * 2 + ((hours // 24 + 3) % 7 >= 5)) * 24 + hours % 24
    return np.bincount(cell, minlength=m * 48).astype(np.int64).reshape(m, 2, 24)


def area_cubes(corpus: Corpus, areas: Sequence[Area]) -> np.ndarray:
    """Stacked region_counts cubes, one per area, as int64[areas, m, 2, 24]."""
    out = np.zeros((len(areas), corpus.taxonomy.m, 2, 24), np.int64)
    for i, area in enumerate(areas):
        out[i] = region_counts(corpus, area)
    return out


def normalized_rows(counts, area_ids: Sequence[str]) -> np.ndarray:
    """Each row of an area x feature count matrix divided by its maximum, as
    float64, so the largest entry of every row is exactly 1.

    Raises EmptyAreaError naming the first all-zero row: an area without
    check-ins has no signature and must be excluded downstream, not imputed.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or len(counts) != len(area_ids):
        raise DataError("counts must be a matrix with one row per area id")
    if (counts < 0).any():
        raise DataError("counts must be nonnegative")
    peak = counts.max(axis=1, initial=0, keepdims=True)
    empty = np.flatnonzero(peak == 0)
    if empty.size:
        raise EmptyAreaError(f"area {area_ids[empty[0]]!r} has no check-ins")
    return counts / peak.astype(np.float64)
