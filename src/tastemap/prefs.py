"""Per-user binary preference vectors and per-area normalized signatures."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, EmptyAreaError
from .ingest import Corpus, area_mask
from .model import Area, AreaSignature, CheckIn, Taxonomy, UserProfile


def binary_profile(
    checkins: Iterable[CheckIn],
    taxonomy: Taxonomy,
    home_country: str | None = None,
    binary: bool = True,
) -> UserProfile:
    """Build one user's preference vector from their check-ins.

    Binary mode sets bit i to 1 when the user checked in at subcategory i at
    least once; intensity mode keeps raw counts instead.
    """
    checkins = list(checkins)
    if not checkins:
        raise DataError("cannot build a profile from zero check-ins")
    users = {c.user_id for c in checkins}
    if len(users) != 1:
        raise DataError(f"check-ins span {len(users)} users, expected exactly one")
    counts = np.zeros(taxonomy.m, np.int64)
    for c in checkins:
        counts[taxonomy.index_of(c.subcategory)] += 1
    bits = (counts > 0).astype(np.uint8) if binary else counts
    return UserProfile(
        user_id=checkins[0].user_id,
        bits=bits,
        checkin_count=len(checkins),
        home_country=home_country,
    )


def build_profiles(
    corpus: Corpus,
    home: Mapping[str, str] | None = None,
    binary: bool = True,
) -> list[UserProfile]:
    """Profiles for every user in the corpus, ordered by user id."""
    n, m = corpus.n_users, corpus.taxonomy.m
    if binary:
        mat = np.zeros((n, m), np.uint8)
        mat[corpus.user_idx, corpus.subcat_idx] = 1
    else:
        mat = np.zeros((n, m), np.int64)
        np.add.at(mat, (corpus.user_idx, corpus.subcat_idx), 1)
    counts = np.bincount(corpus.user_idx, minlength=n)
    return [
        UserProfile(
            user_id=u,
            bits=mat[i],
            checkin_count=int(counts[i]),
            home_country=home.get(u) if home else None,
        )
        for i, u in enumerate(corpus.user_ids)
    ]


def area_cube(
    corpus: Corpus, area: Area, checkin_countries: np.ndarray | None = None
) -> np.ndarray:
    """Check-in counts inside one area by subcategory, day group (0 weekday,
    1 weekend) and local hour, as int64[m, 2, 24].  This is the one place
    where check-ins become per-area counts; every per-area product is a
    reduction of it."""
    m = corpus.taxonomy.m
    mask = area_mask(corpus, area, checkin_countries)
    cell = (corpus.subcat_idx[mask] * 2 + corpus.is_weekend[mask]) * 24 + corpus.hour[mask]
    return np.bincount(cell, minlength=m * 48).astype(np.int64).reshape(m, 2, 24)


def region_counts(
    corpus: Corpus, area: Area, checkin_countries: np.ndarray | None = None
) -> np.ndarray:
    """Check-in count per subcategory inside one area."""
    return area_cube(corpus, area, checkin_countries).sum(axis=(1, 2))


def area_counts_matrix(
    corpus: Corpus, areas: Sequence[Area], checkin_countries: np.ndarray | None = None
) -> np.ndarray:
    """Stacked region_counts rows, one per area."""
    out = np.zeros((len(areas), corpus.taxonomy.m), np.int64)
    for i, area in enumerate(areas):
        out[i] = region_counts(corpus, area, checkin_countries)
    return out


def region_profile(counts: np.ndarray, area_id: str = "", variant: str | None = None) -> AreaSignature:
    """Normalize a count vector by its maximum entry.

    Raises EmptyAreaError on an all-zero vector: an area without check-ins
    has no signature and must be excluded downstream, not imputed.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1:
        raise DataError("count vector must be one-dimensional")
    if (counts < 0).any():
        raise DataError("counts must be nonnegative")
    peak = counts.max() if counts.size else 0
    if peak == 0:
        raise EmptyAreaError(f"area {area_id!r} has no check-ins")
    return AreaSignature(
        area_id=area_id,
        raw_counts=counts.astype(np.int64),
        normalized=counts / float(peak),
        variant=variant or f"spatial_{counts.size}",
    )


def profiles_to_csv(profiles: Sequence[UserProfile], taxonomy: Taxonomy, path: str | Path) -> None:
    """One row per user; header is the subcategory names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", *taxonomy.subcategories])
        for p in profiles:
            writer.writerow([p.user_id, *map(int, p.bits)])


def signatures_to_csv(
    signatures: Sequence[AreaSignature], header: Sequence[str], path: str | Path
) -> None:
    """One row per area; header names the feature columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *header])
        for sig in signatures:
            writer.writerow([sig.area_id, *(repr(float(v)) for v in sig.normalized)])
