"""Spatial correlations, temporal curves, spatio-temporal vectors, entropy.

Every per-area product is a reduction of one aggregation, the area's count
cube ``prefs.area_cube`` of shape (m subcategories, 2 day groups, 24 hours),
weekday before weekend.  Spatial counts sum out day group and hour; an hourly
curve sums one class's rows of one day group; entropy reduces the stacked
spatial counts of the areas.  The spatio-temporal signature splits the day
into the four 6-hour periods [0,6), [6,12), [12,18), [18,24): it is the cube
reshaped to (m, 2, 4, 6), summed over the last axis and flattened.  That
reshape is the layout: the entry for (subcategory s, weekend w, hour h) sits
at ``s*8 + w*4 + h//6``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, UndefinedMetric
from .ingest import Corpus
from .model import Area, AreaSignature, Taxonomy, class_slice
from .prefs import area_counts_matrix, area_cube, region_profile

DAY_GROUPS = ("weekday", "weekend")
PERIODS_PER_DAY = 4
SLOTS_PER_SUBCATEGORY = PERIODS_PER_DAY * len(DAY_GROUPS)


def pearson(x, y) -> float:
    """Product-moment correlation; undefined when either input is constant."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("inputs must be equal-length vectors")
    if x.size < 2:
        raise DataError("correlation needs at least two observations")
    # Constancy is tested on the data, not on the centred sums: x - x.mean()
    # is not exactly zero when the mean is not exactly representable.
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise UndefinedMetric("constant vector has no defined correlation")
    xc = x - x.mean()
    yc = y - y.mean()
    r = float(xc @ yc) / np.sqrt(float(xc @ xc) * float(yc @ yc))
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Pairwise area correlations; entries are NaN where undefined."""

    labels: tuple[str, ...]
    values: np.ndarray
    scope: str


def correlation_matrix(
    signatures: Sequence[AreaSignature], taxonomy: Taxonomy, scope: str = "all"
) -> CorrelationMatrix:
    """Pearson correlation between every pair of area signatures.

    ``scope`` restricts the comparison to one class's feature block; "all"
    uses the full vector.  Rows are centred and scaled to unit length, so one
    matrix product gives every pair.  A constant row (``np.ptp == 0``, the
    rule ``pearson`` uses) has no defined correlation: its row and column are
    NaN rather than dropped, so the matrix shape is stable.
    """
    if len(signatures) < 2:
        raise DataError("need at least two signatures to correlate")
    X = np.array([sig.normalized if scope == "all" else class_slice(taxonomy, sig, scope)
                  for sig in signatures], np.float64)
    varies = np.ptp(X, axis=1) > 0
    X -= X.mean(axis=1, keepdims=True)
    X[varies] /= np.linalg.norm(X[varies], axis=1, keepdims=True)
    values = np.clip(X @ X.T, -1.0, 1.0)
    np.fill_diagonal(values, 1.0)
    values[~varies] = values[:, ~varies] = np.nan
    return CorrelationMatrix(
        labels=tuple(sig.area_id for sig in signatures), values=values, scope=scope
    )


def write_matrix_csv(matrix: CorrelationMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *matrix.labels])
        for label, row in zip(matrix.labels, matrix.values):
            writer.writerow([label, *("" if np.isnan(v) else repr(float(v)) for v in row)])


def _block(taxonomy: Taxonomy, class_id: str, day_group: str) -> tuple[int, int, int]:
    """Subcategory range and day-group index of one class x day-group block."""
    if day_group not in DAY_GROUPS:
        raise DataError(f"day_group must be one of {DAY_GROUPS}")
    lo, hi = taxonomy.class_ranges.get(class_id, (None, None))
    if lo is None:
        raise DataError(f"unknown class id: {class_id!r}")
    return lo, hi, DAY_GROUPS.index(day_group)


@dataclass(frozen=True, eq=False)
class TemporalSeries:
    """Hourly check-in curve for one (area, class, day group), peak-normalized."""

    area_id: str
    class_id: str
    day_group: str
    bins: np.ndarray


def hourly_curve(cube: np.ndarray, taxonomy: Taxonomy, class_id: str, day_group: str) -> np.ndarray:
    """Check-ins per local hour of one class and day group in an area's cube,
    divided by the busiest hour.  An empty curve stays all-zero."""
    lo, hi, w = _block(taxonomy, class_id, day_group)
    counts = cube[lo:hi, w].sum(axis=0).astype(np.float64)
    peak = counts.max()
    if peak > 0:
        counts /= peak
    return counts


def temporal_series(
    corpus: Corpus,
    area: Area,
    class_id: str,
    day_group: str,
    checkin_countries: np.ndarray | None = None,
) -> TemporalSeries:
    """Check-ins per local hour, divided by the busiest hour of this series.

    Weekend means Saturday or Sunday.  An empty series stays all-zero.
    """
    bins = hourly_curve(area_cube(corpus, area, checkin_countries), corpus.taxonomy,
                        class_id, day_group)
    return TemporalSeries(area_id=area.area_id, class_id=class_id, day_group=day_group, bins=bins)


def spatiotemporal_index(subcat_index: int, is_weekend: bool, hour: int) -> int:
    """Flat position of one (subcategory, day group, hour) observation."""
    return subcat_index * SLOTS_PER_SUBCATEGORY + (4 if is_weekend else 0) + hour // 6


def spatiotemporal_vector(
    corpus: Corpus, area: Area, checkin_countries: np.ndarray | None = None
) -> AreaSignature:
    """The 8*m-dimensional signature of an area (808 for the m=101 taxonomy).

    A single maximum normalizes the whole flattened vector, mirroring the
    spatial rule on the enlarged feature set.
    """
    cube = area_cube(corpus, area, checkin_countries)
    counts = cube.reshape(len(cube), len(DAY_GROUPS), PERIODS_PER_DAY, -1).sum(axis=3).ravel()
    return region_profile(counts, area.area_id, f"spatiotemporal_{counts.size}")


def class_period_indices(taxonomy: Taxonomy, class_id: str, day_group: str) -> np.ndarray:
    """Positions of one class x day-group block inside the flattened layout
    (all four periods, every subcategory of the class)."""
    lo, hi, w = _block(taxonomy, class_id, day_group)
    layout = np.arange(taxonomy.m * SLOTS_PER_SUBCATEGORY).reshape(taxonomy.m, -1, PERIODS_PER_DAY)
    return layout[lo:hi, w].ravel()


def subcategory_entropies(counts: np.ndarray) -> list[float | None]:
    """Shannon entropy (bits) of each subcategory's check-ins over areas, from
    an area x subcategory count matrix; None where no area has any.

    Low entropy means the subcategory concentrates in few areas; the maximum,
    log2(number of areas with activity), is reached by a uniform spread.
    """
    out: list[float | None] = []
    for column in np.ascontiguousarray(np.asarray(counts).T, np.float64):
        p = column[column > 0] / column.sum()
        out.append(float(-(p * np.log2(p)).sum()) if p.size else None)
    return out


def subcategory_entropy(
    corpus: Corpus,
    subcategory: str,
    areas: Sequence[Area],
    checkin_countries: np.ndarray | None = None,
) -> float:
    """Shannon entropy (bits) of one subcategory's check-ins over areas."""
    i = corpus.taxonomy.index_of(subcategory)
    (h,) = subcategory_entropies(area_counts_matrix(corpus, areas, checkin_countries)[:, [i]])
    if h is None:
        raise UndefinedMetric("no check-ins at this subcategory in any area")
    return h


@dataclass(frozen=True)
class EntropySummary:
    class_id: str
    level: str
    n_subcategories: int
    mean: float | None
    sigma: float | None


def summarize_entropies(
    taxonomy: Taxonomy, level: str, entropies: Sequence[float | None]
) -> list[EntropySummary]:
    """Mean and population standard deviation, per class, of the defined
    entries of ``subcategory_entropies``."""
    rows = []
    for class_id in taxonomy.class_ids:
        lo, hi = taxonomy.class_ranges[class_id]
        defined = [h for h in entropies[lo:hi] if h is not None]
        if defined:
            arr = np.asarray(defined)
            rows.append(
                EntropySummary(class_id, level, len(defined), float(arr.mean()), float(arr.std()))
            )
        else:
            rows.append(EntropySummary(class_id, level, 0, None, None))
    return rows


def entropy_summary(
    corpus: Corpus,
    areas: Sequence[Area],
    checkin_countries: np.ndarray | None = None,
) -> list[EntropySummary]:
    """Mean and population standard deviation of subcategory entropies,
    per class, at the granularity the areas define."""
    if not areas:
        raise DataError("need at least one area")
    entropies = subcategory_entropies(area_counts_matrix(corpus, areas, checkin_countries))
    return summarize_entropies(corpus.taxonomy, areas[0].kind, entropies)
