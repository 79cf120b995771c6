"""Spatial correlations, temporal curves, spatio-temporal vectors, entropy.

Every per-area product is a reduction of one aggregation, the stack of count
cubes ``prefs.area_cubes`` gives: shape (areas, m subcategories, 2 day groups,
24 hours), weekday before weekend.  Spatial counts sum out day group and
hour; ``temporal_series`` sums one class's rows of one day group into an
hourly curve per area; ``subcategory_entropy`` reduces the spatial counts
over the areas and ``entropy_summary`` summarizes it per class.  The
spatio-temporal signature splits the day into the four 6-hour periods
[0,6), [6,12), [12,18), [18,24): ``period_counts`` reshapes each cube to
(m, 2, 4, 6), sums the last axis and flattens, and ``spatiotemporal_vector``
normalizes the result per area.  That reshape is the layout: the entry for
(subcategory s, weekend w, hour h) sits at ``s*8 + w*4 + h//6``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvtext import write_labelled_rows
from .errors import DataError, UndefinedMetric
from .model import Taxonomy, class_slice
from .prefs import normalized_rows

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
    labels: Sequence[str], rows, taxonomy: Taxonomy, scope: str = "all"
) -> CorrelationMatrix:
    """Pearson correlation between every pair of rows of an area x
    subcategory matrix, such as ``normalized_rows`` gives; ``labels`` names
    the areas in row order.

    ``scope`` restricts the comparison to one class's feature block; "all"
    uses the full rows.  Rows are centred and scaled to unit length, so one
    matrix product gives every pair.  A constant row (``np.ptp == 0``, the
    rule ``pearson`` uses) has no defined correlation: its row and column are
    NaN rather than dropped, so the matrix shape is stable.  The matrix is
    exactly symmetric, bit for bit and NaN included: the lower triangle is a
    copy of the upper one.
    """
    if len(rows) < 2 or len(rows) != len(labels):
        raise DataError("need at least two rows, one per label, to correlate")
    X = np.array(rows if scope == "all" else class_slice(taxonomy, rows, scope), np.float64)
    varies = np.ptp(X, axis=1) > 0
    X -= X.mean(axis=1, keepdims=True)
    X[varies] /= np.linalg.norm(X[varies], axis=1, keepdims=True)
    values = np.clip(X @ X.T, -1.0, 1.0)
    lower = np.tril_indices(len(values), -1)
    values[lower] = values.T[lower]
    np.fill_diagonal(values, 1.0)
    values[~varies] = values[:, ~varies] = np.nan
    return CorrelationMatrix(labels=tuple(labels), values=values, scope=scope)


def write_matrix_csv(matrix: CorrelationMatrix, path: str | Path) -> None:
    """CSV of the matrix: a header row ``area,<labels>``, then one row per
    label.  An undefined (NaN) entry is an empty field, any other the
    ``repr`` of its float.

    The matrix must be exactly symmetric over its labels, NaN and the sign
    of zero included, as ``correlation_matrix`` makes it; anything else is a
    DataError.  Each entry of the upper triangle, diagonal included, is
    formatted once, when its row is written, and its string is kept for the
    mirrored entry of a later row only until that row is written.
    """
    values = matrix.values
    n = len(matrix.labels)
    if values.shape != (n, n) or not (
        np.array_equal(values, values.T, equal_nan=True)
        and np.array_equal(np.signbit(values), np.signbit(values.T))
    ):
        raise DataError(f"correlation matrix {matrix.scope!r} is not symmetric over its labels")
    undefined = np.isnan(values)

    def rows():
        cells = np.empty((n, n), object)
        for i in range(n):
            strings = np.array(list(map(repr, values[i, i:].tolist())), object)
            cells[i, i:] = strings
            cells[i:, i] = strings
            cells[i, undefined[i]] = ""
            yield cells[i].tolist()
            cells[i] = None

    write_labelled_rows(path, ["area", *matrix.labels], matrix.labels, rows())


def _block(taxonomy: Taxonomy, class_id: str, day_group: str) -> tuple[int, int, int]:
    """Subcategory range and day-group index of one class x day-group block."""
    if day_group not in DAY_GROUPS:
        raise DataError(f"day_group must be one of {DAY_GROUPS}")
    return (*taxonomy._range(class_id), DAY_GROUPS.index(day_group))


def temporal_series(
    cubes: np.ndarray, taxonomy: Taxonomy, class_id: str, day_group: str
) -> np.ndarray:
    """Check-ins per local hour of one class and day group, one row per area
    of a stack of count cubes (areas, m, 2, 24), each row divided by its
    busiest hour.  Weekend means Saturday or Sunday.  An empty curve stays
    all-zero."""
    lo, hi, w = _block(taxonomy, class_id, day_group)
    counts = cubes[:, lo:hi, w].sum(axis=1).astype(np.float64)
    peak = counts.max(axis=1, keepdims=True)
    np.divide(counts, peak, out=counts, where=peak > 0)
    return counts


def period_counts(cubes: np.ndarray) -> np.ndarray:
    """Counts per subcategory, day group and 6-hour period of one count cube
    (m, 2, 24) or a stack of them (areas, m, 2, 24), each cube flattened to
    the 8*m spatio-temporal layout."""
    periods = cubes.reshape(*cubes.shape[:-1], PERIODS_PER_DAY, -1).sum(axis=-1)
    return periods.reshape(*cubes.shape[:-3], -1)


def spatiotemporal_vector(cubes: np.ndarray, area_ids: Sequence[str]) -> np.ndarray:
    """The 8*m-dimensional signature of each area of a stack of count cubes
    (808 for the m=101 taxonomy), one row per area of ``area_ids``.

    A single maximum normalizes each area's whole flattened vector,
    mirroring the spatial rule on the enlarged feature set.
    """
    return normalized_rows(period_counts(cubes), area_ids)


def class_period_indices(taxonomy: Taxonomy, class_id: str, day_group: str) -> np.ndarray:
    """Positions of one class x day-group block inside the flattened layout
    (all four periods, every subcategory of the class)."""
    lo, hi, w = _block(taxonomy, class_id, day_group)
    layout = np.arange(taxonomy.m * SLOTS_PER_SUBCATEGORY).reshape(taxonomy.m, -1, PERIODS_PER_DAY)
    return layout[lo:hi, w].ravel()


def subcategory_entropy(counts: np.ndarray) -> list[float | None]:
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


@dataclass(frozen=True)
class EntropySummary:
    class_id: str
    level: str
    n_subcategories: int
    mean: float | None
    sigma: float | None


def entropy_summary(
    taxonomy: Taxonomy, level: str, entropies: Sequence[float | None]
) -> list[EntropySummary]:
    """Mean and population standard deviation, per class, of the defined
    entries of ``subcategory_entropy``, at the granularity ``level`` names."""
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
