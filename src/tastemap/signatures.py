"""Spatial correlations, temporal curves, spatio-temporal vectors, entropy.

Every per-area product is a reduction of one aggregation, the stack of count
cubes ``prefs.area_cubes`` gives: shape (areas, m subcategories, 2 day groups,
24 hours), weekday before weekend.  Spatial counts sum out day group and
hour; a class scope is the class's ``Taxonomy.block`` of subcategories;
``temporal_series`` sums one class's rows of one day group into an hourly
curve per area; ``subcategory_entropy`` reduces the spatial counts
over the areas and ``entropy_summary`` summarizes it per class.  The
spatio-temporal signature splits the day into the four 6-hour periods
[0,6), [6,12), [12,18), [18,24): ``period_counts`` reshapes each cube to
(m, 2, 4, 6), sums the last axis and flattens, and ``spatiotemporal_vector``
normalizes the result per area.  That reshape is the layout: the entry for
(subcategory s, weekend w, hour h) sits at ``s*8 + w*4 + h//6``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvtext import write_labelled_rows
from .errors import DataError, UndefinedMetric
from .model import Taxonomy
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


def correlation_matrix(rows, taxonomy: Taxonomy, scope: str = "all") -> np.ndarray:
    """Pearson correlation between every pair of rows of an area x
    subcategory matrix, such as ``normalized_rows`` gives.

    ``scope`` restricts the comparison to one class's feature block
    (``Taxonomy.block``), whose rows must then be ``taxonomy.m`` wide; "all"
    uses the full rows.  Rows are centred and scaled to unit length, so one
    matrix product gives every pair.  A constant row (``np.ptp == 0``, the
    rule ``pearson`` uses) has no defined correlation: its row and column are
    NaN rather than dropped, so the matrix shape is stable.  The matrix is
    exactly symmetric, bit for bit and NaN included: the lower triangle is a
    copy of the upper one.
    """
    if len(rows) < 2:
        raise DataError("need at least two rows to correlate")
    if scope != "all":
        block, rows = taxonomy.block(scope), np.asarray(rows)
        if rows.shape[-1] != taxonomy.m:
            raise DataError(f"vector length {rows.shape[-1]} does not match taxonomy size "
                            f"{taxonomy.m}")
        rows = rows[..., block]
    X = np.array(rows, np.float64)
    varies = np.ptp(X, axis=1) > 0
    X -= X.mean(axis=1, keepdims=True)
    X[varies] /= np.linalg.norm(X[varies], axis=1, keepdims=True)
    values = X @ X.T
    np.clip(values, -1.0, 1.0, out=values)
    # Row by row, so no index array or copy of the matrix is made.
    for i in range(len(values) - 1):
        values[i + 1:, i] = values[i, i + 1:]
    np.fill_diagonal(values, 1.0)
    values[~varies] = values[:, ~varies] = np.nan
    return values


def write_matrix_csv(labels: Sequence[str], values: np.ndarray, path: str | Path) -> None:
    """CSV of a matrix over ``labels``: a header row ``area,<labels>``, then
    one row per label.  An undefined (NaN) entry is an empty field, any other
    the ``repr`` of its float.

    The matrix must be exactly symmetric over its labels, NaN and the sign
    of zero included, as ``correlation_matrix`` makes it; anything else is a
    DataError.  Each entry of the upper triangle, diagonal included, is
    formatted once, when its row is written; row i queues the strings it
    owes to later rows, and row j takes the head of every earlier queue.
    """
    n = len(labels)
    if values.shape != (n, n) or not (
        np.array_equal(values, values.T, equal_nan=True)
        and np.array_equal(np.signbit(values), np.signbit(values.T))
    ):
        raise DataError("correlation matrix is not symmetric over its labels")

    def rows():
        owed: list[deque[str]] = []
        for i in range(n):
            strings = list(map(repr, values[i, i:].tolist()))
            for j in np.flatnonzero(np.isnan(values[i, i:])).tolist():
                strings[j] = ""
            yield [*map(deque.popleft, owed), *strings]
            owed.append(deque(strings[1:]))

    write_labelled_rows(path, ["area", *labels], labels, rows())


def _day_group_index(day_group: str) -> int:
    """Position of ``day_group`` on the day-group axis of a count cube."""
    if day_group not in DAY_GROUPS:
        raise DataError(f"day_group must be one of {DAY_GROUPS}")
    return DAY_GROUPS.index(day_group)


def temporal_series(
    cubes: np.ndarray, taxonomy: Taxonomy, class_id: str, day_group: str
) -> np.ndarray:
    """Check-ins per local hour of one class and day group, one row per area
    of a stack of count cubes (areas, m, 2, 24), each row divided by its
    busiest hour.  Weekend means Saturday or Sunday.  An empty curve stays
    all-zero."""
    w = _day_group_index(day_group)
    counts = cubes[:, taxonomy.block(class_id), w].sum(axis=1).astype(np.float64)
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
    w = _day_group_index(day_group)
    layout = np.arange(taxonomy.m * SLOTS_PER_SUBCATEGORY).reshape(taxonomy.m, -1, PERIODS_PER_DAY)
    return layout[taxonomy.block(class_id), w].ravel()


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
        defined = np.array([h for h in entropies[taxonomy.block(class_id)] if h is not None])
        stats = (float(defined.mean()), float(defined.std())) if defined.size else (None, None)
        rows.append(EntropySummary(class_id, level, defined.size, *stats))
    return rows
