"""Dimensionality reduction, cosine k-means and survey rank comparison."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import DataError, UndefinedMetric

_EIG_ZERO_REL = 1e-12
_MAX_ITER = 300  # k-means iterations per restart


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean, orthonormal components (rows, descending eigenvalue order) and
    eigenvalues of a fitted decomposition."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray


def fit_pca(data) -> PcaModel:
    """Exact PCA via symmetric eigendecomposition of the covariance matrix.

    When there are fewer rows than columns the n x n Gram matrix is
    decomposed instead of the d x d covariance; the nonzero spectrum is the
    same and the memory stays proportional to the small side.
    """
    X = np.asarray(data, np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError("PCA needs a 2-D matrix with at least two rows")
    if not np.isfinite(X).all():
        raise DataError("PCA input contains non-finite entries")
    n, d = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean

    if n < d:
        gram = (Xc @ Xc.T) / (n - 1)
        w, U = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        U = U[:, order]
        total = float(w.sum())
        if total <= 0.0:
            raise DataError("input has no variance")
        keep = w > w[0] * 1e-15
        w = w[keep]
        U = U[:, keep]
        components = (Xc.T @ U) / np.sqrt(w * (n - 1))
        components = components.T
    else:
        cov = (Xc.T @ Xc) / (n - 1)
        w, V = np.linalg.eigh(cov)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        components = V[:, order].T
        total = float(w.sum())
        if total <= 0.0:
            raise DataError("input has no variance")

    # Fix each component's sign so results do not depend on LAPACK internals.
    flip = components[np.arange(components.shape[0]), np.abs(components).argmax(axis=1)] < 0
    components[flip] *= -1.0
    return PcaModel(mean=mean, components=components, eigenvalues=w)


def pca_scores(data, coverage: float = 1.0) -> np.ndarray:
    """The rows of ``data``, centred and projected on the fewest leading
    components of ``fit_pca`` whose cumulative variance ratio reaches
    ``coverage`` (within 1e-9); eigenvalues below 1e-12 of the largest count
    as exactly zero first.  ``coverage`` must lie in (0, 1]."""
    if not 0.0 < coverage <= 1.0:
        raise DataError(f"coverage must lie in (0, 1], got {coverage:g}")
    model = fit_pca(data)
    ev = model.eigenvalues.copy()
    ev[ev < ev[0] * _EIG_ZERO_REL] = 0.0
    hit = np.nonzero(np.cumsum(ev / ev.sum()) >= coverage - 1e-9)[0]
    p = int(hit[0]) + 1 if hit.size else len(ev)
    return ((np.asarray(data, np.float64) - model.mean) @ model.components.T)[:, :p]


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Result of one spherical k-means run (best of all restarts)."""

    k: int
    seed: int
    area_ids: tuple[str, ...]
    assignments: Mapping[str, int]
    centroids: np.ndarray
    objective: float
    iterations: int
    restarts: int
    objective_history: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "objective": self.objective,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "assignments": {a: int(c) for a, c in sorted(self.assignments.items())},
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "objective_history": list(self.objective_history),
        }


def _kmeanspp(unit: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = unit.shape[0]
    chosen = [int(rng.integers(n))]
    dist = np.clip(1.0 - unit @ unit[chosen[0]], 0.0, None)
    for _ in range(1, k):
        weights = dist * dist
        total = weights.sum()
        if total <= 0.0:
            remaining = [i for i in range(n) if i not in set(chosen)]
            pick = remaining[0]
        else:
            pick = int(rng.choice(n, p=weights / total))
        chosen.append(pick)
        dist = np.minimum(dist, np.clip(1.0 - unit @ unit[pick], 0.0, None))
    return unit[chosen].copy()


def _kmeans_once(unit: np.ndarray, k: int, rng: np.random.Generator):
    n = unit.shape[0]
    centroids = _kmeanspp(unit, k, rng)
    prev = None
    history: list[float] = []
    iterations = 0
    labels = np.zeros(n, np.int64)
    for iterations in range(1, _MAX_ITER + 1):
        sims = unit @ centroids.T
        labels = sims.argmax(axis=1)  # ties resolve to the lowest cluster index

        # Repair empty clusters by stealing the point farthest from its centroid.
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            assigned_dist = 1.0 - sims[np.arange(n), labels]
            for c in np.nonzero(counts == 0)[0]:
                far = int(assigned_dist.argmax())
                labels[far] = c
                assigned_dist[far] = -1.0

        history.append(float((1.0 - sims[np.arange(n), labels]).sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels.copy()
        for c in range(k):
            members = unit[labels == c]
            if not len(members):
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[c] = mean / norm
    objective = float((1.0 - (unit @ centroids.T)[np.arange(n), labels]).sum())
    return labels, centroids, objective, iterations, tuple(history)


def kmeans_cosine(
    scores: np.ndarray,
    k: int,
    seed: int,
    area_ids: Sequence[str] | None = None,
    n_restarts: int = 10,
) -> ClusterReport:
    """Spherical k-means: unit-normalized rows, distance 1 - cosine,
    centroids renormalized means, k-means++ seeding, at most ``_MAX_ITER``
    iterations per restart, best of ``n_restarts``.

    Fully deterministic for a given (input, seed): restart r draws from an
    independent stream keyed by (seed, r) and ties keep the earlier restart.
    Raises UndefinedMetric when the best restart still leaves a cluster
    empty, which happens when the rows have too few distinct directions.
    """
    X = np.asarray(scores, np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("scores must be a nonempty 2-D matrix")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"k={k} must lie in [1, {n}]")
    if seed < 0:
        raise DataError("seed must be nonnegative")
    if n_restarts < 1:
        raise DataError(f"n_restarts={n_restarts} must be at least 1")
    norms = np.linalg.norm(X, axis=1)
    if (norms == 0).any():
        raise DataError("zero-length rows have no direction; drop them first")
    unit = X / norms[:, None]
    if area_ids is None:
        area_ids = [str(i) for i in range(n)]
    elif len(area_ids) != n:
        raise DataError("area_ids length must match the row count")

    best = None
    for r in range(n_restarts):
        rng = np.random.default_rng([seed, r])
        labels, centroids, objective, iterations, history = _kmeans_once(unit, k, rng)
        if best is None or objective < best[0]:
            best = (objective, labels, centroids, iterations, history)
    objective, labels, centroids, iterations, history = best
    if np.count_nonzero(np.bincount(labels)) < k:  # np.unique would import numpy.ma
        raise UndefinedMetric(f"the rows have too few distinct directions for k={k} clusters")
    return ClusterReport(
        k=k,
        seed=seed,
        area_ids=tuple(area_ids),
        assignments={a: int(c) for a, c in zip(area_ids, labels)},
        centroids=centroids,
        objective=objective,
        iterations=iterations,
        restarts=n_restarts,
        objective_history=history,
    )


def centered_rows(data) -> list[list[int]]:
    """The rows of ``data`` less their mean, exactly, scaled by one positive
    factor to integers: n x_i - sum_j x_j over the floats' exact values,
    times the power of two that clears every denominator.  Full-coverage
    ``pca_scores`` only rotates the centered rows, so cosines between these
    are the cosines between PCA scores without their rounding: two rows
    that mirror each other keep their exact tie."""
    ratios = [[x.as_integer_ratio() for x in row] for row in np.asarray(data, np.float64).tolist()]
    shift = max(q.bit_length() for row in ratios for _, q in row) - 1
    ints = [[p << (shift - q.bit_length() + 1) for p, q in row] for row in ratios]
    sums = [sum(col) for col in zip(*ints)]
    return [[len(ints) * x - s for x, s in zip(row, sums)] for row in ints]


def _exact_values(area: str, vector: Sequence) -> list[int | Fraction]:
    """The entries' exact values: an integer entry is itself
    (``operator.index``), any other the decimal its float prints as
    (``repr``), so 0.2,0.4 and 0.3,0.6 are proportional.  No entry passes
    through a numpy dtype, which would round 64-bit integers."""
    values: list[int | Fraction] = []
    for x in vector:
        try:
            values.append(operator.index(x))
        except TypeError:
            f = float(x)
            if not math.isfinite(f):
                raise DataError(f"vector for {area!r} has non-finite entries") from None
            values.append(Fraction(repr(f)))
    if not any(values):
        raise DataError(f"vector for {area!r} has zero length")
    return values


def cosine_rankings(vectors: Mapping[str, Sequence]) -> dict[str, list[str]]:
    """For each area, all other areas ordered by descending cosine similarity
    to it; exact ties order by area id.

    Every comparison is exact: each dot product of the space is computed
    once over the values of ``_exact_values``, and the others of target t
    are ordered by sign(t.v) (t.v)^2 / |v|^2 in rationals, which orders
    like cos(t, v) and does not change when a vector is scaled.
    """
    ids = list(vectors)
    rows = [_exact_values(a, vectors[a]) for a in ids]
    if len({len(row) for row in rows}) > 1:
        raise DataError("vectors must share one dimension")
    gram = [[0] * len(rows) for _ in rows]
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, u, rows[j]))
    out = {}
    for i, target in enumerate(ids):
        keys = {a: Fraction(-g * abs(g), gram[j][j])
                for j, (a, g) in enumerate(zip(ids, gram[i])) if j != i}
        out[target] = sorted(keys, key=lambda a: (keys[a], a))
    return out


def _t_two_sided(t: float, nu: int) -> float:
    """P(|T| >= |t|) for Student's t with ``nu`` (a whole number >= 1)
    degrees of freedom: the regularized incomplete beta I_x(nu/2, 1/2) at
    x = nu/(nu+t^2).

    For |t| <= 2 it is 1 - A(t|nu) from the finite sums of Abramowitz &
    Stegun 26.7.3 (odd nu) and 26.7.4 (even nu), the branch Cephes ``stdtr``
    takes there; p >= 0.045, so the subtraction costs a few tens of ulps at
    most.  Beyond, it is the power series
    x^a / B(a, 1/2) * sum_k (1/2)_k x^k / (k! (a+k)), a = nu/2, whose terms
    are all positive; 1/B(a, 1/2) = Gamma(a+1/2) / (Gamma(a) sqrt(pi)) comes
    from its recurrence in a, starting at 1/pi (a = 1/2) or 1/2 (a = 1).
    """
    t2 = t * t
    x = nu / (nu + t2)
    odd = nu % 2 == 1
    if t2 <= 4.0:
        # sum_j c_j cos^2j(theta) by Horner, cos^2(theta) = x, with term ratios
        # 2j/(2j+1) for odd nu and (2j-1)/(2j) for even nu.
        s = 1.0
        for j in range((nu - 3) // 2 if odd else (nu - 2) // 2, 0, -1):
            s = 1.0 + s * x * ((2 * j) / (2 * j + 1) if odd else (2 * j - 1) / (2 * j))
        sin = math.sqrt(t2 / (nu + t2))
        if not odd:
            return 1.0 - sin * s
        theta = math.atan2(abs(t), math.sqrt(nu))
        return 1.0 - 2.0 / math.pi * (theta + (sin * math.sqrt(x) * s if nu > 1 else 0.0))

    a = 0.5 * nu
    inv_beta, b = (1.0 / math.pi, 0.5) if odd else (0.5, 1.0)
    while b < a:
        inv_beta *= (b + 0.5) / b
        b += 1.0
    # The terms fall by a ratio below x, so once one is under
    # total * eps * (1 - x) the rest cannot reach total * eps.
    stop = 2.0**-53 * (1.0 - x)
    total = 1.0 / a
    coef = 1.0
    k = 0
    while True:
        k += 1
        coef *= x * (k - 0.5) / k
        term = coef / (a + k)
        total += term
        if term <= total * stop:
            return math.pow(x, a) * inv_beta * total


def spearman(rank_a: Sequence[Hashable], rank_b: Sequence[Hashable]) -> tuple[float, float]:
    """Rank correlation of two orderings of the same items, with a two-sided
    p-value.

    rho is 1 - 6 sum(d^2) / (n^3 - n) over the rank-position differences d
    (the inputs are tie-free orderings), rounded once.  The p-value uses the
    t approximation t = rho * sqrt((n-2)/(1-rho^2)) with n-2 degrees of
    freedom; |rho| = 1 (below n = 600,000, only equal or reversed orderings)
    is reported with the exact permutation bound 2/n!, rounded once (0.0
    from n = 200 on).
    """
    a = list(rank_a)
    b = list(rank_b)
    n = len(a)
    if n < 3:
        raise DataError("rank correlation needs at least three items")
    if len(set(a)) != n or len(set(b)) != n or set(a) != set(b):
        raise DataError("inputs must be orderings of one common item set")
    pos_b = {item: i for i, item in enumerate(b)}
    d2 = sum((i - pos_b[item]) ** 2 for i, item in enumerate(a))
    rho = float(1 - Fraction(6 * d2, n**3 - n))
    if abs(rho) == 1.0:
        return rho, float(Fraction(2, math.factorial(n)))
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return rho, min(1.0, _t_two_sided(t, n - 2))


@dataclass(frozen=True)
class RankComparison:
    """Agreement between a survey-based and a check-in-based similarity
    ranking of the other countries, seen from one target country."""

    country: str
    rank_survey: tuple[str, ...]
    rank_ours: tuple[str, ...]
    rho: float
    p_value: float
    significant: bool


def compare_with_survey(
    our_vectors: Mapping[str, Sequence],
    survey_coords: Mapping[str, Sequence],
    countries: Sequence[str],
) -> list[RankComparison]:
    """For each country, rank all others by cosine similarity in both spaces
    and correlate the two rankings; rows with p < 0.05 are flagged."""
    if len(countries) < 4:
        raise DataError("need at least four countries (three per ranking)")
    for c in countries:
        if c not in our_vectors:
            raise DataError(f"country {c!r} missing from the check-in vectors")
        if c not in survey_coords:
            raise DataError(f"country {c!r} missing from the survey coordinates")
    ours = cosine_rankings({c: our_vectors[c] for c in countries})
    survey = cosine_rankings({c: survey_coords[c] for c in countries})
    out = []
    for c in countries:
        rho, p = spearman(survey[c], ours[c])
        out.append(
            RankComparison(
                country=c,
                rank_survey=tuple(survey[c]),
                rank_ours=tuple(ours[c]),
                rho=rho,
                p_value=p,
                significant=p < 0.05,
            )
        )
    return out
