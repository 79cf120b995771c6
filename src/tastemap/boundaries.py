"""Dimensionality reduction, cosine k-means and survey rank comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Hashable, Mapping, Sequence

import numpy as np

from .errors import DataError, UndefinedMetric

_EIG_ZERO_REL = 1e-12


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean, orthonormal components (rows, descending eigenvalue order),
    eigenvalues and explained-variance ratios of a fitted decomposition."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray
    ratios: np.ndarray

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (np.asarray(data, np.float64) - self.mean) @ self.components.T

    def reconstruct(self, scores: np.ndarray) -> np.ndarray:
        return np.asarray(scores, np.float64) @ self.components + self.mean


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
    ratios = w / w.sum()
    return PcaModel(mean=mean, components=components, eigenvalues=w, ratios=ratios)


def select_components(model: PcaModel, coverage: float = 1.0) -> int:
    """Smallest component count whose cumulative variance ratio reaches
    ``coverage`` (within 1e-9); eigenvalues below 1e-12 of the largest are
    treated as exactly zero first."""
    ev = model.eigenvalues.copy()
    ev[ev < ev[0] * _EIG_ZERO_REL] = 0.0
    ratios = ev / ev.sum()
    cumulative = np.cumsum(ratios)
    hit = np.nonzero(cumulative >= coverage - 1e-9)[0]
    return int(hit[0]) + 1 if hit.size else len(ev)


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


def _kmeans_once(unit: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    n = unit.shape[0]
    centroids = _kmeanspp(unit, k, rng)
    prev = None
    history: list[float] = []
    iterations = 0
    labels = np.zeros(n, np.int64)
    for iterations in range(1, max_iter + 1):
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

        history.append(float((1.0 - (unit @ centroids.T)[np.arange(n), labels]).sum()))
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
    max_iter: int = 300,
) -> ClusterReport:
    """Spherical k-means: unit-normalized rows, distance 1 - cosine,
    centroids renormalized means, k-means++ seeding, best of ``n_restarts``.

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
        labels, centroids, objective, iterations, history = _kmeans_once(unit, k, rng, max_iter)
        if best is None or objective < best[0]:
            best = (objective, labels, centroids, iterations, history)
    objective, labels, centroids, iterations, history = best
    if len(np.unique(labels)) < k:
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


def rank_by_cosine(target: str, vectors: Mapping[str, np.ndarray]) -> list[str]:
    """All other areas ordered by descending cosine similarity to the target;
    exact ties order by area id."""
    if target not in vectors:
        raise DataError(f"target {target!r} not among the vectors")
    arrs = {a: np.asarray(v, np.float64) for a, v in vectors.items()}
    dims = {v.shape for v in arrs.values()}
    if len(dims) != 1:
        raise DataError("vectors must share one dimension")
    for a, v in arrs.items():
        if np.linalg.norm(v) == 0:
            raise DataError(f"vector for {a!r} has zero length")
    t = arrs[target] / np.linalg.norm(arrs[target])
    cos = {
        a: float(t @ (v / np.linalg.norm(v))) for a, v in arrs.items() if a != target
    }
    return sorted(cos, key=lambda a: (-cos[a], a))


def spearman(
    rank_a: Sequence[Hashable], rank_b: Sequence[Hashable], method: str = "t"
) -> tuple[float, float]:
    """Rank correlation of two orderings of the same items, with a two-sided
    p-value.

    rho is the Pearson correlation of rank positions (the inputs are tie-free
    orderings).  The default p-value uses the t approximation
    t = rho * sqrt((n-2)/(1-rho^2)) with n-2 degrees of freedom; |rho| = 1 is
    reported with the exact permutation bound 2/n!.  ``method="exact"``
    enumerates all permutations (n <= 8 only).
    """
    a = list(rank_a)
    b = list(rank_b)
    n = len(a)
    if n < 3:
        raise DataError("rank correlation needs at least three items")
    if len(set(a)) != n or len(set(b)) != n or set(a) != set(b):
        raise DataError("inputs must be orderings of one common item set")
    pos_b = {item: i for i, item in enumerate(b)}
    x = np.arange(n, dtype=np.float64)
    y = np.fromiter((pos_b[item] for item in a), np.float64, n)
    xc = x - x.mean()
    yc = y - y.mean()
    rho = float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))
    rho = min(1.0, max(-1.0, rho))

    if method == "exact":
        if n > 8:
            raise DataError("exact permutation p-value is limited to n <= 8")
        hits = 0
        count = 0
        base = np.arange(n, dtype=np.float64)
        bc = base - base.mean()
        denom = float(bc @ bc)
        for perm in permutations(range(n)):
            r = float(bc @ (np.asarray(perm, np.float64) - base.mean())) / denom
            if abs(r) >= abs(rho) - 1e-12:
                hits += 1
            count += 1
        return rho, hits / count
    if method != "t":
        raise DataError(f"unknown p-value method: {method!r}")

    if abs(rho) >= 1.0 - 1e-15:
        return rho, min(1.0, 2.0 / math.factorial(n))
    # Imported here: scipy.special costs every other command a quarter second.
    from scipy.special import stdtr

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, min(1.0, p)


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
    our_vectors: Mapping[str, np.ndarray],
    survey_coords: Mapping[str, np.ndarray],
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
    ours = {c: np.asarray(our_vectors[c], np.float64) for c in countries}
    survey = {c: np.asarray(survey_coords[c], np.float64) for c in countries}
    out = []
    for c in countries:
        rank_ours = rank_by_cosine(c, ours)
        rank_survey = rank_by_cosine(c, survey)
        rho, p = spearman(rank_survey, rank_ours)
        out.append(
            RankComparison(
                country=c,
                rank_survey=tuple(rank_survey),
                rank_ours=tuple(rank_ours),
                rho=rho,
                p_value=p,
                significant=p < 0.05,
            )
        )
    return out
