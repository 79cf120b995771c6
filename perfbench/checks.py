"""Output checks of the pipeline benchmark.

Every expected value is computed here from the generated inputs (raw
corpus, labels, cities, taxonomy file), without calling tastemap, so a
wrong stage output is a failed operation rather than a fast one.  Each
``check_<stage>`` returns a list of problems; an empty list means the
stage's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime
from pathlib import Path

import numpy as np
from scipy import stats

THRESHOLDS = (65, 70, 75, 80, 85, 90, 95, 100)  # the CLI's default ladder
DEFAULT_K = {"country": 7, "grid": 3}
PAIR_BLOCK = 256  # profile rows scored per block by the Jaccard oracle
TOLERANCE = 1e-9
# PCA keeps components until 1 - 1e-9 of the variance is covered, so the
# scores may miss up to that share; they are compared at this share of the
# total variance.
PCA_TOLERANCE = 1e-8
SLOTS = 8  # spatio-temporal slots per subcategory: 2 day groups x 4 six-hour periods
SURVEY_CLASS = "FastFood"  # the survey's dataset2 is this class's weekend slots


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and contents of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _read_taxonomy(path: Path) -> tuple[list[str], dict[str, str]]:
    """Class ids in declared order and the class of each kept subcategory."""
    entries, excluded = [], set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, name = line.partition("\t")
        if head.strip() == "!exclude":
            excluded.add(name.strip())
        else:
            entries.append((head.strip(), name.strip()))
    classes = list(dict.fromkeys(c for c, _ in entries))
    names = {n: c for c, n in entries if n not in excluded}
    ordered = {n: names[n] for c in classes for n in names if names[n] == c}
    return classes, ordered


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _component_count(eigenvalues: np.ndarray) -> int:
    """Components that cover the full variance: eigenvalues (descending)
    below 1e-12 of the largest count as zero, and the count stops once the
    cumulative share reaches 1 - 1e-9."""
    ev = np.where(eigenvalues < eigenvalues[0] * 1e-12, 0.0, eigenvalues)
    return int(np.argmax(np.cumsum(ev / ev.sum()) >= 1.0 - 1e-9)) + 1


def _cosine_ranking(vectors: np.ndarray, target: int) -> list[int]:
    """The other rows by descending cosine to the target row, ties by row."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    cos = unit @ unit[target]
    return sorted((i for i in range(len(vectors)) if i != target), key=lambda i: (-cos[i], i))


def _spearman(rank_a: list[int], rank_b: list[int]) -> tuple[float, float]:
    """Spearman rho of two tie-free orderings, with scipy's two-sided
    p-value; |rho| = 1 takes the exact permutation bound 2/n!."""
    pos_b = {item: i for i, item in enumerate(rank_b)}
    rho, p = stats.spearmanr(np.arange(len(rank_a)), [pos_b[item] for item in rank_a])
    if abs(rho) >= 1.0 - 1e-15:
        p = min(1.0, 2.0 / math.factorial(len(rank_a)))
    return float(rho), float(p)


class Oracle:
    """Expected outputs of every stage for one workload's inputs."""

    def __init__(self, shape, inputs):
        self.shape = shape
        self.classes, self.class_of = _read_taxonomy(inputs.taxonomy)
        self.subcats = list(self.class_of)
        sub_index = {n: i for i, n in enumerate(self.subcats)}
        with open(inputs.labels, encoding="utf-8", newline="") as fh:
            self.home = {row["user"]: row["country"] for row in csv.DictReader(fh)}
        with open(inputs.survey, encoding="utf-8", newline="") as fh:
            self.survey = {row["country"]: (float(row["trad_secular"]), float(row["surv_selfexpr"]))
                           for row in csv.DictReader(fh)}
        users, lat, lon, hour, weekend, sub = [], [], [], [], [], []
        with open(inputs.corpus, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                ts = datetime.fromisoformat(rec["ts"])
                users.append(rec["user"])
                lat.append(rec["lat"])
                lon.append(rec["lon"])
                hour.append(ts.hour)
                weekend.append(ts.weekday() >= 5)
                sub.append(sub_index[rec["subcat"]])
        self.records = len(users)
        self.user_ids = sorted(set(users))
        uidx = {u: i for i, u in enumerate(self.user_ids)}
        self.user_idx = np.array([uidx[u] for u in users], np.int64)
        self.lat, self.lon = np.array(lat), np.array(lon)
        self.hour = np.array(hour, np.int64)
        self.weekend = np.array(weekend, bool)
        self.sub = np.array(sub, np.int64)
        self.country = np.array([self.home[u] for u in self.user_ids])[self.user_idx]
        self.bits = np.zeros((len(self.user_ids), len(self.subcats)), np.int32)
        self.bits[self.user_idx, self.sub] = 1
        self._pairs = None
        self.areas, self.members = self._areas(inputs)
        m = len(self.subcats)
        self.counts = np.stack(
            [np.bincount(self.sub[rows], minlength=m) for rows in self.members]
        ) if self.members else np.zeros((0, m), np.int64)

    # -- area assignment ----------------------------------------------------

    def _areas(self, inputs):
        """Used area ids in CLI order and the check-in rows of each."""
        if self.shape.level == "country":
            codes = sorted(set(self.home.values()))
            return codes, [np.flatnonzero(self.country == c) for c in codes]
        with open(inputs.cities, encoding="utf-8", newline="") as fh:
            cities = sorted(csv.DictReader(fh), key=lambda r: r["city"])
        n = self.shape.grid
        areas, members = [], []
        for city in cities:
            lo_x, lo_y = float(city["min_lon"]), float(city["min_lat"])
            hi_x, hi_y = float(city["max_lon"]), float(city["max_lat"])
            inside = (self.lon >= lo_x) & (self.lon <= hi_x) & (self.lat >= lo_y) & (self.lat <= hi_y)
            rows = np.flatnonzero(inside)
            col = self._cell(self.lon[rows], lo_x, hi_x, n)
            row = self._cell(self.lat[rows], lo_y, hi_y, n)
            cell = row * n + col
            sizes = np.bincount(cell, minlength=n * n)
            ids = [f"{city['city']}:{k // n}:{k % n}" for k in range(n * n)]
            ranked = sorted((k for k in range(n * n) if sizes[k] > 0),
                            key=lambda k: (-int(sizes[k]), ids[k]))
            for k in ranked[: self.shape.top]:
                areas.append(ids[k])
                members.append(rows[cell == k])
        return areas, members

    @staticmethod
    def _cell(x, lo, hi, n):
        """Grid index along one axis: cells are half-open except the last."""
        step = (hi - lo) / n
        edges = np.array([lo + i * step for i in range(n)] + [hi])
        return np.minimum(np.searchsorted(edges, x, side="right") - 1, n - 1)

    # -- properties cited by claims ---------------------------------------

    def properties(self) -> dict:
        """Workload properties that claims cite, computed from the inputs;
        the last two match the traced metrics of the same names."""
        i, j, inter, union = self.pairs()
        n = len(self.user_ids)
        pairs = n * (n - 1) // 2
        edges = sum(int((100 * inter >= t * union).sum()) for t in THRESHOLDS)
        return {
            "users": n,
            "checkins": self.records,
            "level": self.shape.level,
            "nonempty_areas": int((self.counts.sum(axis=1) > 0).sum()),
            "ring_vertices": self.shape.ring_vertices,
            "prefs.distinct_profile_share": len(np.unique(self.bits, axis=0)) / n,
            "kernels.jaccard_edges.edge_yield": edges / (len(THRESHOLDS) * pairs) if pairs else 0.0,
        }

    # -- simnet -------------------------------------------------------------

    def pairs(self):
        """(i, j, inter, union) of every pair meeting the lowest threshold,
        scored with the exact integer test 100*inter >= t*union in blocks."""
        if self._pairs is None:
            bits, t = self.bits, THRESHOLDS[0]
            pops = bits.sum(axis=1)
            out = []
            for a in range(0, len(bits), PAIR_BLOCK):
                inter = bits[a:a + PAIR_BLOCK] @ bits.T
                union = pops[a:a + PAIR_BLOCK, None] + pops[None, :] - inter
                i, j = np.nonzero((union > 0) & (100 * inter >= t * union))
                i += a
                keep = j > i
                out.append((i[keep], j[keep], inter[i[keep] - a, j[keep]], union[i[keep] - a, j[keep]]))
            self._pairs = tuple(np.concatenate(c) for c in zip(*out)) if out else ((),) * 4
        return self._pairs

    def edges(self, threshold: int) -> list[str]:
        i, j, inter, union = self.pairs()
        ok = 100 * inter >= threshold * union
        order = np.lexsort((j[ok], i[ok]))
        ids = self.user_ids
        return [f"{ids[a]}\t{ids[b]}" for a, b in zip(i[ok][order], j[ok][order])]

    def check_simnet(self, out: Path) -> list[str]:
        problems = []
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        by_threshold = sorted(metrics.values(), key=lambda d: d["threshold"])
        if [d["threshold"] for d in by_threshold] != [float(t) for t in THRESHOLDS]:
            return [f"simnet: thresholds {sorted(metrics)} are not the default ladder"]
        previous = None
        for doc in by_threshold:
            t = int(doc["threshold"])
            lines = (out / f"edges_s{t}.tsv").read_text(encoding="utf-8").splitlines()
            expected = self.edges(t)
            if doc["edges"] != len(expected) or len(lines) != len(expected):
                problems.append(f"simnet s{t}: {doc['edges']} edges in metrics, {len(lines)} "
                                f"in the edge list, oracle {len(expected)}")
            elif lines != expected:
                problems.append(f"simnet s{t}: edge list differs from the oracle")
            current = set(lines)
            if previous is not None and not current <= previous:
                problems.append(f"simnet s{t}: edge set not nested in the lower threshold's")
            previous = current
        return problems

    # -- ingest -------------------------------------------------------------

    def check_ingest(self, store: Path) -> list[str]:
        report = json.loads((store / "ingest_report.json").read_text(encoding="utf-8"))
        problems = []
        if report["store_users"] != len(self.user_ids) or report["store_checkins"] != self.records:
            problems.append(f"ingest: store has {report['store_users']} users, "
                            f"{report['store_checkins']} check-ins; expected "
                            f"{len(self.user_ids)}, {self.records}")
        rows = _csv_rows(store / "home_countries.csv")[1:]
        if {u: c for u, c in rows} != self.home:
            problems.append("ingest: home countries differ from the generator's labels")
        with open(store / "corpus.csv", "rb") as fh:
            lines = sum(1 for _ in fh) - 1
        if lines != self.records:
            problems.append(f"ingest: corpus.csv has {lines} rows, expected {self.records}")
        return problems

    # -- signatures ---------------------------------------------------------

    def _expected_corr(self, scope: str) -> np.ndarray:
        cols = [i for i, n in enumerate(self.subcats) if scope == "all" or self.class_of[n] == scope]
        x = self.counts[:, cols].astype(np.float64)
        xc = x - x.mean(axis=1, keepdims=True)
        norm = np.sqrt((xc * xc).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = (xc @ xc.T) / np.outer(norm, norm)
        r[(norm == 0)[:, None] | (norm == 0)[None, :]] = np.nan
        return np.clip(r, -1.0, 1.0)

    @staticmethod
    def _entropy(column: np.ndarray) -> float | None:
        total = column.sum()
        if total <= 0:
            return None
        p = column[column > 0] / total
        return float(-(p * np.log2(p)).sum())

    def check_signatures(self, out: Path) -> list[str]:
        problems = []
        used = json.loads((out / "areas_used.json").read_text(encoding="utf-8"))
        if used["areas_used"] != self.areas:
            return [f"signatures: areas used {len(used['areas_used'])} differ from the "
                    f"{len(self.areas)} expected"]
        for scope in ("all", *self.classes):
            rows = _csv_rows(out / f"corr_{scope}.csv")
            want = self._expected_corr(scope)
            got = np.array([[float(v) if v else np.nan for v in row[1:]] for row in rows[1:]])
            if rows[0][1:] != self.areas or got.shape != want.shape or not np.allclose(
                got, want, rtol=0.0, atol=TOLERANCE, equal_nan=True
            ):
                problems.append(f"signatures: corr_{scope}.csv differs from the oracle")
        for class_id in self.classes:
            in_class = np.array([self.class_of[self.subcats[s]] == class_id for s in self.sub])
            for group, flag in (("weekday", False), ("weekend", True)):
                rows = _csv_rows(out / f"temporal_{class_id}_{group}.csv")[1:]
                for area, members, row in zip(self.areas, self.members, rows):
                    sel = members[in_class[members] & (self.weekend[members] == flag)]
                    want = np.bincount(self.hour[sel], minlength=24).astype(np.float64)
                    if want.max() > 0:
                        want /= want.max()
                    if row[0] != area or not np.allclose([float(v) for v in row[1:]], want,
                                                         rtol=0.0, atol=TOLERANCE):
                        problems.append(f"signatures: temporal {class_id}/{group} row {row[0]}")
                        break
                if len(rows) != len(self.areas):
                    problems.append(f"signatures: temporal {class_id}/{group} row count")
        entropy = {(r[0], r[1]): r[2] for r in _csv_rows(out / "entropy.csv")[1:]}
        per_class: dict[str, list[float]] = {c: [] for c in self.classes}
        for s, name in enumerate(self.subcats):
            want = self._entropy(self.counts[:, s].astype(np.float64))
            got = entropy.get((self.class_of[name], name))
            if got is None or (want is None) != (got == "") or (
                want is not None and not _close(float(got), want)
            ):
                problems.append(f"signatures: entropy of {name!r} is {got!r}, expected {want!r}")
            if want is not None:
                per_class[self.class_of[name]].append(want)
        summary = _csv_rows(out / "entropy_summary.csv")[1:]
        if [row[0] for row in summary] != self.classes:
            problems.append("signatures: entropy summary does not list every class once")
        for row in summary:
            values = np.array(per_class.get(row[0], []))
            ok = int(row[2]) == len(values) and (
                (not len(values) and row[3] == row[4] == "")
                or (len(values) and _close(float(row[3]), values.mean())
                    and _close(float(row[4]), values.std()))
            )
            if not ok:
                problems.append(f"signatures: entropy summary of class {row[0]}")
        return problems

    def check_region_totals(self, totals: dict[str, list[int]]) -> list[str]:
        """Per-area totals seen at the prefs.region_counts boundary in a traced
        run must equal an independent count of that area's check-ins."""
        want = {a: len(rows) for a, rows in zip(self.areas, self.members)}
        bad = [a for a, seen in totals.items() if a in want and set(seen) != {want[a]}]
        missing = set(want) - set(totals)
        problems = [f"signatures: region total of {a} is {sorted(set(totals[a]))}, "
                    f"expected {want[a]}" for a in bad[:3]]
        if missing:
            problems.append(f"signatures: {len(missing)} areas never counted")
        return problems

    # -- cluster and survey -------------------------------------------------

    def _spatiotemporal(self, members: list[np.ndarray]) -> np.ndarray:
        """Peak-normalized spatio-temporal vectors (subcategory x day group x
        six-hour period) of the given check-in row sets."""
        slot = self.sub * SLOTS + 4 * self.weekend + self.hour // 6
        counts = np.stack([np.bincount(slot[rows], minlength=len(self.subcats) * SLOTS)
                           for rows in members]).astype(np.float64)
        return counts / counts.max(axis=1, keepdims=True)

    def check_cluster(self, out: Path) -> list[str]:
        """PCA scores must reproduce the centered signatures' Gram matrix and
        have orthogonal columns carrying the eigenvalues in descending order
        (so they are right up to the sign of each component); the k-means
        result must be a fixed point: every area at its most similar
        centroid, every centroid the normalized mean of its areas, and the
        objective their summed cosine distance."""
        report = json.loads((out / "cluster_report.json").read_text(encoding="utf-8"))
        k = DEFAULT_K[self.shape.level]
        rows = _csv_rows(out / "pca_scores.csv")[1:]
        assigned = _csv_rows(out / "assignments.csv")[1:]
        if [r[0] for r in rows] != self.areas or [r[0] for r in assigned] != self.areas:
            return ["cluster: areas differ from the non-empty areas"]
        problems = []
        x = self._spatiotemporal(self.members)
        xc = x - x.mean(axis=0)
        gram = xc @ xc.T
        eigenvalues = np.linalg.eigvalsh(gram)[::-1]
        p = _component_count(eigenvalues)
        scores = np.array([[float(v) for v in r[1:]] for r in rows])
        atol = PCA_TOLERANCE * float(np.trace(gram))
        if report["components"] != p or scores.shape != (len(self.areas), p):
            problems.append(f"cluster: {report['components']} components, expected {p}")
        elif not (np.allclose(scores @ scores.T, gram, rtol=0.0, atol=atol)
                  and np.allclose(scores.T @ scores, np.diag(eigenvalues[:p]), rtol=0.0, atol=atol)):
            problems.append("cluster: PCA scores differ from the oracle's")
        labels = np.array([int(r[1]) for r in assigned])
        centroids = np.array(report["centroids"], np.float64)
        if report["k"] != k or centroids.shape != (k, scores.shape[1]) or not (
            (0 <= labels) & (labels < k)
        ).all():
            return problems + [f"cluster: k={report['k']}, centroids {centroids.shape}, "
                               f"labels {sorted(set(labels.tolist()))}"]
        unit = scores / np.linalg.norm(scores, axis=1, keepdims=True)
        sims = unit @ centroids.T
        own = sims[np.arange(len(labels)), labels]
        if (own < sims.max(axis=1) - TOLERANCE).any():
            problems.append("cluster: an area is not assigned to its most similar centroid")
        for c in range(k):
            mean = unit[labels == c].sum(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0 and not np.allclose(centroids[c], mean / norm, rtol=0.0, atol=TOLERANCE):
                problems.append(f"cluster: centroid {c} is not the mean direction of its areas")
                break
        if not _close(report["objective"], float((1.0 - own).sum())):
            problems.append(f"cluster: objective {report['objective']!r} does not match "
                            f"the assignments ({float((1.0 - own).sum())!r})")
        return problems

    def check_survey(self, out: Path) -> list[str]:
        """For each country, rank the others by cosine in the survey plane and
        in the centered spatio-temporal country vectors (the space the full
        PCA scores span) and compare Spearman rho and p with the output."""
        doc = json.loads((out / "survey_comparison.json").read_text(encoding="utf-8"))
        countries = sorted(self.survey)
        vectors = self._spatiotemporal([np.flatnonzero(self.country == c) for c in countries])
        subset = [s * SLOTS + 4 + period for s, name in enumerate(self.subcats)
                  if self.class_of[name] == SURVEY_CLASS for period in range(4)]
        survey = np.array([self.survey[c] for c in countries])
        problems = []
        for name, cols in (("dataset1", slice(None)), ("dataset2", subset)):
            ours = vectors[:, cols] - vectors[:, cols].mean(axis=0)
            got = doc.get(name, {})
            if sorted(got) != countries:
                problems.append(f"survey: {name} covers {sorted(got)}")
                continue
            for i, c in enumerate(countries):
                rho, p = _spearman(_cosine_ranking(survey, i), _cosine_ranking(ours, i))
                r = got[c]
                if not (_close(r["rho"], rho) and _close(r["p_value"], p)
                        and r["significant"] == (p < 0.05)):
                    problems.append(f"survey: {name}/{c} rho={r['rho']} p={r['p_value']}, "
                                    f"expected rho={rho} p={p}")
        return problems

    def check(self, stage: str, out: Path) -> list[str]:
        try:
            return getattr(self, f"check_{stage}")(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{stage}: unreadable output: {exc!r}"]
