"""Acceptance gate: the pipeline's end-to-end guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import csv
import functools
import json
import math
import time

import numpy as np
import pytest

from ari import adjusted_rand_index
from conftest import corpus_of, make_checkin, with_homes
from simnet_oracle import brute_force_network, user_pair_ids
from tastemap.boundaries import compare_with_survey, fit_pca, pca_scores, spearman
from tastemap.cli import main
from tastemap.model import Area, UserProfile, load_taxonomy, reference_taxonomy_path
from tastemap.prefs import area_cubes, normalized_rows
from tastemap.signatures import pearson, spatiotemporal_vector, subcategory_entropy
from tastemap.simnet import (
    ProfileClasses,
    build_network,
    categorical_assortativity,
    component_sizes,
)
from tastemap.synth import SynthSpec, generate_corpus

LADDER = (65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0)
BOX = Area("box", "city", bbox=(0.0, 0.0, 2.0, 2.0))


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} FAIL: {text}")
                raise
            print(f"\nACCEPTANCE {num:02d} PASS: {text}")
            return result

        return wrapper

    return deco


@pytest.fixture(scope="module")
def ref_tax():
    return load_taxonomy(reference_taxonomy_path())


def random_profiles(rng, n, m=101, n_groups=10):
    """Grouped random binary profiles, plus exact duplicates for the s=100 rung."""
    group_features = [
        rng.choice(m, size=6, replace=False).tolist() for _ in range(n_groups)
    ]
    profiles = []
    for i in range(n):
        base = group_features[int(rng.integers(n_groups))]
        extra = rng.choice(m, size=int(rng.integers(0, 3)), replace=False).tolist()
        bits = np.zeros(m, np.uint8)
        bits[base] = 1
        bits[extra] = 1
        profiles.append(UserProfile(f"u{i:03d}", bits, int(bits.sum())))
    for i in range(0, 6, 2):  # three exact-duplicate pairs
        profiles[i + 1] = UserProfile(
            profiles[i + 1].user_id, profiles[i].bits.copy(), profiles[i].checkin_count
        )
    return profiles


def network_of(bits, threshold):
    """The program's network of the bit matrix's users, scored at
    ``threshold``."""
    return build_network(ProfileClasses(bits, threshold), threshold)


@criterion(1, "network construction equals brute force on the whole threshold ladder, < 5 s")
def test_criterion_01_similarity_network_oracle(ref_tax):
    rng = np.random.default_rng(101)
    profiles = random_profiles(rng, 100, m=ref_tax.m)
    ids = [p.user_id for p in profiles]
    bits = np.array([p.bits for p in profiles])
    network_of(bits[:4], 65.0)  # warm-up call, outside the timed window
    start = time.perf_counter()
    classes = ProfileClasses(bits, min(LADDER))
    for threshold in LADDER:
        got = set(user_pair_ids(build_network(classes, threshold), ids))
        assert got == brute_force_network(ids, bits, threshold).edge_ids(), threshold
    assert time.perf_counter() - start < 5.0


@criterion(2, "largest component is non-increasing across the threshold ladder")
def test_criterion_02_threshold_monotonicity():
    rng = np.random.default_rng(102)
    for _ in range(20):
        n = int(rng.integers(40, 70))
        profiles = random_profiles(rng, n, m=30, n_groups=4)
        classes = ProfileClasses(np.array([p.bits for p in profiles]), min(LADDER))
        previous = None
        for threshold in LADDER:
            net = build_network(classes, threshold)
            largest = component_sizes(net)[0] if net.n_nodes else 0
            if previous is not None:
                assert largest <= previous
            previous = largest


@criterion(3, "assortativity: cliques +1, bipartite -1, random attributes near 0")
def test_criterion_03_assortativity():
    # Two profile classes, so two cliques at threshold 100, one per country.
    two_cliques = network_of(np.repeat(np.eye(2, dtype=np.uint8), 4, axis=0), 100.0)
    codes = np.repeat([0, 1], 4)
    assert two_cliques.n_edges == 12
    assert abs(categorical_assortativity(two_cliques, codes) - 1.0) <= 1e-12

    # K4,4 from pair-indexed bits: user i of one side holds e_ij for every j,
    # user j of the other e_ij for every i.  Every cross pair scores 100/7,
    # every same-side pair 0.
    e = np.eye(16, dtype=np.uint8).reshape(4, 4, 16)
    bipartite = network_of(np.concatenate([e.sum(axis=1), e.sum(axis=0)]), 14.0)
    assert bipartite.n_edges == 16
    assert abs(categorical_assortativity(bipartite, codes) + 1.0) <= 1e-12

    rng = np.random.default_rng(103)
    n, m = 1000, 16
    bits = np.zeros((n, m), np.uint8)
    for row in bits:
        row[rng.choice(m, size=rng.integers(2, 6), replace=False)] = 1
    net = network_of(bits, 40.0)
    assert net.n_edges >= 10_000
    for _ in range(50):
        values = rng.integers(0, 2, size=n)  # east or west
        assert abs(categorical_assortativity(net, values)) < 0.05


@criterion(4, "signature math: scale invariance, Pearson vs two-pass oracle, exact entropies")
def test_criterion_04_signature_math(ref_tax):
    rng = np.random.default_rng(104)
    for _ in range(20):
        counts = rng.integers(0, 60, size=ref_tax.m)
        counts[int(rng.integers(ref_tax.m))] += 1
        base = normalized_rows(counts[None], ["a"])
        for lam in (2, 10, 1000):
            assert np.array_equal(normalized_rows(counts[None] * lam, ["a"]), base)

    for _ in range(100):
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx = sum((a - mx) ** 2 for a in x)
        syy = sum((b - my) ** 2 for b in y)
        assert abs(pearson(x, y) - sxy / math.sqrt(sxx * syy)) <= 1e-12

    for n in (2, 4, 8, 16):
        checkins, home = [], {}
        for i in range(n):
            checkins.append(make_checkin(f"u{i}", "v", 1.0, 1.0, "2024-04-16T12:00:00", "Pub"))
            home[f"u{i}"] = f"c{i}"
        corpus = with_homes(corpus_of(ref_tax, checkins), home)
        areas = [Area(f"c{i}", "country", country_code=f"c{i}") for i in range(n)]
        counts = area_cubes(corpus, areas).sum(axis=(2, 3))
        h = subcategory_entropy(counts)[ref_tax.index_of("Pub")]
        assert h == float(np.log2(n))


@criterion(5, "spatio-temporal layout: 808 features, single check-in lights the right slot")
def test_criterion_05_spatiotemporal_layout(ref_tax):
    from datetime import datetime

    rng = np.random.default_rng(105)
    weekday_dates = [datetime(2024, 4, d) for d in (15, 16, 17, 18, 19)]
    weekend_dates = [datetime(2024, 4, d) for d in (20, 21)]
    checked = 0
    for _ in range(1000):
        s = int(rng.integers(ref_tax.m))
        hour = int(rng.integers(24))
        weekend = bool(rng.integers(2))
        day = (weekend_dates if weekend else weekday_dates)[
            int(rng.integers(2 if weekend else 5))
        ]
        ts = day.replace(hour=hour, minute=int(rng.integers(60)))
        corpus = corpus_of(
            ref_tax, [make_checkin("u0", "v0", 1.0, 1.0, ts.isoformat(), ref_tax.subcategories[s])]
        )
        (sig,) = spatiotemporal_vector(area_cubes(corpus, [BOX]), [BOX.area_id])
        assert sig.shape == (808,)
        hand_index = 8 * s + 4 * int(weekend) + hour // 6
        assert sig[hand_index] == 1.0
        assert sig.sum() == 1.0
        checked += 1
    assert checked == 1000


@criterion(6, "PCA recovers planted rank r in {1,3,5} with < 1e-9 reconstruction error")
def test_criterion_06_pca_planted_rank():
    for rank in (1, 3, 5):
        rng = np.random.default_rng(106 + rank)
        data = rng.normal(size=(30, rank)) @ rng.normal(size=(rank, 808)) + 2.0
        model = fit_pca(data)
        assert (model.eigenvalues / model.eigenvalues.sum() > 1e-9).sum() == rank
        scores = pca_scores(data, 1.0)
        assert scores.shape == (30, rank)
        rebuilt = scores @ model.components[:rank] + model.mean
        assert np.abs(rebuilt - data).max() < 1e-9


ZIPF12 = (8, 7, 6, 5, 4, 3, 2, 2, 1, 1, 1, 1)


def peaked_hourly(start):
    """Hourly weights for every class and day group: 8 on the three hours
    from ``start``, 1 on the others."""
    hourly = [1.0] * 24
    for h in (start, start + 1, start + 2):
        hourly[h] = 8.0
    return {"*": {"weekday": hourly, "weekend": hourly}}


def four_city_spec(habits):
    """One country K<i> per entry of ``habits`` (its preferences and any
    temporal fields): a 10-degree box, 200 users of 6-12 check-ins, and four
    strip cities K<i>-0 .. K<i>-3."""
    countries = []
    for i, habit in enumerate(habits):
        x0 = 20.0 * i - 70.0
        countries.append(
            {
                "code": f"K{i}",
                "bbox": [x0, 0.0, x0 + 10.0, 10.0],
                "users": 200,
                "checkins_per_user": [6, 12],
                **habit,
                "cities": [
                    {"id": f"K{i}-{c}", "bbox": [x0 + 2.5 * c, 0.0, x0 + 2.5 * (c + 1), 10.0]}
                    for c in range(4)
                ],
            }
        )
    return SynthSpec.from_dict({"countries": countries})


def seven_culture_spec(tax):
    names = tax.subcategories
    shared = {names[84]: 0.5, names[85]: 0.5, names[86]: 0.5}
    return four_city_spec(
        {
            "preferences": {**{names[12 * i + j]: w for j, w in enumerate(ZIPF12)}, **shared},
            "hourly": peaked_hourly((3 * i + 2) % 22),
        }
        for i in range(7)
    )


def city_level_ari(spec, tax, k, seed, base):
    """ARI of ``cluster --level city`` on one seed's corpus against each
    city's country, the id before the dash."""
    generated = generate_corpus(spec, seed, base / "raw", tax)
    assert main(
        [
            "ingest",
            "--corpus", str(generated.corpus_path),
            "--geo", str(generated.geo_path),
            "--taxonomy", str(reference_taxonomy_path()),
            "--out-dir", str(base / "store"),
        ]
    ) == 0
    assert main(
        [
            "cluster",
            "--store", str(base / "store"),
            "--level", "city",
            "--cities", str(generated.cities_path),
            "--k", str(k),
            "--seed", "0",
            "--out-dir", str(base / "out"),
        ]
    ) == 0
    report = json.loads((base / "out" / "cluster_report.json").read_text())
    predicted = report["assignments"]
    truth = {area: area.split("-")[0] for area in predicted}
    return adjusted_rand_index(predicted, truth)


@criterion(7, "end-to-end clustering recovers 7 planted cultures (ARI >= 0.9, >= 18/20 seeds, < 30 s)")
def test_criterion_07_clustering_recovery(ref_tax, tmp_path):
    spec = seven_culture_spec(ref_tax)
    start = time.perf_counter()
    recovered = 0
    for seed in range(20):
        if city_level_ari(spec, ref_tax, 7, seed, tmp_path / f"seed{seed}") >= 0.9:
            recovered += 1
    elapsed = time.perf_counter() - start
    assert recovered >= 18, f"only {recovered}/20 seeds recovered"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


@criterion(12, "temporal habits alone draw a boundary: peaks in different 6-hour periods and "
               "weekend share recover (ARI >= 0.9, >= 18/20 seeds), peaks in one period do not "
               "(mean ARI < 0.25), < 20 s")
def test_criterion_12_temporal_habits(ref_tax, tmp_path):
    # Every country has the same preferences; only its temporal fields differ.
    # The bounds were fixed from a first run of these specs: both positives
    # recovered ARI 1.0 in 20/20 seeds, the control's 20-seed mean ARI stayed
    # in [-0.09, 0.07] over seeds 0-199, and the whole check took 3-5 s.
    same = {"preferences": dict(zip(ref_tax.subcategories, ZIPF12))}
    start = time.perf_counter()
    for name, habits in (
        ("periods", [{**same, "hourly": peaked_hourly(h)} for h in (1, 7, 13, 19)]),
        ("weekend", [{**same, "weekend_fraction": f} for f in (0.1, 0.5)]),
    ):
        spec = four_city_spec(habits)
        aris = [city_level_ari(spec, ref_tax, len(habits), seed, tmp_path / name / f"seed{seed}")
                for seed in range(20)]
        recovered = sum(ari >= 0.9 for ari in aris)
        assert recovered >= 18, f"{name}: only {recovered}/20 seeds recovered"
    # Both peaks lie in [18, 24), one slot of the 6-hour layout, so the
    # cluster vectors cannot tell the two countries apart.
    control = four_city_spec([{**same, "hourly": peaked_hourly(h)} for h in (18, 21)])
    aris = [city_level_ari(control, ref_tax, 2, seed, tmp_path / "control" / f"seed{seed}")
            for seed in range(20)]
    assert np.mean(aris) < 0.25, f"control mean ARI {np.mean(aris):.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.1f} s"


@criterion(8, "Spearman matches the closed form; exact 0.8 example; p(rho=1, n=16) < 1e-10")
def test_criterion_08_spearman():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        items = [f"i{k}" for k in range(n)]
        a = [items[k] for k in rng.permutation(n)]
        b = [items[k] for k in rng.permutation(n)]
        rho, _ = spearman(a, b)
        pos_a = {item: i for i, item in enumerate(a)}
        pos_b = {item: i for i, item in enumerate(b)}
        d2 = sum((pos_a[i] - pos_b[i]) ** 2 for i in items)
        closed = 1.0 - 6.0 * d2 / (n * (n * n - 1))
        assert abs(rho - closed) <= 1e-12

    rho, _ = spearman([1, 2, 3, 4], [1, 3, 2, 4])
    assert rho == 0.8

    _, p = spearman(list(range(16)), list(range(16)))
    assert p < 1e-10


def six_country_store(tmp_path, tax):
    names = tax.subcategories
    countries = []
    for i in range(6):
        own = {names[15 * i + j]: w for j, w in enumerate((6, 4, 3, 2, 1))}
        x0 = 20.0 * i - 60.0
        countries.append(
            {
                "code": f"C{i}",
                "bbox": [x0, 0.0, x0 + 10.0, 10.0],
                "users": 25,
                "checkins_per_user": [8, 14],
                "preferences": own,
            }
        )
    spec = SynthSpec.from_dict({"countries": countries})
    generated = generate_corpus(spec, 23, tmp_path / "raw", tax)
    store = tmp_path / "store"
    assert main(
        [
            "ingest",
            "--corpus", str(generated.corpus_path),
            "--geo", str(generated.geo_path),
            "--taxonomy", str(reference_taxonomy_path()),
            "--out-dir", str(store),
        ]
    ) == 0
    return generated, store


@criterion(9, "survey self-comparison is all rho=1; emitted CSV has the two-dataset layout")
def test_criterion_09_survey_self_test(ref_tax, tmp_path):
    rng = np.random.default_rng(109)
    survey = {f"c{i:02d}": rng.normal(size=2) for i in range(16)}
    rows = compare_with_survey(survey, survey, sorted(survey))
    assert len(rows) == 16
    assert all(r.rho == 1.0 for r in rows)

    _, store = six_country_store(tmp_path, ref_tax)
    survey_csv = tmp_path / "survey.csv"
    with open(survey_csv, "w", encoding="utf-8") as fh:
        fh.write("country,trad_secular,surv_selfexpr\n")
        for i in range(6):
            fh.write(f"C{i},{rng.normal():.4f},{rng.normal():.4f}\n")
    out = tmp_path / "survey_out"
    assert main(
        ["survey", "--store", str(store), "--survey", str(survey_csv),
         "--dataset", "both", "--out-dir", str(out)]
    ) == 0
    with open(out / "survey_comparison.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == [
        "country",
        "rho_dataset1", "p_dataset1", "significant_dataset1",
        "rho_dataset2", "p_dataset2", "significant_dataset2",
    ]
    assert [row[0] for row in table[1:]] == [f"C{i}" for i in range(6)]
    for row in table[1:]:
        for value in (row[1], row[2], row[4], row[5]):
            float(value)


@criterion(10, "two full pipeline runs produce byte-identical output trees")
def test_criterion_10_determinism(ref_tax, tmp_path):
    trees = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        generated, store = six_country_store(base, ref_tax)
        rng = np.random.default_rng(110)
        survey_csv = base / "survey.csv"
        with open(survey_csv, "w", encoding="utf-8") as fh:
            fh.write("country,trad_secular,surv_selfexpr\n")
            for i in range(6):
                fh.write(f"C{i},{rng.normal():.4f},{rng.normal():.4f}\n")
        assert main(["simnet", "--store", str(store), "--out-dir", str(base / "net")]) == 0
        assert main(["signatures", "--store", str(store), "--level", "country",
                     "--out-dir", str(base / "sig")]) == 0
        assert main(["cluster", "--store", str(store), "--level", "country", "--k", "3",
                     "--seed", "4", "--out-dir", str(base / "cluster")]) == 0
        assert main(["survey", "--store", str(store), "--survey", str(survey_csv),
                     "--out-dir", str(base / "survey")]) == 0
        trees[tag] = {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }
    assert trees["one"].keys() == trees["two"].keys()
    for name in trees["one"]:
        assert trees["one"][name] == trees["two"][name], name
