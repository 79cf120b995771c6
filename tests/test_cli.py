"""End-to-end command tests on a small synthetic corpus."""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tastemap.cli import main
from tastemap.model import load_taxonomy, reference_taxonomy_path
from tastemap.synth import SynthSpec, generate_corpus

SURVEY_HEADER = "country,trad_secular,surv_selfexpr\n"


def small_spec():
    countries = []
    menus = [
        {"Pub": 4.0, "Bar": 2.0, "Steakhouse": 1.5, "Bakery": 1.0},
        {"Sake Bar": 4.0, "Sushi Restaurant": 2.0, "Ramen / Noodle House": 1.5, "Café": 1.0},
        {"Wine Bar": 4.0, "French Restaurant": 2.0, "Creperie": 1.5, "Café": 1.0},
        {"Coffee Shop": 4.0, "Burger Joint": 2.0, "BBQ Joint": 1.5, "Donut Shop": 1.0},
        {"Tea Room": 4.0, "Dim Sum Restaurant": 2.0, "Dumpling Restaurant": 1.5, "Bakery": 1.0},
        {"Brewery": 4.0, "German Restaurant": 2.0, "Sausage...": 0.0, "Pizza Place": 1.5},
    ]
    menus[5] = {"Brewery": 4.0, "German Restaurant": 2.0, "Pizza Place": 1.5, "Bakery": 1.0}
    for i, menu in enumerate(menus):
        code = f"C{i}"
        x0 = 20.0 * i - 60.0
        countries.append(
            {
                "code": code,
                "bbox": [x0, 0.0, x0 + 10.0, 10.0],
                "users": 20,
                "checkins_per_user": [8, 14],
                "preferences": menu,
                "cities": [
                    {"id": f"{code}-east", "bbox": [x0, 0.0, x0 + 5.0, 10.0]},
                    {"id": f"{code}-west", "bbox": [x0 + 5.0, 0.0, x0 + 10.0, 10.0]},
                ],
            }
        )
    return SynthSpec.from_dict({"countries": countries})


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Generated corpus plus an ingested store."""
    root = tmp_path_factory.mktemp("cli")
    taxonomy = str(reference_taxonomy_path())
    generated = generate_corpus(small_spec(), 17, root / "raw", load_taxonomy(taxonomy))
    store = root / "store"
    code = main(
        [
            "ingest",
            "--corpus", str(generated.corpus_path),
            "--geo", str(generated.geo_path),
            "--taxonomy", taxonomy,
            "--min-checkins", "7",
            "--out-dir", str(store),
        ]
    )
    assert code == 0
    return {"root": root, "generated": generated, "store": store, "taxonomy": taxonomy}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestIngest:
    def test_store_files_exist(self, pipeline):
        store = pipeline["store"]
        for name in ("corpus.npz", "manifest.json", "corpus.csv", "home_countries.csv",
                     "taxonomy.txt", "ingest_report.json"):
            assert (store / name).exists()

    def test_ingest_twice_is_byte_identical(self, pipeline, tmp_path):
        trees = []
        for tag in ("one", "two"):
            store = tmp_path / tag
            assert main(["ingest", "--corpus", str(pipeline["generated"].corpus_path),
                         "--geo", str(pipeline["generated"].geo_path),
                         "--taxonomy", pipeline["taxonomy"], "--out-dir", str(store)]) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(store.iterdir())})
        assert "corpus.npz" in trees[0]
        assert trees[0] == trees[1]

    def test_report_totals_match_generator(self, pipeline):
        report = json.loads((pipeline["store"] / "ingest_report.json").read_text())
        raw_lines = pipeline["generated"].corpus_path.read_text().splitlines()
        assert report["total_checkins"] == len(raw_lines)
        assert report["users_total"] == 120
        assert report["discard_fraction"] == 0.0
        assert report["min_checkins"] == 7

    def test_store_respects_min_checkins(self, pipeline):
        rows = read_csv(pipeline["store"] / "corpus.csv")[1:]
        counts = {}
        for row in rows:
            counts[row[0]] = counts.get(row[0], 0) + 1
        assert min(counts.values()) >= 7

    def test_corrupt_corpus_exits_2_with_line_number(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n" * 10, encoding="utf-8")
        code = main(
            [
                "ingest",
                "--corpus", str(bad),
                "--geo", str(pipeline["generated"].geo_path),
                "--taxonomy", pipeline["taxonomy"],
                "--out-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["-1", "1.5", "nan"])
    def test_error_budget_outside_unit_interval_exits_2(self, pipeline, tmp_path, capsys,
                                                        budget):
        store = tmp_path / "store"
        code = main(["ingest", "--corpus", str(pipeline["generated"].corpus_path),
                     "--geo", str(pipeline["generated"].geo_path),
                     "--taxonomy", pipeline["taxonomy"], "--error-budget", budget,
                     "--out-dir", str(store)])
        assert code == 2
        assert "error budget must lie in [0, 1]" in capsys.readouterr().err
        assert not store.exists()

    def test_missing_file_exits_2(self, pipeline, tmp_path):
        code = main(
            [
                "ingest",
                "--corpus", str(tmp_path / "nope.jsonl"),
                "--geo", str(pipeline["generated"].geo_path),
                "--taxonomy", pipeline["taxonomy"],
                "--out-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 2

    def test_one_mixed_user_in_hundred_reports_fraction(self, pipeline, tmp_path):
        lines = []
        for i in range(99):
            for k in range(2):
                lines.append(json.dumps({
                    "user": f"u{i:03d}", "venue": f"v{k}", "lat": 1.0, "lon": 1.0 + k,
                    "ts": "2024-04-16T12:00:00", "subcat": "Pub",
                }))
        lines.append(json.dumps({
            "user": "u099", "venue": "vA", "lat": 1.0, "lon": 1.0,
            "ts": "2024-04-16T12:00:00", "subcat": "Pub",
        }))
        lines.append(json.dumps({
            "user": "u099", "venue": "vB", "lat": 1.0, "lon": 25.0,
            "ts": "2024-04-16T12:00:00", "subcat": "Pub",
        }))
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        geo = tmp_path / "geo.txt"
        geo.write_text("AA\t0,0;10,0;10,10;0,10;0,0\nBB\t20,0;30,0;30,10;20,10;20,0\n",
                       encoding="utf-8")
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--min-checkins", "1",
                     "--out-dir", str(store)]) == 0
        report = json.loads((store / "ingest_report.json").read_text())
        assert report["users_total"] == 100
        assert report["users_discarded_mixed_country"] == 1
        assert report["discard_fraction"] == 0.01


class TestUsageErrors:
    def test_missing_required_flag_exits_1(self):
        assert main(["ingest"]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0


class TestSimnet:
    def test_default_thresholds_and_monotonicity(self, pipeline, tmp_path):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert sorted(metrics) == sorted(
            ["65", "70", "75", "80", "85", "90", "95", "100"]
        )
        fractions = [metrics[f"{t:g}"]["largest_component_fraction"] * metrics[f"{t:g}"]["nodes"]
                     for t in (65, 70, 75, 80, 85, 90, 95, 100)]
        assert all(a >= b - 1e-9 for a, b in zip(fractions, fractions[1:]))

    def test_identical_users_component(self, pipeline, tmp_path):
        # three identical users: a triangle at threshold 100
        taxonomy = pipeline["taxonomy"]
        corpus = tmp_path / "c.jsonl"
        lines = []
        for user in ("a", "b", "c"):
            for i in range(7):
                lines.append(json.dumps({
                    "user": user, "venue": f"v{i}", "lat": 1.0, "lon": 1.0,
                    "ts": "2024-04-16T12:00:00", "subcat": "Pub",
                }))
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        geo = tmp_path / "geo.txt"
        geo.write_text("AA\t0,0;10,0;10,10;0,10;0,0\n", encoding="utf-8")
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", taxonomy, "--out-dir", str(store)]) == 0
        out = tmp_path / "net"
        assert main(["simnet", "--store", str(store), "--thresholds", "100",
                     "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["100"]["component_sizes"] == [3]
        edges = (out / "edges_s100.tsv").read_text().splitlines()
        assert len(edges) == 3

    def test_attributes_file_feeds_assortativity(self, pipeline, tmp_path):
        store = pipeline["store"]
        users = [row[0] for row in read_csv(store / "home_countries.csv")[1:]]
        attrs = tmp_path / "attrs.csv"
        with open(attrs, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "hemisphere"])
            for i, user in enumerate(users):
                writer.writerow([user, "north" if i % 2 else "south"])
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(store), "--thresholds", "65",
                     "--attributes", str(attrs), "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "hemisphere" in metrics["65"]["assortativity"]

    def test_bad_threshold_writes_nothing(self, pipeline, tmp_path):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "65,150",
                     "--out-dir", str(out)]) == 2
        assert not (out / "edges_s65.tsv").exists()
        assert not out.exists() or not any(out.iterdir())

    def test_empty_threshold_list_writes_empty_metrics(self, pipeline, tmp_path):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "",
                     "--out-dir", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text()) == {}
        assert sorted(p.name for p in out.iterdir()) == ["metrics.json"]


def test_cli_import_leaves_scipy_stats_out():
    code = ("import sys, tastemap.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special', 'scipy.sparse') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def _edit_npz(store):
    path = store / "corpus.npz"
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    arrays["lat"] = arrays["lat"] + 1e-9
    np.savez(path, **arrays)


def _set_format(store, version):
    manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
    manifest["format"] = version
    (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class TestStoreManifest:
    """An analysis command reads a store only through a manifest that names
    this format and the sha256 of corpus.npz; anything else exits 2 before
    the output directory is created."""

    DAMAGE = {
        "missing_npz": lambda store: (store / "corpus.npz").unlink(),
        "missing_manifest": lambda store: (store / "manifest.json").unlink(),
        "edited_npz": _edit_npz,
        "unknown_format": lambda store: _set_format(store, 2),
        "format_as_string": lambda store: _set_format(store, "1"),
        "manifest_not_json": lambda store: (store / "manifest.json").write_text("{", "utf-8"),
    }

    @staticmethod
    def argv(command, store, survey, out):
        extra = {"simnet": ["--thresholds", "65"], "signatures": [],
                 "cluster": ["--k", "2"], "survey": ["--survey", str(survey)]}[command]
        return [command, "--store", str(store), *extra, "--out-dir", str(out)]

    @pytest.fixture
    def store_copy(self, pipeline, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)],
                                  np.random.default_rng(43))
        return store, survey

    @pytest.mark.parametrize("command", ["simnet", "signatures", "cluster", "survey"])
    def test_intact_store_runs(self, store_copy, tmp_path, command):
        store, survey = store_copy
        assert main(self.argv(command, store, survey, tmp_path / "out")) == 0

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize("command", ["simnet", "signatures", "cluster", "survey"])
    def test_damaged_store_exits_2_and_writes_nothing(self, store_copy, tmp_path, capsys,
                                                      command, damage):
        store, survey = store_copy
        self.DAMAGE[damage](store)
        out = tmp_path / "out"
        assert main(self.argv(command, store, survey, out)) == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()


class TestSignatures:
    def test_country_level_outputs(self, pipeline, tmp_path):
        out = tmp_path / "sig"
        assert main(["signatures", "--store", str(pipeline["store"]),
                     "--level", "country", "--out-dir", str(out)]) == 0
        matrix = read_csv(out / "corr_all.csv")
        assert matrix[0][1:] == [f"C{i}" for i in range(6)]
        assert len(matrix) == 7
        for scope in ("Drink", "FastFood", "SlowFood"):
            assert (out / f"corr_{scope}.csv").exists()
        assert (out / "temporal_Drink_weekday.csv").exists()
        summary = read_csv(out / "entropy_summary.csv")
        assert summary[0] == ["class", "level", "n_subcategories", "mean", "sigma"]
        assert {row[0] for row in summary[1:]} == {"Drink", "FastFood", "SlowFood"}

    def test_matrix_diagonal_is_one(self, pipeline, tmp_path):
        out = tmp_path / "sig"
        main(["signatures", "--store", str(pipeline["store"]), "--out-dir", str(out)])
        matrix = read_csv(out / "corr_all.csv")
        for i in range(1, len(matrix)):
            assert float(matrix[i][i]) == 1.0

    def test_grid_level_counts_sum(self, pipeline, tmp_path):
        out = tmp_path / "grid"
        code = main(["signatures", "--store", str(pipeline["store"]), "--level", "grid",
                     "--cities", str(pipeline["generated"].cities_path),
                     "--rows", "2", "--cols", "2", "--out-dir", str(out)])
        assert code == 0
        used = json.loads((out / "areas_used.json").read_text())["areas_used"]
        assert all(":" in area for area in used)

    def test_city_level_requires_cities(self, pipeline, tmp_path):
        code = main(["signatures", "--store", str(pipeline["store"]), "--level", "city",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_single_country_store_degenerate_exit_3(self, pipeline, tmp_path):
        taxonomy = pipeline["taxonomy"]
        corpus = tmp_path / "c.jsonl"
        lines = [
            json.dumps({"user": "a", "venue": f"v{i}", "lat": 1.0, "lon": 1.0,
                        "ts": "2024-04-16T12:00:00", "subcat": "Pub"})
            for i in range(8)
        ]
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        geo = tmp_path / "geo.txt"
        geo.write_text("AA\t0,0;10,0;10,10;0,10;0,0\n", encoding="utf-8")
        store = tmp_path / "store"
        main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
              "--taxonomy", taxonomy, "--out-dir", str(store)])
        code = main(["signatures", "--store", str(store), "--out-dir", str(tmp_path / "sig")])
        assert code == 3


class TestCluster:
    def test_country_level_default_k(self, pipeline, tmp_path):
        out = tmp_path / "cluster"
        assert main(["cluster", "--store", str(pipeline["store"]), "--level", "country",
                     "--k", "3", "--seed", "5", "--out-dir", str(out)]) == 0
        report = json.loads((out / "cluster_report.json").read_text())
        assert report["k"] == 3
        assert len(report["assignments"]) == 6
        scores = read_csv(out / "pca_scores.csv")
        assert scores[0][0] == "area"
        assert len(scores) == 7

    def test_city_level_recovers_countries(self, pipeline, tmp_path):
        out = tmp_path / "cluster_city"
        assert main(["cluster", "--store", str(pipeline["store"]), "--level", "city",
                     "--cities", str(pipeline["generated"].cities_path),
                     "--k", "6", "--seed", "0", "--out-dir", str(out)]) == 0
        rows = read_csv(out / "assignments.csv")[1:]
        from tastemap.synth import adjusted_rand_index

        predicted = {row[0]: int(row[1]) for row in rows}
        truth = {area: area.split("-")[0] for area in predicted}
        assert adjusted_rand_index(predicted, truth) == 1.0

    def test_k_exceeding_areas_exits_2(self, pipeline, tmp_path):
        code = main(["cluster", "--store", str(pipeline["store"]), "--level", "country",
                     "--k", "40", "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_too_few_directions_for_k_exits_3(self, pipeline, tmp_path):
        # BB and CC have identical signatures, so the PCA scores of the three
        # countries point in only two directions and k=3 leaves a cluster empty.
        menus = {"AA": "Bakery", "BB": "Pub", "CC": "Pub"}
        lines = [
            json.dumps({"user": f"{code}{u}", "venue": f"v{i}", "lat": 1.0, "lon": x + 1.0,
                        "ts": "2024-04-16T12:00:00", "subcat": subcat})
            for x, (code, subcat) in zip((0.0, 20.0, 40.0), menus.items())
            for u in range(2)
            for i in range(8)
        ]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        geo = tmp_path / "geo.txt"
        geo.write_text("".join(f"{code}\t{x:g},0;{x + 10:g},0;{x + 10:g},10;{x:g},10;{x:g},0\n"
                               for x, code in zip((0, 20, 40), menus)), encoding="utf-8")
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--out-dir", str(store)]) == 0
        code = main(["cluster", "--store", str(store), "--level", "country", "--k", "3",
                     "--out-dir", str(tmp_path / "cluster")])
        assert code == 3

    def test_zero_restarts_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys):
        out = tmp_path / "cluster"
        assert main(["cluster", "--store", str(pipeline["store"]), "--k", "3",
                     "--restarts", "0", "--out-dir", str(out)]) == 2
        assert "n_restarts=0" in capsys.readouterr().err
        assert not out.exists()

    def test_default_k_follows_level(self, pipeline, tmp_path):
        out = tmp_path / "city_default"
        assert main(["cluster", "--store", str(pipeline["store"]), "--level", "city",
                     "--cities", str(pipeline["generated"].cities_path),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "cluster_report.json").read_text())
        assert report["k"] == 4


class TestSurvey:
    def write_survey(self, path, countries, rng):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SURVEY_HEADER)
            for c in countries:
                fh.write(f"{c},{rng.normal():.4f},{rng.normal():.4f}\n")

    def test_table_shaped_csv(self, pipeline, tmp_path):
        survey = tmp_path / "survey.csv"
        self.write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(40))
        out = tmp_path / "survey_out"
        assert main(["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
                     "--dataset", "both", "--out-dir", str(out)]) == 0
        rows = read_csv(out / "survey_comparison.csv")
        assert rows[0] == [
            "country",
            "rho_dataset1", "p_dataset1", "significant_dataset1",
            "rho_dataset2", "p_dataset2", "significant_dataset2",
        ]
        assert [row[0] for row in rows[1:]] == [f"C{i}" for i in range(6)]
        for row in rows[1:]:
            assert -1.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0

    def test_missing_country_exits_2(self, pipeline, tmp_path):
        survey = tmp_path / "survey.csv"
        self.write_survey(survey, ["C0", "C1", "C2", "ZZ"], np.random.default_rng(41))
        code = main(["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_single_dataset_flag(self, pipeline, tmp_path):
        survey = tmp_path / "survey.csv"
        self.write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(42))
        out = tmp_path / "ffwe"
        assert main(["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
                     "--dataset", "ffood_weekend", "--out-dir", str(out)]) == 0
        rows = read_csv(out / "survey_comparison.csv")
        assert rows[0] == ["country", "rho_dataset2", "p_dataset2", "significant_dataset2"]


class TestMalformedSideFiles:
    """A bad row in --cities or --survey is a data error that names the file
    and line, and the command writes nothing."""

    CITIES = "city,country,min_lon,min_lat,max_lon,max_lat\nC0-east,C0,-60,0,-55,10\n"

    @pytest.mark.parametrize("row", ["C0-west,C0,-55,0,x,10", "C0-west,C0,-55,0"])
    @pytest.mark.parametrize("command", ["signatures", "cluster"])
    def test_bad_city_row(self, pipeline, tmp_path, capsys, command, row):
        cities = tmp_path / "cities.csv"
        cities.write_text(self.CITIES + row + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--store", str(pipeline["store"]), "--level", "city",
                     "--cities", str(cities), "--out-dir", str(out)]) == 2
        assert f"{cities} line 3:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["C2,0.5", "C2,0.5,high"])
    def test_bad_survey_row(self, pipeline, tmp_path, capsys, row):
        survey = tmp_path / "survey.csv"
        survey.write_text(SURVEY_HEADER + "C0,0.1,0.2\nC1,0.3,0.4\n" + row + "\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
                     "--out-dir", str(out)]) == 2
        assert f"{survey} line 4:" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        store = pipeline["store"]
        outputs = {}
        for tag in ("one", "two"):
            base = tmp_path / tag
            assert main(["simnet", "--store", str(store), "--thresholds", "65,100",
                         "--out-dir", str(base / "net")]) == 0
            assert main(["cluster", "--store", str(store), "--level", "country", "--k", "3",
                         "--seed", "9", "--out-dir", str(base / "cluster")]) == 0
            outputs[tag] = {
                p.relative_to(base): p.read_bytes() for p in sorted(base.rglob("*")) if p.is_file()
            }
        assert outputs["one"] == outputs["two"]

    def test_reports_ignore_checkin_row_order(self, pipeline, tmp_path):
        raw = pipeline["generated"].corpus_path.read_text(encoding="utf-8").splitlines(True)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(np.random.default_rng(44).permutation(raw)),
                            encoding="utf-8")
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)],
                                  np.random.default_rng(45))
        cities = str(pipeline["generated"].cities_path)
        outputs = {}
        for tag, corpus in (("given", pipeline["generated"].corpus_path), ("shuffled", shuffled)):
            base = tmp_path / tag
            assert main(["ingest", "--corpus", str(corpus),
                         "--geo", str(pipeline["generated"].geo_path),
                         "--taxonomy", pipeline["taxonomy"], "--out-dir", str(base / "store")]) == 0
            store = str(base / "store")
            for argv in (["signatures", "--out-dir", str(base / "out" / "sig_country")],
                         ["signatures", "--level", "grid", "--cities", cities, "--rows", "2",
                          "--cols", "2", "--out-dir", str(base / "out" / "sig_grid")],
                         ["cluster", "--level", "city", "--cities", cities, "--k", "6",
                          "--out-dir", str(base / "out" / "cluster")],
                         ["survey", "--survey", str(survey),
                          "--out-dir", str(base / "out" / "survey")]):
                assert main([argv[0], "--store", store, *argv[1:]]) == 0
            outputs[tag] = {p.relative_to(base / "out"): p.read_bytes()
                            for p in sorted((base / "out").rglob("*")) if p.is_file()}
        assert len(outputs["given"]) > 20
        assert outputs["given"] == outputs["shuffled"]
