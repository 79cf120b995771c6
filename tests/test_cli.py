"""End-to-end command tests on a small synthetic corpus."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tomllib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_checkin, write_geo, write_jsonl
from tastemap.cli import build_parser, entry, main
from tastemap.model import reference_taxonomy_path

SURVEY_HEADER = "country,trad_secular,surv_selfexpr\n"


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

    def test_signatures_and_cluster_share_the_area_flags(self):
        parser = build_parser()
        defaults = {"store": "s", "taxonomy": None, "level": "country", "cities": None,
                    "rows": 10, "cols": 10, "top": 0, "out_dir": "o"}
        for command in ("signatures", "cluster"):
            args = vars(parser.parse_args([command, "--store", "s", "--out-dir", "o"]))
            assert {k: args[k] for k in defaults} == defaults


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

    def test_metrics_thresholds_in_numeric_order(self, pipeline, tmp_path):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "100,65,80",
                     "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics) == ["65", "80", "100"]
        for entry in metrics.values():
            assert list(entry) == sorted(entry)
            assert list(entry["assortativity"]) == sorted(entry["assortativity"])

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

    def test_store_without_users_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("", encoding="utf-8")
        geo = write_geo(tmp_path / "geo.txt", {"AA": (0, 0, 10, 10)})
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--out-dir", str(store)]) == 0
        out = tmp_path / "net"
        assert main(["simnet", "--store", str(store), "--out-dir", str(out)]) == 2
        assert "cannot build a network from zero profiles" in capsys.readouterr().err
        assert not out.exists()

    def test_id_with_a_tab_or_line_break_exits_2_and_writes_nothing(self, pipeline, tmp_path,
                                                                    capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(
            json.dumps({"user": user, "venue": f"v{i}", "lat": 1.0, "lon": 1.0,
                        "ts": "2024-04-16T12:00:00", "subcat": "Pub"}) + "\n"
            for user in ("a\tb", "c", "d\ne") for i in range(7)), encoding="utf-8")
        geo = tmp_path / "geo.txt"
        geo.write_text("AA\t0,0;10,0;10,10;0,10;0,0\n", encoding="utf-8")
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--out-dir", str(store)]) == 0
        out = tmp_path / "net"
        assert main(["simnet", "--store", str(store), "--out-dir", str(out)]) == 2
        assert "user id 'a\\tb' holds a tab or a line break" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("thresholds", ["65,65.0", "65,80,65.0000001"])
    def test_thresholds_sharing_a_file_tag_exit_2_and_write_nothing(self, pipeline, tmp_path,
                                                                     capsys, thresholds):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", thresholds,
                     "--out-dir", str(out)]) == 2
        assert "'65'" in capsys.readouterr().err
        assert not out.exists()

    def test_user_listed_twice_in_attributes_exits_2(self, pipeline, tmp_path, capsys):
        store = pipeline["store"]
        user = read_csv(store / "home_countries.csv")[1][0]
        attrs = tmp_path / "attrs.csv"
        attrs.write_text(f"user,hemisphere\n{user},north\n{user},south\n", encoding="utf-8")
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(store), "--thresholds", "65",
                     "--attributes", str(attrs), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{attrs} line 3:" in err and f"{user!r} twice" in err
        assert not out.exists()

    def test_attributes_without_user_column_exit_2(self, pipeline, tmp_path, capsys):
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("id,hemisphere\nu1,north\n", encoding="utf-8")
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "65",
                     "--attributes", str(attrs), "--out-dir", str(out)]) == 2
        assert "attributes file must have columns ['user']" in capsys.readouterr().err
        assert not out.exists()

    def test_extra_or_short_attribute_rows_add_no_attribute(self, pipeline, tmp_path):
        store = pipeline["store"]
        u0, u1, u2 = [row[0] for row in read_csv(store / "home_countries.csv")[1:4]]
        attrs = tmp_path / "attrs.csv"
        attrs.write_text(f"user,hemisphere,diet\n{u0},north\n{u1},south,veg,extra\n{u2},,veg\n",
                         encoding="utf-8")
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(store), "--thresholds", "0",
                     "--attributes", str(attrs), "--out-dir", str(out)]) == 0
        rows = {row[0]: row for row in read_csv(out / "nodes_s0.csv")}
        assert rows["user"] == ["user", "country", "diet", "hemisphere"]
        assert rows[u0][2:] == ["", "north"]
        assert rows[u1][2:] == ["veg", "south"]
        assert rows[u2][2:] == ["veg", ""]
        assort = json.loads((out / "metrics.json").read_text())["0"]["assortativity"]
        assert assort["diet"] is None and assort["hemisphere"] is None  # missing on some node

    @pytest.mark.parametrize("thresholds", ["", ",", " , "], ids=["empty", "comma", "blanks"])
    def test_empty_threshold_list_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                            thresholds):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(tmp_path / "no-store"), "--thresholds", thresholds,
                     "--out-dir", str(out)]) == 2
        assert "names no threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_shares_the_tag_of_zero(self, pipeline, tmp_path, capsys):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "100,-0,0",
                     "--out-dir", str(out)]) == 2
        assert "'0'" in capsys.readouterr().err
        assert not out.exists()

    def test_lone_negative_zero_is_tagged_0(self, pipeline, tmp_path):
        out = tmp_path / "simnet"
        assert main(["simnet", "--store", str(pipeline["store"]), "--thresholds", "-0",
                     "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "edges_s0.tsv", "metrics.json", "nodes_s0.csv"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert list(metrics) == ["0"] and repr(metrics["0"]["threshold"]) == "0.0"

    # Sets 0 and 1 score 66.7, 1 and 5 score 75, 0 and 5 score 50; set 3
    # shares nothing with any other set, and set 6 (one user's) scores at
    # most 33.3.
    PROFILE_SETS = (("Pub", "Bar"), ("Pub", "Bar", "Café"), ("Café", "Bakery", "Tea Room"),
                    ("Wine Bar",), ("Sushi Restaurant", "Steakhouse", "Pub"),
                    ("Pub", "Bar", "Café", "Bakery"), ("Hookah Bar", "Pub"))
    # sha256 of each file, taken from the all-pairs implementation that
    # scored and expanded every user pair.
    PINNED_TREE = {
        "edges_s0.tsv": "02a0ad046c745942e5fdcfd2b0e546565ed40615f0b3fe9fe36cb0522968b3bf",
        "edges_s100.tsv": "ddc43bd55009d175044f52373df966e94cdff2257c13460a32784d71e8fc3503",
        "edges_s65.tsv": "867d7a7633d29a53f9414268d677686a5caff2298b031308244f9a0ce4c20e9f",
        "metrics.json": "298748e234a7bd506efbbca305b6d9934233ba84cd30f4a7ad3a1ac960dc6d13",
        "nodes_s0.csv": "e2d220351a80be306ed6c635f648a7d7cf0e2d5f632466cd04fb9c09e1a0bd4a",
        "nodes_s100.csv": "b296133e7af377df8d62fc05bf480751661451af2325035e23f9c69b865d8c8f",
        "nodes_s65.csv": "b296133e7af377df8d62fc05bf480751661451af2325035e23f9c69b865d8c8f",
    }

    def test_output_tree_of_duplicated_profiles_is_pinned(self, pipeline, tmp_path):
        """60 users on 7 profiles; home countries and --attributes values
        differ inside a profile, the lone user of set 6 lacks one attribute,
        and some ids need CSV quoting."""
        users = [f"u{i:02d}" for i in range(57)] + ["a,b", 'q"x', "ü-7"]
        records = []
        for i, user in enumerate(users):
            subcats = self.PROFILE_SETS[i % 6 if i else 6]
            for k in range(7 + i % 4):
                records.append(make_checkin(user, f"v{k}", lat=5.0, lon=5.0 + 20.0 * (i // 6 % 3),
                                            subcat=subcats[k % len(subcats)]))
        corpus = write_jsonl(tmp_path / "c.jsonl", records)
        geo = write_geo(tmp_path / "geo.txt", {"AA": (0, 0, 10, 10), "BB": (20, 0, 30, 10),
                                               "CC": (40, 0, 50, 10)})
        store = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--out-dir", str(store)]) == 0
        attrs = tmp_path / "attrs.csv"
        with open(attrs, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "team", "diet"])
            for i, user in enumerate(users + ["not-in-store"]):
                writer.writerow([user, ("red", "blue, green")[i // 4 % 2],
                                 ("veg", "vegan", "any")[i % 5 % 3] if i else ""])
        out = tmp_path / "net"
        assert main(["simnet", "--store", str(store), "--thresholds", "0,65,100",
                     "--attributes", str(attrs), "--out-dir", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == self.PINNED_TREE


FRONT_END = ["tastemap", "tastemap.cli", "tastemap.errors"]
# Every command imports ``model``, and numpy with it.
COMMAND = [*FRONT_END, "tastemap.model"]
STORE_READ = ["tastemap._kernels", "tastemap.csvtext", "tastemap.ingest", "tastemap.store"]
# The tastemap modules a fresh interpreter holds after one command.
LOADED = {
    "synth": sorted([*COMMAND, "tastemap.csvtext", "tastemap.synth"]),
    "ingest": sorted([*COMMAND, *STORE_READ]),
    "simnet": sorted([*COMMAND, *STORE_READ, "tastemap.prefs", "tastemap.simnet"]),
    "signatures": sorted([*COMMAND, *STORE_READ, "tastemap.prefs", "tastemap.signatures"]),
    "cluster": sorted([*COMMAND, *STORE_READ, "tastemap.boundaries", "tastemap.prefs",
                       "tastemap.signatures"]),
}
LOADED["survey"] = LOADED["cluster"]
PRINT_LOADED = ("import json; print(json.dumps({'numpy.ma': 'numpy.ma' in sys.modules, "
                "'tastemap': sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'tastemap')}))")


def test_cli_import_leaves_scipy_stats_out():
    """Importing the front end loads no scipy and no tastemap module beyond
    those that parsing the command line needs."""
    code = ("import sys, tastemap.cli; "
            "print([m for m in ('scipy.stats', 'scipy.special', 'scipy.sparse') "
            "if m in sys.modules]); " + PRINT_LOADED)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    scipy_line, loaded = out.stdout.splitlines()
    assert scipy_line == "[]"
    assert json.loads(loaded)["tastemap"] == FRONT_END


def test_survey_run_loads_no_scipy(pipeline, tmp_path):
    survey = tmp_path / "survey.csv"
    TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(40))
    argv = ["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
            "--out-dir", str(tmp_path / "out")]
    code = ("import sys; from tastemap.cli import main; "
            f"assert main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "survey_comparison.csv").exists()


@pytest.mark.parametrize("command", ["ingest", "cluster", "simnet", "signatures", "survey",
                                     "synth"])
def test_ingest_and_cluster_runs_load_no_numpy_ma(pipeline, tmp_path, command):
    """Counting distinct values with ``np.unique`` can import ``numpy.ma``
    (about 10 ms), which no command needs.  Each command also loads only the
    tastemap modules it runs (``LOADED``)."""
    out = tmp_path / "out"
    survey = tmp_path / "survey.csv"
    TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(46))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"countries": [{"code": "AA", "bbox": [0, 0, 1, 1], "users": 3,
                                               "preferences": {"Pub": 1.0}}]}),
                    encoding="utf-8")
    store = ["--store", str(pipeline["store"])]
    argv = {"synth": ["synth", "--spec", str(spec), "--taxonomy", pipeline["taxonomy"],
                      "--out-dir", str(out)],
            "ingest": ["ingest", "--corpus", str(pipeline["generated"].corpus_path),
                       "--geo", str(pipeline["generated"].geo_path),
                       "--taxonomy", pipeline["taxonomy"], "--out-dir", str(out)],
            "cluster": ["cluster", *store, "--k", "2", "--out-dir", str(out)],
            "simnet": ["simnet", *store, "--out-dir", str(out)],
            "signatures": ["signatures", *store, "--out-dir", str(out)],
            "survey": ["survey", *store, "--survey", str(survey), "--out-dir", str(out)],
            }[command]
    code = ("import sys; from tastemap.cli import main; "
            f"assert main({argv!r}) == 0; " + PRINT_LOADED)
    out_text = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True).stdout
    assert json.loads(out_text.splitlines()[-1]) == {"numpy.ma": False,
                                                     "tastemap": LOADED[command]}
    assert any(out.iterdir())


def run_child(args, **env):
    """``python *args`` in a fresh interpreter, with every warning an error.
    Each keyword sets an environment variable, or unsets it if ``None``."""
    environ = {**os.environ, "PYTHONWARNINGS": "error"}
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=environ)


def run_entry(argv, **env):
    """One command through ``python -m tastemap.cli`` (see ``run_child``)."""
    return run_child(["-m", "tastemap.cli", *argv], **env)


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestModuleEntry:
    """``python -m tastemap.cli`` and the installed ``tastemap`` command start
    through ``cli.entry``, which pins BLAS to one thread, imports numpy,
    freezes the collector and then runs ``main``."""

    def test_stages_write_what_main_writes(self, pipeline, tmp_path):
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(47))
        store = ["--store", str(pipeline["store"])]
        stages = {"ingest": ["ingest", "--corpus", str(pipeline["generated"].corpus_path),
                             "--geo", str(pipeline["generated"].geo_path),
                             "--taxonomy", pipeline["taxonomy"]],
                  "simnet": ["simnet", *store, "--thresholds", "65,80"],
                  "signatures": ["signatures", *store],
                  "cluster": ["cluster", *store, "--k", "3"],
                  "survey": ["survey", *store, "--survey", str(survey)]}
        for stage, argv in stages.items():
            entry_out, main_out = tmp_path / "entry" / stage, tmp_path / "main" / stage
            done = run_entry([*argv, "--out-dir", str(entry_out)])
            assert done.returncode == 0, done.stderr
            assert main([*argv, "--out-dir", str(main_out)]) == 0
            assert tree(entry_out) == tree(main_out), stage

    def test_exit_codes(self, pipeline, tmp_path):
        corpus = write_jsonl(tmp_path / "c.jsonl",
                             [make_checkin(venue=f"v{i}") for i in range(8)])
        geo = write_geo(tmp_path / "geo.txt", {"AA": (0, 0, 10, 10)})
        one_country = tmp_path / "store"
        assert main(["ingest", "--corpus", str(corpus), "--geo", str(geo),
                     "--taxonomy", pipeline["taxonomy"], "--out-dir", str(one_country)]) == 0
        out = ["--out-dir", str(tmp_path / "out")]
        cases = {1: ["frobnicate"],
                 2: ["simnet", "--store", str(tmp_path / "absent"), *out],
                 3: ["signatures", "--store", str(one_country), *out]}
        for code, argv in cases.items():
            done = run_entry(argv)
            assert (done.returncode, done.stdout) == (code, ""), done.stderr

    @pytest.mark.parametrize("module", ["tastemap", "tastemap.cli"])
    def test_import_loads_no_numpy(self, module):
        done = run_child(["-c", f"import sys, {module}; print('numpy' in sys.modules)"])
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_numpy_is_frozen_before_main(self):
        """``entry`` imports numpy before ``gc.freeze()``, so numpy's import
        objects are frozen too: a probe in place of ``main`` sees numpy
        loaded and at least as many frozen objects as a bare numpy import."""
        probe = run_child(["-c", "import gc, json, sys, tastemap.cli as cli; "
                           "cli.main = lambda: print(json.dumps(['numpy' in sys.modules, "
                           "gc.get_freeze_count()])) or 0; sys.exit(cli.entry())"])
        bare = run_child(["-c", "import gc, numpy; gc.freeze(); print(gc.get_freeze_count())"])
        assert probe.returncode == bare.returncode == 0, probe.stderr + bare.stderr
        loaded, frozen = json.loads(probe.stdout)
        assert loaded
        assert frozen >= int(bare.stdout)

    def test_same_bytes_on_any_blas_thread_count(self, pipeline, tmp_path):
        """``entry`` runs BLAS on one thread whatever the environment says;
        ``np.linalg.eigh`` gives other last bits on two threads."""
        argv = ["cluster", "--store", str(pipeline["store"]), "--level", "grid",
                "--cities", str(pipeline["generated"].cities_path), "--rows", "3", "--cols", "3"]
        trees = []
        for threads in (None, "1", "2"):
            out = tmp_path / str(threads)
            done = run_entry([*argv, "--out-dir", str(out)], OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
            trees.append(tree(out))
        assert trees[0] == trees[1] == trees[2]

    def test_same_bytes_on_any_hash_seed(self, pipeline, tmp_path):
        """Every run through ``main`` in one test process shares one string
        hash seed; fresh interpreters on two seeds write the same bytes."""
        generated = pipeline["generated"]
        store = ["--store", str(pipeline["store"])]
        cities = ["--cities", str(generated.cities_path)]
        stages = {"signatures": ["signatures", *store, "--level", "grid", *cities],
                  "cluster": ["cluster", *store, "--level", "city", *cities],
                  "simnet": ["simnet", *store, "--attributes", str(generated.labels_path)]}
        trees = []
        for seed in ("0", "1"):
            for stage, argv in stages.items():
                done = run_entry([*argv, "--out-dir", str(tmp_path / seed / stage)],
                                 PYTHONHASHSEED=seed)
                assert done.returncode == 0, done.stderr
            trees.append(tree(tmp_path / seed))
        assert trees[0] == trees[1]

    def test_installed_command_is_the_same_entry(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        script = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert script["tastemap"] == f"{entry.__module__}:{entry.__name__}"


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

    @pytest.mark.parametrize("scope,message", [
        pytest.param("all,Nope", "Nope", id="unknown"),
        pytest.param("", "no scope", id="empty"),
        pytest.param(",", "no scope", id="commas"),
    ])
    def test_unknown_scope_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                      scope, message):
        out = tmp_path / "sig"
        assert main(["signatures", "--store", str(pipeline["store"]),
                     "--scope", scope, "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["signatures", "cluster"])
    def test_negative_top_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / command
        assert main([command, "--store", str(pipeline["store"]), "--level", "grid",
                     "--cities", str(pipeline["generated"].cities_path), "--rows", "2",
                     "--cols", "2", "--top", "-3", "--out-dir", str(out)]) == 2
        assert "--top" in capsys.readouterr().err
        assert not out.exists()

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
        from ari import adjusted_rand_index

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

    @pytest.mark.parametrize("coverage", ["0", "-0.5", "2", "nan"])
    def test_coverage_outside_unit_interval_exits_2(self, pipeline, tmp_path, capsys, coverage):
        out = tmp_path / "cluster"
        assert main(["cluster", "--store", str(pipeline["store"]), "--k", "3",
                     "--coverage", coverage, "--out-dir", str(out)]) == 2
        assert "coverage" in capsys.readouterr().err
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


# Two FastFood weekend slots a mirrored pair of countries swaps, and two
# slots every country fills in its own way (one outside dataset2's block).
MIRRORED = (("Burger Joint", "2024-04-20T08:00:00"), ("Burger Joint", "2024-04-21T20:00:00"))
SHARED = (("Pizza Place", "2024-04-20T13:00:00"), ("Pub", "2024-04-16T21:00:00"))


def survey_ranking(target, vectors):
    """Oracle: the other countries by descending signed squared cosine to
    the target, in exact rationals; ties by country code."""
    t = vectors[target]

    def key(c):
        dot = sum(x * y for x, y in zip(t, vectors[c]))
        return -dot * abs(dot) / sum(x * x for x in vectors[c]), c

    return sorted((c for c in vectors if c != target), key=key)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_survey_ties_mirrored_countries_by_code(data):
    """Countries whose check-ins are each other's mirror image over two
    slots tie for every country that is symmetric in those slots; the tie
    must order by country code in both datasets, however rounding in the
    centering or a rotation of the rows falls."""
    counts = st.integers(0, 60)
    pairs = data.draw(st.integers(1, 3))
    rows = []
    for _ in range(data.draw(st.integers(max(0, 4 - 2 * pairs), 4))):
        a = data.draw(counts)
        rows.append((a, a, data.draw(counts), data.draw(counts)))
    for _ in range(pairs):
        a, b, z, w = (data.draw(counts) for _ in range(4))
        rows += [(a, b, z, w), (b, a, z, w)]
    assume(all(any(row) for row in rows))
    codes = data.draw(st.permutations([f"C{i}" for i in range(len(rows))]))
    survey = {c: [data.draw(st.integers(-9, 9)) / 10 for _ in range(2)] for c in codes}
    assume(all(any(v) for v in survey.values()))

    # Each row divided by its largest count, as floats; then centered exactly.
    floats = [[x / max(row) for x in row] for row in rows]
    expected = {}
    for name, cols in (("dataset1", range(4)), ("dataset2", range(3))):
        exact = [[Fraction(row[k]) for k in cols] for row in floats]
        sums = [sum(col) for col in zip(*exact)]
        centered = {c: [len(rows) * x - s for x, s in zip(row, sums)]
                    for c, row in zip(codes, exact)}
        assume(all(any(v) for v in centered.values()))
        decimal = {c: [Fraction(repr(x)) for x in v] for c, v in survey.items()}
        expected[name] = {}
        for c in codes:
            ours = survey_ranking(c, centered)
            pos = {x: i for i, x in enumerate(ours)}
            ranks = [pos[x] for x in survey_ranking(c, decimal)]
            expected[name][c] = 1 - 6 * sum((i - r) ** 2 for i, r in enumerate(ranks)) / (
                len(ranks) * (len(ranks) ** 2 - 1))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "corpus.jsonl", "w", encoding="utf-8") as fh:
            for i, (code, row) in enumerate(zip(codes, rows)):
                for (subcat, ts), n in zip(MIRRORED + SHARED, row):
                    fh.writelines(json.dumps({"user": code, "venue": f"v{i}", "lat": 1.0,
                                              "lon": 10.0 * i + 1.0, "ts": ts,
                                              "subcat": subcat}) + "\n" for _ in range(n))
        (tmp / "geo.txt").write_text("".join(
            f"{code}\t{10 * i},0;{10 * i + 5},0;{10 * i + 5},5;{10 * i},5;{10 * i},0\n"
            for i, code in enumerate(codes)), encoding="utf-8")
        (tmp / "survey.csv").write_text(SURVEY_HEADER + "".join(
            f"{c},{x!r},{y!r}\n" for c, (x, y) in survey.items()), encoding="utf-8")
        assert main(["ingest", "--corpus", str(tmp / "corpus.jsonl"), "--geo",
                     str(tmp / "geo.txt"), "--taxonomy", str(reference_taxonomy_path()),
                     "--min-checkins", "1", "--out-dir", str(tmp / "store")]) == 0
        assert main(["survey", "--store", str(tmp / "store"), "--survey",
                     str(tmp / "survey.csv"), "--out-dir", str(tmp / "out")]) == 0
        got = json.loads((tmp / "out" / "survey_comparison.json").read_text(encoding="utf-8"))
    for name, rhos in expected.items():
        assert {c: r["rho"] for c, r in got[name].items()} == pytest.approx(rhos, rel=1e-12)


class TestOverrideTaxonomy:
    """A --taxonomy that drops every subcategory one country's users checked
    in at leaves that country a candidate area without check-ins."""

    @staticmethod
    def without(pipeline, path, country):
        """A copy of the store's taxonomy at ``path`` without any subcategory
        that a user of ``country`` checked in at."""
        store = pipeline["store"]
        home = dict(read_csv(store / "home_countries.csv")[1:])
        used = {row[5] for row in read_csv(store / "corpus.csv")[1:] if home[row[0]] == country}
        lines = Path(pipeline["taxonomy"]).read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if line.rstrip("\n").partition("\t")[2] not in used),
                        encoding="utf-8")
        return path

    @pytest.fixture
    def narrow(self, pipeline, tmp_path):
        return self.without(pipeline, tmp_path / "narrow.txt", "C5")

    def test_signatures_and_cluster_list_the_country_as_empty(self, pipeline, tmp_path, narrow):
        common = ["--store", str(pipeline["store"]), "--taxonomy", str(narrow),
                  "--level", "country"]
        assert main(["signatures", *common, "--out-dir", str(tmp_path / "sig")]) == 0
        areas = json.loads((tmp_path / "sig" / "areas_used.json").read_text())
        assert areas == {"areas_used": [f"C{i}" for i in range(5)], "excluded_empty": ["C5"]}
        assert main(["cluster", *common, "--k", "3", "--out-dir", str(tmp_path / "cl")]) == 0
        report = json.loads((tmp_path / "cl" / "cluster_report.json").read_text())
        assert report["excluded_empty"] == ["C5"]

    def test_survey_of_the_emptied_country_exits_2(self, pipeline, tmp_path, narrow):
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(43))
        out = tmp_path / "survey_out"
        assert main(["survey", "--store", str(pipeline["store"]), "--taxonomy", str(narrow),
                     "--survey", str(survey), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_survey_names_the_emptied_country(self, pipeline, tmp_path, capsys):
        narrow = self.without(pipeline, tmp_path / "narrow.txt", "C2")
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(44))
        out = tmp_path / "survey_out"
        assert main(["survey", "--store", str(pipeline["store"]), "--taxonomy", str(narrow),
                     "--survey", str(survey), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "tastemap: data error: area 'C2' has no check-ins\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["signatures", "cluster", "survey"])
    def test_city_listed_twice(self, pipeline, tmp_path, capsys, command):
        # For survey, the repeated row is a country of the survey file.
        side = tmp_path / "side.csv"
        out = tmp_path / "out"
        if command == "survey":
            side.write_text(SURVEY_HEADER + "C0,0.1,0.2\nC1,0.3,0.4\nC0,0.5,0.6\n",
                            encoding="utf-8")
            argv = ["--survey", str(side)]
            line, repeated = 4, "'C0' twice"
        else:
            side.write_text(self.CITIES + "C0-east,C0,-60,0,-55,10\n", encoding="utf-8")
            argv = ["--level", "city", "--cities", str(side)]
            line, repeated = 3, "'C0-east' twice"
        assert main([command, "--store", str(pipeline["store"]), *argv,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{side} line {line}:" in err and repeated in err
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


    @pytest.mark.parametrize("row", ["C1,nan,-0.68", "C1,0.5,inf", "C1,-Infinity,0.5"])
    def test_non_finite_survey_value_exits_2(self, pipeline, tmp_path, capsys, row):
        # Six countries, enough to rank: only the non-finite value is wrong.
        others = "".join(f"C{i},0.{i},-0.{i}\n" for i in range(2, 6))
        survey = tmp_path / "survey.csv"
        survey.write_text(SURVEY_HEADER + "C0,0.1,0.2\n" + row + "\n" + others,
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["survey", "--store", str(pipeline["store"]), "--survey", str(survey),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{survey} line 3:" in err and "not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("level", ["city", "grid"])
    @pytest.mark.parametrize("edge", ["inf", "-inf", "nan"])
    def test_non_finite_city_edge_exits_2(self, pipeline, tmp_path, capsys, level, edge):
        cities = tmp_path / "cities.csv"
        cities.write_text(self.CITIES + f"C0-west,C0,-55,0,{edge},10\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["signatures", "--store", str(pipeline["store"]), "--level", level,
                     "--cities", str(cities), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cities} line 3: max_lon is not a finite number: '{edge}'" in err
        assert not out.exists()


class TestNonUtf8Input:
    """Every text input is UTF-8; a file that is not is a data error."""

    @pytest.mark.parametrize("bad", ["corpus", "geo", "taxonomy", "spec", "cities", "survey",
                                     "attributes"])
    def test_exits_2_with_one_line_and_writes_nothing(self, pipeline, tmp_path, capsys, bad):
        generated, store = pipeline["generated"], str(pipeline["store"])
        spec = json.dumps({"countries": [{"code": "AA", "bbox": [0, 0, 1, 1], "users": 1,
                                          "preferences": {"Pub": 1.0}}]})
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(45))
        sources = {"corpus": generated.corpus_path.read_bytes(),
                   "geo": generated.geo_path.read_bytes(),
                   "taxonomy": Path(pipeline["taxonomy"]).read_bytes(),
                   "spec": spec.encode(),
                   "cities": generated.cities_path.read_bytes(),
                   "survey": survey.read_bytes(),
                   "attributes": b"user,continent\nu1,EU\n"}
        paths = {}
        for name, data in sources.items():
            paths[name] = str(tmp_path / f"{name}.in")
            # A Latin-1 "Caf\xe9" row after the valid text.
            Path(paths[name]).write_bytes(data + b"Caf\xe9\n" * (name == bad))
        out = tmp_path / "out"
        argv = {
            "corpus": ["ingest", "--corpus", paths["corpus"], "--geo", paths["geo"],
                       "--taxonomy", paths["taxonomy"]],
            "spec": ["synth", "--spec", paths["spec"], "--taxonomy", paths["taxonomy"]],
            "cities": ["signatures", "--store", store, "--level", "city",
                       "--cities", paths["cities"]],
            "survey": ["survey", "--store", store, "--survey", paths["survey"]],
            "attributes": ["simnet", "--store", store, "--attributes", paths["attributes"]],
        }
        argv["geo"] = argv["taxonomy"] = argv["corpus"]
        assert main([*argv[bad], "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tastemap: data error: an input file is not UTF-8 (")
        assert err.endswith(", byte 0xe9)\n") and err.count("\n") == 1
        assert f"({paths[bad]}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["taxonomy.txt", "manifest.json"])
    def test_store_file_is_named(self, pipeline, tmp_path, capsys, name):
        store = tmp_path / "store"
        shutil.copytree(pipeline["store"], store)
        with open(store / name, "ab") as fh:
            fh.write(b"Caf\xe9\n")
        survey = tmp_path / "survey.csv"
        TestSurvey().write_survey(survey, [f"C{i}" for i in range(6)], np.random.default_rng(45))
        out = tmp_path / "out"
        assert main(["survey", "--store", str(store), "--survey", str(survey),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"tastemap: data error: an input file is not UTF-8 ({store / name}: "
                       "invalid continuation byte, byte 0xe9)\n")
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
