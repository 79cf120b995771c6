"""The benchmark harness's own test: ``python3 -m pytest perfbench``.

Runs every workload at a tiny scale, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit, and that a
corrupted stage output (a dropped edge line, a wrong PCA score, a wrong
Spearman rho) is counted as a failed operation without ending the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "users": replace(WORKLOADS["users"], users=6, checkins=(7, 9)),
    "grid": replace(WORKLOADS["grid"], users=8, checkins=(20, 30), grid=2, top=3),
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_the_workloads_and_metrics_the_harness_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, record = run.run_workload(name, TINY[name], 3, 0.01, trace, tmp_path / "work")
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert set((tmp_path / "points" / f"{name}-seed3-trace1").iterdir())
    else:
        assert all(result["metrics"][m]["value"] > 0 for m, _ in run.END_TO_END)


def _drop_first_edge(out: Path) -> None:
    edges = out / "edges_s65.tsv"
    lines = edges.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines, "the tiny users workload must have edges at threshold 65"
    edges.write_text("".join(lines[1:]), encoding="utf-8")


def _scale_first_score(out: Path) -> None:
    path = out / "pca_scores.csv"
    header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    area, value, *others = first.rstrip("\n").split(",")
    path.write_text(header + ",".join([area, repr(1.5 * float(value)), *others]) + "\n"
                    + "".join(rest), encoding="utf-8")


def _negate_first_rho(out: Path) -> None:
    path = out / "survey_comparison.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    row = next(iter(doc["dataset1"].values()))
    row["rho"] = -row["rho"] if row["rho"] else 0.5
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("stage, corrupt, message", [
    ("simnet", _drop_first_edge, "simnet s65"),
    ("cluster", _scale_first_score, "cluster: PCA scores"),
    ("survey", _negate_first_rho, "survey: dataset1/"),
], ids=["dropped-edge", "pca-score", "survey-rho"])
def test_corrupted_output_is_a_failed_operation(stage, corrupt, message, monkeypatch, tmp_path):
    original = run.run_stage

    def corrupting(argv, log):
        outcome = original(argv, log)
        if argv[0] == stage:
            corrupt(Path(argv[argv.index("--out-dir") + 1]))
        return outcome

    monkeypatch.setattr(run, "run_stage", corrupting)
    result, record = run.run_workload("users", TINY["users"], 3, 0.01, False, tmp_path / "w")
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == run.SETUP_REPEATS + len(run.STAGES)
    assert record["fail_frac"] == 1 / result["attempted"]
    assert message in record["problems"][0]
