#!/usr/bin/env python3
"""Opt-in user-count sweep of simnet; not a gated workload.

Scales the ``users`` workload shape to each total user count, runs
``tastemap ingest`` and ``tastemap simnet`` as children, checks simnet's
edges against the oracle, and records ``simnet_s`` and ``peak_rss_mb`` so
the growth exponent of time and memory in the user count shows::

    python3 perfbench/sweep.py --seed 1      # 2000, 4000 and 8000 users

Before a point starts, its dense pair-scoring footprint is predicted as
``DENSE_BYTES_PER_PAIR * n**2`` (about 40 GB at 32k users).  A point whose
prediction exceeds the memory cap, half of the memory available when the
sweep starts, is recorded as skipped and not run.  One JSON line per point is printed and
the whole sweep is written to ``.perfbench/points/sweep-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import run
from checks import Oracle
from workloads import WORKLOADS, build_inputs, stage_argv

# The dense kernel holds the n x n intersection and union matrices, the
# upper-triangle index pairs and their gathered scores: about 40 bytes per
# user pair (measured 107 MB over the interpreter's baseline at 1,600 users).
DENSE_BYTES_PER_PAIR = 40
BASELINE_MB = 120.0
USER_COUNTS = (2000, 4000, 8000)


def predicted_mb(n_users: int) -> float:
    return BASELINE_MB + DENSE_BYTES_PER_PAIR * n_users**2 / (1024.0 * 1024.0)


def available_mb() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("MemAvailable not found in /proc/meminfo")


def sweep_point(n_users: int, seed: int, cap_mb: float, work: Path) -> dict:
    shape = WORKLOADS["users"]
    shape = replace(shape, users=max(1, n_users // shape.countries))
    n = shape.users * shape.countries
    point = {"users": n, "predicted_mb": predicted_mb(n), "cap_mb": cap_mb}
    if point["predicted_mb"] > cap_mb:
        return {**point, "skipped": True}
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = build_inputs(shape, seed, work / "inputs")
        codes = {}
        for stage in ("ingest", "simnet"):
            seconds, codes[stage], rss = run.run_stage(
                stage_argv(shape, inputs, stage, work), work / f"{stage}.log")
        problems = [f"{s}: exit code {c}" for s, c in codes.items() if c]
        if not problems:
            problems = Oracle(shape, inputs).check("simnet", work / "simnet")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {**point, "skipped": False, "simnet_s": seconds, "peak_rss_mb": rss,
            "correct": not problems, "problems": problems[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cap = available_mb() / 2.0
    points = []
    for n in USER_COUNTS:
        point = sweep_point(n, args.seed, cap, run.WORK / "work-sweep")
        done = [p for p in points if not p["skipped"]]
        if not point["skipped"] and done:
            prev = done[-1]
            ratio = math.log(point["users"] / prev["users"])
            point["time_exponent"] = math.log(point["simnet_s"] / prev["simnet_s"]) / ratio
            point["rss_exponent"] = math.log(point["peak_rss_mb"] / prev["peak_rss_mb"]) / ratio
        points.append(point)
        print(json.dumps(point), flush=True)
    out = run.WORK / "points" / f"sweep-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": run.environment(), "points": points}, indent=1),
                   encoding="utf-8")
    return 0 if all(p.get("correct", True) for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
