#!/usr/bin/env python3
"""Pipeline benchmark of tastemap: stage wall times, peak RSS and a traced
per-layer run, on two seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload users --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload grid --seed 1 --seconds 58 --trace 1
    python3 perfbench/summary.py --seconds 58     # all workloads, one table
    python3 perfbench/sweep.py                    # opt-in user-count sweep
    python3 -m pytest perfbench                   # the harness's own test

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run record (environment, kernel path, workload
properties, every sample).  The record and the raw spans of a traced run
are also kept under ``.perfbench/points/``.

What a run does
---------------
1. ``--trace 0``: build the workload's inputs from the seed (generator
   spec, ``synth.generate_corpus``, polygon file, survey file), then run
   passes for the rest of ``--seconds``, building the inputs again after
   every pass and at least five times in all (the first build serves every
   pass; the others must reproduce its corpus digest).  A pass runs
   ``ingest -> simnet -> signatures -> cluster -> survey``, each stage as
   its own ``python -m tastemap.cli <stage>`` child, timed from spawn to
   exit.  Peak RSS is the child's ``ru_maxrss`` from ``os.wait4``; the run
   record keeps it per stage.
2. ``--trace 1``: build the inputs once with tracing on, then run the same
   stages, each in a child that calls ``tastemap.cli.main`` in-process
   three times: a warm-up whose output is discarded, untraced, and with
   every function in ``tracing.SPANS`` wrapped (see ``tracing.py``).
3. Check every stage's outputs against oracles computed here from the
   inputs (``checks.py``) and against the first pass byte for byte.  An
   operation is one set-up or one stage run, plus its checks; a nonzero
   exit or a failed check is a failed operation.  ``fail_frac`` = failed /
   attempted.

End-to-end metrics (``--trace 0``)
----------------------------------
============  ====  ======================================================
setup_s       s     build the inputs
ingest_s      s     ``tastemap ingest`` child, spawn to exit
simnet_s      s     ``tastemap simnet`` (8 thresholds 65..100)
signatures_s  s     ``tastemap signatures`` at the workload's level
cluster_s     s     ``tastemap cluster`` at the workload's level
survey_s      s     ``tastemap survey`` (both datasets)
pipeline_s    s     sum of the five stage times of one pass
peak_rss_mb   MB    largest ``ru_maxrss`` over the stage children of a pass
============  ====  ======================================================

Each value is the median over the run's set-ups or passes; every sample is
kept in the run record.  On a shared 2-vCPU Xeon virtual machine, other
tenants slowed every CPU by up to about 1.7x, in phases lasting from a
second to minutes (a fixed CPU-bound loop read 0.067 s at its first decile
and 0.109 s at its ninth over 40 s), so a run's medians move with the
machine's load at the time; compare runs made close together, or alternate
parent and change.

``fail_frac`` is reported through the result's ``attempted``/``failed``
(and by ``summary.py``), not as a gated metric: it is 0 on correct code and
a gated metric must never be 0.

Workloads (see ``workloads.WORKLOADS``)
---------------------------------------
Shares below are from traced runs at seed 7 on a 2-vCPU Xeon virtual
machine.  Every stage child first spends about 1.5 s starting the
interpreter and importing numpy and scipy; that floor is in every ``*_s``.

``users``  8 countries x 250 users x 7-12 check-ins (2,000 users, ~19k
           check-ins), country level, rectangular rings.  Pair scoring is
           quadratic in users: ``kernels.jaccard_edges`` is 84% of the
           in-process simnet (2.6 of 3.1 s), about 40% of ``simnet_s``, and
           its dense arrays (tracemalloc peak 158 MB) make the simnet child
           the largest (275 MB against 110-126 MB for every other stage),
           so they set ``peak_rss_mb``.  With 8 country areas and few
           check-ins, area and per-check-in work is light.
``grid``   4 countries x 40 users x 100-200 check-ins (160 users, ~23k
           check-ins), 2 cities per country, 6x6 grid keeping the 32
           busiest cells per city (256 cells), country rings densified to
           256 vertices (same region, so every home assignment is
           unchanged).  Cell-pair correlation is quadratic in cells: in the
           in-process signatures (4.8 s), ``signatures.pearson`` (130k
           calls) is 45%, ``write_matrix_csv`` 17% and the
           ``correlation_matrix`` loop 5%, together about half of
           ``signatures_s``; bbox masks and region counts are another 23%.
           Per-check-in work is real but small next to the interpreter
           start: parsing the store is 0.15-0.3 s of every command,
           geocoding against the dense rings 0.16 s of ingest, and the
           ingest child (geocoding peak 40 MB) sets ``peak_rss_mb``
           (156 MB).  160 users make pair scoring light (0.02 s).

Each workload is the other's control: a change aimed at one should move its
metrics there and leave the other's unchanged.  Per-check-in work is the
exception; both workloads carry it (see below the table).

Per-layer metrics (``--trace 1``) and the end-to-end metric each should move
----------------------------------------------------------------------------
Names are ``<module>.<function>.<unit>``, with ``kernels`` for the module
``_kernels`` (a metric name starts with a letter): ``.s`` inclusive seconds summed
over calls, ``.self_s`` seconds minus the time covered by child spans,
``.calls`` call count.

=============================================================  ==================  =====  ======
per-layer metrics                                              should move         on     not on
=============================================================  ==================  =====  ======
kernels.jaccard_edges.{s,calls,pairs_scored,edges,edge_yield,  simnet_s,           users  grid
peak_mb}, prefs.distinct_profile_share, prefs.build_profiles.s  peak_rss_mb
simnet.build_network.self_s, simnet.component_sizes.{s,calls},  simnet_s            users  grid
simnet.{categorical,degree}_assortativity.s,
simnet.write_{edge_list,node_attributes}.s
signatures.pearson.{s,calls}, signatures.correlation_matrix.    signatures_s        grid   users
self_s, signatures.write_matrix_csv.s
ingest.area_mask.{s,calls,rows_scanned,hit_ratio},             signatures_s,       grid   users
prefs.region_counts.{s,calls}, signatures.{temporal_series,     cluster_s
spatiotemporal_vector,subcategory_entropy}.{s,calls},
signatures.entropy_summary.s, ingest.top_cells.s
boundaries.fit_pca.s, boundaries.kmeans_cosine.{s,iterations},  cluster_s,          grid   users
boundaries.compare_with_survey.s                               survey_s
ingest.parse_corpus.{s,calls,records}, ingest.filter_active_    ingest_s and every  both   -
users.s, ingest.assign_home_country.self_s, cli.<stage>.self_s  analysis *_s
(store read/write, report writing), cli.<stage>.bytes_written
kernels.assign_countries.{s,points,peak_mb},                    ingest_s,           grid   users
ingest.load_geo_index.s                                        peak_rss_mb (grid)
synth.generate_corpus.{s,records}                              setup_s             both   -
=============================================================  ==================  =====  ======

The per-check-in rows move on both workloads, in proportion to their
check-ins (about 19k on ``users``, 23k on ``grid``); geocoding moves on
``grid`` only, where the rings have 256 vertices instead of 4.

Also per stage: ``cli.<stage>.s`` (traced wall time of ``cli.main``) and
``cli.<stage>.trace_overhead_frac`` (traced / untraced in-process time - 1,
both timed after the warm-up).
``pairs_scored`` is computed as n(n-1)/2 per call from the profile count.
``edge_yield`` = edges / pairs_scored, ``hit_ratio`` = rows selected / rows
scanned, ``distinct_profile_share`` = distinct profile rows / users, and
``peak_mb`` is the tracemalloc peak, started and stopped around that call.

Reading a trace
---------------
``.perfbench/points/<workload>-seed<n>-trace1/<stage>.json`` holds, for the
last traced pass, ``raw_spans`` as ``[name, parent index, start, end]``
(``perf_counter`` seconds; parent -1 is the root ``cli.<stage>``) and
``spans`` aggregated per name.  Self times of all spans of a stage add up
to its ``cli.<stage>.s``; the largest self times are where the stage's
time goes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
if not (SRC / "tastemap" / "cli.py").is_file():
    sys.exit(f"perfbench: no tastemap sources under {SRC}")
sys.path.insert(0, str(SRC))  # measure the checkout's own sources, not an installed copy

from checks import Oracle, tree_bytes, tree_digest  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS, build_inputs, stage_argv  # noqa: E402

END_TO_END = [("setup_s", "s"), *((f"{s}_s", "s") for s in STAGES),
              ("pipeline_s", "s"), ("peak_rss_mb", "MB")]
_SPAN_METRICS = {  # span name -> aggregates reported ("s", "self_s", "calls")
    "kernels.jaccard_edges": ("s", "calls"),
    "simnet.build_network": ("self_s",),
    "simnet.component_sizes": ("s", "calls"),
    "simnet.categorical_assortativity": ("s",),
    "simnet.degree_assortativity": ("s",),
    "simnet.write_edge_list": ("s",),
    "simnet.write_node_attributes": ("s",),
    "signatures.pearson": ("s", "calls"),
    "signatures.correlation_matrix": ("self_s",),
    "signatures.write_matrix_csv": ("s",),
    "ingest.area_mask": ("s", "calls"),
    "prefs.build_profiles": ("s",),
    "prefs.region_counts": ("s", "calls"),
    "signatures.temporal_series": ("s", "calls"),
    "signatures.spatiotemporal_vector": ("s", "calls"),
    "signatures.subcategory_entropy": ("s", "calls"),
    "signatures.entropy_summary": ("s",),
    "ingest.top_cells": ("s",),
    "boundaries.fit_pca": ("s",),
    "boundaries.kmeans_cosine": ("s",),
    "boundaries.compare_with_survey": ("s",),
    "ingest.parse_corpus": ("s", "calls"),
    "ingest.filter_active_users": ("s",),
    "ingest.assign_home_country": ("self_s",),
    "kernels.assign_countries": ("s",),
    "ingest.load_geo_index": ("s",),
    "synth.generate_corpus": ("s",),
}
_COUNT_METRICS = [  # counter name, unit
    ("kernels.jaccard_edges.pairs_scored", "count"),
    ("kernels.jaccard_edges.edges", "count"),
    ("kernels.jaccard_edges.peak_mb", "MB"),
    ("ingest.area_mask.rows_scanned", "count"),
    ("boundaries.kmeans_cosine.iterations", "count"),
    ("ingest.parse_corpus.records", "count"),
    ("kernels.assign_countries.points", "count"),
    ("kernels.assign_countries.peak_mb", "MB"),
    ("synth.generate_corpus.records", "count"),
]
_RATIOS = [  # name, numerator counter, denominator counter
    ("kernels.jaccard_edges.edge_yield", "kernels.jaccard_edges.edges",
     "kernels.jaccard_edges.pairs_scored"),
    ("ingest.area_mask.hit_ratio", "ingest.area_mask.rows_selected",
     "ingest.area_mask.rows_scanned"),
    ("prefs.distinct_profile_share", "prefs.build_profiles.distinct",
     "prefs.build_profiles.users"),
]
PER_LAYER = (
    [(f"{span}.{agg}", "count" if agg == "calls" else "s")
     for span, aggs in _SPAN_METRICS.items() for agg in aggs]
    + _COUNT_METRICS
    + [(name, "ratio") for name, _, _ in _RATIOS]
    + [(f"cli.{stage}.{m}", unit) for stage in STAGES
       for m, unit in (("s", "s"), ("self_s", "s"), ("bytes_written", "bytes"),
                       ("trace_overhead_frac", "ratio"))]
)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def run_stage(argv: list[str], log: Path) -> tuple[float, int, float]:
    """One ``tastemap <stage>`` run as users run it: a fresh interpreter."""
    return run_child([sys.executable, "-m", "tastemap.cli", *argv], log)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy
    from tastemap import _kernels

    return {
        "kernel_path": "numba" if _kernels.NUMBA_ENABLED else "numpy-dense",
        "HAVE_NUMBA": bool(_kernels.HAVE_NUMBA),
        "NUMBA_ENABLED": bool(_kernels.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: set-up, passes until the time is up, checks."""

    def __init__(self, name, shape, seed, seconds, trace, work: Path):
        self.name, self.shape, self.seed = name, shape, seed
        self.seconds, self.trace, self.work = seconds, trace, work
        self.attempted = 0
        self.problems: list[str] = []
        self.first: dict[str, tuple[str, list[str]]] = {}  # stage -> (digest, problems)
        self.setup_tracer = Tracer() if trace else None

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
            self.problems.append("; ".join(problems[:3]) + more)

    def setup(self, rep: int) -> float:
        """Build the inputs (traced in a traced run); the first build serves
        every pass, later builds must reproduce its corpus byte for byte."""
        root = self.work / f"inputs{rep}"
        start = time.perf_counter()
        if self.setup_tracer is None:
            inputs = build_inputs(self.shape, self.seed, root)
        else:
            with self.setup_tracer:
                inputs = build_inputs(self.shape, self.seed, root)
        elapsed = time.perf_counter() - start
        if rep == 0:
            self.inputs, self.oracle = inputs, Oracle(self.shape, inputs)
            self.operation([])
        else:
            shutil.rmtree(root)
            self.operation([] if inputs.corpus_sha256 == self.inputs.corpus_sha256
                           else ["setup: corpus digest differs from the first set-up"])
        return elapsed

    def verify(self, stage: str, out: Path) -> list[str]:
        """Oracle checks on a stage's first output; a later output must be
        byte-identical to it and so shares its verdict."""
        digest = tree_digest(out)
        if stage not in self.first:
            self.first[stage] = (digest, self.oracle.check(stage, out))
        first, problems = self.first[stage]
        return problems if digest == first else [f"{stage}: output differs from the first pass"]

    def plain_pass(self, pdir: Path) -> dict:
        sample = {"rss_mb": 0.0, "stage_rss_mb": {}}
        for stage in STAGES:
            argv = stage_argv(self.shape, self.inputs, stage, pdir)
            elapsed, code, rss = run_stage(argv, pdir / f"{stage}.log")
            out = pdir / ("store" if stage == "ingest" else stage)
            problems = [f"{stage}: exit code {code}"] if code else []
            if not code:
                problems += self.verify(stage, out)
            self.operation(problems)
            sample[stage] = elapsed
            sample["stage_rss_mb"][stage] = rss
            sample["rss_mb"] = max(sample["rss_mb"], rss)
        return sample

    def traced_pass(self, pdir: Path) -> dict:
        sample = {"spans": {}, "counts": {}, "stages": {}}
        for stage in STAGES:
            plain = pdir / ("store" if stage == "ingest" else stage)
            traced = plain.with_name(plain.name + ".traced")
            request = {"stage": stage, "argv": stage_argv(self.shape, self.inputs, stage, pdir),
                       "plain_out": str(plain), "traced_out": str(traced),
                       "result": str(pdir / f"{stage}.trace.json")}
            req_path = pdir / f"{stage}.request.json"
            req_path.write_text(json.dumps(request), encoding="utf-8")
            _, code, _ = run_child([sys.executable, str(HERE / "tracing.py"), str(req_path)],
                                   pdir / f"{stage}.log")
            if code:
                self.operation([f"{stage}: traced child exit code {code}"])
                continue
            result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
            problems = self.verify(stage, plain)
            if tree_digest(plain) != tree_digest(traced):
                problems.append(f"{stage}: traced output differs from untraced output")
            if stage == "signatures":
                problems += self.oracle.check_region_totals(result["region_totals"])
            self.operation(problems)
            for span, agg in result["spans"].items():
                total = sample["spans"].setdefault(span, {"s": 0.0, "self_s": 0.0, "calls": 0})
                for key in total:
                    total[key] += agg[key]
            for key, value in result["counts"].items():
                merge = max if key.endswith("peak_mb") else (lambda a, b: a + b)
                sample["counts"][key] = merge(sample["counts"].get(key, 0), value)
            sample["stages"][stage] = {
                "s": result["traced_s"],
                "self_s": result["spans"][f"cli.{stage}"]["self_s"],
                "bytes_written": tree_bytes(traced),
                "trace_overhead_frac": result["traced_s"] / result["plain_s"] - 1.0,
            }
        return sample

    def measure(self) -> tuple[list[float], list[dict]]:
        """Set up, then run passes for the rest of ``seconds``: a pass starts
        only if a pass of the mean length so far still ends in time, and
        there is at least one.  An untraced run sets up again after every
        pass, so its set-up samples span the run as the stage samples do,
        and ends with at least ``SETUP_REPEATS`` set-ups."""
        start = time.perf_counter()
        setups = [self.setup(0)]
        samples = []
        passes_start = time.perf_counter()
        while not samples or (
            time.perf_counter() - start
            + (time.perf_counter() - passes_start) / len(samples)
            <= self.seconds
        ):
            rep = len(samples)
            pdir = self.work / f"pass{rep}"
            pdir.mkdir(parents=True)
            samples.append(self.traced_pass(pdir) if self.trace else self.plain_pass(pdir))
            if rep > 0:
                shutil.rmtree(self.work / f"pass{rep - 1}")
            if not self.trace:
                setups.append(self.setup(len(setups)))
        while not self.trace and len(setups) < SETUP_REPEATS:
            setups.append(self.setup(len(setups)))
        return setups, samples

    @staticmethod
    def end_to_end(setups, samples) -> dict[str, float]:
        """Medians over the run's set-ups and passes."""
        values = {"setup_s": statistics.median(setups)}
        for stage in STAGES:
            values[f"{stage}_s"] = statistics.median(s[stage] for s in samples)
        values["pipeline_s"] = statistics.median(sum(s[st] for st in STAGES) for s in samples)
        values["peak_rss_mb"] = statistics.median(s["rss_mb"] for s in samples)
        return values

    def per_layer(self, samples) -> dict[str, float]:
        setup = self.setup_tracer
        setup_spans = setup.aggregate() if setup else {}
        setup_counts = dict(setup.counts) if setup else {}

        def one(sample):
            spans = {**sample["spans"], **setup_spans}
            counts = {**sample["counts"], **setup_counts}
            values = {}
            for span, aggs in _SPAN_METRICS.items():
                for agg in aggs:
                    values[f"{span}.{agg}"] = spans.get(span, {}).get(agg, 0.0)
            for name, _ in _COUNT_METRICS:
                values[name] = counts.get(name, 0.0)
            for name, num, den in _RATIOS:
                values[name] = counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0
            for stage, info in sample["stages"].items():
                for key, value in info.items():
                    values[f"cli.{stage}.{key}"] = value
            return values

        per_sample = [one(s) for s in samples]
        return {name: _median([v[name] for v in per_sample if name in v])
                for name, _ in PER_LAYER}

    def keep_trace(self) -> Path:
        """Copy the last pass's trace files next to the run record."""
        dest = self.work.parent / "points" / f"{self.name}-seed{self.seed}-trace1"
        shutil.rmtree(dest, ignore_errors=True)
        dest.mkdir(parents=True)
        last = max(self.work.glob("pass*"), key=lambda p: int(p.name[4:]))
        for path in last.glob("*.trace.json"):
            shutil.copy(path, dest / path.name.replace(".trace", ""))
        return dest


def run_workload(name: str, shape, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(name, shape, seed, seconds, trace, work)
    try:
        setups, samples = run.measure()
        if trace:
            values = run.per_layer(samples)
            units = dict(PER_LAYER)
            trace_dir = str(run.keep_trace())
        else:
            values = run.end_to_end(setups, samples)
            units = dict(END_TO_END)
            trace_dir = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(run.problems)
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": shape.__dict__,
        "environment": environment(),
        "properties": run.oracle.properties(),
        "passes": len(samples),
        "setup_samples": setups,
        "samples": samples if not trace else [s["stages"] for s in samples],
        "fail_frac": failed / run.attempted,
        "problems": run.problems[:20],
        "trace_dir": trace_dir,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    work = WORK / f"work-{args.workload}-{args.seed}-{args.trace}"
    result, record = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), work)
    points = WORK / "points"
    points.mkdir(parents=True, exist_ok=True)
    line = json.dumps({**record, "result": result})
    (points / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
