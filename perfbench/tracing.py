"""In-process span tracing of tastemap's layers.

:class:`Tracer` wraps the public functions listed in ``SPANS`` in every
``tastemap.*`` module namespace that binds them, records one span per call
(name, start, end, parent) in memory, and counts work at the same
boundaries.  Nothing inside the program changes; the wrappers are removed
again when the ``with`` block ends.

Run as a child process to trace one CLI stage::

    python3 perfbench/tracing.py REQUEST.json

``REQUEST.json`` holds ``{"stage", "argv", "plain_out", "traced_out",
"result"}``.  The child runs ``tastemap.cli.main`` once as a discarded
warm-up, once untraced (writing to ``plain_out``) and once traced (writing
to ``traced_out``), then writes the two timed wall times, the exit codes,
the per-span aggregates, the raw spans and the counters to ``result``.
"""

from __future__ import annotations

import functools
import importlib
import json
import shutil
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# Defining module -> public functions traced.  A span is named
# "<module>.<function>", without the module's leading underscore (so
# "_kernels" spans are "kernels.*"); the stage is the root span "cli.<stage>".
SPANS = {
    "synth": ("generate_corpus",),
    "ingest": ("parse_corpus", "load_geo_index", "assign_home_country", "filter_active_users",
               "area_mask", "top_cells"),
    "_kernels": ("jaccard_edges", "assign_countries"),
    "prefs": ("build_profiles", "region_counts"),
    "simnet": ("build_network", "component_sizes", "categorical_assortativity",
               "degree_assortativity", "write_edge_list", "write_node_attributes"),
    "signatures": ("pearson", "correlation_matrix", "write_matrix_csv", "temporal_series",
                   "spatiotemporal_vector", "subcategory_entropy", "entropy_summary"),
    "boundaries": ("fit_pca", "kmeans_cosine", "compare_with_survey"),
}
MB = 1024.0 * 1024.0


def _count_jaccard(counts, args, result):
    n = int(np.asarray(args[0]).shape[0])
    counts["kernels.jaccard_edges.pairs_scored"] += n * (n - 1) // 2
    counts["kernels.jaccard_edges.edges"] += len(result[0])


def _count_points(counts, args, result):
    counts["kernels.assign_countries.points"] += len(args[0])


def _count_mask(counts, args, result):
    counts["ingest.area_mask.rows_scanned"] += len(args[0].lat)
    counts["ingest.area_mask.rows_selected"] += int(np.count_nonzero(result))


def _count_records(counts, args, result):
    counts["ingest.parse_corpus.records"] += len(result)


def _count_profiles(counts, args, result):
    if result:
        bits = np.stack([p.bits for p in result])
        counts["prefs.build_profiles.users"] += len(result)
        counts["prefs.build_profiles.distinct"] += len(np.unique(bits, axis=0))


def _count_iterations(counts, args, result):
    counts["boundaries.kmeans_cosine.iterations"] += result.iterations


def _count_generated(counts, args, result):
    with open(result.corpus_path, "rb") as fh:
        counts["synth.generate_corpus.records"] += sum(1 for _ in fh)


COUNTERS = {
    "kernels.jaccard_edges": _count_jaccard,
    "kernels.assign_countries": _count_points,
    "ingest.area_mask": _count_mask,
    "ingest.parse_corpus": _count_records,
    "prefs.build_profiles": _count_profiles,
    "boundaries.kmeans_cosine": _count_iterations,
    "synth.generate_corpus": _count_generated,
}
# tracemalloc runs around these calls only, for their peak_mb.
MEASURE_MEMORY = {"kernels.jaccard_edges", "kernels.assign_countries"}


class Tracer:
    """Span recorder.  Inside ``with tracer:`` the functions in ``SPANS`` are
    wrapped; ``tracer.wrap(name, fn)`` wraps one more callable, such as a
    stage's root ``cli.main``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.region_totals: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)
        memory = name in MEASURE_MEMORY
        totals = self.region_totals if name == "prefs.region_counts" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            if memory:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    key = f"{name}.peak_mb"
                    counts[key] = max(counts[key], peak)
            if counter is not None:
                counter(counts, args, result)
            if totals is not None:
                totals[args[1].area_id].append(int(result.sum()))
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tastemap" or n.startswith("tastemap.")]
        for modname, names in SPANS.items():
            defining = importlib.import_module(f"tastemap.{modname}")
            for fname in names:
                original = getattr(defining, fname)
                traced = self.wrap(f"{modname.lstrip('_')}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._restore.append((module, fname, original))
                        setattr(module, fname, traced)
        return self

    def __exit__(self, *exc):
        for module, fname, original in reversed(self._restore):
            setattr(module, fname, original)
        self._restore.clear()
        return False

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count.

        Self time is a span's duration minus the part its child spans cover;
        children of one span never overlap, so that part is their sum.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for (name, _, start, end), covered in zip(self.spans, child):
            agg = out[name]
            agg["s"] += end - start
            agg["self_s"] += end - start - covered
            agg["calls"] += 1
        return dict(out)


def _with_out(argv: list[str], out: str) -> list[str]:
    argv = list(argv)
    argv[argv.index("--out-dir") + 1] = out
    return argv


def trace_stage(request: dict) -> dict:
    """Run one stage three times in this process: a warm-up whose output is
    discarded, so both timed runs find the same imports, caches and page
    cache; then untraced; then traced."""
    from tastemap import cli

    argv = request["argv"]
    warmup = request["plain_out"] + ".warmup"
    warmup_code = cli.main(_with_out(argv, warmup))
    shutil.rmtree(warmup, ignore_errors=True)
    start = time.perf_counter()
    plain_code = cli.main(_with_out(argv, request["plain_out"]))
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        traced_code = tracer.wrap(f"cli.{request['stage']}", cli.main)(
            _with_out(argv, request["traced_out"]))
        traced_s = time.perf_counter() - start
    return {
        "warmup_code": warmup_code,
        "plain_code": plain_code,
        "traced_code": traced_code,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": tracer.aggregate(),
        "counts": dict(tracer.counts),
        "region_totals": dict(tracer.region_totals),
        "raw_spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = trace_stage(request)
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["warmup_code"] == result["plain_code"] == result["traced_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
