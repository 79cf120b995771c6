"""Command-line front end for the whole pipeline.

Subcommands: ``synth``, ``ingest``, ``simnet``, ``signatures``, ``cluster``,
``survey``.  ``ingest`` parses a raw corpus once and writes a normalized
store directory (see ``tastemap.store``); every analysis command loads the
store's arrays, so slow parsing and geocoding run once per dataset.

Each command imports the modules it runs: this module imports only what
parsing the command line needs, and every ``cmd_*`` function imports the
rest inside its body, so a command's process loads (and, without a bytecode
cache, compiles) nothing that the command does not run.

Exit codes: 0 success, 1 usage error, 2 data error, 3 degenerate-math error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError, UndefinedMetric

if TYPE_CHECKING:
    import numpy as np

    from .ingest import Corpus
    from .model import Area

PAPER_THRESHOLDS = "65,70,75,80,85,90,95,100"
DEFAULT_K = {"country": 7, "city": 4, "grid": 3}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _read_cities(path: str | Path) -> list[Area]:
    from .csvtext import read_keyed_rows, row_floats
    from .model import Area

    edges = ("min_lon", "min_lat", "max_lon", "max_lat")
    areas = [Area(area_id=row["city"], kind="city", country_code=row["country"],
                  bbox=row_floats(path, line, row, edges))
             for line, row in read_keyed_rows(path, "cities", "city", ("country", *edges))]
    if not areas:
        raise DataError("cities file lists no cities")
    return sorted(areas, key=lambda a: a.area_id)


def _check_level_options(args) -> None:
    """Refuse a bad ``--cities``, ``--rows``, ``--cols`` or ``--top`` before any read."""
    from .ingest import check_grid_shape, check_top

    if args.level != "country" and not args.cities:
        raise DataError(f"level {args.level!r} needs --cities")
    if args.level == "grid":
        check_grid_shape(args.rows, args.cols)
        check_top(args.top)


def _level_cubes(args, corpus: Corpus) -> tuple[list[Area], np.ndarray, list[str]]:
    """The areas of the requested level that have check-ins, their count
    cubes (areas, m, 2, 24) and the ids of the areas left out for having
    none.  At grid level each city keeps its ``--top`` most popular cells, or
    every non-empty one; a cell without check-ins is dropped, not listed."""
    import numpy as np

    from .ingest import grid_partition, top_cells
    from .model import Area
    from .prefs import area_cubes

    areas = ([Area(area_id=c, kind="country", country_code=c) for c in corpus.countries]
             if args.level == "country" else _read_cities(args.cities))
    if args.level != "grid":
        cubes = area_cubes(corpus, areas)
        full = cubes.any(axis=(1, 2, 3))
        return ([area for area, f in zip(areas, full) if f], cubes[full],
                [area.area_id for area, f in zip(areas, full) if not f])
    cells, kept = [], []
    for city in areas:
        grid = grid_partition(city, args.rows, args.cols)
        cubes = area_cubes(corpus, grid)
        totals = cubes.sum(axis=(1, 2, 3))
        keep = (top_cells([cell.area_id for cell in grid], totals, args.top) if args.top
                else np.flatnonzero(totals))
        kept.append(cubes[keep])
        cells.extend(grid[i] for i in keep)
    if not cells:
        raise DataError("no grid cell contains any check-in")
    return cells, np.concatenate(kept), []


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from .model import load_taxonomy
    from .synth import SynthSpec, check_seed, generate_corpus

    check_seed(args.seed)
    taxonomy = load_taxonomy(args.taxonomy)
    spec = SynthSpec.from_file(args.spec)
    generated = generate_corpus(spec, args.seed, args.out_dir, taxonomy)
    print(f"wrote {generated.corpus_path}")
    return 0


def cmd_ingest(args) -> int:
    from .ingest import assign_home_country, check_error_budget, check_min_checkins
    from .ingest import filter_active_users, load_geo_index, parse_corpus
    from .model import load_taxonomy
    from .store import write_store

    check_min_checkins(args.min_checkins)
    check_error_budget(args.error_budget)
    taxonomy = load_taxonomy(args.taxonomy)
    geo = load_geo_index(args.geo)
    corpus = parse_corpus(args.corpus, taxonomy, args.error_budget)
    located, report = assign_home_country(corpus, geo)
    # Each step copies the rows it keeps; drop the previous copy at once.
    del corpus
    active = filter_active_users(located, args.min_checkins)
    del located
    out = _outdir(args)
    write_store(out, active, Path(args.taxonomy))
    doc = dataclasses.asdict(report)
    doc["min_checkins"] = args.min_checkins
    doc["store_users"] = active.n_users
    doc["store_checkins"] = len(active)
    _write_json(doc, out / "ingest_report.json")
    print(f"store written to {out} ({active.n_users} users, {len(active)} check-ins)")
    return 0


def _parse_attributes(path: str | Path) -> dict[str, dict[str, str]]:
    """Each user's non-empty attributes; fields beyond the header are ignored."""
    from .csvtext import read_keyed_rows

    return {row["user"]: {k: v for k, v in row.items() if k not in ("user", None) and v}
            for _, row in read_keyed_rows(path, "attributes", "user", ())}


def cmd_simnet(args) -> int:
    import numpy as np

    from .prefs import build_profiles
    from .simnet import (
        NodeColumns,
        ProfileClasses,
        build_network,
        categorical_assortativity,
        check_thresholds,
        component_sizes,
        degree_assortativity,
        edge_id_table,
        largest_component_fractions,
        write_edge_list,
        write_node_attributes,
    )
    from .store import read_store

    try:
        # "or 0.0" turns -0.0 into 0.0, so -0 and 0 share the file tag "0".
        thresholds = [float(t) or 0.0 for t in args.thresholds.split(",") if t.strip()]
    except ValueError as exc:
        raise DataError(f"bad threshold list: {exc}") from exc
    if not thresholds:
        raise DataError("--thresholds names no threshold")
    tags = [f"{t:g}" for t in thresholds]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise DataError(f"bad threshold list: two thresholds share the file tag {tag!r}")
    check_thresholds(thresholds)
    corpus = read_store(args.store, args.taxonomy)
    # Profiles come in user id order, the ids being sorted and unique.  Zero
    # users are refused by ProfileClasses, before the attributes are read.
    profiles = build_profiles(corpus)
    ids = [p.user_id for p in profiles]
    id_table = edge_id_table(ids)
    classes = ProfileClasses(np.array([p.bits for p in profiles]), min(thresholds))
    attributes = _parse_attributes(args.attributes) if args.attributes else {}
    nodes = NodeColumns(ids, [p.home_country for p in profiles], attributes)
    out = _outdir(args)
    metrics: dict[str, dict] = {}
    for threshold, tag in zip(thresholds, tags):
        net = build_network(classes, threshold)
        write_edge_list(net, out / f"edges_s{tag}.tsv", id_table)
        write_node_attributes(net, out / f"nodes_s{tag}.csv", nodes)
        sizes = component_sizes(net)
        frac1, frac2 = largest_component_fractions(sizes)
        assort: dict[str, float | None] = {}
        for key in nodes.keys_of(net.kept):
            try:
                assort[key] = categorical_assortativity(net, nodes.codes[key])
            except (DataError, UndefinedMetric):  # missing on some node, or undefined
                assort[key] = None
        try:
            deg_assort = degree_assortativity(net)
        except UndefinedMetric:
            deg_assort = None
        metrics[tag] = {
            "threshold": threshold,
            "nodes": net.n_nodes,
            "edges": net.n_edges,
            "isolated_removed": net.isolated_removed,
            "component_sizes": sizes,
            "largest_component_fraction": frac1,
            "second_component_fraction": frac2,
            "assortativity": assort,
            "degree_assortativity": deg_assort,
        }
    # Thresholds in ascending numeric order (sort_keys would put "100" first),
    # the keys of each entry sorted.
    ordered = {tag: dict(sorted(metrics[tag].items())) for tag in sorted(metrics, key=float)}
    (out / "metrics.json").write_text(json.dumps(ordered, indent=2) + "\n", encoding="utf-8")
    print(f"similarity networks written to {out}")
    return 0


def cmd_signatures(args) -> int:
    from .csvtext import write_labelled_rows, write_rows
    from .prefs import normalized_rows
    from .signatures import (
        DAY_GROUPS,
        correlation_matrix,
        entropy_summary,
        subcategory_entropy,
        temporal_series,
        write_matrix_csv,
    )
    from .store import read_store, store_taxonomy

    _check_level_options(args)
    taxonomy = store_taxonomy(args.store, args.taxonomy)
    scopes = [s.strip() for s in args.scope.split(",") if s.strip()]
    unknown = [s for s in scopes if s != "all" and s not in taxonomy.class_ids]
    if not scopes:
        raise DataError(f"--scope names no scope: use 'all' or one of {taxonomy.class_ids}")
    if unknown:
        raise DataError(f"unknown scope(s) {unknown}: use 'all' or one of {taxonomy.class_ids}")
    corpus = read_store(args.store, args.taxonomy)
    used, cubes, empty = _level_cubes(args, corpus)
    if len(used) < 2:
        raise UndefinedMetric("fewer than two areas have check-ins; nothing to correlate")
    area_ids = [area.area_id for area in used]
    counts = cubes.sum(axis=(2, 3))
    spatial = normalized_rows(counts, area_ids)
    out = _outdir(args)

    header = ["area", *(f"h{h:02d}" for h in range(24))]
    for class_id in taxonomy.class_ids:
        for day_group in DAY_GROUPS:
            curves = temporal_series(cubes, taxonomy, class_id, day_group)
            write_labelled_rows(out / f"temporal_{class_id}_{day_group}.csv", header, area_ids,
                                (map(repr, row) for row in curves.tolist()))

    entropies = subcategory_entropy(counts)
    write_rows(out / "entropy.csv", ["class", "subcategory", "entropy_bits"],
               ((class_id, taxonomy.subcategories[i], entropies[i])
                for class_id in taxonomy.class_ids
                for i in range(taxonomy.m)[taxonomy.block(class_id)]))
    write_rows(out / "entropy_summary.csv", ["class", "level", "n_subcategories", "mean", "sigma"],
               map(dataclasses.astuple, entropy_summary(taxonomy, used[0].kind, entropies)))
    del corpus, cubes, counts  # the matrices come last, one at a time, with nothing else
    for scope in scopes:
        write_matrix_csv(area_ids, correlation_matrix(spatial, taxonomy, scope),
                         out / f"corr_{scope}.csv")
    _write_json({"areas_used": area_ids, "excluded_empty": empty},
                out / "areas_used.json")
    print(f"signature reports written to {out}")
    return 0


def cmd_cluster(args) -> int:
    from .boundaries import check_coverage, check_kmeans_options, kmeans_cosine, pca_scores
    from .csvtext import write_labelled_rows, write_rows
    from .signatures import spatiotemporal_vector
    from .store import read_store

    k = args.k if args.k is not None else DEFAULT_K[args.level]
    check_coverage(args.coverage)
    check_kmeans_options(k, args.seed, args.restarts)
    _check_level_options(args)
    corpus = read_store(args.store, args.taxonomy)
    used, cubes, empty = _level_cubes(args, corpus)
    if len(used) < 2:
        raise UndefinedMetric("fewer than two areas have check-ins; nothing to cluster")
    area_ids = [area.area_id for area in used]
    scores = pca_scores(spatiotemporal_vector(cubes, area_ids), args.coverage)
    p = scores.shape[1]
    report = kmeans_cosine(scores, k, args.seed, area_ids, n_restarts=args.restarts)
    out = _outdir(args)
    doc = report.to_dict()
    doc["level"] = args.level
    doc["components"] = p
    doc["excluded_empty"] = empty
    _write_json(doc, out / "cluster_report.json")
    write_rows(out / "assignments.csv", ["area", "cluster"],
               ((area_id, report.assignments[area_id]) for area_id in report.area_ids))
    write_labelled_rows(out / "pca_scores.csv", ["area", *(f"pc{i + 1}" for i in range(p))],
                        report.area_ids, (map(repr, row) for row in scores.tolist()))
    print(f"cluster report written to {out} (k={k}, components={p})")
    return 0


def _read_survey(path: str | Path) -> dict[str, np.ndarray]:
    import numpy as np

    from .csvtext import read_keyed_rows, row_floats

    axes = ("trad_secular", "surv_selfexpr")
    coords = {row["country"]: np.array(row_floats(path, line, row, axes), np.float64)
              for line, row in read_keyed_rows(path, "survey", "country", axes)}
    if not coords:
        raise DataError("survey file lists no countries")
    return coords


def cmd_survey(args) -> int:
    from .boundaries import centered_rows, compare_with_survey
    from .csvtext import write_rows
    from .model import Area
    from .prefs import area_cubes
    from .signatures import class_period_indices, spatiotemporal_vector
    from .store import read_store

    corpus = read_store(args.store, args.taxonomy)
    survey = _read_survey(args.survey)
    countries = sorted(survey)
    missing = [c for c in countries if c not in corpus.countries]
    if missing:
        raise DataError(f"countries missing from the corpus: {missing}")

    areas = [Area(area_id=c, kind="country", country_code=c) for c in countries]
    vectors = spatiotemporal_vector(area_cubes(corpus, areas), countries)
    datasets = []
    if args.dataset in ("full", "both"):
        datasets.append(("dataset1", vectors))
    if args.dataset in ("ffood_weekend", "both"):
        ffood_weekend = class_period_indices(corpus.taxonomy, "FastFood", "weekend")
        datasets.append(("dataset2", vectors[:, ffood_weekend]))

    results = {}
    for name, matrix in datasets:
        # Ranked in the centered space that full-coverage PCA scores span.
        ours = dict(zip(countries, centered_rows(matrix)))
        results[name] = {r.country: r for r in compare_with_survey(ours, survey, countries)}

    names = [name for name, _ in datasets]
    out = _outdir(args)
    header = ["country"]
    for name in names:
        header += [f"rho_{name}", f"p_{name}", f"significant_{name}"]
    rows = []
    for country in countries:
        row = [country]
        for name in names:
            r = results[name][country]
            row += [r.rho, r.p_value, str(r.significant).lower()]
        rows.append(row)
    write_rows(out / "survey_comparison.csv", header, rows)
    _write_json(
        {
            name: {
                c: {"rho": r.rho, "p_value": r.p_value, "significant": r.significant}
                for c, r in results[name].items()
            }
            for name in names
        },
        out / "survey_comparison.json",
    )
    print(f"survey comparison written to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tastemap", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted structure")
    p.add_argument("--spec", required=True, help="generator spec (JSON)")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, geocode and filter a corpus into a store")
    p.add_argument("--corpus", required=True, help="check-in file (JSONL or CSV)")
    p.add_argument("--geo", required=True, help="country polygon file")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--min-checkins", type=int, default=7)
    p.add_argument("--error-budget", type=float, default=0.001)
    p.add_argument("--out-dir", required=True, help="store directory to create")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simnet", help="build similarity networks and their metrics")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy", help="override the store's taxonomy")
    p.add_argument("--thresholds", default=PAPER_THRESHOLDS)
    p.add_argument("--attributes", help="node attribute CSV (user,continent,...)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simnet)

    areas = argparse.ArgumentParser(add_help=False)
    areas.add_argument("--store", required=True)
    areas.add_argument("--taxonomy")
    areas.add_argument("--level", choices=("country", "city", "grid"), default="country")
    areas.add_argument("--cities", help="city bounding boxes CSV (city/grid levels)")
    areas.add_argument("--rows", type=int, default=10)
    areas.add_argument("--cols", type=int, default=10)
    areas.add_argument("--top", type=int, default=0,
                       help="keep only the N most popular cells per city (0 = all nonempty)")
    areas.add_argument("--out-dir", required=True)

    p = sub.add_parser("signatures", parents=[areas],
                       help="correlation matrices, temporal curves, entropy")
    p.add_argument("--scope", default="all,Drink,FastFood,SlowFood",
                   help="comma list of correlation scopes")
    p.set_defaults(func=cmd_signatures)

    p = sub.add_parser("cluster", parents=[areas], help="PCA + cosine k-means over area signatures")
    p.add_argument("--k", type=int, default=None,
                   help="cluster count (default 7/4/3 by level)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("survey", help="rank-correlate country similarities against survey axes")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--survey", required=True,
                   help="CSV: country,trad_secular,surv_selfexpr")
    p.add_argument("--dataset", choices=("full", "ffood_weekend", "both"), default="both")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(args)


def run(args) -> int:
    """Run a parsed command line; a typed error becomes a message on stderr
    and its exit code."""
    try:
        return args.func(args)
    except UndefinedMetric as exc:
        print(f"tastemap: degenerate input: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"tastemap: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tastemap: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """Process entry of ``python -m tastemap.cli`` and of the installed
    ``tastemap`` command: ``main`` on ``sys.argv``.

    It parses the command line first, so a usage error (exit 1) or
    ``--help`` (exit 0) ends the process through argparse's ``SystemExit``
    before numpy loads.  For a command, it pins OpenBLAS, OpenMP and MKL to
    one thread, overriding any value already set, because
    ``np.linalg.eigh`` in ``cluster`` returns other last bits on other
    thread counts.  It imports numpy, which reads them as it loads, and then
    moves every object alive so far (the front end's and numpy's, about
    21k) into the collector's permanent generation, so no collection in the
    command and none at interpreter exit traverses them again.  Then it
    calls ``run``.  ``main`` does none of this, because tests and the
    benchmark's tracer call it in-process."""
    args = build_parser().parse_args()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    import numpy  # noqa: F401

    gc.freeze()
    return run(args)


if __name__ == "__main__":
    sys.exit(entry())
