"""Command-line front end for the whole pipeline.

Subcommands: ``synth``, ``ingest``, ``simnet``, ``signatures``, ``cluster``,
``survey``.  ``ingest`` parses a raw corpus once and writes a normalized
store directory (see ``tastemap.store``); every analysis command loads the
store's arrays, so slow parsing and geocoding run once per dataset.

Exit codes: 0 success, 1 usage error, 2 data error, 3 degenerate-math error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .boundaries import compare_with_survey, fit_pca, kmeans_cosine, select_components
from .errors import DataError, EmptyAreaError, UndefinedMetric
from .ingest import (
    Corpus,
    area_mask,
    assign_home_country,
    filter_active_users,
    grid_partition,
    home_codes_array,
    load_geo_index,
    parse_corpus,
    top_cells,
)
from .model import Area, load_taxonomy
from .prefs import area_cube, build_profiles, region_counts, region_profile
from .signatures import (
    DAY_GROUPS,
    class_period_indices,
    correlation_matrix,
    hourly_curve,
    spatiotemporal_vector,
    subcategory_entropies,
    summarize_entropies,
    write_matrix_csv,
)
from .simnet import (
    build_networks,
    categorical_assortativity,
    component_sizes,
    degree_assortativity,
    largest_component_fractions,
    write_edge_list,
    write_node_attributes,
)
from .store import read_store, write_store
from .synth import SynthSpec, generate_corpus

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


def _row_floats(path: str | Path, reader: csv.DictReader, row: dict, keys) -> tuple:
    """The named fields of a CSV row as floats; a short row or a
    non-numeric field is a DataError naming the file and line."""
    try:
        if None in row.values():
            raise ValueError("too few fields")
        return tuple(float(row[k]) for k in keys)
    except ValueError as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc


def _read_cities(path: str | Path) -> list[Area]:
    areas = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"city", "country", "min_lon", "min_lat", "max_lon", "max_lat"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"cities file must have columns {sorted(required)}")
        for row in reader:
            bbox = _row_floats(path, reader, row, ("min_lon", "min_lat", "max_lon", "max_lat"))
            areas.append(
                Area(
                    area_id=row["city"],
                    kind="city",
                    country_code=row["country"],
                    bbox=bbox,
                    attributes={"country": row["country"]},
                )
            )
    if not areas:
        raise DataError("cities file lists no cities")
    return sorted(areas, key=lambda a: a.area_id)


def _level_areas(args, corpus: Corpus, home: dict[str, str]):
    """Areas for the requested level plus the per-check-in country array."""
    countries = home_codes_array(corpus, home)
    if args.level == "country":
        codes = sorted(set(home.values()))
        areas = [Area(area_id=c, kind="country", country_code=c) for c in codes]
        return areas, countries
    if not getattr(args, "cities", None):
        raise DataError(f"level {args.level!r} needs --cities")
    cities = _read_cities(args.cities)
    if args.level == "city":
        return cities, countries
    cells: list[Area] = []
    for city in cities:
        grid = grid_partition(city, args.rows, args.cols)
        if args.top > 0:
            grid = top_cells(corpus, grid, args.top)
        else:
            grid = [cell for cell in grid if bool(np.any(area_mask(corpus, cell)))]
        cells.extend(grid)
    if not cells:
        raise DataError("no grid cell contains any check-in")
    return cells, countries


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _outdir(args)
    taxonomy = load_taxonomy(args.taxonomy)
    spec = SynthSpec.from_file(args.spec)
    generated = generate_corpus(spec, args.seed, out, taxonomy)
    print(f"wrote {generated.corpus_path}")
    return 0


def cmd_ingest(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    geo = load_geo_index(args.geo)
    corpus = parse_corpus(args.corpus, taxonomy, args.error_budget)
    home, report = assign_home_country(corpus, geo)
    located = corpus.filter_users(home)
    active = filter_active_users(located, args.min_checkins)
    home = {u: home[u] for u in active.user_ids}
    out = _outdir(args)
    write_store(out, active, home, Path(args.taxonomy))
    doc = report.to_dict()
    doc["min_checkins"] = args.min_checkins
    doc["store_users"] = active.n_users
    doc["store_checkins"] = len(active)
    _write_json(doc, out / "ingest_report.json")
    print(f"store written to {out} ({active.n_users} users, {len(active)} check-ins)")
    return 0


def _parse_attributes(path: str | Path) -> dict[str, dict[str, str]]:
    attrs: dict[str, dict[str, str]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "user" not in reader.fieldnames:
            raise DataError("attributes file needs a 'user' column")
        keys = [k for k in reader.fieldnames if k != "user"]
        for row in reader:
            attrs[row["user"]] = {k: row[k] for k in keys if row[k] not in (None, "")}
    return attrs


def cmd_simnet(args) -> int:
    try:
        thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    except ValueError as exc:
        raise DataError(f"bad threshold list: {exc}") from exc
    corpus, home, _ = read_store(args.store, args.taxonomy)
    profiles = build_profiles(corpus, home)
    attributes = _parse_attributes(args.attributes) if args.attributes else None
    networks = build_networks(profiles, thresholds, attributes)
    out = _outdir(args)
    metrics: dict[str, dict] = {}
    for threshold, net in zip(thresholds, networks):
        tag = f"{threshold:g}"
        write_edge_list(net, out / f"edges_s{tag}.tsv")
        write_node_attributes(net, out / f"nodes_s{tag}.csv")
        sizes = component_sizes(net)
        frac1, frac2 = largest_component_fractions(sizes)
        attr_keys = sorted({k for a in net.attributes.values() for k in a})
        assort: dict[str, float | None] = {}
        for key in attr_keys:
            if all(key in net.attributes[u] for u in net.nodes):
                try:
                    assort[key] = categorical_assortativity(net, key)
                except UndefinedMetric:
                    assort[key] = None
            else:
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
    _write_json(metrics, out / "metrics.json")
    print(f"similarity networks written to {out}")
    return 0


def cmd_signatures(args) -> int:
    corpus, home, taxonomy = read_store(args.store, args.taxonomy)
    areas, countries = _level_areas(args, corpus, home)

    spatial, used, cubes, empty = [], [], [], []
    for area in areas:
        try:
            spatial.append(region_profile(region_counts(corpus, area, countries), area.area_id))
        except EmptyAreaError:
            empty.append(area.area_id)
            continue
        used.append(area)
        cubes.append(area_cube(corpus, area, countries))
    if len(spatial) < 2:
        raise UndefinedMetric("fewer than two areas have check-ins; nothing to correlate")
    out = _outdir(args)

    scopes = [s.strip() for s in args.scope.split(",") if s.strip()]
    for scope in scopes:
        matrix = correlation_matrix(spatial, taxonomy, scope)
        write_matrix_csv(matrix, out / f"corr_{scope}.csv")

    for class_id in taxonomy.class_ids:
        for day_group in DAY_GROUPS:
            with open(out / f"temporal_{class_id}_{day_group}.csv", "w",
                      encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["area", *(f"h{h:02d}" for h in range(24))])
                for area, cube in zip(used, cubes):
                    bins = hourly_curve(cube, taxonomy, class_id, day_group)
                    writer.writerow([area.area_id, *(repr(float(b)) for b in bins)])

    entropies = subcategory_entropies(np.stack([sig.raw_counts for sig in spatial]))
    with open(out / "entropy.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "subcategory", "entropy_bits"])
        for class_id in taxonomy.class_ids:
            lo, hi = taxonomy.class_ranges[class_id]
            for name, h in zip(taxonomy.subcategories[lo:hi], entropies[lo:hi]):
                writer.writerow([class_id, name, "" if h is None else repr(h)])
    with open(out / "entropy_summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class", "level", "n_subcategories", "mean", "sigma"])
        for row in summarize_entropies(taxonomy, used[0].kind, entropies):
            writer.writerow(
                [
                    row.class_id,
                    row.level,
                    row.n_subcategories,
                    "" if row.mean is None else repr(row.mean),
                    "" if row.sigma is None else repr(row.sigma),
                ]
            )
    _write_json({"areas_used": [a.area_id for a in used], "excluded_empty": empty},
                out / "areas_used.json")
    print(f"signature reports written to {out}")
    return 0


def cmd_cluster(args) -> int:
    corpus, home, _ = read_store(args.store, args.taxonomy)
    areas, countries = _level_areas(args, corpus, home)
    rows, used, empty = [], [], []
    for area in areas:
        try:
            rows.append(spatiotemporal_vector(corpus, area, countries).normalized)
            used.append(area)
        except EmptyAreaError:
            empty.append(area.area_id)
    if len(rows) < 2:
        raise UndefinedMetric("fewer than two areas have check-ins; nothing to cluster")
    matrix = np.stack(rows)
    model = fit_pca(matrix)
    p = select_components(model, args.coverage)
    scores = model.transform(matrix)[:, :p]
    k = args.k if args.k is not None else DEFAULT_K[args.level]
    report = kmeans_cosine(scores, k, args.seed, [a.area_id for a in used],
                           n_restarts=args.restarts)
    out = _outdir(args)
    doc = report.to_dict()
    doc["level"] = args.level
    doc["components"] = p
    doc["excluded_empty"] = empty
    _write_json(doc, out / "cluster_report.json")
    with open(out / "assignments.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", "cluster"])
        for area_id in report.area_ids:
            writer.writerow([area_id, report.assignments[area_id]])
    with open(out / "pca_scores.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *(f"pc{i + 1}" for i in range(p))])
        for area_id, row in zip(report.area_ids, scores):
            writer.writerow([area_id, *(repr(float(v)) for v in row)])
    print(f"cluster report written to {out} (k={k}, components={p})")
    return 0


def _read_survey(path: str | Path) -> dict[str, np.ndarray]:
    coords: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"country", "trad_secular", "surv_selfexpr"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"survey file must have columns {sorted(required)}")
        for row in reader:
            country = row["country"]
            if country in coords:
                raise DataError(f"survey file lists {country!r} twice")
            coords[country] = np.array(
                _row_floats(path, reader, row, ("trad_secular", "surv_selfexpr")), np.float64
            )
    if not coords:
        raise DataError("survey file lists no countries")
    return coords


def _country_scores(matrix: np.ndarray, countries: list[str]) -> dict[str, np.ndarray]:
    """PCA scores (full coverage) of the countries' vectors, one row each."""
    model = fit_pca(matrix)
    p = select_components(model, 1.0)
    scores = model.transform(matrix)[:, :p]
    return {c: scores[i] for i, c in enumerate(countries)}


def cmd_survey(args) -> int:
    corpus, home, taxonomy = read_store(args.store, args.taxonomy)
    survey = _read_survey(args.survey)
    countries = sorted(survey)
    missing = [c for c in countries if c not in set(home.values())]
    if missing:
        raise DataError(f"countries missing from the corpus: {missing}")

    areas = [Area(area_id=c, kind="country", country_code=c) for c in countries]
    codes = home_codes_array(corpus, home)
    vectors = np.stack([spatiotemporal_vector(corpus, a, codes).normalized for a in areas])
    datasets = []
    if args.dataset in ("full", "both"):
        datasets.append(("dataset1", vectors))
    if args.dataset in ("ffood_weekend", "both"):
        ffood_weekend = class_period_indices(taxonomy, "FastFood", "weekend")
        datasets.append(("dataset2", vectors[:, ffood_weekend]))

    results = {}
    for name, matrix in datasets:
        scores = _country_scores(matrix, countries)
        results[name] = {r.country: r for r in compare_with_survey(scores, survey, countries)}

    names = [name for name, _ in datasets]
    out = _outdir(args)
    with open(out / "survey_comparison.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["country"]
        for name in names:
            header += [f"rho_{name}", f"p_{name}", f"significant_{name}"]
        writer.writerow(header)
        for country in countries:
            row = [country]
            for name in names:
                r = results[name][country]
                row += [repr(r.rho), repr(r.p_value), str(r.significant).lower()]
            writer.writerow(row)
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

    p = sub.add_parser("signatures", help="correlation matrices, temporal curves, entropy")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--level", choices=("country", "city", "grid"), default="country")
    p.add_argument("--scope", default="all,Drink,FastFood,SlowFood",
                   help="comma list of correlation scopes")
    p.add_argument("--cities", help="city bounding boxes CSV (city/grid levels)")
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--top", type=int, default=0,
                   help="keep only the N most popular cells per city (0 = all nonempty)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_signatures)

    p = sub.add_parser("cluster", help="PCA + cosine k-means over area signatures")
    p.add_argument("--store", required=True)
    p.add_argument("--taxonomy")
    p.add_argument("--level", choices=("country", "city", "grid"), default="country")
    p.add_argument("--k", type=int, default=None,
                   help="cluster count (default 7/4/3 by level)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coverage", type=float, default=1.0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--cities")
    p.add_argument("--rows", type=int, default=10)
    p.add_argument("--cols", type=int, default=10)
    p.add_argument("--top", type=int, default=0)
    p.add_argument("--out-dir", required=True)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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


if __name__ == "__main__":
    sys.exit(main())
