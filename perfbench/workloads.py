"""Seeded workload inputs for the pipeline benchmark.

A workload is a :class:`Shape`; :func:`build_inputs` turns a shape and a
seed into the files the CLI stages read (spec, corpus, polygons, cities,
survey) and the stage command lines that run on them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tastemap import synth
from tastemap.model import load_taxonomy, reference_taxonomy_path

STAGES = ("ingest", "simnet", "signatures", "cluster", "survey")
COUNTRY_SIDE = 8.0  # degrees; a power of two so densified ring vertices stay exact
COUNTRY_PITCH = 16.0
PREFERRED_SUBCATEGORIES = 16


@dataclass(frozen=True)
class Shape:
    """Corpus shape of one workload."""

    countries: int
    users: int  # per country
    checkins: tuple[int, int]  # inclusive per-user range
    level: str = "country"  # analysis level of signatures and cluster
    cities: int = 0  # per country, vertical strips of the country box
    grid: int = 0  # rows = cols of each city grid (level "grid")
    top: int = 0  # cells kept per city (level "grid")
    ring_vertices: int = 4  # distinct vertices per country ring


# Two workloads, each the other's control: "users" loads pair scoring and
# little else; "grid" loads area work and per-check-in work (parsing,
# geocoding against densified rings, the store) and barely scores pairs.
# The measured share of each hot spot is in run.py's docstring.
WORKLOADS = {
    "users": Shape(countries=8, users=250, checkins=(7, 12)),
    "grid": Shape(countries=4, users=40, checkins=(100, 200), level="grid", cities=2, grid=6,
                  top=32, ring_vertices=256),
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs, plus the corpus digest."""

    taxonomy: Path
    corpus: Path
    labels: Path
    geo: Path
    cities: Path | None
    survey: Path
    corpus_sha256: str


def country_box(i: int) -> tuple[float, float, float, float]:
    x0 = COUNTRY_PITCH * i
    return (x0, 0.0, x0 + COUNTRY_SIDE, COUNTRY_SIDE)


def city_boxes(shape: Shape, i: int) -> list[tuple[float, float, float, float]]:
    x0, y0, x1, y1 = country_box(i)
    step = (x1 - x0) / shape.cities
    return [(x0 + j * step, y0, x0 + (j + 1) * step, y1) for j in range(shape.cities)]


def build_spec(shape: Shape, seed: int, subcategories: tuple[str, ...]) -> dict:
    """Generator spec: each country prefers its own random set of
    subcategories with Zipf-like weights and has its own hourly curve."""
    rng = np.random.default_rng(seed)
    countries = []
    for i in range(shape.countries):
        code = f"C{i}"
        picked = rng.choice(len(subcategories), PREFERRED_SUBCATEGORIES, replace=False)
        weights = 1.0 / np.arange(1, PREFERRED_SUBCATEGORIES + 1) ** 2.0
        entry = {
            "code": code,
            "bbox": list(country_box(i)),
            "users": shape.users,
            "checkins_per_user": list(shape.checkins),
            "preferences": {subcategories[p]: float(w) for p, w in zip(picked, weights)},
            "weekend_fraction": float(rng.uniform(0.2, 0.4)),
            "hourly": {"*": {g: (rng.random(24) + 0.1).tolist() for g in ("weekday", "weekend")}},
        }
        if shape.cities:
            entry["cities"] = [
                {"id": f"{code}-{j}", "bbox": list(box)}
                for j, box in enumerate(city_boxes(shape, i))
            ]
        countries.append(entry)
    return {"countries": countries}


def ring(box: tuple[float, float, float, float], vertices: int) -> list[tuple[float, float]]:
    """A closed ring tracing the box with ``vertices`` distinct vertices.

    Extra vertices lie exactly on the box edges, so the covered region, and
    with it every geocoding result, is the same as the plain rectangle's.
    """
    x0, y0, x1, y1 = box
    per_side = max(1, vertices // 4)
    t = np.arange(per_side) / per_side
    xs = np.concatenate([x0 + (x1 - x0) * t, np.full(per_side, x1),
                         x1 - (x1 - x0) * t, np.full(per_side, x0)])
    ys = np.concatenate([np.full(per_side, y0), y0 + (y1 - y0) * t,
                         np.full(per_side, y1), y1 - (y1 - y0) * t])
    pts = list(zip(xs.tolist(), ys.tolist()))
    return pts + [pts[0]]


def write_geo(shape: Shape, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(shape.countries):
            pts = ring(country_box(i), shape.ring_vertices)
            fh.write(f"C{i}\t" + ";".join(f"{x!r},{y!r}" for x, y in pts) + "\n")


def write_survey(shape: Shape, seed: int, path: Path) -> None:
    rng = np.random.default_rng([seed, 1])
    coords = rng.normal(size=(shape.countries, 2))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("country,trad_secular,surv_selfexpr\n")
        for i, (a, b) in enumerate(coords):
            fh.write(f"C{i},{float(a)!r},{float(b)!r}\n")


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def build_inputs(shape: Shape, seed: int, root: Path) -> Inputs:
    """Write spec, corpus, polygons, cities and survey for one seed."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    taxonomy_path = reference_taxonomy_path()
    taxonomy = load_taxonomy(taxonomy_path)
    spec = build_spec(shape, seed, taxonomy.subcategories)
    (root / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    generated = synth.generate_corpus(synth.SynthSpec.from_dict(spec), seed, root / "raw", taxonomy)
    geo = root / "geo.txt"
    write_geo(shape, geo)
    survey = root / "survey.csv"
    write_survey(shape, seed, survey)
    return Inputs(taxonomy_path, generated.corpus_path, generated.labels_path, geo,
                  generated.cities_path, survey, file_sha256(generated.corpus_path))


def stage_argv(shape: Shape, inputs: Inputs, stage: str, work: Path) -> list[str]:
    """Command-line arguments of one ``tastemap <stage>`` run."""
    store = work / "store"
    out = ["--out-dir", str(work / stage)]
    if stage == "ingest":
        return ["ingest", "--corpus", str(inputs.corpus), "--geo", str(inputs.geo),
                "--taxonomy", str(inputs.taxonomy), "--out-dir", str(store)]
    if stage == "simnet":
        return ["simnet", "--store", str(store), *out]
    if stage == "survey":
        return ["survey", "--store", str(store), "--survey", str(inputs.survey), *out]
    level = ["--level", shape.level]
    if shape.level == "grid":
        level += ["--cities", str(inputs.cities), "--rows", str(shape.grid),
                  "--cols", str(shape.grid), "--top", str(shape.top)]
    if stage == "cluster":
        level += ["--seed", "0"]
    return [stage, "--store", str(store), *level, *out]
