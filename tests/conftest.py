"""Shared fixtures: small taxonomies, rectangle geographies, corpus builders
and a small synthetic corpus with its ingested store."""

from __future__ import annotations

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from tastemap.cli import main
from tastemap.ingest import Corpus, load_geo_index, parse_corpus
from tastemap.model import Taxonomy, load_taxonomy, reference_taxonomy_path
from tastemap.synth import SynthSpec, generate_corpus

TOY_TAXONOMY = """\
Drink\tPub
Drink\tWine Bar
Drink\tTea Room
FastFood\tBakery
FastFood\tBurger Joint
SlowFood\tSteakhouse
SlowFood\tSushi Restaurant
"""


def write_taxonomy(path: Path, text: str = TOY_TAXONOMY) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def write_geo(path: Path, boxes: dict[str, tuple[float, float, float, float]]) -> Path:
    """One rectangular ring per country: {code: (min_lon, min_lat, max_lon, max_lat)}."""
    lines = []
    for code, (lo_x, lo_y, hi_x, hi_y) in boxes.items():
        ring = ";".join(
            f"{x:g},{y:g}"
            for x, y in ((lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y), (lo_x, lo_y))
        )
        lines.append(f"{code}\t{ring}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_checkin(
    user="u1",
    venue="v1",
    lat=1.0,
    lon=1.0,
    ts="2024-04-16T12:00:00",
    subcat="Pub",
) -> dict:
    """One check-in as the JSON record a corpus file holds."""
    return {"user": user, "venue": venue, "lat": lat, "lon": lon, "ts": ts, "subcat": subcat}


def jsonl_text(records) -> str:
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)


def write_jsonl(path: Path, records) -> Path:
    path.write_text(jsonl_text(records), encoding="utf-8")
    return path


def corpus_of(taxonomy: Taxonomy, records) -> Corpus:
    """The corpus that parsing these records gives; every record must be
    valid and name a known subcategory."""
    corpus = parse_corpus(io.StringIO(jsonl_text(records)), taxonomy, error_budget=0)
    assert corpus.skipped_unknown == 0, "a fixture record names an unknown subcategory"
    return corpus


def with_homes(corpus: Corpus, home: dict[str, str], countries=()) -> Corpus:
    """The same corpus with each user's home country taken from ``home``
    ({user: country}); a user it does not name has none.  ``countries``
    adds codes to the country table that no user has."""
    countries = sorted(set(home.values()).union(countries))
    homes = [countries.index(home[u]) if u in home else -1 for u in corpus.user_ids]
    return replace(corpus, countries=countries, user_country=homes)


def home_map(corpus: Corpus) -> dict[str, str]:
    """{user: home country} of the users that have one."""
    return {u: corpus.countries[c]
            for u, c in zip(corpus.user_ids, corpus.user_country.tolist()) if c >= 0}


@pytest.fixture(scope="session")
def ref_tax() -> Taxonomy:
    return load_taxonomy(reference_taxonomy_path())


@pytest.fixture(scope="session")
def toy_tax(tmp_path_factory) -> Taxonomy:
    path = tmp_path_factory.mktemp("tax") / "toy.txt"
    return load_taxonomy(write_taxonomy(path))


@pytest.fixture(scope="session")
def two_country_geo(tmp_path_factory):
    path = tmp_path_factory.mktemp("geo") / "geo.txt"
    return load_geo_index(
        write_geo(path, {"AA": (0, 0, 10, 10), "BB": (20, 0, 30, 10)})
    )


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
