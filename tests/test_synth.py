"""Synthetic corpus generation and adjusted Rand index."""

import csv
import hashlib
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from synth_oracle import generate_corpus_loop
from tastemap import synth
from tastemap.cli import main
from tastemap.errors import DataError
from tastemap.ingest import assign_home_country, load_geo_index, parse_corpus
from tastemap.model import Area, reference_taxonomy_path
from tastemap.prefs import normalized_rows, region_counts
from tastemap.signatures import correlation_matrix
from tastemap.synth import SynthSpec, _below, adjusted_rand_index, generate_corpus


def spec_dict(**overrides):
    base = {
        "countries": [
            {
                "code": "AA",
                "bbox": [0, 0, 10, 10],
                "users": 5,
                "checkins_per_user": [4, 8],
                "preferences": {"Pub": 3.0, "Bakery": 1.0},
            },
            {
                "code": "BB",
                "bbox": [20, 0, 30, 10],
                "users": 5,
                "checkins_per_user": [4, 8],
                "preferences": {"Sushi Restaurant": 3.0, "Sake Bar": 1.0},
            },
        ]
    }
    base.update(overrides)
    return base


class TestGenerateCorpus:
    def test_one_user_one_checkin(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(
            {
                "countries": [
                    {
                        "code": "AA",
                        "bbox": [0, 0, 10, 10],
                        "users": 1,
                        "checkins_per_user": 1,
                        "preferences": {"Pub": 1.0},
                    }
                ]
            }
        )
        generated = generate_corpus(spec, 0, tmp_path, ref_tax)
        lines = generated.corpus_path.read_text().splitlines()
        assert len(lines) == 1

    def test_same_seed_is_byte_identical(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(spec_dict())
        a = generate_corpus(spec, 9, tmp_path / "a", ref_tax)
        b = generate_corpus(spec, 9, tmp_path / "b", ref_tax)
        for pa, pb in ((a.corpus_path, b.corpus_path), (a.labels_path, b.labels_path),
                       (a.geo_path, b.geo_path)):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(spec_dict())
        a = generate_corpus(spec, 1, tmp_path / "a", ref_tax)
        b = generate_corpus(spec, 2, tmp_path / "b", ref_tax)
        assert a.corpus_path.read_bytes() != b.corpus_path.read_bytes()

    def test_checkins_stay_inside_country_polygon(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(spec_dict())
        generated = generate_corpus(spec, 3, tmp_path, ref_tax)
        corpus = parse_corpus(generated.corpus_path, ref_tax)
        geo = load_geo_index(generated.geo_path)
        located, report = assign_home_country(corpus, geo)
        assert report.users_discarded_mixed_country == 0
        assert located.n_users == 10 and len(located) == len(corpus)

    def test_labels_partition_users(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(spec_dict())
        generated = generate_corpus(spec, 4, tmp_path, ref_tax)
        corpus = parse_corpus(generated.corpus_path, ref_tax)
        with open(generated.labels_path, encoding="utf-8", newline="") as fh:
            labels = {row["user"]: row["country"] for row in csv.DictReader(fh)}
        assert set(labels) == set(corpus.user_ids)
        assert set(labels.values()) == {"AA", "BB"}

    def test_disjoint_supports_anticorrelate_through_pipeline(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(spec_dict())
        generated = generate_corpus(spec, 5, tmp_path, ref_tax)
        corpus = parse_corpus(generated.corpus_path, ref_tax)
        geo = load_geo_index(generated.geo_path)
        located, _ = assign_home_country(corpus, geo)
        codes = ["AA", "BB"]
        counts = [region_counts(located, Area(code, "country", country_code=code)).sum(axis=(1, 2))
                  for code in codes]
        matrix = correlation_matrix(codes, normalized_rows(np.array(counts), codes), ref_tax)
        assert matrix.values[0, 1] <= 0.0

    def test_empirical_frequencies_match_weights(self, ref_tax, tmp_path):
        spec = SynthSpec.from_dict(
            {
                "countries": [
                    {
                        "code": "AA",
                        "bbox": [0, 0, 10, 10],
                        "users": 100,
                        "checkins_per_user": 100,
                        "preferences": {"Pub": 5.0, "Bakery": 3.0, "Steakhouse": 2.0},
                    }
                ]
            }
        )
        generated = generate_corpus(spec, 6, tmp_path, ref_tax)
        corpus = parse_corpus(generated.corpus_path, ref_tax)
        assert len(corpus) == 10_000
        observed = np.array(
            [
                (corpus.subcat_idx == ref_tax.index_of(name)).sum()
                for name in ("Pub", "Bakery", "Steakhouse")
            ]
        )
        expected = np.array([0.5, 0.3, 0.2]) * len(corpus)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.isf(0.001, df=2)

    def test_cities_round_robin_and_file(self, ref_tax, tmp_path):
        doc = spec_dict()
        doc["countries"][0]["cities"] = [
            {"id": "AA-1", "bbox": [0, 0, 5, 5]},
            {"id": "AA-2", "bbox": [5, 5, 10, 10]},
        ]
        generated = generate_corpus(SynthSpec.from_dict(doc), 7, tmp_path, ref_tax)
        assert generated.cities_path is not None
        with open(generated.labels_path, encoding="utf-8", newline="") as fh:
            cities = [row["city"] for row in csv.DictReader(fh) if row["country"] == "AA"]
        assert set(cities) == {"AA-1", "AA-2"}

    def test_unknown_preference_rejected(self, ref_tax, tmp_path):
        doc = spec_dict()
        doc["countries"][0]["preferences"] = {"Moon Base": 1.0}
        with pytest.raises(DataError):
            generate_corpus(SynthSpec.from_dict(doc), 0, tmp_path, ref_tax)


# Subcategories from three classes of the reference taxonomy.
ORACLE_NAMES = ("Pub", "Sake Bar", "Bakery", "Burger Joint", "Steakhouse", "Sushi Restaurant")
OUTPUT_FILES = ("corpus.jsonl", "labels.csv", "geo.txt", "cities.csv")


@st.composite
def box(draw):
    x0, y0 = draw(st.floats(-170, 170)), draw(st.floats(-80, 80))
    w, h = draw(st.floats(1e-6, 10)), draw(st.floats(1e-6, 10))
    return [x0, y0, x0 + w, y0 + h]


def weights(n, draw):
    return draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]), min_size=n, max_size=n)
                .filter(lambda ws: sum(ws) > 0))


@st.composite
def country_entry(draw, code, class_ids):
    names = draw(st.lists(st.sampled_from(ORACLE_NAMES), min_size=1, max_size=4, unique=True))
    low = draw(st.integers(1, 5))
    hourly = {}
    for key in draw(st.lists(st.sampled_from(("*", *class_ids)), max_size=3, unique=True)):
        groups = draw(st.lists(st.sampled_from(("weekday", "weekend")), max_size=2, unique=True))
        hourly[key] = {group: weights(24, draw) for group in groups}
    entry = {
        "code": code,
        "bbox": draw(box()),
        "users": draw(st.integers(1, 4)),
        "checkins_per_user": draw(st.sampled_from([low, [low, low + draw(st.integers(0, 6))]])),
        "preferences": dict(zip(names, weights(len(names), draw))),
        "weekend_fraction": draw(st.sampled_from([0.0, 1.0, 2.0 / 7.0]) | st.floats(0, 1)),
        "hourly": hourly,
        "venues_per_subcategory": draw(st.sampled_from([1, 2, 3, 60, 2**31 + 1])),
    }
    n_cities = draw(st.integers(0, 3))
    if n_cities:
        entry["cities"] = [{"id": f"{code}-{i}", "bbox": draw(box())} for i in range(n_cities)]
    return entry


@st.composite
def oracle_specs(draw, class_ids):
    codes = draw(st.lists(st.text(alphabet='AZ"\\\u00e9\u4e2d\U0001f600', min_size=1, max_size=3),
                          min_size=1, max_size=3, unique=True))
    return {"countries": [draw(country_entry(code, class_ids)) for code in codes]}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32),
       block_rows=st.sampled_from([synth._BLOCK_ROWS, 1, 7]))
def test_generator_writes_what_the_scalar_loop_wrote(ref_tax, data, seed, block_rows):
    """Every output file is the scalar reference's, byte for byte: counts
    fixed and ranged, one venue and 2**31 + 1 venues, weekend fractions 0
    and 1, zero weights, cities, country codes that JSON and CSV must
    escape, and countries decoded in several blocks of users."""
    doc = data.draw(oracle_specs(ref_tax.class_ids))
    spec = SynthSpec.from_dict(doc)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(synth, "_BLOCK_ROWS", block_rows):
        new, old = Path(tmp, "new"), Path(tmp, "old")
        generate_corpus(spec, seed, new, ref_tax)
        generate_corpus_loop(spec, seed, old, ref_tax)
        for name in OUTPUT_FILES:
            assert (new / name).exists() == (old / name).exists()
            if (old / name).exists():
                assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_bounded_draws_take_one_word_and_stay_below_n():
    """Multiply-shift maps every word into [0, n) without overflowing
    uint64, the extreme words included, and agrees with Python ints; the
    check-in count takes word 0, also from a one-value range, and each
    check-in the next 9 words."""
    words = np.random.Philox(key=3).random_raw(4096)
    words[:4] = [0, 2**32 - 1, 2**32, 2**64 - 1]
    for n in (1, 2, 5, 60, 2**31 + 1, 2**32):
        got = _below(words, n)
        assert got.dtype == np.uint64
        assert got.max() < n and got[3] == n - 1
        assert got.tolist() == [((w >> 32) * n) >> 32 for w in words.tolist()]

    for high in (1, 2, 5, 60):
        country = SynthSpec.from_dict({"countries": [{
            "code": "AA", "bbox": [0, 0, 1, 1], "users": 3, "checkins_per_user": [1, high],
            "preferences": {"Pub": 1.0}}]}).countries[0]
        counts, drawn = synth._draw_users(country, 5, 0, 3)
        first = 0
        for u, count in enumerate(counts.tolist()):
            stream = np.random.Philox(counter=[0, 0, u, 0], key=5).random_raw(1 + 9 * count)
            assert count == 1 + _below(stream[0], high)
            assert drawn[first:first + count].ravel().tolist() == stream[1:].tolist()
            first += count
        assert first == len(drawn)


GOLDEN_SPEC = {
    "countries": [
        {"code": "AA", "bbox": [0, 0, 10, 10], "users": 6, "checkins_per_user": [3, 9],
         "preferences": {"Pub": 3.0, "Bakery": 1.0, "Sushi Restaurant": 0.5},
         "weekend_fraction": 0.4,
         "hourly": {"*": {"weekday": [1.0] * 12 + [3.0] * 12, "weekend": [0.0] * 18 + [1.0] * 6}},
         "cities": [{"id": "AA-1", "bbox": [0, 0, 5, 10]}, {"id": "AA-2", "bbox": [5, 0, 10, 10]}]},
        {"code": "BB", "bbox": [20.5, -3.25, 30, 7.125], "users": 4, "checkins_per_user": 5,
         "preferences": {"Sake Bar": 2.0, "Steakhouse": 1.0}, "venues_per_subcategory": 1},
    ]
}


def test_corpus_digest_is_pinned(ref_tax, tmp_path):
    """The corpus depends only on Philox's specified raw words and the
    fixed word layout, so its bytes do not depend on the numpy version.
    Digest taken from the word-by-word reference above."""
    generated = generate_corpus(SynthSpec.from_dict(GOLDEN_SPEC), 5, tmp_path, ref_tax)
    data = generated.corpus_path.read_bytes()
    assert data.count(b"\n") == 61
    assert hashlib.sha256(data).hexdigest() == (
        "f9fb5498761c991bb88138ec77bb72e695077deaed4157e16fa91cdff54f0089"
    )


class TestHourlyValidation:
    @pytest.mark.parametrize("hourly", [
        {"Nightlife": {"weekday": [1.0] * 24}},
        {"*": {"weekdays": [1.0] * 24}},
        {"*": {"weekday": [1.0] * 23}},
        {"*": {"weekend": [1.0] * 23 + [-1.0]}},
        {"*": {"weekend": [0.0] * 24}},
        {"*": {"weekend": [float("nan")] * 24}},
        {"*": {"weekend": [float("inf")] + [1.0] * 23}},
    ], ids=["unknown-class", "unknown-group", "short", "negative", "zero-sum", "nan", "inf"])
    def test_bad_profile_on_second_country_writes_nothing(self, ref_tax, tmp_path, hourly):
        doc = spec_dict()
        doc["countries"][1]["hourly"] = hourly
        with pytest.raises(DataError):
            generate_corpus(SynthSpec.from_dict(doc), 0, tmp_path / "out", ref_tax)
        assert not (tmp_path / "out").exists()

    def test_cli_exits_2_and_leaves_no_corpus(self, tmp_path):
        doc = spec_dict()
        doc["countries"][1]["hourly"] = {"*": {"weekdays": [1.0] * 24}}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec_path), "--taxonomy", str(reference_taxonomy_path()),
                     "--seed", "0", "--out-dir", str(out)]) == 2
        assert not out.exists()


def test_coordinates_are_written_exactly(ref_tax, tmp_path):
    """A bbox narrower than %g's six digits keeps every user in its country."""
    doc = {"countries": [{"code": "AA", "bbox": [10.1234567, 0, 10.1234599, 1], "users": 30,
                          "checkins_per_user": 2, "preferences": {"Pub": 1.0},
                          "cities": [{"id": "AA-1", "bbox": [10.1234567, 0, 10.1234599, 1]}]}]}
    generated = generate_corpus(SynthSpec.from_dict(doc), 1, tmp_path, ref_tax)
    assert generated.geo_path.read_text().split("\t")[1].split(";")[0] == "10.1234567,0.0"
    assert "AA-1,AA,10.1234567,0.0,10.1234599,1.0" in generated.cities_path.read_text()
    corpus = parse_corpus(generated.corpus_path, ref_tax)
    _, report = assign_home_country(corpus, load_geo_index(generated.geo_path))
    assert report.users_discarded_mixed_country == 0


def test_ids_with_commas_and_quotes_are_quoted(ref_tax, tmp_path):
    """labels.csv and cities.csv are CSV tables: a city id holding a comma
    or a quote is one quoted field, and ``signatures --cities`` reads it."""
    ids = ['A-x,1', 'A-"y"']
    doc = {"countries": [{"code": "AA", "bbox": [0, 0, 10, 10], "users": 4,
                          "checkins_per_user": 8, "preferences": {"Pub": 1.0, "Bakery": 1.0},
                          "cities": [{"id": ids[0], "bbox": [0, 0, 5, 10]},
                                     {"id": ids[1], "bbox": [5, 0, 10, 10]}]}]}
    generated = generate_corpus(SynthSpec.from_dict(doc), 2, tmp_path / "raw", ref_tax)
    with open(generated.labels_path, encoding="utf-8", newline="") as fh:
        labels = list(csv.reader(fh))
    assert labels[1:] == [[f"u{i:06d}", "AA", ids[i % 2]] for i in range(4)]
    assert generated.cities_path.read_text(encoding="utf-8").splitlines()[1:] == [
        '"A-x,1",AA,0.0,0.0,5.0,10.0', '"A-""y""",AA,5.0,0.0,10.0,10.0']
    taxonomy = str(reference_taxonomy_path())
    assert main(["ingest", "--corpus", str(generated.corpus_path), "--geo", str(generated.geo_path),
                 "--taxonomy", taxonomy, "--out-dir", str(tmp_path / "store")]) == 0
    assert main(["signatures", "--store", str(tmp_path / "store"), "--level", "city",
                 "--cities", str(generated.cities_path), "--out-dir", str(tmp_path / "sig")]) == 0
    areas = json.loads((tmp_path / "sig" / "areas_used.json").read_text(encoding="utf-8"))
    assert areas["areas_used"] == sorted(ids)


def test_ordinary_label_and_city_rows_keep_their_bytes(ref_tax, tmp_path):
    generated = generate_corpus(SynthSpec.from_dict(GOLDEN_SPEC), 5, tmp_path, ref_tax)
    assert generated.labels_path.read_text(encoding="utf-8").splitlines()[:3] == [
        "user,country,city", "u000000,AA,AA-1", "u000001,AA,AA-2"]
    assert generated.labels_path.read_text(encoding="utf-8").splitlines()[-1] == "u000009,BB,"
    assert generated.cities_path.read_text(encoding="utf-8") == (
        "city,country,min_lon,min_lat,max_lon,max_lat\n"
        "AA-1,AA,0.0,0.0,5.0,10.0\nAA-2,AA,5.0,0.0,10.0,10.0\n")


class TestSpecValidation:
    def test_duplicate_codes_rejected(self):
        doc = spec_dict()
        doc["countries"][1]["code"] = "AA"
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    def test_zero_users_rejected(self):
        doc = spec_dict()
        doc["countries"][0]["users"] = 0
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    def test_all_zero_weights_rejected(self):
        doc = spec_dict()
        doc["countries"][0]["preferences"] = {"Pub": 0.0}
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    def test_negative_weight_rejected(self):
        doc = spec_dict()
        doc["countries"][0]["preferences"] = {"Pub": -1.0, "Bakery": 2.0}
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    def test_degenerate_bbox_rejected(self):
        doc = spec_dict()
        doc["countries"][0]["bbox"] = [0, 0, 0, 10]
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("bbox", [-1e308, 0, 1e308, 10]),
        ("bbox", [0, 0, float("inf"), 10]),
        ("preferences", {"Pub": float("inf")}),
        ("preferences", {"Pub": 1e308, "Bakery": 1e308}),
        ("venues_per_subcategory", 2**32 + 1),
        ("checkins_per_user", [1, 2**32 + 1]),
    ], ids=["span-overflows", "infinite-bbox", "infinite-weight", "weight-sum-overflows",
            "venues-past-32-bits", "count-range-past-32-bits"])
    def test_values_the_generator_cannot_draw_rejected(self, field, value):
        doc = spec_dict()
        doc["countries"][0][field] = value
        with pytest.raises(DataError):
            SynthSpec.from_dict(doc)

    def test_largest_32_bit_ranges_accepted(self):
        doc = spec_dict()
        doc["countries"][0]["venues_per_subcategory"] = 2**32
        doc["countries"][0]["checkins_per_user"] = [1, 2**32]
        SynthSpec.from_dict(doc)


def _drop(key, city=False):
    def edit(doc):
        country = doc["countries"][1]
        if city:
            country["cities"] = [{"id": "BB-1"}]
        else:
            del country[key]
    return edit


def _set(key, value):
    def edit(doc):
        doc["countries"][1][key] = value
    return edit


class TestSpecShape:
    """A missing field, or one of the wrong type or shape, is a DataError
    that names the country and the field; the CLI exits 2 and writes
    nothing."""

    @pytest.mark.parametrize("edit, message", [
        (_drop("users"), "country 'BB': missing field 'users'"),
        (_drop("code"), "country #2: missing field 'code'"),
        (_drop("bbox"), "country 'BB': missing field 'bbox'"),
        (_drop("bbox", city=True), "country 'BB' city 'BB-1': missing field 'bbox'"),
        (_set("bbox", [20, 0, 30]), "country 'BB': bad field 'bbox'"),
        (_set("cities", [{"id": "BB-1", "bbox": [20, 0, 25]}]),
         "country 'BB' city 'BB-1': bad field 'bbox'"),
        (_set("checkins_per_user", [4]), "country 'BB': bad field 'checkins_per_user'"),
        (_set("preferences", ["Pub"]), "country 'BB': bad field 'preferences'"),
        (_set("hourly", {"*": {"weekday": 5}}), "country 'BB': bad field 'hourly'"),
        (_set("users", 2.7), "country 'BB': bad field 'users'"),
        (lambda doc: doc.update(countries=[[]]), "country #1: expected a JSON object"),
    ], ids=["no-users", "no-code", "no-bbox", "no-city-bbox", "three-number-bbox",
            "three-number-city-bbox", "one-count", "preference-list", "numeric-hourly-group",
            "fractional-users", "country-not-object"])
    def test_bad_field_is_named(self, tmp_path, capsys, edit, message):
        doc = spec_dict()
        edit(doc)
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            SynthSpec.from_dict(doc)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec_path), "--taxonomy", str(reference_taxonomy_path()),
                     "--seed", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"tastemap: data error: {message}")
        assert not out.exists()

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps([spec_dict()]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec_path), "--taxonomy", str(reference_taxonomy_path()),
                     "--seed", "0", "--out-dir", str(out)]) == 2
        assert "spec must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_floats_and_tuples_parse_as_before(self):
        doc = spec_dict()
        doc["countries"][0].update(users=5.0, checkins_per_user=(4, 8.0))
        assert SynthSpec.from_dict(doc) == SynthSpec.from_dict(spec_dict())


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([1, 1, 2, 2, 3], [1, 1, 2, 2, 3]) == 1.0

    def test_relabeled_partition_scores_one(self):
        assert adjusted_rand_index(["a", "a", "b", "b"], ["x", "x", "y", "y"]) == 1.0

    def test_hand_computed_negative(self):
        assert adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_mapping_inputs(self):
        a = {"x": 0, "y": 0, "z": 1}
        b = {"z": 5, "y": 9, "x": 9}
        assert adjusted_rand_index(a, b) == 1.0

    def test_mismatched_items_rejected(self):
        with pytest.raises(DataError):
            adjusted_rand_index({"x": 1}, {"y": 1})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            adjusted_rand_index([1, 2], [1, 2, 3])

    def test_single_cluster_vs_singletons(self):
        assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
