"""Synthetic corpus generation and adjusted Rand index."""

import csv

import numpy as np
import pytest
from scipy import stats

from tastemap.errors import DataError
from tastemap.ingest import assign_home_country, load_geo_index, parse_corpus
from tastemap.model import Area
from tastemap.prefs import region_counts, region_profile
from tastemap.signatures import correlation_matrix
from tastemap.synth import SynthSpec, adjusted_rand_index, generate_corpus


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
        sigs = []
        for code in ("AA", "BB"):
            area = Area(code, "country", country_code=code)
            sigs.append(region_profile(region_counts(located, area).sum(axis=(1, 2)), code))
        matrix = correlation_matrix(sigs, ref_tax)
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
