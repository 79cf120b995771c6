"""Taxonomy loading, check-in validation, domain-type validation and class slicing."""

import io
from datetime import datetime

import numpy as np
import pytest

from conftest import corpus_of, jsonl_text, make_checkin, write_taxonomy
from tastemap.errors import DataError, ParseError, TaxonomyError
from tastemap.ingest import area_mask, parse_corpus
from tastemap.model import Area, load_taxonomy
from tastemap.signatures import correlation_matrix


class TestLoadTaxonomy:
    def test_reference_file_class_sizes(self, ref_tax):
        sizes = {c: hi - lo for c, (lo, hi) in ref_tax.class_ranges.items()}
        assert sizes == {"Drink": 21, "FastFood": 27, "SlowFood": 53}
        assert ref_tax.m == 101

    def test_single_class_single_subcategory(self, tmp_path):
        tax = load_taxonomy(write_taxonomy(tmp_path / "t.txt", "Drink\tPub\n"))
        assert tax.m == 1
        assert tax.class_ids == ("Drink",)

    def test_excluded_name_is_dropped_and_unknown(self, ref_tax):
        assert "Restaurant" in ref_tax.excluded
        assert "Restaurant" not in ref_tax
        with pytest.raises(TaxonomyError):
            ref_tax.index_of("Restaurant")

    def test_exclusion_applies_to_listed_entries(self, tmp_path):
        text = "Drink\tPub\nFastFood\tRestaurant\nFastFood\tBakery\n!exclude\tRestaurant\n"
        tax = load_taxonomy(write_taxonomy(tmp_path / "t.txt", text))
        assert tax.m == 2
        assert "Restaurant" not in tax

    def test_duplicate_subcategory_rejected(self, tmp_path):
        text = "Drink\tPub\nFastFood\tPub\n"
        with pytest.raises(TaxonomyError, match="duplicate"):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", text))

    def test_empty_class_is_reported_before_a_duplicate(self, tmp_path):
        text = "Drink\tPub\nFastFood\tPub\nSlowFood\tDiner\n!exclude\tDiner\n"
        with pytest.raises(TaxonomyError, match="'SlowFood' has no subcategories"):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", text))

    def test_empty_class_rejected(self, tmp_path):
        text = "Drink\tPub\nFastFood\tRestaurant\n!exclude\tRestaurant\n"
        with pytest.raises(TaxonomyError, match="no subcategories"):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", text))

    def test_unknown_class_id_rejected(self, tmp_path):
        with pytest.raises(TaxonomyError, match="unknown class id"):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", "Dessert\tPie\n"))

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(TaxonomyError, match="expected"):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", "Drink Pub\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(TaxonomyError):
            load_taxonomy(write_taxonomy(tmp_path / "t.txt", "# nothing here\n"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "# header\n\nDrink\tPub\n  \nDrink\tBar\n"
        assert load_taxonomy(write_taxonomy(tmp_path / "t.txt", text)).m == 2

    def test_other_class_supported_for_full_taxonomies(self, tmp_path):
        text = "Drink\tPub\nOther\tShoe Store\nOther\tHotel\n"
        tax = load_taxonomy(write_taxonomy(tmp_path / "t.txt", text))
        assert tax.class_ids == ("Drink", "Other")
        assert tax.m == 3
        assert tax.class_of("Hotel") == "Other"


class TestClassSlice:
    def test_drink_slice_is_21_dim(self, ref_tax):
        vec = np.arange(ref_tax.m, dtype=float)
        assert vec[ref_tax.block("Drink")].shape == (21,)

    def test_all_zero_vector_slices_to_zero(self, ref_tax):
        assert not np.zeros(ref_tax.m)[ref_tax.block("SlowFood")].any()

    def test_slowfood_bit_invisible_to_drink_slice(self, ref_tax):
        vec = np.zeros(ref_tax.m)
        vec[ref_tax.index_of("Steakhouse")] = 1.0
        drink = vec[ref_tax.block("Drink")]
        assert drink.shape == (21,) and not drink.any()

    def test_unknown_class_rejected(self, toy_tax):
        with pytest.raises(TaxonomyError):
            toy_tax.block("Dessert")

    def test_wrong_length_rejected(self, toy_tax):
        with pytest.raises(DataError, match="does not match taxonomy size"):
            correlation_matrix(np.eye(2, toy_tax.m + 1), toy_tax, "Drink")

    def test_slices_concatenate_to_full_vector(self, ref_tax, toy_tax):
        for tax in (ref_tax, toy_tax):
            vec = np.arange(tax.m, dtype=float)
            parts = [vec[tax.block(c)] for c in tax.class_ids]
            assert np.array_equal(np.concatenate(parts), vec)

    def test_class_of_names_the_block_holding_the_subcategory(self, ref_tax, toy_tax):
        for tax in (ref_tax, toy_tax):
            for class_id in tax.class_ids:
                names = tax.subcategories[tax.block(class_id)]
                assert names and all(tax.class_of(name) == class_id for name in names)

    def test_m_consistent_with_class_counts(self, ref_tax):
        assert ref_tax.m == sum(hi - lo for lo, hi in ref_tax.class_ranges.values())


class TestCheckIn:
    def test_valid_checkin(self, toy_tax):
        corpus = corpus_of(toy_tax, [make_checkin(lat=45.0, lon=-120.0)])
        assert corpus.ts.astype(object).tolist() == [datetime(2024, 4, 16, 12)]

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -181.0)])
    def test_out_of_range_coordinates(self, toy_tax, lat, lon):
        with pytest.raises(ParseError):
            parse_corpus(io.StringIO(jsonl_text([make_checkin(lat=lat, lon=lon)])), toy_tax)

    def test_offset_timestamp_rejected(self, toy_tax):
        with pytest.raises(ParseError):
            parse_corpus(io.StringIO(jsonl_text([make_checkin(ts="2024-04-16T12:00:00+02:00")])),
                         toy_tax)


def inside(toy_tax, area, points):
    """area_mask of a corpus with one check-in at each (lat, lon) point."""
    records = [make_checkin(user=f"u{i}", lat=lat, lon=lon) for i, (lat, lon) in enumerate(points)]
    return area_mask(corpus_of(toy_tax, records), area).tolist()


class TestArea:
    def test_contains_uses_closed_edges_by_default(self, toy_tax):
        area = Area("c", "city", bbox=(0.0, 0.0, 1.0, 1.0))
        assert inside(toy_tax, area, [(1.0, 1.0), (0.0, 0.0)]) == [True, True]

    def test_half_open_cell_excludes_max_edges(self, toy_tax):
        cell = Area("c:0:0", "grid_cell", bbox=(0.0, 0.0, 1.0, 1.0),
                    closed_max_lon=False, closed_max_lat=False)
        assert inside(toy_tax, cell, [(0.5, 0.5), (0.5, 1.0), (1.0, 0.5)]) == [True, False, False]

    def test_bad_kind_rejected(self):
        with pytest.raises(DataError):
            Area("x", "county")

    def test_inverted_bbox_rejected(self):
        with pytest.raises(DataError):
            Area("x", "city", bbox=(1.0, 0.0, 0.0, 1.0))
