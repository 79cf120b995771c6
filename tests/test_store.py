"""Columnar corpus and the binary store: the arrays the analysis commands
load equal what parsing the exported CSV gives, and the column operations
equal parsing the correspondingly filtered check-in records."""

import tempfile
from dataclasses import FrozenInstanceError
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY_TAXONOMY, corpus_of, home_map, make_checkin, with_homes, write_taxonomy
from tastemap.errors import DataError
from tastemap.ingest import Corpus, assign_home_country, parse_corpus
from tastemap.model import Area, load_taxonomy
from tastemap.prefs import region_counts
from tastemap.store import read_store, write_store

COLUMNS = ("lat", "lon", "ts", "subcat_idx", "user_idx", "venue_idx")
# Every coordinate a check-in may have, so its region_counts cube counts every row.
WORLD = Area("world", "city", bbox=(-180.0, -90.0, 180.0, 90.0), closed_max_lon=True,
             closed_max_lat=True)
SUBCATS = ("Pub", "Wine Bar", "Tea Room", "Bakery", "Burger Joint", "Steakhouse",
           "Sushi Restaurant")

# Ids survive a CSV round trip except for control characters (a bare CR is
# read back as a newline) and lone surrogates (not UTF-8).
ids = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=5)
checkins = st.builds(
    make_checkin,
    user=st.one_of(ids, st.sampled_from(["u1", "u2", "ü"])),
    venue=st.one_of(ids, st.sampled_from(["v1", "v2"])),
    lat=st.floats(-90.0, 90.0),
    lon=st.floats(-180.0, 180.0),
    ts=st.datetimes(min_value=datetime(1, 1, 1),
                    max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)).map(datetime.isoformat),
    subcat=st.sampled_from(SUBCATS),
)


def assert_same_corpus(a: Corpus, b: Corpus) -> None:
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.user_ids == b.user_ids
    assert a.venue_ids == b.venue_ids
    assert np.array_equal(region_counts(a, WORLD), region_counts(b, WORLD))


@pytest.fixture(scope="module")
def tax_path(tmp_path_factory):
    return write_taxonomy(tmp_path_factory.mktemp("tax") / "toy.txt")


class TestColumns:
    def test_hour_and_weekend_follow_the_timestamp(self, toy_tax):
        stamps = ["2024-04-20T23:59:59.999999", "2024-04-22T00:00:00", "1969-12-31T13:05:00",
                  "0001-01-01T07:00:00", "9999-12-31T23:00:00"]
        # One subcategory per stamp, so each stamp's slot is one cube entry.
        corpus = corpus_of(toy_tax, [make_checkin(ts=ts, subcat=toy_tax.subcategories[s])
                                     for s, ts in enumerate(stamps)])
        parsed = [datetime.fromisoformat(ts) for ts in stamps]
        assert np.argwhere(region_counts(corpus, WORLD)).tolist() == [
            [s, int(d.weekday() >= 5), d.hour] for s, d in enumerate(parsed)]
        assert corpus.ts.astype(object).tolist() == parsed
        with pytest.raises(FrozenInstanceError):
            corpus.ts = corpus.ts[::-1]

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(checkins, max_size=25), data=st.data())
    def test_subset_equals_record_filter(self, toy_tax, records, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
        corpus = corpus_of(toy_tax, records)
        kept = corpus.subset(np.array(mask, bool))
        assert_same_corpus(kept, corpus_of(toy_tax, [c for c, k in zip(records, mask) if k]))

        users = sorted({c["user"] for c in records})
        home = {u: data.draw(st.sampled_from(["AA", "BB"])) for u in users}
        keep = data.draw(st.sets(st.sampled_from(users))) if users else set()
        homed = with_homes(corpus, home)
        kept_users = np.array([u in keep for u in homed.user_ids], bool)
        kept = homed.subset(kept_users[homed.user_idx])
        assert_same_corpus(kept, corpus_of(toy_tax, [c for c in records if c["user"] in keep]))
        assert home_map(kept) == {u: home[u] for u in keep}
        assert kept.countries == homed.countries

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(checkins, max_size=25))
    def test_per_class_counts_equal_record_sets(self, toy_tax, two_country_geo, records):
        _, report = assign_home_country(corpus_of(toy_tax, records), two_country_geo)
        for class_id in toy_tax.class_ids:
            hits = [c for c in records if toy_tax.class_of(c["subcat"]) == class_id]
            stats = report.per_class[class_id]
            assert stats.checkins == len(hits)
            assert stats.venues == len({c["venue"] for c in hits})
            assert stats.users == len({c["user"] for c in hits})


class TestStoreRoundTrip:
    @staticmethod
    def round_trip(corpus, tax_path, taxonomy=None):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp)
            home = {u: f"C{i % 3}" for i, u in enumerate(corpus.user_ids)}
            write_store(store, with_homes(corpus, home), tax_path)
            loaded, _ = read_store(store, taxonomy)
            parsed = parse_corpus(store / "corpus.csv", load_taxonomy(taxonomy or tax_path))
        return loaded, parsed, home

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(checkins, max_size=25), data=st.data())
    def test_loaded_store_equals_parsed_export(self, toy_tax, tax_path, records, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
        corpus = corpus_of(toy_tax, records).subset(np.array(mask, bool))
        loaded, parsed, home = self.round_trip(corpus, tax_path)
        assert_same_corpus(loaded, parsed)
        assert_same_corpus(loaded, corpus)
        assert home_map(loaded) == home
        assert loaded.countries == tuple(sorted(set(home.values())))

    def test_empty_store(self, toy_tax, tax_path):
        loaded, parsed, _ = self.round_trip(corpus_of(toy_tax, []), tax_path)
        assert len(loaded) == 0 and loaded.countries == ()
        assert_same_corpus(loaded, parsed)

    def test_override_taxonomy_drops_unknown_rows_as_parsing_does(self, toy_tax, tax_path,
                                                                   tmp_path):
        records = [make_checkin(user="a", subcat="Pub"), make_checkin(user="b", subcat="Bakery"),
                   make_checkin(user="b", venue="v2", subcat="Steakhouse")]
        narrow = write_taxonomy(tmp_path / "narrow.txt",
                                TOY_TAXONOMY.replace("FastFood\tBakery\n", ""))
        loaded, parsed, home = self.round_trip(corpus_of(toy_tax, records), tax_path, narrow)
        assert_same_corpus(loaded, parsed)
        assert loaded.user_ids == ("a", "b") and len(loaded) == 2
        assert loaded.skipped_unknown == parsed.skipped_unknown == 1
        assert home_map(loaded) == home

    def test_override_taxonomy_keeps_every_home_country(self, toy_tax, tax_path, tmp_path):
        records = [make_checkin(user="a", subcat="Pub"), make_checkin(user="b", subcat="Pub"),
                   make_checkin(user="c", subcat="Bakery")]
        narrow = write_taxonomy(tmp_path / "narrow.txt",
                                TOY_TAXONOMY.replace("FastFood\tBakery\n", ""))
        loaded, _, home = self.round_trip(corpus_of(toy_tax, records), tax_path, narrow)
        assert home["c"] == "C2" and loaded.user_ids == ("a", "b")
        assert loaded.countries == ("C0", "C1", "C2")
        assert home_map(loaded) == {"a": "C0", "b": "C1"}

    def test_id_ending_in_nul_is_refused(self, toy_tax, tax_path, tmp_path):
        corpus = corpus_of(toy_tax, [make_checkin(user="u\x00")])
        with pytest.raises(DataError):
            write_store(tmp_path, with_homes(corpus, {"u\x00": "AA"}), tax_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_user_without_home_is_refused_before_writing(self, toy_tax, tax_path, tmp_path):
        corpus = corpus_of(toy_tax, [make_checkin(user="a"), make_checkin(user="b")])
        with pytest.raises(DataError, match="'b' has no home"):
            write_store(tmp_path, with_homes(corpus, {"a": "AA"}), tax_path)
        assert list(tmp_path.iterdir()) == []

