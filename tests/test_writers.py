"""The report writers give the bytes of the writers they replaced, and the
input tables are read by one set of rules.  Each ``old_*`` function is the
previous writer, kept verbatim as the reference (``old_report_field`` is the
formatting the per-command writers applied to each field)."""

import csv
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import with_homes, write_taxonomy
from simnet_oracle import brute_force_network
from tastemap import simnet, store
from tastemap.csvtext import (
    quote_fields,
    read_keyed_rows,
    row_floats,
    write_labelled_rows,
    write_rows,
)
from tastemap.errors import DataError
from tastemap.ingest import CORPUS_FIELDS, Corpus
from tastemap.model import load_taxonomy
from tastemap.signatures import (
    DAY_GROUPS,
    CorrelationMatrix,
    _block,
    temporal_series,
    write_matrix_csv,
)
from tastemap.simnet import (
    NodeColumns,
    ProfileClasses,
    build_network,
    edge_id_table,
    write_edge_list,
    write_node_attributes,
)

# ---------------------------------------------------------------------------
# The previous writers
# ---------------------------------------------------------------------------


def old_write_matrix_csv(matrix, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *matrix.labels])
        for label, row in zip(matrix.labels, matrix.values.tolist()):
            writer.writerow([label, *("" if v != v else repr(v) for v in row)])


def old_hourly_curve(cube, taxonomy, class_id, day_group):
    lo, hi, w = _block(taxonomy, class_id, day_group)
    counts = cube[lo:hi, w].sum(axis=0).astype(np.float64)
    peak = counts.max()
    if peak > 0:
        counts /= peak
    return counts


def old_write_temporal(path, area_ids, cubes, taxonomy, class_id, day_group):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *(f"h{h:02d}" for h in range(24))])
        for area_id, cube in zip(area_ids, cubes):
            bins = old_hourly_curve(cube, taxonomy, class_id, day_group)
            writer.writerow([area_id, *(repr(float(b)) for b in bins)])


def old_write_pca_scores(path, area_ids, scores, p):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["area", *(f"pc{i + 1}" for i in range(p))])
        for area_id, row in zip(area_ids, scores):
            writer.writerow([area_id, *(repr(float(v)) for v in row)])


def old_write_corpus_csv(path, corpus):
    users = [corpus.user_ids[i] for i in corpus.user_idx.tolist()]
    venues = [corpus.venue_ids[i] for i in corpus.venue_idx.tolist()]
    subcats = [corpus.taxonomy.subcategories[i] for i in corpus.subcat_idx.tolist()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CORPUS_FIELDS)
        writer.writerows(
            [user, venue, repr(lat), repr(lon), ts.isoformat(), subcat]
            for user, venue, lat, lon, ts, subcat in zip(
                users, venues, corpus.lat.tolist(), corpus.lon.tolist(),
                corpus.ts.astype(object), subcats,
            )
        )


def old_report_field(v):
    return "" if v is None else repr(float(v)) if isinstance(v, float) else v


def old_write_report(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([old_report_field(v) for v in row])


def old_write_node_attributes(net, path):
    keys = sorted({k for attrs in net.attributes.values() for k in attrs})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", *keys])
        for u in net.nodes:
            attrs = net.attributes.get(u, {})
            writer.writerow([u, *(attrs.get(k, "") for k in keys)])


def old_write_edge_list(net, path):
    nodes = net.nodes
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{nodes[i]}\t{nodes[j]}\n" for i, j in net.edges.tolist())


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# Labels and ids that need quoting (comma, quote, newline), that look like
# they might (a bare CR, a leading space), non-ASCII ones, and the empty one.
labels = st.text(st.sampled_from(['a', 'Z', ',', '"', '\n', '\r', ' ', 'é', '日']), max_size=4)
# NaN, both zeros, neighbours of 1e-05 (where repr switches to exponent form)
# and ordinary correlations.
matrix_values = st.one_of(
    st.sampled_from([np.nan, -0.0, 0.0, 1.0, -1.0, 1e-05, np.nextafter(1e-05, 0.0),
                     np.nextafter(1e-05, 1.0), -1e-05, 1e-300]),
    st.floats(-1.0, 1.0),
)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(0, 7))
    upper = draw(st.lists(matrix_values, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    values = np.empty((n, n))
    rows, cols = np.triu_indices(n)
    values[rows, cols] = upper
    values[cols, rows] = upper
    return CorrelationMatrix(tuple(draw(st.lists(labels, min_size=n, max_size=n))), values, "all")


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestQuoteFields:
    def test_fields_are_what_csv_writes_in_a_row(self, tmp_path):
        values = ["", "a", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " pad", "ü"]
        path = tmp_path / "q.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(values)
        assert path.read_bytes() == (",".join(quote_fields(values)) + "\n").encode("utf-8")
        assert quote_fields([""]) == [""]  # not '""', which a one-field row gets


class TestMatrixCsv:
    @settings(max_examples=150, deadline=None)
    @given(matrix=symmetric_matrices())
    def test_equals_old_writer(self, tmp_path_factory, matrix):
        tmp = tmp_path_factory.mktemp("m")
        write_matrix_csv(matrix, tmp / "new.csv")
        old_write_matrix_csv(matrix, tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @pytest.mark.parametrize("cell", [0.5, -0.0, np.nan])
    def test_asymmetric_matrix_rejected_before_writing(self, tmp_path, cell):
        values = np.array([[1.0, 0.0, 0.25], [0.0, 1.0, 0.5], [0.25, 0.5, 1.0]])
        values[2, 0] = cell  # (0, 2) is 0.25
        if cell == 0.0:
            values[0, 2] = 0.0  # the same value, with the other sign
        path = tmp_path / "m.csv"
        with pytest.raises(DataError, match="not symmetric"):
            write_matrix_csv(CorrelationMatrix(("a", "b", "c"), values, "all"), path)
        assert not path.exists()

    def test_labels_must_match_the_matrix(self, tmp_path):
        with pytest.raises(DataError):
            write_matrix_csv(CorrelationMatrix(("a", "b"), np.eye(3), "all"), tmp_path / "m.csv")


class TestTemporalRows:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_old_writer(self, tmp_path_factory, toy_tax, data):
        n = data.draw(st.integers(1, 6))
        area_ids = data.draw(st.lists(labels, min_size=n, max_size=n))
        # Small counts, so peaks tie; every subcategory of an area is empty
        # with probability 1/2, so some class curves are all zero.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cubes = rng.choice([0, 0, 1, 2, 7], size=(n, toy_tax.m, 2, 24))
        cubes *= rng.integers(0, 2, size=(n, toy_tax.m, 1, 1))
        tmp = tmp_path_factory.mktemp("t")
        for class_id in toy_tax.class_ids:
            for day_group in DAY_GROUPS:
                curves = temporal_series(cubes, toy_tax, class_id, day_group)
                write_labelled_rows(tmp / "new.csv", ["area", *(f"h{h:02d}" for h in range(24))],
                                    area_ids, (map(repr, row) for row in curves.tolist()))
                old_write_temporal(tmp / "old.csv", area_ids, cubes, toy_tax, class_id, day_group)
                assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


class TestPcaRows:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_old_writer(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 6))
        p = data.draw(st.integers(1, 4))
        area_ids = data.draw(st.lists(labels, min_size=n, max_size=n))
        values = st.one_of(matrix_values, st.floats(allow_nan=False, allow_infinity=False))
        scores = np.array(data.draw(st.lists(values, min_size=n * p, max_size=n * p)),
                          np.float64).reshape(n, p)
        tmp = tmp_path_factory.mktemp("p")
        write_labelled_rows(tmp / "new.csv", ["area", *(f"pc{i + 1}" for i in range(p))],
                            area_ids, (map(repr, row) for row in scores.tolist()))
        old_write_pca_scores(tmp / "old.csv", area_ids, scores, p)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


ids = st.text(st.sampled_from(['u', '7', ',', '"', '\n', ' ', 'é', '日']), max_size=3)
MIN_US = int((datetime(1, 1, 1) - datetime(1970, 1, 1)).total_seconds()) * 10**6
MAX_US = int((datetime(9999, 12, 31, 23, 59, 59) - datetime(1970, 1, 1)).total_seconds()) * 10**6


class TestCorpusCsv:
    @pytest.fixture(scope="class")
    def quoted_tax(self, tmp_path_factory):
        text = 'Drink\tPub, "The" Inn\nDrink\tBar\nFastFood\tBakery\n'
        return write_taxonomy(tmp_path_factory.mktemp("tax") / "tax.txt", text)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([1, 3, 1 << 16]))
    def test_equals_old_writer(self, tmp_path_factory, quoted_tax, data, chunk):
        taxonomy = load_taxonomy(quoted_tax)
        user_ids = data.draw(st.lists(ids, min_size=1, max_size=4, unique=True))
        venue_ids = data.draw(st.lists(ids, min_size=1, max_size=4, unique=True))
        rows = data.draw(st.integers(0, 12))

        def index(k):
            return data.draw(st.lists(st.integers(0, k - 1), min_size=rows, max_size=rows))

        seconds = data.draw(st.lists(st.integers(MIN_US // 10**6, MAX_US // 10**6),
                                     min_size=rows, max_size=rows))
        micros = data.draw(st.lists(st.sampled_from([0, 0, 1, 500000, 999999]),
                                    min_size=rows, max_size=rows))
        coords = st.one_of(st.sampled_from([-0.0, 0.0, 1e-05, -90.0, 180.0]), st.floats(-90, 90))
        corpus = Corpus(
            taxonomy,
            lat=data.draw(st.lists(coords, min_size=rows, max_size=rows)),
            lon=data.draw(st.lists(coords, min_size=rows, max_size=rows)),
            ts=(np.array(seconds, np.int64) * 10**6 + micros).view("datetime64[us]"),
            subcat_idx=index(taxonomy.m),
            user_idx=index(len(user_ids)),
            user_ids=user_ids,
            venue_idx=index(len(venue_ids)),
            venue_ids=venue_ids,
        )
        corpus = with_homes(corpus, {u: "AA" for u in user_ids})
        tmp = tmp_path_factory.mktemp("c")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(store, "CSV_CHUNK", chunk)
            store.write_store(tmp, corpus, quoted_tax)
        old_write_corpus_csv(tmp / "old.csv", corpus)
        assert (tmp / "corpus.csv").read_bytes() == (tmp / "old.csv").read_bytes()


class TestEdgeList:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), chunk_bytes=st.sampled_from([1, 40, 1 << 24]))
    def test_equals_old_writer(self, tmp_path_factory, data, chunk_bytes):
        # ids of 0 to 12 UTF-8 bytes: ASCII, two-, three- and four-byte characters
        nodes = data.draw(st.lists(st.text(st.sampled_from(["a", "ü", "日", "😀", ",", " "]),
                                           max_size=3), min_size=1, max_size=8, unique=True))
        bits = data.draw(arrays(np.uint8, (len(nodes), 3), elements=st.integers(0, 1)))
        threshold = data.draw(st.sampled_from([0, 50, 100]))
        net = build_network(ProfileClasses(bits, threshold), threshold)
        tmp = tmp_path_factory.mktemp("e")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simnet, "EDGE_CHUNK_BYTES", chunk_bytes)
            write_edge_list(net, tmp / "new.tsv", edge_id_table(nodes))
        old_write_edge_list(brute_force_network(nodes, bits, threshold), tmp / "old.tsv")
        assert (tmp / "new.tsv").read_bytes() == (tmp / "old.tsv").read_bytes()

    # The field separator and every character str.splitlines breaks a line on.
    @pytest.mark.parametrize("char", ["\t", *(c for c in map(chr, range(0x110000))
                                               if len(f"a{c}b".splitlines()) > 1)])
    def test_id_with_a_tab_or_line_break_is_refused(self, tmp_path, char):
        net = build_network(ProfileClasses(np.ones((2, 1), np.uint8), 65.0), 65.0)
        with pytest.raises(DataError, match="holds a tab or a line break"):
            write_edge_list(net, tmp_path / "e.tsv", edge_id_table(("a", f"b{char}c")))
        assert not (tmp_path / "e.tsv").exists()


# Report fields: signed zeros, NaN, infinities, subnormal and tiny floats,
# as Python floats and as numpy float64, ints, None and labels.
report_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1e-05, 1e16]),
    st.floats(),
)
report_fields = st.one_of(
    st.none(), report_floats, report_floats.map(np.float64), st.integers(), labels,
    st.booleans().map(lambda b: str(b).lower()),
)


class TestWriteRows:
    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(labels, min_size=1, max_size=4),
           rows=st.lists(st.tuples(labels, st.lists(report_fields, max_size=4)), max_size=6))
    def test_equals_old_per_command_formatting(self, tmp_path_factory, header, rows):
        rows = [[label, *fields] for label, fields in rows]
        tmp = tmp_path_factory.mktemp("r")
        write_rows(tmp / "new.csv", header, rows)
        old_write_report(tmp / "old.csv", header, rows)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_node_attributes_equal_old_writer(self, tmp_path_factory, data):
        nodes = data.draw(st.lists(labels, min_size=1, max_size=5, unique=True))
        keys = st.sampled_from(["country", "k,1", 'q"', ""])
        attributes = {u: data.draw(st.dictionaries(keys, labels, max_size=3)) for u in nodes}
        bits = data.draw(arrays(np.uint8, (len(nodes), 3), elements=st.integers(0, 1)))
        threshold = data.draw(st.sampled_from([0, 50, 100]))
        net = build_network(ProfileClasses(bits, threshold), threshold)
        tmp = tmp_path_factory.mktemp("n")
        write_node_attributes(net, tmp / "new.csv", NodeColumns(nodes, [None] * len(nodes),
                                                                attributes))
        old_write_node_attributes(brute_force_network(nodes, bits, threshold, attributes),
                                  tmp / "old.csv")
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


class TestReadKeyedRows:
    def test_repeated_multi_line_key_names_its_physical_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('user,x\n"a\nb",1\nc,2\n"a\nb",3\n', encoding="utf-8")
        rows = read_keyed_rows(path, "attributes", "user", ("x",))
        assert [(line, row["x"]) for line, row in (next(rows), next(rows))] == [(3, "1"), (4, "2")]
        with pytest.raises(DataError) as err:
            next(rows)
        assert str(err.value) == f"{path} line 6: attributes file lists 'a\\nb' twice"

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("city,country\nA,B\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"cities file must have columns \['city', 'country', 'x'\]"):
            list(read_keyed_rows(path, "cities", "city", ("country", "x")))

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_number_names_file_and_line(self, tmp_path, text):
        with pytest.raises(DataError, match=f"here line 7: b is not a finite number: '{text}'"):
            row_floats("here", 7, {"a": "1.5", "b": text}, ("a", "b"))

    def test_fields_beyond_the_header_are_ignored(self):
        assert row_floats("here", 2, {"a": "-0.0", "b": "1e-300", None: ["x"]}, ("b", "a")) == (
            1e-300, -0.0)
