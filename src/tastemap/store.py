"""The store directory that ``tastemap ingest`` writes and every analysis
command reads.

Layout::

    corpus.npz          the columnar corpus: numpy arrays only, no pickles
    manifest.json       {"corpus_sha256": <hex>, "format": FORMAT_VERSION}
    corpus.csv          the same check-ins as text, one row each (export)
    home_countries.csv  user,country (export)
    taxonomy.txt        the taxonomy the store was ingested with

``corpus.npz`` holds the corpus columns (``lat``, ``lon``, ``ts``,
``subcat_idx``, ``user_idx``, ``venue_idx``) and fixed-width unicode
tables: ``subcategories`` (what ``subcat_idx`` points into), ``user_ids``,
``venue_ids`` and ``home`` (each user's home country, in user order; on
load it becomes the corpus's ``countries`` table and ``user_country``
column).  Subcategories are matched by name on load, so a store read with
another taxonomy drops the rows whose subcategory it does not know, as
parsing would.

The analysis commands read ``corpus.npz`` only; the CSV files are exports.
A store whose manifest is missing, names another format or does not hash
``corpus.npz`` to the same digest is rejected with a DataError, so a store
from an older ingest, a half-written store or an edited array file is
never analysed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import zipfile
from pathlib import Path
from typing import Mapping

import numpy as np

from .csvtext import quote_fields, write_rows
from .errors import DataError, utf8_input
from .ingest import COLUMNS, CORPUS_FIELDS, Corpus
from .model import Taxonomy, load_taxonomy

FORMAT_VERSION = 1
CORPUS_FILE = "corpus.npz"
MANIFEST_FILE = "manifest.json"
TABLES = ("subcategories", "user_ids", "venue_ids", "home")
CSV_CHUNK = 1 << 16  # rows of corpus.csv formatted at once


def _npz_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """``np.savez`` layout with a fixed timestamp on every member, so equal
    arrays always give equal bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)
    return buf.getvalue()


def _isoformat(ts: np.ndarray) -> list[str]:
    """``datetime.isoformat`` of each timestamp: microseconds only where
    they are not zero."""
    whole = ts == ts.astype("datetime64[s]")
    out = np.empty(len(ts), object)
    out[whole] = np.datetime_as_string(ts[whole], unit="s")
    out[~whole] = np.datetime_as_string(ts[~whole], unit="us")
    return out.tolist()


def _write_corpus_csv(path: Path, corpus: Corpus) -> None:
    """The check-ins as ``csv.writer`` writes their rows, built from the
    columns ``CSV_CHUNK`` rows at a time: each distinct user, venue and
    subcategory id is quoted once, coordinates are ``repr`` of their floats
    and timestamps are ``datetime.isoformat``."""
    users = np.array(quote_fields(corpus.user_ids), object)
    venues = np.array(quote_fields(corpus.venue_ids), object)
    # The last field carries the line end.
    subcats = np.array([f + "\n" for f in quote_fields(corpus.taxonomy.subcategories)], object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(CORPUS_FIELDS)
        for start in range(0, len(corpus), CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            fh.write("".join(map(",".join, zip(
                users[corpus.user_idx[rows]].tolist(),
                venues[corpus.venue_idx[rows]].tolist(),
                map(repr, corpus.lat[rows].tolist()),
                map(repr, corpus.lon[rows].tolist()),
                _isoformat(corpus.ts[rows]),
                subcats[corpus.subcat_idx[rows]].tolist(),
            ))))


def write_store(store: Path, corpus: Corpus, taxonomy_path: Path) -> None:
    """Write every store file; the manifest goes last, so a store left
    half-written by a failed ingest is rejected on read.  Every user must
    have a home country.  ``corpus.csv`` is written from the columns with
    no Python code per field (see ``_write_corpus_csv``).
    """
    homeless = np.flatnonzero(corpus.user_country < 0)
    if homeless.size:
        raise DataError(f"user {corpus.user_ids[homeless[0]]!r} has no home country")
    home = [corpus.countries[i] for i in corpus.user_country.tolist()]
    arrays = {name: getattr(corpus, name) for name in COLUMNS}
    tables = {
        "subcategories": corpus.taxonomy.subcategories,
        "user_ids": corpus.user_ids,
        "venue_ids": corpus.venue_ids,
        "home": home,
    }
    for name, table in tables.items():
        arrays[name] = np.array(table, dtype=str)
        # numpy unicode arrays drop trailing NULs; refuse rather than alter an id.
        if arrays[name].tolist() != list(table):
            raise DataError(f"{name}: an id ending in a NUL character cannot be stored")
    data = _npz_bytes(arrays)
    (store / CORPUS_FILE).write_bytes(data)

    _write_corpus_csv(store / "corpus.csv", corpus)
    write_rows(store / "home_countries.csv", ["user", "country"], zip(corpus.user_ids, home))
    (store / "taxonomy.txt").write_bytes(Path(taxonomy_path).read_bytes())

    manifest = {"corpus_sha256": hashlib.sha256(data).hexdigest(), "format": FORMAT_VERSION}
    (store / MANIFEST_FILE).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _load_arrays(store: Path) -> dict[str, np.ndarray]:
    """The arrays of ``corpus.npz``, after the manifest has vouched for them."""
    try:
        with utf8_input(store / MANIFEST_FILE):
            text = (store / MANIFEST_FILE).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"store has no {MANIFEST_FILE}: {store} (run ingest again)") from None
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise DataError(f"unreadable {MANIFEST_FILE} in {store}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{MANIFEST_FILE} in {store} is not a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise DataError(
            f"store {store} has format {manifest.get('format')!r}, this version reads "
            f"format {FORMAT_VERSION} (run ingest again)"
        )
    try:
        data = (store / CORPUS_FILE).read_bytes()
    except FileNotFoundError:
        raise DataError(f"store has no {CORPUS_FILE}: {store} (run ingest again)") from None
    if hashlib.sha256(data).hexdigest() != manifest.get("corpus_sha256"):
        raise DataError(f"{CORPUS_FILE} in {store} does not match its manifest (run ingest again)")
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            return {name: npz[name] for name in COLUMNS + TABLES}
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"unreadable {CORPUS_FILE} in {store}: {exc}") from None


def store_taxonomy(store: str | Path, taxonomy_path: str | Path | None = None) -> Taxonomy:
    """The taxonomy a store is read with: ``taxonomy_path`` if given, else the
    store's own ``taxonomy.txt``.  It reads nothing else of the store."""
    taxonomy_path = Path(taxonomy_path) if taxonomy_path else Path(store) / "taxonomy.txt"
    if not taxonomy_path.exists():
        raise DataError(f"taxonomy file not found: {taxonomy_path}")
    return load_taxonomy(taxonomy_path)


def read_store(
    store: str | Path, taxonomy_path: str | Path | None = None
) -> tuple[Corpus, Taxonomy]:
    """Corpus and taxonomy of a store.

    ``taxonomy_path`` overrides the store's own ``taxonomy.txt``.  The
    corpus's ``countries`` table holds the home of every user in the store,
    including a country whose users lose every row to the override taxonomy.
    """
    taxonomy = store_taxonomy(store, taxonomy_path)
    arrays = _load_arrays(Path(store))

    names = arrays["subcategories"].tolist()
    remap = np.array([taxonomy.index_of(n) if n in taxonomy else -1 for n in names], np.int64)
    subcat_idx = remap[arrays["subcat_idx"]]
    known = subcat_idx >= 0
    countries, user_country = np.unique(arrays["home"], return_inverse=True)
    corpus = Corpus(
        taxonomy,
        lat=arrays["lat"],
        lon=arrays["lon"],
        ts=arrays["ts"],
        subcat_idx=subcat_idx,
        user_idx=arrays["user_idx"],
        user_ids=arrays["user_ids"].tolist(),
        venue_idx=arrays["venue_idx"],
        venue_ids=arrays["venue_ids"].tolist(),
        countries=countries.tolist(),
        user_country=user_country,
        skipped_unknown=int(np.count_nonzero(~known)),
    )
    if not known.all():
        corpus = corpus.subset(known)
    return corpus, taxonomy
