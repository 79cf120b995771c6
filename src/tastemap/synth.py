"""Synthetic check-in corpora with planted cultural structure.

The generator exists to plant verifiable structure (per-country preference
and temporal distributions), not to imitate real mobility.  Every user draws
from an independent Philox counter stream keyed by (seed, user index), so
output is byte-identical for a given spec and seed no matter how generation
is scheduled.

Spec files are JSON::

    {"countries": [
        {"code": "AA",
         "bbox": [0.0, 0.0, 10.0, 10.0],
         "users": 50,
         "checkins_per_user": [10, 20],
         "preferences": {"Pub": 5.0, "Bakery": 1.0},
         "weekend_fraction": 0.285,
         "hourly": {"*": {"weekday": [..24 weights..], "weekend": [...]}},
         "cities": [{"id": "AA-1", "bbox": [0.0, 0.0, 5.0, 5.0]}],
         "venues_per_subcategory": 3},
        ...]}

``checkins_per_user`` is either a fixed integer or an inclusive [low, high]
range.  ``hourly`` keys are class ids or "*" for all classes, its groups
are "weekday" and "weekend", and each profile holds 24 nonnegative weights
with a positive sum; omitted profiles are uniform.  A bad profile is a
``DataError`` before any file is opened.

Each user's draws are, in order: the check-in count, then per check-in the
subcategory, weekend flag, date, hour, minute, second, longitude, latitude
and venue.  They are the values numpy's scalar ``Generator`` calls would
return on the user's stream; the generator reproduces them from the
stream's raw 64-bit words (``random_raw``), decoding a block of a
country's users (up to ``_BLOCK_ROWS`` check-ins) in one numpy pass:

* a double (subcategory and hour via ``choice(k, p)``, weekend flag,
  coordinates via ``uniform``) takes a whole word ``w`` as
  ``(w >> 11) * 2**-53``;
* a bounded integer in [0, n) (count, date, minute, second, venue) takes a
  32-bit half ``h`` as ``(h * n) >> 32`` (Lemire), low half first, the
  high half waiting for the next bounded draw across any doubles between;
  it rejects ``h`` when ``(h * n) mod 2**32 < (2**32 - n) mod n`` and takes
  the next half instead.  A one-value range takes nothing.

Word positions follow from a cumulative sum over that fixed order.  A
rejection shifts every later draw of its user, so each user with one is
decoded again with its first rejected draw taking one more half, until no
draw is rejected.  ``geo.txt`` and ``cities.csv`` write coordinates with
``repr``, so they parse back to the spec's floats exactly.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DataError, utf8_input
from .model import Taxonomy

REFERENCE_WEEK = ("2024-04-15", "2024-04-16", "2024-04-17", "2024-04-18",
                  "2024-04-19", "2024-04-20", "2024-04-21")


@dataclass(frozen=True)
class CitySpec:
    city_id: str
    bbox: tuple[float, float, float, float]


@dataclass(frozen=True)
class CountrySpec:
    code: str
    bbox: tuple[float, float, float, float]
    users: int
    checkins_low: int
    checkins_high: int
    preferences: Mapping[str, float]
    weekend_fraction: float = 2.0 / 7.0
    hourly: Mapping[str, Mapping[str, tuple[float, ...]]] = field(default_factory=dict)
    cities: tuple[CitySpec, ...] = ()
    venues_per_subcategory: int = 3


def _usable_weights(weights) -> bool:
    """Nonnegative with a positive, finite sum (so no NaN or infinity)."""
    w = np.asarray(weights, np.float64)
    if w.size == 0:
        return False
    with np.errstate(over="ignore"):
        return bool(w.min() >= 0 and 0 < w.sum() < np.inf)


def _usable_box(box) -> bool:
    """min < max on both axes, with a finite width and height."""
    lo_x, lo_y, hi_x, hi_y = box
    return bool(lo_x < hi_x and lo_y < hi_y and np.isfinite([hi_x - lo_x, hi_y - lo_y]).all())


_REQUIRED = object()


def _field(entry, key: str, convert, where: str, default=_REQUIRED):
    """``convert`` of one field of a spec object, with every way the field
    can be missing or malformed reported as a DataError naming ``where``."""
    if not isinstance(entry, Mapping):
        raise DataError(f"{where}: expected a JSON object")
    if key not in entry:
        if default is _REQUIRED:
            raise DataError(f"{where}: missing field {key!r}")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: bad field {key!r}: {exc}") from None


def _count(value) -> int:
    """A whole number: an integer, or a float without a fractional part."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value) if isinstance(value, float) else operator.index(value)


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return value


def _numbers(value) -> tuple[float, ...]:
    return tuple(float(v) for v in _list(value))


def _box(value) -> tuple[float, float, float, float]:
    if len(_list(value)) != 4:
        raise ValueError(f"expected [min_lon, min_lat, max_lon, max_lat], got {value!r}")
    return _numbers(value)


def _mapping(value, convert) -> dict:
    """A JSON object with ``convert`` applied to each value."""
    if not isinstance(value, Mapping):
        raise ValueError(f"expected a JSON object, got {value!r}")
    return {str(k): convert(v) for k, v in value.items()}


def _count_range(value) -> tuple[int, int]:
    """``checkins_per_user``: one count, or an inclusive [low, high] pair."""
    if not isinstance(value, (list, tuple)):
        return _count(value), _count(value)
    if len(value) != 2:
        raise ValueError(f"expected a count or a [low, high] pair, got {value!r}")
    return _count(value[0]), _count(value[1])


def _country_spec(entry, position: str) -> CountrySpec:
    code = _field(entry, "code", str, f"country {position}")
    where = f"country {code!r}"
    low, high = _field(entry, "checkins_per_user", _count_range, where, (10, 10))
    cities = []
    for j, city in enumerate(_field(entry, "cities", _list, where, [])):
        city_id = _field(city, "id", str, f"{where} city #{j + 1}")
        cities.append(CitySpec(city_id, _field(city, "bbox", _box, f"{where} city {city_id!r}")))
    return CountrySpec(
        code=code,
        bbox=_field(entry, "bbox", _box, where),
        users=_field(entry, "users", _count, where),
        checkins_low=low,
        checkins_high=high,
        preferences=_field(entry, "preferences", lambda v: _mapping(v, float), where),
        weekend_fraction=_field(entry, "weekend_fraction", float, where, 2.0 / 7.0),
        hourly=_field(entry, "hourly", lambda v: _mapping(v, lambda p: _mapping(p, _numbers)),
                      where, {}),
        cities=tuple(cities),
        venues_per_subcategory=_field(entry, "venues_per_subcategory", _count, where, 3),
    )


@dataclass(frozen=True)
class SynthSpec:
    countries: tuple[CountrySpec, ...]

    def __post_init__(self):
        codes = [c.code for c in self.countries]
        if not codes:
            raise DataError("spec defines no countries")
        if len(set(codes)) != len(codes):
            raise DataError("country codes must be unique")
        for c in self.countries:
            if c.users < 1:
                raise DataError(f"country {c.code!r} needs at least one user")
            # Bounded draws take 32-bit halves, so a range holds at most 2**32 values.
            if not 1 <= c.checkins_low <= c.checkins_high < c.checkins_low + 2**32:
                raise DataError(f"country {c.code!r} has a bad check-in range")
            if not _usable_weights(list(c.preferences.values())):
                raise DataError(
                    f"country {c.code!r} needs nonnegative weights with at least one positive"
                )
            if not _usable_box(c.bbox):
                raise DataError(f"country {c.code!r} has a degenerate bounding box")
            if not 0.0 <= c.weekend_fraction <= 1.0:
                raise DataError(f"country {c.code!r} weekend_fraction out of [0, 1]")
            if not 1 <= c.venues_per_subcategory <= 2**32:
                raise DataError(f"country {c.code!r} needs 1 to 2**32 venues per subcategory")
            for key, profiles in c.hourly.items():
                for group, weights in profiles.items():
                    if group not in ("weekday", "weekend"):
                        raise DataError(f"country {c.code!r}: hourly group {group!r} is "
                                        "neither 'weekday' nor 'weekend'")
                    if len(weights) != 24 or not _usable_weights(weights):
                        raise DataError(f"country {c.code!r}: hourly profile {key!r} {group} "
                                        "needs 24 nonnegative weights with a positive sum")
            city_ids = [city.city_id for city in c.cities]
            if len(set(city_ids)) != len(city_ids):
                raise DataError(f"country {c.code!r} has duplicate city ids")
            for city in c.cities:
                if not _usable_box(city.bbox):
                    raise DataError(f"city {city.city_id!r} has a degenerate bounding box")

    @staticmethod
    def from_dict(doc: Mapping) -> "SynthSpec":
        """Parse a spec document.  A missing field, or a field of the wrong
        type or shape, is a DataError naming the country and the field; a
        count is never truncated, so ``"users": 2.7`` is an error."""
        if not isinstance(doc, Mapping) or not isinstance(doc.get("countries", []), (list, tuple)):
            raise DataError("spec must be a JSON object whose 'countries' is a list")
        return SynthSpec(countries=tuple(
            _country_spec(entry, f"#{i + 1}") for i, entry in enumerate(doc.get("countries", []))
        ))

    @staticmethod
    def from_file(path: str | Path) -> "SynthSpec":
        with utf8_input(path), open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"bad spec file: {exc}") from exc
        return SynthSpec.from_dict(doc)


@dataclass(frozen=True)
class GeneratedCorpus:
    corpus_path: Path
    labels_path: Path
    geo_path: Path
    cities_path: Path | None


def _hour_weights(spec: CountrySpec, class_id: str, day_group: str) -> np.ndarray:
    profile = spec.hourly.get(class_id) or spec.hourly.get("*")
    if profile and day_group in profile:
        w = np.asarray(profile[day_group], np.float64)
        return w / w.sum()
    return np.full(24, 1.0 / 24.0)


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(k, p=probs)`` searches."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf


def _user_stream(seed: int, user_index: int) -> np.random.Generator:
    """``Philox(key=seed).jumped(user_index)``: a jump adds the index to the
    third counter word, so the stream is built at that counter directly."""
    return np.random.Generator(np.random.Philox(counter=[0, 0, user_index, 0], key=seed))


# The draws of one check-in, in the order they are made.  "count" is the
# user's check-in count: it is drawn once, before the first check-in, so it
# sits on the user's first row and consumes nothing on the others.
_DRAWS = ("count", "subcat", "weekend", "date", "hour", "minute", "second", "lon", "lat",
          "venue")
_COL = {name: i for i, name in enumerate(_DRAWS)}
# Bounded integers take a 32-bit half of a word; doubles take a whole word.
_HALF = np.isin(_DRAWS, ("count", "date", "minute", "second", "venue"))
_DOUBLES_PER_ROW = int((~_HALF).sum())
_DOUBLES_BEFORE = np.cumsum(~_HALF) - ~_HALF  # in a row, before each column
_LOW32 = np.uint64(0xFFFFFFFF)
# Check-ins decoded at once: each takes about 2 KB of decoder buffers.
_BLOCK_ROWS = 2048


def _decode(words, word0, row_user, first_row, halves):
    """The double and the 32-bit half of every draw of a block of users.

    ``words`` holds the users' raw words back to back, user ``u``'s from
    ``word0[u]`` and with first row ``first_row[u]``; row ``r`` is a
    check-in of user ``row_user[r]``.  ``halves[r, j]`` is how many halves
    bounded draw ``j`` consumes: 0 for a one-value range, 1 plus one per
    rejected half otherwise; the draw keeps its last half.  Columns of the
    other kind hold garbage.
    """
    flat = halves.ravel()
    before = (np.cumsum(flat) - flat).reshape(halves.shape)
    halves_before = before - before[first_row[row_user], :1]
    row_in_user = np.arange(len(row_user)) - first_row[row_user]
    doubles_before = _DOUBLES_PER_ROW * row_in_user[:, None] + _DOUBLES_BEFORE
    base = word0[row_user][:, None] + doubles_before
    # A double takes the next word, and so does every even-numbered half.
    # An odd-numbered half is the high half of the latest word a half took;
    # word numbers only grow, so a running maximum carries it forward.
    double_word = base + (halves_before + 1) // 2
    kept = halves_before + halves - 1
    even = kept - (kept & 1)
    takes_word = _HALF & (halves > 0) & (even >= halves_before)
    half_word = np.maximum.accumulate(np.where(takes_word, base + even // 2, -1).ravel())
    w = words[np.where(_HALF, half_word.reshape(halves.shape), double_word)]
    return (w >> 11) * 2.0**-53, np.where(kept & 1, w >> 32, w & _LOW32)


def _lemire(half: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's integer in [0, n) from a 32-bit half, and whether numpy
    rejects that half and takes the next one instead."""
    m = half * n
    return (m >> 32).astype(np.int64), (m & _LOW32) < (2**32 - n) % n


class _Streams:
    """The raw Philox words of a run of users, drawn from each user's own
    stream as decoding finds it needs them."""

    def __init__(self, seed: int, first_user: int, n_users: int):
        self._streams = [_user_stream(seed, first_user + i).bit_generator
                         for i in range(n_users)]
        self.words = [np.empty(0, np.uint64)] * n_users

    def draw(self, users: np.ndarray, need: np.ndarray) -> None:
        """Make sure user ``users[i]`` has at least ``need[i]`` words."""
        for u, n in zip(users.tolist(), need.tolist()):
            have = len(self.words[u])
            if n > have:
                self.words[u] = np.concatenate([self.words[u],
                                                self._streams[u].random_raw(n - have)])


def _first_draw(streams: _Streams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each stream's first ``integers(n)``, and the halves it consumed.

    Nothing precedes it, so the draw's k-th half is the stream's half k.
    """
    value = np.zeros(len(streams.words), np.int64)
    halves = np.full(len(streams.words), int(n > 1), np.int64)
    pending = np.flatnonzero(halves)
    while pending.size:
        kept = halves[pending] - 1
        streams.draw(pending, kept // 2 + 1)
        w = np.array([streams.words[u][k // 2] for u, k in zip(pending.tolist(), kept.tolist())],
                     np.uint64)
        value[pending], rejected = _lemire(np.where(kept & 1, w >> 32, w & _LOW32), np.uint64(n))
        halves[pending[rejected]] += 1
        pending = pending[rejected]
    return value, halves


def _draw_users(country: CountrySpec, seed: int, first_user: int, n_users: int):
    """Check-in counts and the decoded draws of a run of a country's users.

    Returns ``(counts, doubles, ints)``: one row per check-in, users in
    order, one column per entry of ``_DRAWS``; ``doubles`` is valid in the
    double columns and ``ints`` in the bounded ones.
    """
    streams = _Streams(seed, first_user, n_users)
    counts, count_halves = _first_draw(streams, country.checkins_high - country.checkins_low + 1)
    counts += country.checkins_low

    first_row = np.cumsum(counts) - counts
    halves = np.zeros((int(counts.sum()), len(_DRAWS)), np.int64)
    halves[:, _HALF] = 1
    halves[:, _COL["count"]] = 0
    halves[first_row, _COL["count"]] = count_halves
    if country.venues_per_subcategory == 1:
        halves[:, _COL["venue"]] = 0
    # The count column only accounts for the halves the count took; like
    # every draw that takes no half, it has bound 1, which never rejects.
    bounds = np.ones(len(_DRAWS), np.uint64)
    bounds[[_COL["minute"], _COL["second"], _COL["venue"]]] = (
        60, 60, country.venues_per_subcategory)
    doubles = np.empty(halves.shape)
    ints = np.empty(halves.shape, np.int64)
    # Decode every user; then re-decode each user that had a rejected half
    # with that user's first rejected draw taking one half more, until no
    # draw is rejected.
    pending = np.arange(n_users)
    while pending.size:
        c = counts[pending]
        block_first = np.cumsum(c) - c
        block_user = np.repeat(np.arange(len(pending)), c)
        rows = np.arange(len(block_user)) + np.repeat(first_row[pending] - block_first, c)
        block_halves = halves[rows]
        need = _DOUBLES_PER_ROW * c + (np.add.reduceat(block_halves.sum(1), block_first) + 1) // 2
        streams.draw(pending, need)
        block_words = [streams.words[u] for u in pending.tolist()]
        lengths = np.array([len(w) for w in block_words])
        unit, half = _decode(np.concatenate(block_words), np.cumsum(lengths) - lengths,
                             block_user, block_first, block_halves)
        n = np.repeat(bounds[None], len(rows), axis=0)
        n[:, _COL["date"]] = np.where(unit[:, _COL["weekend"]] < country.weekend_fraction, 2, 5)
        value, rejected = _lemire(half, n)
        doubles[rows] = unit
        ints[rows] = value
        slots = np.flatnonzero(rejected)
        users, first = np.unique(block_user[slots // len(_DRAWS)], return_index=True)
        slots = slots[first]
        halves[rows[slots // len(_DRAWS)], slots % len(_DRAWS)] += 1
        pending = pending[users]
    return counts, doubles, ints


def _lines(country: CountrySpec, seed: int, first_user: int, local: range, taxonomy: Taxonomy):
    """The labels.csv lines and corpus.jsonl records of the country's users
    ``local`` (indices within the country); its first user is ``first_user``."""
    counts, doubles, ints = _draw_users(country, seed, first_user + local.start, len(local))
    user_ids = [f"u{first_user + i:06d}" for i in local]
    if country.cities:
        homes = [country.cities[i % len(country.cities)] for i in local]
        boxes = np.array([city.bbox for city in homes], np.float64)
        city_ids = [city.city_id for city in homes]
    else:
        boxes = np.tile(np.asarray(country.bbox, np.float64), (len(local), 1))
        city_ids = [""] * len(local)
    labels = [f"{user},{country.code},{city}\n" for user, city in zip(user_ids, city_ids)]

    names = sorted(country.preferences)
    weights = np.asarray([country.preferences[n] for n in names], np.float64)
    subcat = np.searchsorted(_cdf(weights / weights.sum()), doubles[:, _COL["subcat"]],
                             side="right")
    weekend = doubles[:, _COL["weekend"]] < country.weekend_fraction
    classes = sorted({taxonomy.class_of(n) for n in names})
    hour_cdfs = np.array([_cdf(_hour_weights(country, cls, grp))
                          for cls in classes for grp in ("weekday", "weekend")])
    name_class = np.array([classes.index(taxonomy.class_of(n)) for n in names])
    # searchsorted(side="right") of each row's own profile
    hour_cdf = hour_cdfs[2 * name_class[subcat] + weekend]
    hour = (hour_cdf <= doubles[:, _COL["hour"], None]).sum(1)
    row_user = np.repeat(np.arange(len(local)), counts)
    box = boxes[row_user]
    lon = box[:, 0] + (box[:, 2] - box[:, 0]) * doubles[:, _COL["lon"]]
    lat = box[:, 1] + (box[:, 3] - box[:, 1]) * doubles[:, _COL["lat"]]
    day = ints[:, _COL["date"]] + 5 * weekend  # weekend dates follow the five weekdays

    subcat_json = [json.dumps(n) for n in names]
    venue_json = [json.dumps(f"v-{country.code}-{taxonomy.index_of(n)}-")[:-1] for n in names]
    records = [
        f'{{"user":"{user_ids[u]}","venue":{venue_json[s]}{v}","lat":{y!r},"lon":{x!r},'
        f'"ts":"{REFERENCE_WEEK[d]}T{h:02d}:{mi:02d}:{se:02d}","subcat":{subcat_json[s]}}}\n'
        for u, s, v, y, x, d, h, mi, se in zip(
            row_user.tolist(), subcat.tolist(), ints[:, _COL["venue"]].tolist(),
            lat.tolist(), lon.tolist(), day.tolist(), hour.tolist(),
            ints[:, _COL["minute"]].tolist(), ints[:, _COL["second"]].tolist(),
        )
    ]
    return labels, records


def generate_corpus(
    spec: SynthSpec, seed: int, out_dir: str | Path, taxonomy: Taxonomy
) -> GeneratedCorpus:
    """Write a planted-structure corpus plus ground truth into ``out_dir``.

    Emits corpus.jsonl, labels.csv (user,country,city), geo.txt (one
    rectangular ring per country) and cities.csv when any country has
    cities.  Identical (spec, seed) inputs produce byte-identical files.
    """
    if seed < 0:
        raise DataError("seed must be nonnegative")
    for country in spec.countries:
        for name in country.preferences:
            if name not in taxonomy:
                raise DataError(f"country {country.code!r}: unknown subcategory {name!r}")
        for key in country.hourly:
            if key != "*" and key not in taxonomy.class_ids:
                raise DataError(
                    f"country {country.code!r}: hourly key {key!r} is neither '*' nor a class id"
                )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.jsonl"
    labels_path = out_dir / "labels.csv"
    geo_path = out_dir / "geo.txt"
    any_cities = any(c.cities for c in spec.countries)
    cities_path = out_dir / "cities.csv" if any_cities else None

    user_index = 0
    with open(corpus_path, "w", encoding="utf-8") as corpus_fh, open(
        labels_path, "w", encoding="utf-8"
    ) as labels_fh:
        labels_fh.write("user,country,city\n")
        for country in spec.countries:
            # Blocks of users with at most _BLOCK_ROWS check-ins, or one user.
            block = max(1, _BLOCK_ROWS // country.checkins_high)
            for start in range(0, country.users, block):
                local = range(start, min(start + block, country.users))
                labels, records = _lines(country, seed, user_index, local, taxonomy)
                labels_fh.writelines(labels)
                corpus_fh.write("".join(records))
            user_index += country.users

    with open(geo_path, "w", encoding="utf-8") as fh:
        for country in spec.countries:
            min_lon, min_lat, max_lon, max_lat = country.bbox
            ring = ";".join(
                f"{x!r},{y!r}"
                for x, y in (
                    (min_lon, min_lat),
                    (max_lon, min_lat),
                    (max_lon, max_lat),
                    (min_lon, max_lat),
                    (min_lon, min_lat),
                )
            )
            fh.write(f"{country.code}\t{ring}\n")

    if cities_path is not None:
        with open(cities_path, "w", encoding="utf-8") as fh:
            fh.write("city,country,min_lon,min_lat,max_lon,max_lat\n")
            for country in spec.countries:
                for city in country.cities:
                    b = city.bbox
                    fh.write(f"{city.city_id},{country.code},{b[0]!r},{b[1]!r},{b[2]!r},{b[3]!r}\n")

    return GeneratedCorpus(corpus_path, labels_path, geo_path, cities_path)


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two labelings of one item set.

    Accepts mappings (item -> label) or two aligned sequences.  Invariant to
    relabeling of cluster ids.
    """
    if isinstance(labels_a, Mapping) or isinstance(labels_b, Mapping):
        if not (isinstance(labels_a, Mapping) and isinstance(labels_b, Mapping)):
            raise DataError("pass two mappings or two sequences, not a mix")
        if set(labels_a) != set(labels_b):
            raise DataError("labelings cover different item sets")
        items = sorted(labels_a)
        a = [labels_a[i] for i in items]
        b = [labels_b[i] for i in items]
    else:
        a = list(labels_a)
        b = list(labels_b)
        if len(a) != len(b):
            raise DataError("labelings cover different item counts")
    n = len(a)
    if n == 0:
        raise DataError("cannot score empty labelings")

    levels_a = {v: i for i, v in enumerate(dict.fromkeys(a))}
    levels_b = {v: i for i, v in enumerate(dict.fromkeys(b))}
    table = np.zeros((len(levels_a), len(levels_b)), np.int64)
    for va, vb in zip(a, b):
        table[levels_a[va], levels_b[vb]] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.int64(n))
    expected = sum_a * sum_b / total if total > 0 else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_ij - expected) / (maximum - expected))
