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

Each user's stream is a fixed layout of raw 64-bit Philox words: word 0
gives the check-in count, then each check-in takes 9 words, for its
subcategory, weekend flag, date, hour, minute, second, longitude, latitude
and venue (``_DRAWS``).  A word ``w`` decodes to a double in [0, 1) as
``(w >> 11) * 2**-53`` (subcategory and hour, each the first entry of its
cumulative weights above the double; weekend flag; coordinates) or to an
integer in [0, n) as ``((w >> 32) * n) >> 32`` (count, date, minute,
second, venue): multiply-shift without rejection, so each value has
probability (1 +- n / 2**32) / n.  A one-value range still takes its word.
Philox's words are fully specified (Salmon et al., SC 2011), so the corpus
does not depend on how numpy's ``Generator`` would consume them.
``geo.txt`` and ``cities.csv`` write coordinates with ``repr``, so they
parse back to the spec's floats exactly; ``labels.csv`` and ``cities.csv``
are ``csvtext`` tables.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .csvtext import write_rows
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
            # A bounded draw scales the high 32 bits of a word, so a range
            # holds at most 2**32 values.
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


def _hour_weights(spec: CountrySpec, class_id: str, day_group: str) -> tuple[float, ...]:
    profile = spec.hourly.get(class_id) or spec.hourly.get("*")
    if profile and day_group in profile:
        return profile[day_group]
    return (1.0,) * 24


def _cdf(weights) -> np.ndarray:
    """Cumulative weights over their total, so the last entry is exactly 1:
    a double u in [0, 1) picks the first entry above u, never one of weight 0."""
    cdf = np.cumsum(np.asarray(weights, np.float64))
    cdf /= cdf[-1]
    return cdf


# The draws of one check-in, one raw word each, in stream order after the
# user's first word (the check-in count).
_DRAWS = ("subcat", "weekend", "date", "hour", "minute", "second", "lon", "lat", "venue")
# Check-ins decoded at once: each holds 9 words, its decoded columns, its
# hour profile and its record text, under 1 KB in all.
_BLOCK_ROWS = 2048


def _unit(words):
    """Doubles in [0, 1): the top 53 bits of each word over 2**53."""
    return (words >> 11) * 2.0**-53


def _below(words, n):
    """Integers in [0, n) for n <= 2**32: the high 32 bits of each word times
    n, over 2**32 (multiply-shift, no rejection, so a value's probability is
    within a factor 1 +- n / 2**32 of 1 / n)."""
    return (words >> 32) * n >> 32


def _draw_users(country: CountrySpec, seed: int, first_user: int, n_users: int):
    """Check-in counts and raw words of a run of a country's users: one row
    of ``len(_DRAWS)`` words per check-in, users in order.  User ``u``'s
    stream is ``Philox(key=seed).jumped(u)``: a jump adds ``u`` to the third
    counter word, so the stream is built at that counter directly."""
    span = country.checkins_high - country.checkins_low + 1
    counts, words = [], []
    for u in range(first_user, first_user + n_users):
        bits = np.random.Philox(counter=[0, 0, u, 0], key=seed)
        counts.append(country.checkins_low + int(_below(np.uint64(bits.random_raw()), span)))
        words.append(bits.random_raw(len(_DRAWS) * counts[-1]))
    return np.array(counts), np.concatenate(words).reshape(-1, len(_DRAWS))


def _records(country: CountrySpec, seed: int, first_user: int, local: range,
             taxonomy: Taxonomy) -> list[str]:
    """The corpus.jsonl records of the country's users ``local`` (indices
    within the country); its first user is ``first_user``."""
    counts, words = _draw_users(country, seed, first_user + local.start, len(local))
    col = dict(zip(_DRAWS, words.T))
    homes = [city.bbox for city in country.cities] or [country.bbox]
    boxes = np.array([homes[i % len(homes)] for i in local], np.float64)

    names = sorted(country.preferences)
    subcat = np.searchsorted(_cdf([country.preferences[n] for n in names]),
                             _unit(col["subcat"]), side="right")
    weekend = _unit(col["weekend"]) < country.weekend_fraction
    hour_cdfs = np.array([_cdf(_hour_weights(country, taxonomy.class_of(n), grp))
                          for n in names for grp in ("weekday", "weekend")])
    # searchsorted(side="right") of each row's own profile
    hour_cdf = hour_cdfs[2 * subcat + weekend]
    hour = (hour_cdf <= _unit(col["hour"][:, None])).sum(1)
    row_user = np.repeat(np.arange(len(local)), counts)
    box = boxes[row_user]
    lon = box[:, 0] + (box[:, 2] - box[:, 0]) * _unit(col["lon"])
    lat = box[:, 1] + (box[:, 3] - box[:, 1]) * _unit(col["lat"])
    # Weekend dates follow the five weekdays.
    day = np.where(weekend, 5 + _below(col["date"], 2), _below(col["date"], 5))

    user_ids = [f"u{first_user + i:06d}" for i in local]
    subcat_json = [json.dumps(n) for n in names]
    venue_json = [json.dumps(f"v-{country.code}-{taxonomy.index_of(n)}-")[:-1] for n in names]
    return [
        f'{{"user":"{user_ids[u]}","venue":{venue_json[s]}{v}","lat":{y!r},"lon":{x!r},'
        f'"ts":"{REFERENCE_WEEK[d]}T{h:02d}:{mi:02d}:{se:02d}","subcat":{subcat_json[s]}}}\n'
        for u, s, v, y, x, d, h, mi, se in zip(
            row_user.tolist(), subcat.tolist(),
            _below(col["venue"], country.venues_per_subcategory).tolist(),
            lat.tolist(), lon.tolist(), day.tolist(), hour.tolist(),
            _below(col["minute"], 60).tolist(), _below(col["second"], 60).tolist(),
        )
    ]


def _label_rows(spec: SynthSpec):
    """(user, country, city) of every user, in user order."""
    user_index = 0
    for country in spec.countries:
        for i in range(country.users):
            city = country.cities[i % len(country.cities)].city_id if country.cities else ""
            yield f"u{user_index:06d}", country.code, city
            user_index += 1


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
    with open(corpus_path, "w", encoding="utf-8") as corpus_fh:
        for country in spec.countries:
            # Blocks of users with at most _BLOCK_ROWS check-ins, or one user.
            block = max(1, _BLOCK_ROWS // country.checkins_high)
            for start in range(0, country.users, block):
                local = range(start, min(start + block, country.users))
                corpus_fh.write("".join(_records(country, seed, user_index, local, taxonomy)))
            user_index += country.users
    write_rows(labels_path, ["user", "country", "city"], _label_rows(spec))

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
        write_rows(cities_path, ["city", "country", "min_lon", "min_lat", "max_lon", "max_lat"],
                   ((city.city_id, country.code, *city.bbox)
                    for country in spec.countries for city in country.cities))

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
