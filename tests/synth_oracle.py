"""Reference generator: the word layout of ``synth`` read one raw Philox
word at a time, one ``json.dumps`` per record.

Each user's stream is ``Philox(key=seed)`` at counter ``[0, 0, user, 0]``;
its first word gives the check-in count, then every check-in takes one word
per draw, in the order subcategory, weekend flag, date, hour, minute,
second, longitude, latitude, venue.  A double is ``(w >> 11) * 2**-53``, an
integer below ``n`` is ``((w >> 32) * n) >> 32``.  Everything is Python ints
and floats; no ``Generator`` method is called.  ``generate_corpus`` decodes
blocks of users in numpy and must write the same bytes; ``test_synth``
compares the two.  Spec validation is left to the caller: give it only specs
``generate_corpus`` accepts.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import json
from pathlib import Path

import numpy as np

from tastemap.model import Taxonomy
from tastemap.synth import REFERENCE_WEEK, CountrySpec, SynthSpec


def _double(bits: np.random.Philox) -> float:
    return (bits.random_raw() >> 11) * 2.0**-53


def _below(bits: np.random.Philox, n: int) -> int:
    return ((bits.random_raw() >> 32) * n) >> 32


def _cumulative(weights) -> list[float]:
    """Running sums over the total, added left to right."""
    sums = list(itertools.accumulate(weights))
    return [s / sums[-1] for s in sums]


def _pick(bits: np.random.Philox, cumulative: list[float]) -> int:
    """The first entry above the next double."""
    return bisect.bisect_right(cumulative, _double(bits))


def _hour_weights(spec: CountrySpec, class_id: str, day_group: str):
    profile = spec.hourly.get(class_id) or spec.hourly.get("*")
    if profile and day_group in profile:
        return profile[day_group]
    return [1.0] * 24


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def generate_corpus_loop(spec: SynthSpec, seed: int, out_dir: str | Path,
                         taxonomy: Taxonomy) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [("user", "country", "city")]
    user_index = 0
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as corpus_fh:
        for country in spec.countries:
            names = sorted(country.preferences)
            subcats = _cumulative([country.preferences[n] for n in names])
            hours = {
                (taxonomy.class_of(n), weekend): _cumulative(_hour_weights(
                    country, taxonomy.class_of(n), "weekend" if weekend else "weekday"))
                for n in names for weekend in (False, True)
            }
            for local_idx in range(country.users):
                user_id = f"u{user_index:06d}"
                bits = np.random.Philox(counter=[0, 0, user_index, 0], key=seed)
                user_index += 1
                if country.cities:
                    city = country.cities[local_idx % len(country.cities)]
                    box = city.bbox
                    labels.append((user_id, country.code, city.city_id))
                else:
                    box = country.bbox
                    labels.append((user_id, country.code, ""))
                span = country.checkins_high - country.checkins_low + 1
                for _ in range(country.checkins_low + _below(bits, span)):
                    subcat = names[_pick(bits, subcats)]
                    weekend = _double(bits) < country.weekend_fraction
                    date = REFERENCE_WEEK[5 + _below(bits, 2)] if weekend else \
                        REFERENCE_WEEK[_below(bits, 5)]
                    hour = _pick(bits, hours[taxonomy.class_of(subcat), weekend])
                    minute = _below(bits, 60)
                    second = _below(bits, 60)
                    lon = box[0] + (box[2] - box[0]) * _double(bits)
                    lat = box[1] + (box[3] - box[1]) * _double(bits)
                    venue = _below(bits, country.venues_per_subcategory)
                    record = {
                        "user": user_id,
                        "venue": f"v-{country.code}-{taxonomy.index_of(subcat)}-{venue}",
                        "lat": lat,
                        "lon": lon,
                        "ts": f"{date}T{hour:02d}:{minute:02d}:{second:02d}",
                        "subcat": subcat,
                    }
                    corpus_fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    _write_csv(out_dir / "labels.csv", labels)

    with open(out_dir / "geo.txt", "w", encoding="utf-8") as fh:
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

    if any(c.cities for c in spec.countries):
        _write_csv(out_dir / "cities.csv", [
            ("city", "country", "min_lon", "min_lat", "max_lon", "max_lat"),
            *((city.city_id, country.code, *city.bbox)
              for country in spec.countries for city in country.cities),
        ])
