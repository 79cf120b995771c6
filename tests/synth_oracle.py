"""Reference generator: the per-check-in loop ``synth.generate_corpus`` used
to run, one scalar ``Generator`` call per draw and one ``json.dumps`` per
record.

``generate_corpus`` now decodes each user's raw Philox words in bulk and
must write the same bytes; ``test_synth`` compares the two.  The loop is
kept as it was, except that ``geo.txt`` and ``cities.csv`` write
coordinates with ``repr`` as the generator now does.  Spec validation is
left to the caller: give it only specs ``generate_corpus`` accepts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tastemap.model import Taxonomy
from tastemap.synth import REFERENCE_WEEK, CountrySpec, SynthSpec, _user_stream

WEEKDAY_DATES = REFERENCE_WEEK[:5]
WEEKEND_DATES = REFERENCE_WEEK[5:]


def _hour_weights(spec: CountrySpec, class_id: str, day_group: str) -> np.ndarray:
    profile = spec.hourly.get(class_id) or spec.hourly.get("*")
    if profile and day_group in profile:
        w = np.asarray(profile[day_group], np.float64)
        return w / w.sum()
    return np.full(24, 1.0 / 24.0)


def generate_corpus_loop(spec: SynthSpec, seed: int, out_dir: str | Path,
                         taxonomy: Taxonomy) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    user_index = 0
    with open(out_dir / "corpus.jsonl", "w", encoding="utf-8") as corpus_fh, open(
        out_dir / "labels.csv", "w", encoding="utf-8"
    ) as labels_fh:
        labels_fh.write("user,country,city\n")
        for country in spec.countries:
            names = sorted(country.preferences)
            weights = np.asarray([country.preferences[n] for n in names], np.float64)
            probs = weights / weights.sum()
            subcat_classes = [taxonomy.class_of(n) for n in names]
            hour_probs = {
                (cls, grp): _hour_weights(country, cls, grp)
                for cls in set(subcat_classes)
                for grp in ("weekday", "weekend")
            }
            for local_idx in range(country.users):
                user_id = f"u{user_index:06d}"
                rng = _user_stream(seed, user_index)
                user_index += 1
                if country.cities:
                    city = country.cities[local_idx % len(country.cities)]
                    box = city.bbox
                    city_id = city.city_id
                else:
                    box = country.bbox
                    city_id = ""
                labels_fh.write(f"{user_id},{country.code},{city_id}\n")
                n_checkins = int(
                    rng.integers(country.checkins_low, country.checkins_high + 1)
                )
                for _ in range(n_checkins):
                    choice = int(rng.choice(len(names), p=probs))
                    subcat = names[choice]
                    class_id = subcat_classes[choice]
                    weekend = bool(rng.random() < country.weekend_fraction)
                    dates = WEEKEND_DATES if weekend else WEEKDAY_DATES
                    date = dates[int(rng.integers(len(dates)))]
                    group = "weekend" if weekend else "weekday"
                    hour = int(rng.choice(24, p=hour_probs[(class_id, group)]))
                    minute = int(rng.integers(60))
                    second = int(rng.integers(60))
                    lon = float(rng.uniform(box[0], box[2]))
                    lat = float(rng.uniform(box[1], box[3]))
                    venue = (
                        f"v-{country.code}-{taxonomy.index_of(subcat)}-"
                        f"{int(rng.integers(country.venues_per_subcategory))}"
                    )
                    record = {
                        "user": user_id,
                        "venue": venue,
                        "lat": lat,
                        "lon": lon,
                        "ts": f"{date}T{hour:02d}:{minute:02d}:{second:02d}",
                        "subcat": subcat,
                    }
                    corpus_fh.write(json.dumps(record, separators=(",", ":")) + "\n")

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
        with open(out_dir / "cities.csv", "w", encoding="utf-8") as fh:
            fh.write("city,country,min_lon,min_lat,max_lon,max_lat\n")
            for country in spec.countries:
                for city in country.cities:
                    b = city.bbox
                    fh.write(f"{city.city_id},{country.code},{b[0]!r},{b[1]!r},{b[2]!r},{b[3]!r}\n")
