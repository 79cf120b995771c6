"""The command-line contract as a property.

Random tiny specs go through every command, in-process through ``main``.
Every exit is 0, 2 or 3, no command raises or warns, and a command that
fails leaves no output directory.  An option value outside its domain is
refused with the option's message before any input is read, so a missing
input file cannot be what the command reports.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tastemap.cli import main
from tastemap.model import load_taxonomy, reference_taxonomy_path

TAXONOMY = str(reference_taxonomy_path())
SUBCATEGORIES = load_taxonomy(TAXONOMY).subcategories


def run(argv):
    """Exit code and stderr of ``main(argv)``, with every warning an error."""
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("error")
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


@st.composite
def specs(draw):
    """1-5 countries of 1-4 users, each country with two cities, one-hour days
    and all check-ins on weekdays or all on weekends."""
    countries = []
    for i in range(draw(st.integers(1, 5))):
        x0 = 20.0 * i
        hour = draw(st.integers(0, 23))
        day = [float(h == hour) for h in range(24)]
        low = draw(st.integers(1, 10))
        countries.append({
            "code": f"C{i}",
            "bbox": [x0, 0.0, x0 + 10.0, 10.0],
            "users": draw(st.integers(1, 4)),
            "checkins_per_user": [low, low + draw(st.integers(0, 6))],
            "preferences": draw(st.dictionaries(st.sampled_from(SUBCATEGORIES),
                                                st.sampled_from([0.5, 1.0, 3.0]),
                                                min_size=1, max_size=4)),
            "weekend_fraction": draw(st.sampled_from([0.0, 1.0])),
            "hourly": {"*": {"weekday": day, "weekend": day}},
            "cities": [{"id": f"C{i}-w", "bbox": [x0, 0.0, x0 + 5.0, 10.0]},
                       {"id": f"C{i}-e", "bbox": [x0 + 5.0, 0.0, x0 + 10.0, 10.0]}],
        })
    return {"countries": countries}


area_options = st.one_of(
    st.just(["--level", "country"]),
    st.just(["--level", "city"]),
    st.builds(lambda rows, cols, top: ["--level", "grid", "--rows", rows, "--cols", cols,
                                       "--top", top],
              st.integers(1, 3), st.integers(1, 3), st.integers(0, 3)),
)


@settings(max_examples=60, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**16), min_checkins=st.integers(1, 4),
       threshold=st.sampled_from(["0", "50", "100"]), areas=area_options,
       k=st.integers(1, 4), coverage=st.sampled_from([0.5, 0.9, 1.0]),
       survey=st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=5,
                       max_size=5))
def test_every_command_exits_0_2_or_3_and_a_failure_writes_nothing(
        spec, seed, min_checkins, threshold, areas, k, coverage, survey):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        (root / "survey.csv").write_text(
            "country,trad_secular,surv_selfexpr\n" + "".join(
                f"{c['code']},{x},{y}\n" for c, (x, y) in zip(spec["countries"], survey)),
            encoding="utf-8")
        raw, store = root / "raw", root / "store"
        if areas[1] != "country":
            areas = [*areas, "--cities", raw / "cities.csv"]
        steps = [
            ["synth", "--spec", root / "spec.json", "--taxonomy", TAXONOMY, "--seed", seed],
            ["ingest", "--corpus", raw / "corpus.jsonl", "--geo", raw / "geo.txt",
             "--taxonomy", TAXONOMY, "--min-checkins", min_checkins],
            ["simnet", "--store", store, "--thresholds", threshold],
            ["signatures", "--store", store, *areas],
            ["cluster", "--store", store, *areas, "--k", k, "--coverage", coverage],
            ["survey", "--store", store, "--survey", root / "survey.csv"],
        ]
        codes = []
        for argv in steps:
            out = raw if argv[0] == "synth" else store if argv[0] == "ingest" else root / argv[0]
            code, err = run([*argv, "--out-dir", out])
            assert code in (0, 2, 3), (argv, err)
            assert "Traceback" not in err
            assert code == 0 or not out.exists(), (argv, err)
            codes.append(code)
        assert codes[:2] == [0, 0]  # every drawn spec is valid, and ingest drops no input


def _missing(root):
    """Arguments naming inputs that do not exist, per command."""
    nothing = root / "missing"
    store = ["--store", nothing]
    return {
        "synth": ["--spec", nothing, "--taxonomy", nothing],
        "ingest": ["--corpus", nothing, "--geo", nothing, "--taxonomy", nothing],
        "simnet": store,
        "signatures": store,
        "cluster": store,
        "grid": ["--level", "grid", "--cities", nothing],
    }


def _ints(top):
    return st.integers(-10**12, top).map(str)


def _floats_outside(low, high, *, open_low=False):
    def outside(x):
        return not ((low < x if open_low else low <= x) and x <= high)

    return st.floats().filter(outside).map(repr)


area_commands = st.sampled_from(["signatures", "cluster"])
# (command, fixed arguments, option, out-of-domain values, the message)
BAD_OPTIONS = [
    (st.just("synth"), [], "--seed", _ints(-1), "seed must be nonnegative"),
    (st.just("ingest"), [], "--min-checkins", _ints(0), "min_checkins must be >= 1"),
    (st.just("ingest"), [], "--error-budget", _floats_outside(0.0, 1.0),
     "error budget must lie in [0, 1]"),
    (st.just("simnet"), [], "--thresholds", _floats_outside(0.0, 100.0),
     "threshold must lie in [0, 100]"),
    (area_commands, ["grid"], "--top", _ints(-1), "--top must be >= 0"),
    (area_commands, ["grid"], "--rows", _ints(0), "grid must have at least one row"),
    (area_commands, ["grid"], "--cols", _ints(0), "grid must have at least one row"),
    (area_commands, [], "--level", st.sampled_from(["city", "grid"]), "needs --cities"),
    (st.just("cluster"), [], "--k", _ints(0), "must be at least 1"),
    (st.just("cluster"), [], "--seed", _ints(-1), "seed must be nonnegative"),
    (st.just("cluster"), [], "--restarts", _ints(0), "must be at least 1"),
    (st.just("cluster"), [], "--coverage", _floats_outside(0.0, 1.0, open_low=True),
     "coverage must lie in (0, 1]"),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(BAD_OPTIONS))
def test_out_of_domain_option_is_refused_before_any_input_is_read(data, case):
    commands, extra, option, values, message = case
    command = data.draw(commands)
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        missing = _missing(root)
        out = root / "out"
        argv = [command, *missing[command], *(a for key in extra for a in missing[key]),
                f"{option}={value}", "--out-dir", out]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert message in err, (argv, err)
        assert not out.exists()
