"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by name, and a traced run fails on a name that no longer resolves.  The
suite here does not run the benchmark, so it checks that every name the
tracer lists still exists in ``tastemap``, and that the commands call each
``simnet`` and ``signatures`` name: a listed function no command calls
reads 0 in every traced run without failing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py, so no span list to check")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_span_resolves():
    tracing = load_tracing()
    missing = [
        f"tastemap.{module}.{name}"
        for module, names in tracing.SPANS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tastemap.{module}"), name, None))
    ]
    assert missing == []


def test_simnet_calls_every_traced_simnet_span(pipeline, tmp_path):
    tracing = load_tracing()
    from tastemap import cli

    tracer = tracing.Tracer()
    with tracer:
        assert cli.main(["simnet", "--store", str(pipeline["store"]),
                         "--out-dir", str(tmp_path / "net")]) == 0
    spans = tracer.aggregate()
    uncalled = [f"simnet.{name}" for name in tracing.SPANS["simnet"]
                if f"simnet.{name}" not in spans]
    assert uncalled == []


def test_area_commands_call_every_traced_signatures_span(pipeline, tmp_path):
    """``signatures.pearson`` stays out: it is the scalar reference that
    ``correlation_matrix`` is tested against, and no command calls it."""
    tracing = load_tracing()
    from tastemap import cli

    store = str(pipeline["store"])
    survey = tmp_path / "survey.csv"
    survey.write_text("country,trad_secular,surv_selfexpr\n"
                      + "".join(f"C{i},{i % 3 - 1.0},{i % 2 + 0.5}\n" for i in range(6)),
                      encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer:
        assert cli.main(["signatures", "--store", store, "--out-dir", str(tmp_path / "sig")]) == 0
        assert cli.main(["cluster", "--store", store, "--k", "2",
                         "--out-dir", str(tmp_path / "clu")]) == 0
        assert cli.main(["survey", "--store", store, "--survey", str(survey),
                         "--out-dir", str(tmp_path / "sur")]) == 0
    spans = tracer.aggregate()
    uncalled = [f"signatures.{name}" for name in tracing.SPANS["signatures"]
                if name != "pearson" and f"signatures.{name}" not in spans]
    assert uncalled == []
