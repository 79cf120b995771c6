"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by name, and a traced run fails on a name that no longer resolves.  The
suite here does not run the benchmark, so it checks that every name the
tracer lists still exists in ``tastemap``, and that ``simnet`` calls each
``simnet`` name: a listed function the command no longer calls reads 0 in
every traced run without failing it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_span_resolves():
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py, so no span list to check")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"tastemap.{module}.{name}"
        for module, names in tracing.SPANS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tastemap.{module}"), name, None))
    ]
    assert missing == []


def test_simnet_calls_every_traced_simnet_span(pipeline, tmp_path):
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py, so no span list to check")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from tastemap import cli

    tracer = tracing.Tracer()
    with tracer:
        assert cli.main(["simnet", "--store", str(pipeline["store"]),
                         "--out-dir", str(tmp_path / "net")]) == 0
    spans = tracer.aggregate()
    uncalled = [f"simnet.{name}" for name in tracing.SPANS["simnet"]
                if f"simnet.{name}" not in spans]
    assert uncalled == []
