"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions
by name, and a traced run fails on a name that no longer resolves.  The
suite here does not run the benchmark, so it checks that every name the
tracer lists still exists in ``tastemap``."""

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
