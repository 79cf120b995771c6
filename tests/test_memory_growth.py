"""Memory stays bounded as inputs grow: ``ingest`` and ``simnet`` run in
fresh interpreters on one corpus shape at two user counts, 4x apart, and
each child's peak resident memory above a bare interpreter holding the same
modules must grow far less than the 16x of a stage quadratic in users."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tastemap.model import load_taxonomy, reference_taxonomy_path
from tastemap.synth import SynthSpec, generate_corpus

# A child's peak resident set in MB, from the kernel's own high-water mark.
PRINT_VMHWM = ("print([int(line.split()[1]) for line in open('/proc/self/status') "
               "if line.startswith('VmHWM:')][0] / 1024)")
# The tastemap modules each command loads beside ``cli`` and ``model``.
MODULES = {"ingest": ["tastemap.ingest", "tastemap.store"],
           "simnet": ["tastemap.ingest", "tastemap.store", "tastemap.prefs", "tastemap.simnet"]}
# 4x the users gave 1.85-1.89x (ingest) and 3.52-3.53x (simnet) above the
# bare child, with 8 x 1,000 and 8 x 4,000 users (measured on Python 3.11,
# numpy 2.4, three runs each).  Quadratic growth would read 16x.
MAX_GROWTH = 5.0


def spec(taxonomy, users):
    """8 countries, each preferring its own 16 subcategories with Zipf-like
    weights, ``users`` users each with 7-12 check-ins."""
    rng = np.random.default_rng(7)
    countries = []
    for i in range(8):
        picked = rng.choice(taxonomy.m, 16, replace=False)
        countries.append({"code": f"C{i}", "bbox": [16.0 * i, 0.0, 16.0 * i + 8.0, 8.0],
                          "users": users, "checkins_per_user": [7, 12],
                          "preferences": {taxonomy.subcategories[p]: 1.0 / (k + 1) ** 2
                                          for k, p in enumerate(picked)}})
    return SynthSpec.from_dict({"countries": countries})


def peak_mb(code, argv=()):
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.splitlines()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
def test_ingest_and_simnet_memory_grows_at_most_linearly(tmp_path):
    tax_path = reference_taxonomy_path()
    taxonomy = load_taxonomy(tax_path)
    above = {"ingest": [], "simnet": []}
    for users in (1000, 4000):
        generated = generate_corpus(spec(taxonomy, users), 7, tmp_path / f"raw{users}", taxonomy)
        store = tmp_path / f"store{users}"
        argv = {"ingest": ["ingest", "--corpus", str(generated.corpus_path),
                           "--geo", str(generated.geo_path), "--taxonomy", str(tax_path),
                           "--out-dir", str(store)],
                "simnet": ["simnet", "--store", str(store), "--thresholds", "100",
                           "--out-dir", str(tmp_path / f"simnet{users}")]}
        for command, modules in MODULES.items():
            run = peak_mb("import sys, tastemap.cli as cli; code = cli.entry(); "
                          f"{PRINT_VMHWM}; sys.exit(code)", argv[command])
            bare = peak_mb(f"import numpy, tastemap.cli, {', '.join(modules)}; {PRINT_VMHWM}")
            above[command].append(run - bare)
    for command, (small, large) in above.items():
        assert 0 < small < large <= MAX_GROWTH * small, (command, small, large)
