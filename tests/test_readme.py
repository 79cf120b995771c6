"""The python examples in README.md import only names that exist, and run."""

import importlib
import re
import shutil
from pathlib import Path

from conftest import small_spec
from tastemap.model import load_taxonomy, reference_taxonomy_path
from tastemap.synth import generate_corpus

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
IMPORT = re.compile(r"^from (tastemap[\w.]*) import (.+)$", re.M)


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from tastemap... import ...`` line in the
    README's python blocks."""
    return [(module, name.split(" as ")[0].strip())
            for block in BLOCK.findall(README.read_text(encoding="utf-8"))
            for module, names in IMPORT.findall(block)
            for name in names.split(",")]


def test_readme_has_imports():
    assert len(readme_imports()) >= 10


def test_every_readme_import_resolves():
    missing = [f"{module}.{name}" for module, name in readme_imports()
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_readme_blocks_run_in_order(tmp_path, monkeypatch):
    """The blocks share one namespace, as a reader pasting them in turn
    would, in a directory holding a small synthetic corpus under the file
    names they read."""
    generated = generate_corpus(small_spec(), 5, tmp_path / "raw",
                                load_taxonomy(reference_taxonomy_path()))
    work = tmp_path / "work"
    work.mkdir()
    shutil.copyfile(generated.corpus_path, work / "checkins.jsonl")
    shutil.copyfile(generated.geo_path, work / "geo.txt")
    monkeypatch.chdir(work)
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert (work / "edges_s65.tsv").exists()
