"""The python examples in README.md import only names that exist."""

import importlib
import re
from pathlib import Path

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
