"""Every import in the package and its tests is used.

A name bound by an import must be read somewhere in its module, or be
listed in the module's __all__.  An import kept on purpose carries
"# noqa: F401" on its line (cli keeps evolve_ensemble bound for the
benchmark's tracer).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "pilotwave").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, as "line: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # Names exported through __all__ count as read.
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used or name == "*":
                continue
            if any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno}):
                continue
            found.append("%d: %s" % (alias.lineno, name))
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_and_excuses():
    source = (
        "import os\n"
        "import math as m\n"
        "from json import dumps, loads\n"
        "from sys import argv  # noqa: F401\n"
        "__all__ = ['loads']\n"
        "print(m.pi)\n"
    )
    assert unused_imports(source) == ["1: os", "3: dumps"]
