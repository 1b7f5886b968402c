"""Every import in the package and its tests is used, and every private name.

A name bound by an import must be read somewhere in its module, or be
listed in the module's __all__.  An import kept on purpose carries
"# noqa: F401" on its line (cli keeps evolve_ensemble bound for the
benchmark's tracer).  A private name (a leading underscore) that a
package module defines at module level must be read by some package
module; one that only a test reads is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pilotwave").glob("*.py"))
FILES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names that no source reads, as "module:line: name".

    sources maps module names to their source.  A def, a class or an
    assignment of a name starting with "_" counts as a definition.  It
    is read where its own module loads the name, where another module
    imports it from that module, or where any module reads an attribute
    of that name (module._name).
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {name: set() for name in trees}
    attributes = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                origin = node.module.rpartition(".")[2]
                read.get(origin, set()).update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in defined:
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in read[module] and name not in attributes:
                    found.append("%s:%d: %s" % (module, node.lineno, name))
    return found


def test_no_dead_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert dead_private_names(sources) == []


def test_dead_private_check_finds_unread_names():
    # b reads a's _C and _K, and its own _A, which leaves a's _A unread.
    sources = {
        "a": "_A = 1\n_B, _C = 2, 3\n_D: int = 4\n\ndef _f():\n    return _B\n\nclass _K:\n    pass\n",
        "b": "from . import a\nfrom .a import _K\n\n_A = 5\nprint(a._C, _K, _A)\n",
    }
    assert dead_private_names(sources) == ["a:1: _A", "a:3: _D", "a:5: _f"]
