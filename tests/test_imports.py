"""Every name a package module imports is used in that module.

There is no linter in the toolchain, so this ast scan keeps unused imports
out. ``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import angleattn

MODULES = sorted(p for p in pathlib.Path(angleattn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from math import pi, tau\nprint(pi, osp)\n")
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
