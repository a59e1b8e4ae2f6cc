"""No package module imports a name it does not use, and no module-level
``_name`` goes unused in the package: there is no linter in the toolchain.
``__init__.py`` is skipped by the import scan: its imports are re-exports.
"""

import ast
import pathlib

import pytest

import angleattn

PACKAGE = sorted(pathlib.Path(angleattn.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def unreferenced_privates(sources):
    """Module-level ``_name`` definitions that no load or attribute access uses."""
    defined, used = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in defined - used
                  if name.startswith("_") and not name.startswith("__"))


def test_scan_finds_dead_private_names():
    sources = ["import numpy as np\n_USED = 1\n_DEAD = 2\n\ndef _helper():\n    return _USED\n"
               "\nclass _Spare:\n    pass\n", "from . import a\nx = a._helper()\n"]
    assert unreferenced_privates(sources) == ["_DEAD", "_Spare"]


def test_no_dead_private_names():
    assert unreferenced_privates(p.read_text() for p in PACKAGE) == []
