"""No package module imports a name it does not use, no module-level
``_name`` goes unused in the package, and every public module-level function
or class is used in the package or re-exported: there is no linter in the
toolchain. ``__init__.py`` is skipped by the import scan: its imports are
re-exports.
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


def unreferenced_publics(sources):
    """(module, name) of each public module-level function or class that no
    package module uses: by bare name in its own module, by a relative import
    (``__init__``'s re-exports among them), or as an attribute of an alias of
    a package module, as in ``T.gelu``. ``np.tanh`` is not ``T.tanh``."""
    defined, used = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add((module, node.id))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
        defined.update((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_"))
    return sorted(defined - used)


def test_scan_finds_unreferenced_publics():
    sources = {"a": "def used():\n    pass\n\ndef spare():\n    pass\n\nclass Kept:\n    pass\n",
               "b": "import numpy as np\nfrom . import a as A\nA.used()\nnp.spare()\n",
               "__init__": "from .a import Kept\n"}
    assert unreferenced_publics(sources) == [("a", "spare")]


def test_every_public_name_is_used_or_exported():
    assert unreferenced_publics({p.stem: p.read_text() for p in PACKAGE}) == []
