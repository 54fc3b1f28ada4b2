"""No module of the package imports a name it never uses: a name a change
left behind is caught here, with nothing but the source and ``ast``."""

import ast
from pathlib import Path

import pytest

import symred

PACKAGE = Path(symred.__file__).resolve().parent
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import, ``from __future__``
    aside, and neither reads anywhere nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_package_has_modules_to_check():
    assert {"errors.py", "exprlang.py", "scenarios.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_finds_an_unused_name_and_passes_a_used_one():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import Record, _set\n"
              "from .geometry import RowMap\n"
              "__all__ = ['RowMap']\n"
              "class A(Record):\n"
              "    pass\n")
    assert unused_imports(source) == ["os (line 2)", "_set (line 3)"]
