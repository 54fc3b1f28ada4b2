"""No module of the package but ``structures`` writes a tolerance key: a
row's tolerance is its ``CHECKS`` key looked up in the check's mapping
(``structures._tolerance``), so a key written anywhere else would be a
second place deciding which tolerance judges a row.  Checked with nothing
but the source and ``ast``."""

import ast
from pathlib import Path

import pytest

import symred
from symred.structures import DEFAULT_TOLERANCES

PACKAGE = Path(symred.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "structures.py")


def tolerance_keys(source: str) -> list[str]:
    """Each string constant of ``source`` that is a key of
    ``DEFAULT_TOLERANCES``, with its line, in source order."""
    keys = [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value in DEFAULT_TOLERANCES]
    return [f"{node.value} (line {node.lineno})"
            for node in sorted(keys, key=lambda node: (node.lineno, node.col_offset))]


def test_the_package_has_modules_to_check():
    assert {"actions.py", "cli.py", "reduction.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_but_structures_writes_a_tolerance_key(path):
    assert tolerance_keys(path.read_text()) == []


def test_the_guard_finds_a_key_and_passes_other_strings():
    source = ("def check(g, points, tol=TABLE['action.isometry']):\n"
              "    '''action.isometry in a sentence is no key'''\n"
              "    return run(g, points, tol['tol.action.isometry'], f'{tol}')\n"
              "x = {'reduction.identity': 1e-4}\n")
    assert tolerance_keys(source) == ["action.isometry (line 1)", "reduction.identity (line 4)"]
