"""Pinned outcomes of parse_scenario on one-character edits of the built-in
texts: the error type, message, line and column, or "ok".

parse_error_table.json holds, per case, the built-in's name, the character
offset, the edit (delete the character there, duplicate it, or insert one
of EDIT_INSERTS before it) and the outcome.  The outcomes were recorded
with the token-object scanner and parser that the lexeme scanner replaced,
so the table pins every error text and position through that change.
Regenerate it (only on purpose) with

    PYTHONPATH=src python tests/test_parse_error_table.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from symred.errors import ScenarioFormatError
from symred.scenarios import builtin_names, builtin_text, parse_scenario

TABLE = Path(__file__).resolve().parent / "parse_error_table.json"
EDIT_INSERTS = ("[", "]", "(", ")", ",", "^", "=", "é", "#", "9e999")
CASES_PER_BUILTIN = 60


def edited(text: str, offset: int, edit: str) -> str:
    if edit == "delete":
        return text[:offset] + text[offset + 1:]
    if edit == "duplicate":
        return text[:offset] + text[offset] + text[offset:]
    return text[:offset] + edit[len("insert "):] + text[offset:]


def outcome(text: str) -> list:
    """[type name, message, line, column] of what parse_scenario raises, the
    position None for an error that has none, or ["ok", "", None, None]."""
    try:
        parse_scenario(text)
    except ScenarioFormatError as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None)]
    return ["ok", "", None, None]


def generate() -> list:
    rng = random.Random(0)
    edits = ["delete", "duplicate", *(f"insert {s}" for s in EDIT_INSERTS)]
    cases = []
    for name in builtin_names():
        text = builtin_text(name)
        for _ in range(CASES_PER_BUILTIN):
            offset, edit = rng.randrange(len(text)), rng.choice(edits)
            cases.append([name, offset, edit, *outcome(edited(text, offset, edit))])
    return cases


CASES = json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_exercises_parse_and_validation_errors():
    kinds = {case[3] for case in CASES}
    assert {"ParseError", "ValidationError", "ok"} <= kinds
    assert sum(case[3] == "ParseError" for case in CASES) >= 100
    assert len(CASES) == CASES_PER_BUILTIN * len(builtin_names())


@pytest.mark.parametrize("name", builtin_names())
def test_parse_outcomes_match_the_table(name):
    text = builtin_text(name)
    for case_name, offset, edit, *want in CASES:
        if case_name == name:
            assert outcome(edited(text, offset, edit)) == want, (name, offset, edit)


if __name__ == "__main__":
    rows = (json.dumps(case, ensure_ascii=False) for case in generate())
    TABLE.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
    sys.exit(0)
