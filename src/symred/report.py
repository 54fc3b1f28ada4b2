"""Structured verification reports and their deterministic JSON text.

A report is a tree: named check results at each node plus child reports.
The JSON form is deterministic (sorted keys, two-space indent) so two runs
with the same configuration differ at most in the ``timestamp`` metadata
entry.  It is strict JSON: a non-finite number is written as the string
"NaN", "Infinity" or "-Infinity", which ``float`` reads back.  ``to_json``
writes the report in one walk of its layout, the report's ``_fields``,
which are stated once, as ``json.dumps(..., indent=2, sort_keys=True,
allow_nan=False)`` writes it once numpy values are Python values.
``to_dict`` and ``check_to_dict`` are that text read back, so the two forms
cannot disagree, and a value JSON cannot hold raises TypeError from both.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain

import numpy as np

from .structures import StructureCheckResult

__all__ = ["VerificationReport", "check_to_dict"]


_STR = json.encoder.encode_basestring_ascii  # json's own C function
_FLOAT_REPR = float.__repr__  # how json writes a finite float
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dumped(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False) with
    each line after the first indented by ``pad``; a newline is never
    inside a JSON string, where it is escaped."""
    text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    return text.replace("\n", "\n" + pad) if pad else text


def _array_text(items: list, pad: str) -> str:
    """The JSON array of texts ``items`` at indent ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _object_text(items: list, pad: str) -> str:
    """The JSON object of (key, value text) pairs ``items``, keys in order."""
    if not items:
        return "{}"
    inner = pad + "  "
    return f"{{\n{inner}" + f",\n{inner}".join(
        f"{_STR(key)}: {text}" for key, text in items) + f"\n{pad}}}"


def _floats_text(values: list, pad: str) -> str | None:
    """The JSON array of a list of floats, or None unless every entry is a
    finite float.  A sum of floats is finite only if every term is (it may
    also overflow, and then the caller takes the general path)."""
    if {*map(type, values)} == {float} and math.isfinite(sum(values)):
        return _array_text(list(map(_FLOAT_REPR, values)), pad)
    return None


def _rows_text(rows: list, pad: str) -> str | None:
    """The JSON array of a list of non-empty lists of floats, or None unless
    every row is one and every entry a finite float: one type check and one
    finiteness check over the whole block, then each row as
    ``_floats_text`` writes it."""
    if {*map(type, rows)} != {list} or not all(rows):
        return None
    entries = [*chain.from_iterable(rows)]
    if {*map(type, entries)} != {float} or not math.isfinite(sum(entries)):
        return None
    inner, leaf = pad + "  ", pad + "    "
    sep, head, tail = ",\n" + leaf, "[\n" + leaf, "\n" + inner + "]"
    return _array_text([head + sep.join(map(_FLOAT_REPR, row)) + tail for row in rows], pad)


def _text(value, pad: str) -> str:
    """The JSON text of ``value`` at indent ``pad``, as json.dumps(...,
    indent=2, sort_keys=True, allow_nan=False) writes it once a numpy
    scalar is its ``item()``, an ndarray its ``tolist()``, a tuple a list,
    a key its ``str`` and a non-finite float the string "NaN", "Infinity"
    or "-Infinity"; the types a report holds are written here, any other
    through json, which raises for a value it cannot hold."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return _FLOAT_REPR(value)
        return _STR("NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity")
    if kind is str:
        return _STR(value)
    if kind is list or kind is tuple:
        inner = pad + "  "
        return (value and (_floats_text(value, pad) or _rows_text(value, pad))) or \
            _array_text([_text(v, inner) for v in value], pad)
    if kind is dict:
        value = {str(k): v for k, v in value.items()}
        inner = pad + "  "
        return _object_text([(k, _text(value[k], inner)) for k in sorted(value)], pad)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, (np.floating, np.integer)):
        item = value.item()
        if type(item) is not kind:  # np.longdouble's item is itself
            return _text(item, pad)
    if isinstance(value, np.ndarray):
        return _text(value.tolist(), pad)
    for base in (float, list, tuple, dict):  # a subclass is written as its base
        if isinstance(value, base):
            return _text(base(value), pad)
    return _dumped(value, pad)


def _check_fields(check: StructureCheckResult) -> dict:
    """The JSON layout of one check, before ``_text`` writes it."""
    return {
        "name": check.name,
        "identity": check.identity,
        "max_residual": float(check.max_residual),
        "tolerance": float(check.tolerance),
        "passed": check.passed,
        "worst_point": check.worst_point,
        "extras": check.extras,
    }


def check_to_dict(check: StructureCheckResult) -> dict:
    """The check as its JSON text reads back."""
    return json.loads(_text(_check_fields(check), ""))


class VerificationReport:
    """Tree of named checks; overall pass means every node passes.  A
    builder: ``add`` and ``add_child`` grow it in place."""

    __slots__ = ("name", "checks", "children", "meta")

    def __init__(self, name: str, checks: list | None = None, children: list | None = None,
                 meta: dict | None = None):
        self.name = name
        self.checks = [] if checks is None else checks
        self.children = [] if children is None else children
        self.meta = {} if meta is None else meta

    def add(self, check: StructureCheckResult) -> StructureCheckResult:
        self.checks.append(check)
        return check

    def add_child(self, child: "VerificationReport") -> "VerificationReport":
        self.children.append(child)
        return child

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks) and all(ch.passed for ch in self.children)

    def all_checks(self, prefix: str = ""):
        """Yield (path, check) pairs over the whole tree, depth first."""
        path = f"{prefix}{self.name}" if prefix == "" else f"{prefix}/{self.name}"
        for c in self.checks:
            yield path, c
        for child in self.children:
            yield from child.all_checks(path)

    def find(self, name: str) -> StructureCheckResult:
        """First check with the given name anywhere in the tree."""
        for _, c in self.all_checks():
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in report {self.name!r}")

    def _fields(self) -> dict:
        """The JSON layout of the report tree, before ``_text`` writes it."""
        return {
            "name": self.name,
            "passed": self.passed,
            "meta": self.meta,
            "checks": [_check_fields(c) for c in self.checks],
            "children": [ch._fields() for ch in self.children],
        }

    def to_dict(self) -> dict:
        """The report as its JSON text reads back."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The deterministic JSON text of the report, written in one walk of
        its layout; ``to_dict`` reads it back."""
        return _text(self._fields(), "")

    def format_text(self) -> str:
        """Human-readable residual table, one row per check."""
        lines: list[str] = []

        def emit(report: "VerificationReport", depth: int) -> None:
            pad = "  " * depth
            lines.append(f"{pad}{report.name}")
            for c in report.checks:
                status = "PASS" if c.passed else "FAIL"
                row = (f"{pad}  {c.name:<38} {c.max_residual:11.3e}  <= {c.tolerance:8.1e}"
                       f"  {status}   [{c.identity}]")
                lines.append(row)
                if not c.passed and c.worst_point is not None:
                    coords = np.array2string(np.array(c.worst_point), precision=6,
                                             max_line_width=sys.maxsize)
                    lines.append(f"{pad}    worst point: {coords}")
            for child in report.children:
                emit(child, depth + 1)

        emit(self, 0)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
