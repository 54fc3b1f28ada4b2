"""Structured verification reports with lossless JSON serialization.

A report is a tree: named check results at each node plus child reports.
The JSON form is deterministic (sorted keys, two-space indent) so two runs
with the same configuration differ at most in the ``timestamp`` metadata
entry.  It is strict JSON: a non-finite number is written as the string
"NaN", "Infinity" or "-Infinity", which ``float`` reads back.  ``to_json``
writes the text of ``json.dumps(to_dict(), indent=2, sort_keys=True,
allow_nan=False)`` in one walk of the layout that ``to_dict`` normalizes,
the report's ``_fields``, which are stated once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geometry import ChartPoint
from .structures import StructureCheckResult

__all__ = ["VerificationReport", "check_to_dict", "check_from_dict"]


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, ChartPoint):
        return list(value.coords)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


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
    """The JSON text of ``_jsonable(value)`` at indent ``pad``, as
    json.dumps(..., indent=2, sort_keys=True, allow_nan=False) writes it;
    the types a report holds are written here, any other through json."""
    kind = type(value)
    if kind is float:
        return _FLOAT_REPR(value) if math.isfinite(value) else _STR(_jsonable(value))
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
    if kind is np.ndarray and value.ndim:
        return _text(value.tolist(), pad)
    if kind is ChartPoint:
        return _point_text(value, pad)
    return _dumped(_jsonable(value), pad)


def _point_text(point: ChartPoint, pad: str) -> str:
    """The coordinates as json.dumps writes ``list(point.coords)``: a
    non-finite one raises json's ValueError."""
    coords = point.coords.tolist()
    return _floats_text(coords, pad) or _dumped(list(point.coords), pad)


def _check_fields(check: StructureCheckResult) -> dict:
    """The JSON layout of one check, before ``_jsonable`` or ``_text``."""
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
    return _jsonable(_check_fields(check))


def check_from_dict(d: dict) -> StructureCheckResult:
    """The check ``d`` describes, judged again: its ``"passed"`` is not read."""
    worst = d.get("worst_point")
    return StructureCheckResult(
        name=d["name"],
        max_residual=float(d["max_residual"]),
        tolerance=d["tolerance"],  # StructureCheckResult refuses a bool
        worst_point=None if worst is None else ChartPoint(worst),
        identity=d.get("identity", ""),
        extras=dict(d.get("extras", {})),
    )


@dataclass
class VerificationReport:
    """Tree of named checks; overall pass means every node passes."""

    name: str
    checks: list = field(default_factory=list)
    children: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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
        """The JSON layout of the report tree, before ``_jsonable`` or ``_text``."""
        return {
            "name": self.name,
            "passed": self.passed,
            "meta": self.meta,
            "checks": [_check_fields(c) for c in self.checks],
            "children": [ch._fields() for ch in self.children],
        }

    def to_dict(self) -> dict:
        return _jsonable(self._fields())

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            name=d["name"],
            checks=[check_from_dict(c) for c in d.get("checks", [])],
            children=[VerificationReport.from_dict(ch) for ch in d.get("children", [])],
            meta=dict(d.get("meta", {})),
        )

    def to_json(self) -> str:
        """The text of json.dumps(self.to_dict(), indent=2, sort_keys=True,
        allow_nan=False), and its errors, written in one walk of the layout
        ``to_dict`` normalizes."""
        return _text(self._fields(), "")

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        return VerificationReport.from_dict(json.loads(text))

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
                    coords = np.array2string(c.worst_point.coords, precision=6,
                                             max_line_width=sys.maxsize)
                    lines.append(f"{pad}    worst point: {coords}")
            for child in report.children:
                emit(child, depth + 1)

        emit(self, 0)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
