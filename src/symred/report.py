"""Structured verification reports with lossless JSON serialization.

A report is a tree: named check results at each node plus child reports.
The JSON form is deterministic (sorted keys, two-space indent) so two runs
with the same configuration differ at most in the ``timestamp`` metadata
entry.  It is strict JSON: a non-finite number is written as the string
"NaN", "Infinity" or "-Infinity", which ``float`` reads back.  ``to_json``
writes the text of ``json.dumps(to_dict(), indent=2, sort_keys=True,
allow_nan=False)`` in one walk of the report, without building the dict.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

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
        return (value and _floats_text(value, pad)) or \
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


def _report_text(report: "VerificationReport", pad: str) -> str:
    inner = pad + "  "
    return _object_text([
        ("checks", _array_text([_check_text(c, inner + "  ") for c in report.checks], inner)),
        ("children", _array_text([_report_text(ch, inner + "  ") for ch in report.children],
                                 inner)),
        ("meta", _text(report.meta, inner)),
        ("name", _raw_text(report.name, inner)),
        ("passed", "true" if report.passed else "false"),
    ], pad)


def _check_text(check: StructureCheckResult, pad: str) -> str:
    inner = pad + "  "
    return _object_text([
        ("extras", _text(check.extras, inner)),
        ("identity", _raw_text(check.identity, inner)),
        ("max_residual", _text(float(check.max_residual), inner)),
        ("name", _raw_text(check.name, inner)),
        ("passed", "true" if check.passed else "false"),
        ("tolerance", _text(float(check.tolerance), inner)),
        ("worst_point", "null" if check.worst_point is None
         else _point_text(check.worst_point, inner)),
    ], pad)


def _raw_text(value, pad: str) -> str:
    """A field that to_dict does not pass through _jsonable."""
    return _STR(value) if type(value) is str else _dumped(value, pad)


def check_to_dict(check: StructureCheckResult) -> dict:
    return {
        "name": check.name,
        "identity": check.identity,
        "max_residual": _jsonable(float(check.max_residual)),
        "tolerance": _jsonable(float(check.tolerance)),
        "passed": check.passed,
        "worst_point": None if check.worst_point is None else list(check.worst_point.coords),
        "extras": _jsonable(check.extras),
    }


def check_from_dict(d: dict) -> StructureCheckResult:
    """The check ``d`` describes, judged again: its ``"passed"`` is not read."""
    worst = d.get("worst_point")
    return StructureCheckResult(
        name=d["name"],
        max_residual=float(d["max_residual"]),
        tolerance=float(d["tolerance"]),
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "meta": _jsonable(self.meta),
            "checks": [check_to_dict(c) for c in self.checks],
            "children": [ch.to_dict() for ch in self.children],
        }

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
        allow_nan=False), and its errors, written in one walk."""
        return _report_text(self, "")

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
