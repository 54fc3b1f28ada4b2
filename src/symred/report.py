"""Structured verification reports with lossless JSON serialization.

A report is a tree: named check results at each node plus child reports.
The JSON form is deterministic (sorted keys) so two runs with the same
configuration differ at most in the ``timestamp`` metadata entry.  It is
strict JSON: a non-finite number is written as the string "NaN",
"Infinity" or "-Infinity", which ``float`` reads back.
"""

from __future__ import annotations

import json
import math
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


def check_to_dict(check: StructureCheckResult) -> dict:
    return {
        "name": check.name,
        "identity": check.identity,
        "max_residual": _jsonable(float(check.max_residual)),
        "tolerance": _jsonable(float(check.tolerance)),
        "passed": bool(check.passed),
        "worst_point": None if check.worst_point is None else list(check.worst_point.coords),
        "extras": _jsonable(check.extras),
    }


def check_from_dict(d: dict) -> StructureCheckResult:
    worst = d.get("worst_point")
    return StructureCheckResult(
        name=d["name"],
        max_residual=float(d["max_residual"]),
        tolerance=float(d["tolerance"]),
        passed=bool(d["passed"]),
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)

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
                    lines.append(f"{pad}    worst point: {np.array2string(c.worst_point.coords, precision=6)}")
            for child in report.children:
                emit(child, depth + 1)

        emit(self, 0)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
