"""Command-line interface: load a scenario, run verification suites, emit
text or JSON reports with every residual, tolerance, seed and sample point.

Exit codes: 0 when every requested check passes, 1 on a check failure, 2 on
usage, parse or validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .actions import (
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    momentum_residual,
    pushforward_table,
)
from .errors import ScenarioFormatError, SymredError, UnknownScenarioError
from .geometry import ChartPoint, FDConfig, RowMap, sample_ball, sample_box
from .holomorphy import (
    IDENTITY_ACM_MAP,
    ChartedMap,
    almost_complex_residual,
    cauchy_riemann_residual,
)
from .reduction import (
    ReductionScenario,
    lift_frames,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from .report import VerificationReport
from .scenarios import (
    DEFAULT_TOLERANCES,
    builtin,
    builtin_names,
    check_tolerance,
    load_scenario_file,
    parse_scenario,
)
from .structures import (
    CompatibleTriple,
    StructureCheckResult,
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
    standard_acs,
)

__all__ = ["RunConfig", "DEFAULT_TOLERANCES", "SUITE_ORDER", "run", "main"]

SUITE_ORDER = ("structures", "action", "reduction", "main-theorem", "holomorphy")

# a reference map counts as holomorphic, in the Cauchy-Riemann equivalence
# flags, where its residual is at most this
HOLOMORPHIC_LEVEL = 0.1


@dataclass
class RunConfig:
    """One verification run: scenario, suites, sampling and output options."""

    scenario: str
    suites: tuple = SUITE_ORDER
    seed: int | None = None
    samples: int | None = None
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "text"

    def __post_init__(self):
        if not self.suites:
            raise ValueError("at least one suite must be requested")
        unknown = set(self.suites) - set(SUITE_ORDER)
        if unknown:
            raise ValueError(f"unknown suites {sorted(unknown)}; choose from {SUITE_ORDER}")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.format not in ("text", "json"):
            raise ValueError(f"format must be text or json, got {self.format!r}")
        for key, value in self.tolerances.items():
            check_tolerance(key, value)


def resolve_scenario(name_or_path: str) -> ReductionScenario:
    """Registry name first, then a path to a scenario file."""
    if name_or_path in builtin_names():
        return builtin(name_or_path)
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path)
    raise UnknownScenarioError(
        f"{name_or_path!r} is neither a built-in scenario ({', '.join(builtin_names())}) "
        "nor an existing file"
    )


def _tolerance(key: str, cfg: RunConfig, scen: ReductionScenario) -> float:
    if key in cfg.tolerances:
        return float(cfg.tolerances[key])
    if key in scen.tolerances:
        return float(scen.tolerances[key])
    return DEFAULT_TOLERANCES[key]


def _suite_structures(scen, cfg, points, fd):
    report = VerificationReport("structures")
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    report.add(check_metric(scen.metric, points, _tolerance("structures.metric", cfg, scen)))
    report.add(check_symplectic_pointwise(
        scen.omega, points, _tolerance("structures.symplectic", cfg, scen)))
    report.add(check_closed(scen.omega, points, fd, _tolerance("structures.closed", cfg, scen)))
    report.add(check_acs(scen.acs, points, _tolerance("structures.acs", cfg, scen)))
    report.add(check_compatibility(triple, points,
                                   _tolerance("structures.compatibility", cfg, scen)))
    return report


def _suite_action(scen, cfg, points, params, fd):
    report = VerificationReport("action")
    report.add(check_action_axioms(scen.action, params, points,
                                   _tolerance("action.axioms", cfg, scen)))
    # one flow Jacobian and moved point per (point, parameter) for the four
    # invariance checks, one stack per parameter
    pushforwards = pushforward_table(scen.action, params, points, fd)
    report.add(check_isometry(scen.action, scen.metric, params, points, fd,
                              _tolerance("action.isometry", cfg, scen),
                              pushforwards=pushforwards))
    report.add(check_symplectomorphism(scen.action, scen.omega, params, points, fd,
                                       _tolerance("action.symplectomorphism", cfg, scen),
                                       pushforwards=pushforwards))
    report.add(momentum_residual(scen.action, scen.mu, scen.omega, points, fd,
                                 _tolerance("action.momentum", cfg, scen)))
    report.add(check_momentum_invariance(scen.action, scen.mu, params, points,
                                         _tolerance("action.mu-invariance", cfg, scen),
                                         pushforwards=pushforwards))
    report.add(check_field_invariance(scen.acs, scen.action, params, points, fd,
                                      _tolerance("action.acs-invariance", cfg, scen),
                                      pushforwards=pushforwards))
    return report


def _suite_reduction(scen, cfg, qpoints, fiber_params, seed, fd, frames):
    report = VerificationReport("reduction")
    report.add_child(verify_submersion(
        scen, qpoints, fiber_params, fd, _tolerance("reduction.submersion", cfg, scen),
        frames=frames, vertical_tol=_tolerance("reduction.vertical-invariance", cfg, scen)))
    report.add_child(verify_reduction_identity(
        scen, qpoints, fd, _tolerance("reduction.identity", cfg, scen),
        _tolerance("reduction.degeneracy", cfg, scen), seed=seed, frames=frames))
    return report


def _suite_main_theorem(scen, cfg, qpoints, fd, frames):
    report = VerificationReport("main-theorem")
    report.add_child(verify_main_theorem(
        scen, qpoints, fd, _tolerance("main-theorem.residuals", cfg, scen),
        _tolerance("main-theorem.hypothesis", cfg, scen), frames=frames))
    return report


def _reference_maps():
    """Chart maps exercising the holomorphy residuals, as RowMaps over
    (N, 2) rows: three holomorphic references plus conjugation, whose
    defect is exactly 2*sqrt(2).  Each row gets the bits of the formula on
    that row's two numbers; the reciprocal map squares with ``**`` per
    element, which is C ``pow`` as on a numpy scalar, not numpy's array
    power."""
    def square(X):
        x, y = X[:, 0], X[:, 1]
        return np.stack([x * x - y * y, 2 * x * y], axis=1)

    def exponential(X):
        x, y = X[:, 0], X[:, 1]
        return np.stack([np.exp(x) * np.cos(y), np.exp(x) * np.sin(y)], axis=1)

    def reciprocal_shifted(X):
        x, y = X[:, 0] - 2.0, X[:, 1]
        den = np.array([a ** 2 + b ** 2 for a, b in zip(x.tolist(), y.tolist())])
        return np.stack([x / den, -y / den], axis=1)

    def conjugation(X):
        return np.stack([X[:, 0], -X[:, 1]], axis=1)

    return (("square map", RowMap(square), True),
            ("exponential map", RowMap(exponential), True),
            ("reciprocal map at offset 2", RowMap(reciprocal_shifted), True),
            ("conjugation", RowMap(conjugation), False))


def _suite_holomorphy(cfg, scen, seed, samples, fd):
    report = VerificationReport("holomorphy")
    tol = _tolerance("holomorphy.residual", cfg, scen)
    points = sample_box(2, samples, radius=1.5, seed=seed + 2)
    X = np.array([p.coords for p in points])
    j2 = standard_acs(2)
    equivalence_flags = []
    for name, func, holomorphic in _reference_maps():
        cm = ChartedMap(2, 2, func, j2, j2)
        acm = almost_complex_residual(cm, X, fd)
        cr = cauchy_riemann_residual(cm, X, fd)
        if holomorphic:
            report.add(StructureCheckResult.from_samples(
                f"holomorphy of {name}", acm, points, tol, IDENTITY_ACM_MAP))
        else:
            report.add(StructureCheckResult.from_samples(
                f"{name} defect equals 2*sqrt(2)", np.abs(acm - 2.0 * np.sqrt(2.0)), points,
                tol, f"{IDENTITY_ACM_MAP} fails by a known amount"))
        equivalence_flags.append(
            np.where((acm <= HOLOMORPHIC_LEVEL) == (cr <= HOLOMORPHIC_LEVEL), 0.0, 1.0))
    report.add(StructureCheckResult.from_samples(
        "cauchy-riemann/holomorphy equivalence", np.concatenate(equivalence_flags),
        points * len(equivalence_flags), 0.5,
        f"a_x = b_y, a_y = -b_x iff {IDENTITY_ACM_MAP}"))
    return report


def run(cfg: RunConfig) -> tuple[VerificationReport, int]:
    """Execute the requested suites in fixed order and assemble the report."""
    try:
        scen = resolve_scenario(cfg.scenario)
    except (ScenarioFormatError, UnknownScenarioError, OSError) as exc:
        report = VerificationReport("error", meta={"error": str(exc)})
        return report, 2

    seed = cfg.seed if cfg.seed is not None else scen.sample_spec.seed
    samples = cfg.samples if cfg.samples is not None else scen.sample_spec.count
    fd = FDConfig()

    points = sample_box(scen.chart_dim, samples, radius=2.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    params = [rng.uniform(-np.pi, np.pi, scen.action.group_dim) for _ in range(5)]
    # a scenario's explicit quotient points stand unless --seed or --samples
    # asks for a fresh draw
    if cfg.seed is None and cfg.samples is None and scen.sample_spec.points:
        qpoints = [ChartPoint(p) for p in scen.sample_spec.points]
    else:
        qpoints = sample_ball(scen.quotient_dim, samples,
                              radius=scen.sample_spec.radius, seed=seed)
    fiber_params = (np.pi / 3.0, np.pi)
    # one base lift frame per quotient point, shared by the reduction and
    # main-theorem suites and built, all in one batch, when first needed
    frames = lift_frames(scen, qpoints, fd)

    report = VerificationReport(
        scen.name,
        meta={
            "scenario": cfg.scenario,
            "version": __version__,
            "seed": seed,
            "samples": samples,
            "suites": list(s for s in SUITE_ORDER if s in cfg.suites),
            "ambient_points": [list(p.coords) for p in points],
            "quotient_points": [list(p.coords) for p in qpoints],
            "group_params": [list(a) for a in params],
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    )
    for suite in SUITE_ORDER:
        if suite not in cfg.suites:
            continue
        if suite == "structures":
            report.add_child(_suite_structures(scen, cfg, points, fd))
        elif suite == "action":
            report.add_child(_suite_action(scen, cfg, points, params, fd))
        elif suite == "reduction":
            report.add_child(_suite_reduction(scen, cfg, qpoints, fiber_params, seed, fd,
                                              frames))
        elif suite == "main-theorem":
            report.add_child(_suite_main_theorem(scen, cfg, qpoints, fd, frames))
        elif suite == "holomorphy":
            report.add_child(_suite_holomorphy(cfg, scen, seed, samples, fd))
    return report, 0 if report.passed else 1


def _emit(report: VerificationReport, cfg: RunConfig) -> None:
    text = report.to_json() if cfg.format == "json" else report.format_text()
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_tol(entries) -> dict:
    out = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValueError(f"--tol expects name=value, got {entry!r}")
        key, value = entry.split("=", 1)
        out[key] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symred",
        description="verify symplectic-reduction scenarios against their defining identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites on a scenario")
    verify.add_argument("scenario", help="built-in name or path to a scenario file")
    verify.add_argument("--suites", default=",".join(SUITE_ORDER),
                        help="comma-separated subset of " + ",".join(SUITE_ORDER))
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--samples", type=int, default=None)
    verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="tolerance override, repeatable")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report to a file")

    sub.add_parser("list-scenarios", help="print the built-in scenario names")

    check = sub.add_parser("parse-check", help="parse and validate a scenario file")
    check.add_argument("path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    if args.command == "list-scenarios":
        for name in builtin_names():
            print(name)
        return 0

    if args.command == "parse-check":
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                sf = parse_scenario(handle.read())
        except (ScenarioFormatError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"OK {sf.name}: dim {sf.dim}, group dim {sf.group_dim}, "
              f"quotient dim {sf.quotient_dim}")
        return 0

    try:
        cfg = RunConfig(
            scenario=args.scenario,
            suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
            seed=args.seed,
            samples=args.samples,
            tolerances=_parse_tol(args.tol),
            output=args.out,
            format=args.format,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report, code = run(cfg)
    except SymredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if code == 2:
        print(f"error: {report.meta.get('error', 'could not load scenario')}", file=sys.stderr)
        return 2
    _emit(report, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
