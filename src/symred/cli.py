"""Command-line interface: load a scenario, run verification suites, emit
text or JSON reports with every residual, tolerance, seed and sample point.

A run draws from one ``random.Random(seed)``, in a fixed order: the ambient
points, the (5, k) group parameters, the quotient points (unless a
scenario's ``sample.points`` stand), and last, only if ``--suites`` names
it, the holomorphy suite's points, so no other draw depends on ``--suites``.
A run that asks for the reduction or the main-theorem suite builds one
lift-frame table, the base frames and the frames moved by the first two
group parameters, so no frame depends on ``--suites`` either.

``run`` returns the report and 0 or 1, and raises what loading the scenario
raises.  Exit codes: 0 when every requested check passes, 1 on a check
failure, 2 on usage, parse or validation errors and on a value that cannot
be evaluated.
"""

from __future__ import annotations

import numbers
import os
import sys
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
from .errors import Record, ScenarioFormatError, SymredError, UnknownScenarioError
from .exprlang import compile_exprs, parse_expression
from .geometry import as_points, sample_ball, sample_box, sample_stream
from .holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from .reduction import (
    ReductionScenario,
    lift_frames,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from .report import VerificationReport
from .scenarios import (MAX_SAMPLES, _read_scenario_text, _row_map, builtin, builtin_names,
                        load_scenario_file, parse_scenario)
from .structures import (
    DEFAULT_TOLERANCES,
    CompatibleTriple,
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
    checked_tolerances,
    standard_acs,
    _row,
)

__all__ = ["RunConfig", "DEFAULT_TOLERANCES", "SUITE_ORDER", "DEFAULT_SUITES", "run", "main"]

SUITE_ORDER = ("structures", "action", "reduction", "main-theorem", "holomorphy")
# the suites that check the scenario; holomorphy, a fixed battery of maps of
# the plane, runs only when asked for
DEFAULT_SUITES = ("structures", "action", "reduction", "main-theorem")

# a reference map counts as holomorphic, in the Cauchy-Riemann equivalence
# flags, where its residual is at most this
HOLOMORPHIC_LEVEL = 0.1


class RunConfig(Record):
    """One verification run: scenario, suites, sampling and output options,
    each checked on construction and then stored once."""

    __slots__ = ("scenario", "suites", "seed", "samples", "tolerances", "output", "format")

    def __init__(self, scenario: str, suites: tuple = DEFAULT_SUITES, seed: int | None = None,
                 samples: int | None = None, tolerances: dict | None = None,
                 output: str | None = None, format: str = "text"):
        if not isinstance(scenario, str):  # 0 would name a file descriptor, stdin
            raise ValueError(
                f"scenario must be a str naming a built-in or a file, got {scenario!r}")
        if isinstance(suites, str):  # a str is a sequence of letters
            raise ValueError(f"suites must be a sequence of suite names, got {suites!r}")
        suites = tuple(suites)  # a one-shot iterable would run no suite
        if not suites:
            raise ValueError("at least one suite must be requested")
        unknown = set(suites) - set(SUITE_ORDER)
        if unknown:
            raise ValueError(f"unknown suites {sorted(unknown)}; choose from {SUITE_ORDER}")
        for key, value in (("samples", samples), ("seed", seed)):
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if samples is not None and samples < 1:
            raise ValueError("samples must be at least 1")
        if samples is not None and samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        if format not in ("text", "json"):
            raise ValueError(f"format must be text or json, got {format!r}")
        super().__init__(scenario, suites, seed, samples, checked_tolerances(tolerances), output,
                         format)


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


def _suite_structures(scen, tol, points):
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    return VerificationReport("structures", [
        check_metric(scen.metric, points, tol),
        check_symplectic_pointwise(scen.omega, points, tol),
        check_closed(scen.omega, points, tol),
        check_acs(scen.acs, points, tol),
        check_compatibility(triple, points, tol),
    ])


def _suite_action(scen, tol, points, params):
    # one flow Jacobian and moved point per (parameter, point) for the axioms
    # and the four invariance checks, every parameter a block of one stack
    table = pushforward_table(scen.action, params, points)
    return VerificationReport("action", [
        check_action_axioms(table, tol),
        check_isometry(scen.metric, table, tol),
        check_symplectomorphism(scen.omega, table, tol),
        momentum_residual(scen.action, scen.mu, scen.omega, points, tol),
        check_momentum_invariance(scen.mu, table, tol),
        check_field_invariance(scen.acs, table, tol),
    ])


def _suite_reduction(tol, frames):
    return VerificationReport("reduction", children=[
        verify_submersion(frames, tol), verify_reduction_identity(frames, tol)])


def _suite_main_theorem(tol, frames):
    return VerificationReport("main-theorem", children=[verify_main_theorem(frames, tol)])


def _reference_maps():
    """The holomorphy suite's maps of the plane, (x1, x2) = (x, y): three
    holomorphic references and conjugation, whose defect is exactly
    2*sqrt(2), each compiled when the suite runs, as a scenario's maps are,
    so its Jacobian is exact (``scenarios._row_map``)."""
    return tuple(
        (name, _row_map(compile_exprs([parse_expression(e) for e in entries], ("x1", "x2"),
                                      name), (2,), name), holomorphic)
        for name, entries, holomorphic in (
            ("square map", ("x1^2 - x2^2", "2*x1*x2"), True),
            ("exponential map", ("exp(x1)*cos(x2)", "exp(x1)*sin(x2)"), True),
            ("reciprocal map at offset 2",
             ("(x1 - 2)/((x1 - 2)^2 + x2^2)", "-x2/((x1 - 2)^2 + x2^2)"), True),
            ("conjugation", ("x1", "-x2"), False),
        ))


def _suite_holomorphy(tol, X):
    j2 = standard_acs(2)
    checks, equivalence_flags = [], []
    for name, func, holomorphic in _reference_maps():
        cm = ChartedMap(func, j2, j2)
        acm = almost_complex_residual(cm, X)
        cr = cauchy_riemann_residual(cm, X)
        row, residuals = ((f"holomorphy of {name}", acm) if holomorphic else
                          (f"{name} defect equals 2*sqrt(2)", np.abs(acm - 2.0 * np.sqrt(2.0))))
        checks.append(_row(row, residuals, X, tol))
        equivalence_flags.append(
            np.where((acm <= HOLOMORPHIC_LEVEL) == (cr <= HOLOMORPHIC_LEVEL), 0.0, 1.0))
    checks.append(_row("cauchy-riemann/holomorphy equivalence", np.concatenate(equivalence_flags),
                       np.tile(X, (len(equivalence_flags), 1)), tol))
    return VerificationReport("holomorphy", checks)


def run(cfg: RunConfig) -> tuple[VerificationReport, int]:
    """Execute the requested suites in fixed order and assemble the report,
    with exit code 0 or 1; a scenario that does not load raises
    ``UnknownScenarioError``, ``ScenarioFormatError`` or ``OSError``."""
    scen = resolve_scenario(cfg.scenario)

    # the run's tolerances in one merge: the defaults, then the scenario's, then the config's
    tol = {**DEFAULT_TOLERANCES, **scen.tolerances, **cfg.tolerances}
    seed = cfg.seed if cfg.seed is not None else scen.sample_spec.seed
    samples = cfg.samples if cfg.samples is not None else scen.sample_spec.count

    rng = sample_stream(seed)  # read in the order the module docstring gives
    points = sample_box(scen.chart_dim, samples, radius=2.0, seed=rng)
    params = sample_box(scen.action.group_dim, 5, radius=np.pi, seed=rng)
    # a scenario's explicit quotient points stand unless --seed or --samples
    # asks for a fresh draw
    if cfg.seed is None and cfg.samples is None and scen.sample_spec.points:
        qpoints = as_points(scen.sample_spec.points)
    else:
        qpoints = sample_ball(scen.quotient_dim, samples,
                              radius=scen.sample_spec.radius, seed=rng)
    meta = {
        "scenario": cfg.scenario,
        "version": __version__,
        "seed": seed,
        "samples": samples,
        "suites": list(s for s in SUITE_ORDER if s in cfg.suites),
        "ambient_points": points.tolist(),
        "quotient_points": qpoints.tolist(),
        "group_params": params.tolist(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    suites = []
    if "structures" in cfg.suites:
        suites.append(_suite_structures(scen, tol, points))
    if "action" in cfg.suites:
        suites.append(_suite_action(scen, tol, points, params))
    if "reduction" in cfg.suites or "main-theorem" in cfg.suites:
        # the run's one table: the base frames and the frames moved by the
        # first two group parameters, whichever of the two suites reads it
        frames = lift_frames(scen, qpoints, params[:2])
        if "reduction" in cfg.suites:
            suites.append(_suite_reduction(tol, frames))
        if "main-theorem" in cfg.suites:
            suites.append(_suite_main_theorem(tol, frames))
    if "holomorphy" in cfg.suites:
        suites.append(_suite_holomorphy(tol, sample_box(2, samples, radius=1.5, seed=rng)))
    report = VerificationReport(scen.name, children=suites, meta=meta)
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
    import argparse  # here, so that importing the module loads neither it nor gettext

    parser = argparse.ArgumentParser(
        prog="symred",
        description="verify symplectic-reduction scenarios against their defining identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites on a scenario")
    verify.add_argument("scenario", help="built-in name or path to a scenario file")
    verify.add_argument("--suites", default=",".join(DEFAULT_SUITES),
                        help="comma-separated subset of " + ",".join(SUITE_ORDER)
                        + " (default " + ",".join(DEFAULT_SUITES) + ")")
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
            sf = parse_scenario(_read_scenario_text(args.path))
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
        _emit(report, cfg)
    # OSError: an unreadable scenario or --out file; ValueError: sin or cos
    # of an infinity, or a numpy LinAlgError
    except (SymredError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
