"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json

import numpy as np

from symred.actions import (
    average_metric,
    check_field_invariance,
    check_isometry,
    planar_rotation_action,
    pushforward_table,
    uniform_torus_quadrature,
)
from symred.cli import RunConfig, main, run
from symred.errors import ParseError, ValidationError
from symred.exprlang import eval_expr, format_expr, parse_expression
from symred.geometry import (
    TensorField,
    eval_field,
    fd_jacobian,
    sample_ball,
    sample_box,
)
from symred.holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from symred.reduction import (
    lift_frames,
    reduced_structures,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.scenarios import builtin, parse_scenario
from symred.structures import (
    build_compatible_triple,
    standard_acs,
    standard_acs_matrix,
    standard_symplectic,
)

from util import (
    one,
    oracle_compatible_acs,
    random_expr,
    random_symplectic_metric_pair,
    reference_omega_endomorphism,
    round_sphere_metric,
    round_sphere_symplectic,
    row0,
)

HOPF = builtin("hopf")
LINEAR = builtin("linear_translation")
# two fibre parameters of a circle action, away from the identity and from
# each other
FIBRE = np.array([[1.3], [-2.4]])


def _line(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_hopf_reduced_structures_match_closed_form():
    worst_h = worst_w = 0.0
    for x in sample_ball(HOPF.quotient_dim, 20, 2.0, 7):
        red = row0(reduced_structures(HOPF, one(x)))
        worst_h = max(worst_h, np.max(np.abs(red.h_beta - round_sphere_metric(x))))
        worst_w = max(worst_w, np.max(np.abs(red.omega_beta - round_sphere_symplectic(x))))
    _line(1, f"reduced metric/symplectic vs round-sphere closed form "
             f"(h err {worst_h:.2e}, w err {worst_w:.2e})",
          worst_h < 1e-5 and worst_w < 1e-5)


def test_criterion_02_reduced_area_integrates_to_pi():
    radius = 2.0
    nodes, weights = np.polynomial.legendre.leggauss(12)
    n_theta = 24
    total = 0.0
    for node, weight in zip(nodes, weights):
        r = 0.5 * radius * (node + 1.0)
        w_r = 0.5 * radius * weight
        for j in range(n_theta):
            theta = 2.0 * np.pi * j / n_theta
            x = one([r * np.cos(theta), r * np.sin(theta)])
            density = reduced_structures(HOPF, x).omega_beta[0, 0, 1]
            total += density * r * w_r * (2.0 * np.pi / n_theta)
    # exact tail of the 1/(1+r^2)^2 density outside the disc
    total += np.pi / (1.0 + radius ** 2)
    _line(2, f"quadrature of the reduced area form = {total:.6f} (target pi)",
          abs(total - np.pi) < 1e-3)


def test_criterion_03_reduction_identity_and_degeneracy():
    ok = True
    detail = []
    for scen, seed in ((HOPF, 7), (LINEAR, 11)):
        points = sample_ball(scen.quotient_dim, 50, 2.0, seed)
        report = verify_reduction_identity(lift_frames(scen, points))
        ident = report.find("pullback identity").max_residual
        degen = report.find("vertical degeneracy").max_residual
        ok = ok and ident < 1e-5 and degen < 1e-8
        detail.append(f"{scen.name}: id {ident:.2e}, deg {degen:.2e}")
    _line(3, "pullback identity over 50 samples (" + "; ".join(detail) + ")", ok)


def test_criterion_04_fiber_independence():
    hopf_res = verify_submersion(lift_frames(
        HOPF, sample_ball(HOPF.quotient_dim, 20, 2.0, 7), FIBRE
    )).find("fiber independence").max_residual
    lin_res = verify_submersion(lift_frames(
        LINEAR, sample_ball(LINEAR.quotient_dim, 20, 2.0, 11), FIBRE
    )).find("fiber independence").max_residual
    _line(4, f"fiber independence (hopf {hopf_res:.2e} < 1e-5, "
             f"linear {lin_res:.2e} < 1e-10)",
          hopf_res < 1e-5 and lin_res < 1e-10)


def test_criterion_05_main_theorem_branches():
    points = sample_ball(HOPF.quotient_dim, 20, 2.0, 7)
    report = verify_main_theorem(lift_frames(HOPF, points))
    pos_ok = report.passed and report.find("main theorem iff").extras["branch"] == "positive"
    j_err = 0.0
    for x in points:
        j_err = max(j_err, np.max(np.abs(reduced_structures(HOPF, one(x)).j_beta[0]
                                         - standard_acs_matrix(2))))
    pos_ok = pos_ok and j_err < 1e-5

    skew = builtin("skewed_metric_hopf")
    sk_report = verify_main_theorem(lift_frames(
        skew, np.vstack([[0.0, 0.0], sample_ball(skew.quotient_dim, 6, 2.0, 7)])))
    compat_at_zero = sk_report.meta["samples"]["compat_residual"][0]
    skew_ok = (abs(compat_at_zero - 3.0) < 1e-6
               and sk_report.find("main theorem iff").extras["hypothesis_violated"])

    noninv = builtin("noninvariant_metric_hopf")
    fiber = verify_submersion(lift_frames(
        noninv, sample_ball(noninv.quotient_dim, 10, 2.0, 7), FIBRE
    )).find("fiber independence").max_residual
    noninv_ok = fiber > 1e-3

    _line(5, f"main theorem iff (hopf positive, J_red err {j_err:.2e}; skewed compat "
             f"{compat_at_zero:.6f} flagged; noninvariant fiber {fiber:.2e})",
          pos_ok and skew_ok and noninv_ok)


def test_criterion_06_compatible_triples_random():
    rng = np.random.default_rng(42)
    worst_acs = worst_compat = worst_oracle = 0.0
    for trial in range(100):
        n = (2, 4, 6, 8)[trial % 4]
        om, g0 = random_symplectic_metric_pair(rng, n)
        triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
        p = np.zeros((1, n))
        J = eval_field(triple.acs, p)[0]
        G = eval_field(triple.metric, p)[0]
        worst_acs = max(worst_acs, np.linalg.norm(J @ J + np.eye(n)))
        worst_compat = max(worst_compat, np.linalg.norm(om @ J - G))
        worst_oracle = max(worst_oracle, np.max(np.abs(J - oracle_compatible_acs(om, g0))))
    _line(6, f"100 random triples dims 2-8 (acs {worst_acs:.2e}, compat {worst_compat:.2e}, "
             f"newton-polar oracle gap {worst_oracle:.2e})",
          worst_acs < 1e-9 and worst_compat < 1e-9 and worst_oracle < 1e-8)


def test_criterion_07_invariance_propositions():
    points = sample_box(4, 10, radius=1.5, seed=14)
    params = [np.array([a]) for a in (0.5, np.pi / 3.0, np.pi, 2.5)]
    table = pushforward_table(HOPF.action, params, points)
    j_res = check_field_invariance(standard_acs(4), table).max_residual
    A = reference_omega_endomorphism(standard_symplectic(4),
                                     TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])))
    a_res = check_field_invariance(A, table).max_residual
    _line(7, f"invariance of J ({j_res:.2e}) and of the omega endomorphism ({a_res:.2e})",
          j_res < 1e-6 and a_res < 1e-6)


def test_criterion_08_invariant_metric_averaging():
    rotation = planar_rotation_action()
    averaged = average_metric(TensorField.constant(np.diag([1.0, 4.0])), rotation,
                              uniform_torus_quadrature(1, 64))
    points = sample_box(2, 8, radius=1.5, seed=15)
    worst = max(np.max(np.abs(eval_field(averaged, one(p))[0] - 2.5 * np.eye(2))) for p in points)
    params = [np.array([a]) for a in (0.7, np.pi / 2.0, 4.0)]
    iso = check_isometry(averaged, pushforward_table(rotation, params, points), tol=1e-6)
    _line(8, f"64-point average of diag(1,4) = 2.5 I ({worst:.2e}) and isometric "
             f"({iso.max_residual:.2e})",
          worst < 1e-6 and iso.passed)


def test_criterion_09_holomorphy_battery():
    j2 = standard_acs(2)

    def square(p):
        x, y = p
        return np.array([x * x - y * y, 2 * x * y])

    def exp_map(p):
        x, y = p
        return np.array([np.exp(x) * np.cos(y), np.exp(x) * np.sin(y)])

    def reciprocal(p):
        x, y = p
        den = (x - 2.0) ** 2 + y ** 2
        return np.array([(x - 2.0) / den, -y / den])

    def conjugate(p):
        x, y = p
        return np.array([x, -y])

    points = sample_box(2, 10, radius=1.4, seed=16)  # stays away from the pole at 2
    worst_holo = 0.0
    equiv_ok = True
    for func in (square, exp_map, reciprocal):
        cm = ChartedMap(func, j2, j2)
        for p in points:
            acm = almost_complex_residual(cm, one(p))[0]
            cr = cauchy_riemann_residual(cm, one(p))[0]
            worst_holo = max(worst_holo, acm)
            equiv_ok = equiv_ok and (acm <= 0.1) == (cr <= 0.1)
    conj = ChartedMap(conjugate, j2, j2)
    conj_gap = max(abs(almost_complex_residual(conj, one(p))[0] - 2.0 * np.sqrt(2.0))
                   for p in points)
    for p in points:
        acm = almost_complex_residual(conj, one(p))[0]
        cr = cauchy_riemann_residual(conj, one(p))[0]
        equiv_ok = equiv_ok and acm > 0.1 and cr > 0.1
    _line(9, f"holomorphy residuals (holo {worst_holo:.2e} < 1e-8, conjugation "
             f"2*sqrt(2) +- {conj_gap:.2e}, equivalence {'holds' if equiv_ok else 'fails'})",
          worst_holo < 1e-8 and conj_gap < 1e-8 and equiv_ok)


def test_criterion_10_fd_convergence_gate():
    maps = [
        (lambda p: np.array([np.sin(3 * p[0]) * np.exp(p[1]),
                             np.cos(2 * p[1]) + p[0] ** 3]),
         lambda p: np.array([[3 * np.cos(3 * p[0]) * np.exp(p[1]),
                              np.sin(3 * p[0]) * np.exp(p[1])],
                             [3 * p[0] ** 2, -2 * np.sin(2 * p[1])]])),
        (lambda p: np.array([np.exp(p[0] * p[1])]),
         lambda p: np.exp(p[0] * p[1]) * np.array(
             [[p[1], p[0]]])),
    ]
    ok = True
    ratios = []
    for func, jac in maps:
        p = np.array([0.31, 0.23])
        errors = []
        for step in (2e-2, 1e-2, 5e-3, 2.5e-3):
            D = fd_jacobian(func, one(p), step=step)[0]
            errors.append(np.max(np.abs(D - jac(p))))
        for coarse, fine in zip(errors, errors[1:]):
            if fine < 1e-11:
                break
            ratios.append(coarse / fine)
            ok = ok and (coarse / fine) >= 8.0
    _line(10, f"order-4 halving ratios {['%.1f' % r for r in ratios]} all >= 8", ok)


def test_criterion_11_parser_gate():
    facts = (eval_expr(parse_expression("1+2*3^2"), {}) == 19.0
             and eval_expr(parse_expression("-2^2"), {}) == -4.0)

    rng = np.random.default_rng(123)
    round_trips = all(
        parse_expression(format_expr(ast)) == ast
        for ast in (random_expr(rng) for _ in range(1000))
    )

    rng = np.random.default_rng(777)
    crashes = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 24))
        text = bytes(rng.integers(0, 256, n, dtype=np.uint8)).decode("utf-8", "replace")
        try:
            parse_scenario(text)
        except (ParseError, ValidationError):
            pass
        except Exception:  # anything else is a totality bug
            crashes += 1
    _line(11, f"parser precedence facts, 1e3 round-trips, 1e5 fuzz strings "
              f"({crashes} crashes)",
          facts and round_trips and crashes == 0)


def test_criterion_12_cli_contract(tmp_path, capsys):
    _, code_hopf = run(RunConfig("hopf", samples=5, seed=1))
    _, code_skew = run(RunConfig("skewed_metric_hopf", samples=5, seed=1))
    bad = tmp_path / "broken.scn"
    bad.write_text("name = broken\ndim = 2\nomega = [[0, 1],")
    code_bad = main(["verify", str(bad)])
    capsys.readouterr()

    cfg = dict(suites=("structures", "reduction"), samples=4, seed=2)
    first, _ = run(RunConfig("hopf", **cfg))
    second, _ = run(RunConfig("hopf", **cfg))
    a, b = first.to_dict(), second.to_dict()
    a["meta"].pop("timestamp")
    b["meta"].pop("timestamp")
    deterministic = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    _line(12, f"CLI exits (hopf {code_hopf}, skewed {code_skew}, malformed {code_bad}) "
              f"and JSON determinism {deterministic}",
          code_hopf == 0 and code_skew == 1 and code_bad == 2 and deterministic)
