"""The eleven ambient checks (five structures checks, six action checks)
evaluate every field once over the stacked sample points; each per-point
residual must be the bits of the per-point references in util.py, at the
points and parameters a verify op draws, for compiled and per-point maps,
for a stack of one point; no points and no group parameters are refused.
"""

import numpy as np
import pytest

from symred.actions import (
    GroupAction,
    apply_flow,
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    momentum_residual,
    pushforward_table,
)
from symred.errors import NonFiniteError
from symred.geometry import (
    RowMap,
    TensorField,
    eval_field,
    fd_jacobian,
    sample_box,
)
from symred.reduction import reduced_structures, split_tangent
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario
from symred.structures import (
    CompatibleTriple,
    StructureCheckResult,
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
)

from util import (
    opaque_scenario,
    reference_acs_residuals,
    reference_action_axioms,
    reference_closed_residuals,
    reference_compatibility_residuals,
    reference_invariance_residuals,
    reference_metric_residuals,
    reference_momentum_residuals,
    reference_symplectic_residuals,
    residuals_seen,
    run_draws,
)

TOL = 1e-8
# the tolerances of the two rows whose residuals read theirs in a penalty
TOLERANCES = {"structures.metric": TOL, "structures.symplectic": TOL}


def _checks(scen, params):
    """(name, stacked check, per-point reference) for the eleven checks,
    each a function of the point list; a check over group moves reads a
    ``pushforward_table`` of ``params`` at those points."""
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    action = scen.action

    def moves(pts):
        return pushforward_table(action, params, pts)

    return [
        ("metric", lambda pts: check_metric(scen.metric, pts, TOLERANCES),
         lambda pts: reference_metric_residuals(scen.metric, pts, TOL)),
        ("symplectic", lambda pts: check_symplectic_pointwise(scen.omega, pts, TOLERANCES),
         lambda pts: reference_symplectic_residuals(scen.omega, pts, TOL)),
        ("closed", lambda pts: check_closed(scen.omega, pts),
         lambda pts: reference_closed_residuals(scen.omega, pts)),
        ("acs", lambda pts: check_acs(scen.acs, pts),
         lambda pts: reference_acs_residuals(scen.acs, pts)),
        ("compatibility", lambda pts: check_compatibility(triple, pts),
         lambda pts: reference_compatibility_residuals(scen.omega, scen.metric, scen.acs, pts)),
        ("axioms", lambda pts: check_action_axioms(moves(pts)),
         lambda pts: [reference_action_axioms(action, params, p) for p in pts]),
        ("isometry", lambda pts: check_isometry(scen.metric, moves(pts)),
         lambda pts: reference_invariance_residuals("pullback", action, scen.metric, params,
                                                    pts)),
        ("symplectomorphism",
         lambda pts: check_symplectomorphism(scen.omega, moves(pts)),
         lambda pts: reference_invariance_residuals("pullback", action, scen.omega, params,
                                                    pts)),
        ("hamiltonian", lambda pts: momentum_residual(action, scen.mu, scen.omega, pts),
         lambda pts: reference_momentum_residuals(action, scen.mu, scen.omega, pts)),
        ("mu invariance", lambda pts: check_momentum_invariance(scen.mu, moves(pts)),
         lambda pts: reference_invariance_residuals("momentum", action, scen.mu, params,
                                                    pts)),
        ("acs invariance", lambda pts: check_field_invariance(scen.acs, moves(pts)),
         lambda pts: reference_invariance_residuals("endomorphism", action, scen.acs, params,
                                                    pts)),
    ]


def _assert_matches(name, check, reference, points):
    with residuals_seen() as seen:
        got = check(points)
    want = np.array(reference(points), dtype=float)
    assert seen[-1].tobytes() == want.tobytes(), name
    worst = int(np.argmax(want))
    assert np.float64(got.max_residual).tobytes() == want[worst].tobytes(), name
    assert np.array(got.worst_point).tobytes() == np.asarray(points[worst], float).tobytes(), name


def _r2n_8():
    return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))


def _op_inputs(scen, seed, samples=20):
    """The ambient points and group parameters cli.run draws."""
    points, params, _ = run_draws(scen, seed, samples)
    return points, params


_CASES = [(name, seed) for name in builtin_names() for seed in range(4)] + [("r2n_8", 5)]


@pytest.mark.parametrize("name,seed", _CASES)
def test_stacked_checks_match_per_point_references(name, seed):
    scen = _r2n_8() if name == "r2n_8" else builtin(name)
    points, params = _op_inputs(scen, seed)
    for check_name, check, reference in _checks(scen, params):
        _assert_matches(f"{name} seed {seed} {check_name}", check, reference, points)


@pytest.mark.parametrize("name", ["hopf", "noninvariant_metric_hopf"])
def test_per_point_maps_match_per_point_references(name):
    # every field, flow and momentum component an opaque callable: each
    # stacked evaluation calls it once per row, and every derivative is the
    # stencil, on both sides
    scen = builtin(name)
    opaque = opaque_scenario(scen)
    points, params = _op_inputs(scen, 1, samples=8)
    for check_name, check, reference in _checks(opaque, params):
        _assert_matches(f"{name} {check_name}", check, reference, points)


def test_stack_of_one_point_and_no_points():
    scen = builtin("skewed_metric_hopf")
    points, params = _op_inputs(scen, 2, samples=3)
    for check_name, check, reference in _checks(scen, params):
        for p in points:
            _assert_matches(f"{check_name} at one point", check, reference, [p])
        # no points would pass vacuously, so a check over them is refused
        # where the points enter (as_points)
        with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
            check([])
    # no group parameters: a check over group moves would pass vacuously,
    # so its table is refused when it is built, with compiled and with
    # per-point fields alike; the other checks read no parameter
    for s in (scen, opaque_scenario(scen)):
        for check_name, check, reference in _checks(s, []):
            if check_name in ("axioms", "isometry", "symplectomorphism", "mu invariance",
                              "acs invariance"):
                with pytest.raises(ValueError, match="no group parameters"):
                    check(points)
            else:
                _assert_matches(f"{check_name} with no parameters", check, reference, points)


def test_closedness_nan_partials_fail_at_their_point():
    # a finite 1e308 entry, present where x1 > 0, overflows the difference
    # stencil to NaN there; the NaN must be the worst residual, at its point
    def form(p):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0
        om[2, 3], om[3, 2] = p[0], -p[0]
        huge = 1e308 if p[0] > 0 else 0.0
        om[0, 2], om[2, 0] = huge, -huge
        return om

    field = TensorField.matrix(form, 4)
    points = np.array([[-0.5, 0.1, 0.2, 0.3], [0.3, -0.2, 0.5, 0.1], [-0.2, 0.4, -0.1, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_matches("closed", lambda pts: check_closed(field, pts),
                        lambda pts: reference_closed_residuals(field, pts), points)
        res = check_closed(field, points)
    assert np.isnan(res.max_residual) and not res.passed
    assert np.array(res.worst_point).tobytes() == points[1].tobytes()


def test_pushforward_error_comes_from_the_first_failing_parameter():
    # the flow fails near the second point for the first parameter, and
    # near the first point for the second.  pushforward_table, the input of
    # every check over group moves, builds one parameter at a time, so the
    # first parameter's failure is raised
    points = np.array([[0.1, 0.2], [0.5, -0.4]])
    params = [np.array([0.3]), np.array([0.7])]

    def flow(a, p):
        for (i, j) in ((1, 0), (0, 1)):
            if a[0] == params[j][0] and np.max(np.abs(p - points[i])) < 1e-3:
                raise NonFiniteError(f"flow fails near point {i} for parameter {j}")
        return p + a[0]

    with pytest.raises(NonFiniteError, match="^flow fails near point 1 for parameter 0$"):
        pushforward_table(GroupAction(1, flow), params, points)


def test_failing_batch_raises_the_first_failing_points_error():
    # omega is non-finite at the third point and the metric at the second.
    # The batch evaluates omega at every point, then g, then J, so omega's
    # failure at the third point comes first; with the metric's failure
    # alone, that is what the batch raises
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    def broken_at(i, value):
        def field(p):
            return np.full((2, 2), np.inf) if p[0] == points[i][0] else value
        return field

    triple = CompatibleTriple(
        TensorField.matrix(broken_at(2, np.array([[0.0, 1.0], [-1.0, 0.0]])), 2, name="omega"),
        TensorField.matrix(broken_at(1, np.eye(2)), 2, name="metric"),
        TensorField.constant(np.array([[0.0, -1.0], [1.0, 0.0]])))
    with pytest.raises(NonFiniteError, match=r"^field 'omega' at point \[0.5, 0.6\]"):
        check_compatibility(triple, points)
    with pytest.raises(NonFiniteError, match=r"^field 'metric' at point \[0.3, 0.4\]"):
        check_compatibility(triple, points[:2])


def _inf_at_03_division_by_zero_at_05(x):
    """A row's value: inf at first coordinate 0.3, ZeroDivisionError at 0.5."""
    if abs(x[0] - 0.3) < 0.01:
        return np.inf
    return float(x[0]) / (0.0 if abs(x[0] - 0.5) < 0.01 else 1.0)


def test_a_batch_raising_any_error_gives_the_first_failing_rows_error():
    # the second row's value is not finite and the third row raises
    # ZeroDivisionError.  A batch calls the map on every row once, then
    # checks the values, so the third row's error comes first; the second
    # row alone raises its non-finite value
    value = _inf_at_03_division_by_zero_at_05
    X = np.array([[0.1], [0.3], [0.5]])
    field = TensorField.scalar(RowMap(lambda X: np.array([value(x) for x in X])), name="f")
    chart_map = RowMap(lambda X: np.array([[value(x)] for x in X]))
    action = GroupAction(1, RowMap(lambda Z: np.array([[value(z) + z[1]] for z in Z])))
    for call, message in (
            (lambda X: eval_field(field, X),
             "field 'f' at point [0.3] contains non-finite entries"),
            (lambda X: fd_jacobian(chart_map, X), "map value contains non-finite entries"),
            (lambda X: apply_flow(action, [0.0], X), "chart point contains non-finite entries")):
        with pytest.raises(ZeroDivisionError):
            call(X)
        with pytest.raises(NonFiniteError) as raised:
            call(X[1:2])
        assert str(raised.value) == message


def test_penalties_and_cyclic_sums_match_references():
    # fields on which every branch of the residuals is taken: a metric whose
    # least eigenvalue, and a 2-form whose singular-value ratio, fall below
    # a tolerance of 0.5 at some points and clear it at others, and a
    # non-closed form whose index triples sum several nonzero partials
    points2 = sample_box(2, 20, radius=1.5, seed=8)
    points4 = sample_box(4, 20, radius=1.5, seed=9)
    metric = TensorField.matrix(lambda p: np.array([[1.0, 0.3 * p[1]],
                                                    [0.3 * p[1], p[0]]]), 2)

    def blocks(p):
        om = np.zeros((4, 4))
        om[0, 1], om[2, 3] = 1.0, p[0]
        return om - om.T

    def form(p):
        x1, x2, x3, x4 = p
        om = np.zeros((4, 4))
        om[0, 1], om[1, 2], om[0, 3] = x3 * x4, x1 * x1, np.sin(x2)
        return om - om.T

    omega, field = TensorField.matrix(blocks, 4), TensorField.matrix(form, 4)
    half = {"structures.metric": 0.5, "structures.symplectic": 0.5}
    for name, check, reference, points in (
            ("metric", lambda pts: check_metric(metric, pts, half),
             lambda pts: reference_metric_residuals(metric, pts, 0.5), points2),
            ("symplectic", lambda pts: check_symplectic_pointwise(omega, pts, half),
             lambda pts: reference_symplectic_residuals(omega, pts, 0.5), points4)):
        _assert_matches(name, check, reference, points)
        want = reference(points)
        assert min(want) == 0.0 < max(want), name  # the penalty is taken and not taken
    _assert_matches("closed", lambda pts: check_closed(field, pts),
                    lambda pts: reference_closed_residuals(field, pts), points4)
    # the same form compiled: its exact partials, and the stencil's residual
    # to within the stencil's error
    rows = ("[0, x3*x4, 0, sin(x2)]", "[-(x3*x4), 0, x1*x1, 0]", "[0, -(x1*x1), 0, 0]",
            "[-sin(x2), 0, 0, 0]")
    compiled = compile_scenario(parse_scenario(builtin_text("hopf").replace(
        "omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]",
        f"omega = [{', '.join(rows)}]"))).omega
    _assert_matches("closed compiled", lambda pts: check_closed(compiled, pts),
                    lambda pts: reference_closed_residuals(compiled, pts), points4)
    exact, stencil = check_closed(compiled, points4), check_closed(field, points4)
    assert exact.max_residual > 1.0 and abs(exact.max_residual - stencil.max_residual) < 1e-8


@pytest.mark.parametrize("shared", [True, False])
def test_failing_moved_point_raises_at_its_point(shared):
    # the metric is non-finite only at the second point moved by the
    # parameter, whether the table is fresh or another check read it first
    points = np.array([[0.1, 0.2], [0.5, -0.4]])
    params = [np.array([0.3])]
    shift = GroupAction(1, lambda a, p: p + a[0])
    target = points[1] + 0.3
    metric = TensorField.matrix(
        lambda p: np.full((2, 2), np.inf) if np.array_equal(p, target) else np.eye(2),
        2, name="metric")
    table = pushforward_table(shift, params, points)
    if shared:
        assert check_isometry(TensorField.constant(np.eye(2)), table).passed
    with pytest.raises(NonFiniteError, match=r"^field 'metric' at point \[ 0\.8, -0\.1\]"):
        check_isometry(metric, table)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_rows_of_a_stack_are_refused_as_one_point_is(bad):
    # a non-finite row that is not the first one is refused with the error
    # one non-finite point raises, by every check and stacked function
    hopf = builtin("hopf")
    X = np.array([[0.5, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0]])
    message = "^chart point contains non-finite entries$"
    calls = [lambda: eval_field(hopf.metric, X),
             lambda: eval_field(hopf.metric, X[1:]), lambda: fd_jacobian(hopf.section, X[:, :2]),
             lambda: apply_flow(hopf.action, [0.3], X), lambda: split_tangent(hopf, X),
             lambda: reduced_structures(hopf, X[:, :2])]
    _, params = _op_inputs(hopf, 0)
    for _, check, _ in _checks(hopf, params):
        calls += [lambda check=check: check(X), lambda check=check: check(list(X))]
    for call in calls:
        with pytest.raises(NonFiniteError, match=message):
            call()
