"""The eleven ambient checks (five structures checks, six action checks)
evaluate every field once over the stacked sample points; each per-point
residual must be the bits of the per-point references in util.py, at the
points and parameters a verify op draws, for compiled and per-point maps,
for a stack of one point and for no points at all.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from symred.actions import (
    GroupAction,
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    momentum_residual,
    pushforward_table,
)
from symred.errors import NonFiniteError
from symred.geometry import ChartPoint, FDConfig, TensorField, sample_box
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
)

CFG = FDConfig()
TOL = 1e-8


def _checks(scen, params):
    """(name, stacked check, per-point reference) for the eleven checks,
    each a function of the point list."""
    triple = CompatibleTriple(scen.omega, scen.metric, scen.acs)
    action = scen.action
    return [
        ("metric", lambda pts: check_metric(scen.metric, pts, TOL),
         lambda pts: reference_metric_residuals(scen.metric, pts, TOL)),
        ("symplectic", lambda pts: check_symplectic_pointwise(scen.omega, pts, TOL),
         lambda pts: reference_symplectic_residuals(scen.omega, pts, TOL)),
        ("closed", lambda pts: check_closed(scen.omega, pts, CFG),
         lambda pts: reference_closed_residuals(scen.omega, pts, CFG)),
        ("acs", lambda pts: check_acs(scen.acs, pts),
         lambda pts: reference_acs_residuals(scen.acs, pts)),
        ("compatibility", lambda pts: check_compatibility(triple, pts),
         lambda pts: reference_compatibility_residuals(scen.omega, scen.metric, scen.acs, pts)),
        ("axioms", lambda pts: check_action_axioms(action, params, pts),
         lambda pts: [reference_action_axioms(action, params, p) for p in pts]),
        ("isometry", lambda pts: check_isometry(action, scen.metric, params, pts, CFG),
         lambda pts: reference_invariance_residuals("pullback", action, scen.metric, params,
                                                    pts, CFG)),
        ("symplectomorphism",
         lambda pts: check_symplectomorphism(action, scen.omega, params, pts, CFG),
         lambda pts: reference_invariance_residuals("pullback", action, scen.omega, params,
                                                    pts, CFG)),
        ("hamiltonian", lambda pts: momentum_residual(action, scen.mu, scen.omega, pts, CFG),
         lambda pts: reference_momentum_residuals(action, scen.mu, scen.omega, pts, CFG)),
        ("mu invariance", lambda pts: check_momentum_invariance(action, scen.mu, params, pts),
         lambda pts: reference_invariance_residuals("momentum", action, scen.mu, params,
                                                    pts, CFG)),
        ("acs invariance", lambda pts: check_field_invariance(scen.acs, action, params, pts, CFG),
         lambda pts: reference_invariance_residuals("endomorphism", action, scen.acs, params,
                                                    pts, CFG)),
    ]


@contextmanager
def _residuals_seen():
    """The residual arrays every check hands to from_samples while open."""
    seen = []
    original = StructureCheckResult.from_samples

    def capture(name, residuals, points, tolerance, identity="", extras=None):
        seen.append(np.array(list(residuals), dtype=float))
        return original(name, residuals, points, tolerance, identity, extras)

    with mock.patch.object(StructureCheckResult, "from_samples", staticmethod(capture)):
        yield seen


def _assert_matches(name, check, reference, points):
    with _residuals_seen() as seen:
        got = check(points)
    want = np.array(reference(points), dtype=float)
    assert seen[-1].tobytes() == want.tobytes(), name
    worst = int(np.argmax(want))
    assert np.float64(got.max_residual).tobytes() == want[worst].tobytes(), name
    assert got.worst_point is points[worst], name


def _r2n_8():
    return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))


def _op_inputs(scen, seed, samples=20):
    """The ambient points and group parameters cli.run draws."""
    points = sample_box(scen.chart_dim, samples, radius=2.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    return points, [rng.uniform(-np.pi, np.pi, scen.action.group_dim) for _ in range(5)]


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
    # stacked evaluation calls it once per row
    scen = builtin(name)
    opaque = opaque_scenario(scen)
    points, params = _op_inputs(scen, 1, samples=8)
    for (check_name, check, _), (_, _, reference) in zip(_checks(opaque, params),
                                                          _checks(scen, params)):
        _assert_matches(f"{name} {check_name}", check, reference, points)


def test_stack_of_one_point_and_no_points():
    scen = builtin("skewed_metric_hopf")
    points, params = _op_inputs(scen, 2, samples=3)
    for check_name, check, reference in _checks(scen, params):
        for p in points:
            _assert_matches(f"{check_name} at one point", check, reference, [p])
        empty = check([])
        assert (empty.passed, empty.max_residual, empty.worst_point) == (True, 0.0, None)


def test_closedness_nan_partials_fail_at_their_point():
    # a finite 1e308 entry, present where x1 > 0, overflows the difference
    # stencil to NaN there; the NaN must be the worst residual, at its point
    def form(p):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0
        om[2, 3], om[3, 2] = p.coords[0], -p.coords[0]
        huge = 1e308 if p.coords[0] > 0 else 0.0
        om[0, 2], om[2, 0] = huge, -huge
        return om

    field = TensorField.matrix(form, 4)
    points = [ChartPoint(c) for c in ([-0.5, 0.1, 0.2, 0.3], [0.3, -0.2, 0.5, 0.1],
                                      [-0.2, 0.4, -0.1, 0.0])]
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_matches("closed", lambda pts: check_closed(field, pts, CFG),
                        lambda pts: reference_closed_residuals(field, pts, CFG), points)
        res = check_closed(field, points, CFG)
    assert np.isnan(res.max_residual) and not res.passed
    assert res.worst_point is points[1]


def test_pushforward_error_comes_from_the_first_failing_parameter():
    # the flow fails near the second point for the first parameter, and
    # near the first point for the second.  pushforward_table, which verify
    # builds before the invariance checks, builds one parameter at a time,
    # so the first parameter's failure is raised; a check building its own
    # pushforwards replays point by point, in point-major order
    points = [ChartPoint([0.1, 0.2]), ChartPoint([0.5, -0.4])]
    params = [np.array([0.3]), np.array([0.7])]

    def flow(a, p):
        for (i, j) in ((1, 0), (0, 1)):
            if a[0] == params[j][0] and np.max(np.abs(p.coords - points[i].coords)) < 1e-3:
                raise NonFiniteError(f"flow fails near point {i} for parameter {j}")
        return ChartPoint(p.coords + a[0])

    shift = GroupAction(1, flow)
    metric = TensorField.constant(np.eye(2))
    with pytest.raises(NonFiniteError, match="^flow fails near point 1 for parameter 0$"):
        pushforward_table(shift, params, points, CFG)
    with pytest.raises(NonFiniteError, match="^flow fails near point 0 for parameter 1$"):
        check_isometry(shift, metric, params, points, CFG)


def test_failing_batch_raises_the_first_failing_points_error():
    # omega is non-finite at the third point and the metric at the second:
    # one point at a time, each point evaluating omega, then g, then J, the
    # metric's failure at the second point comes first
    points = [ChartPoint([0.1, 0.2]), ChartPoint([0.3, 0.4]), ChartPoint([0.5, 0.6])]

    def broken_at(i, value):
        def field(p):
            return np.full((2, 2), np.inf) if p.coords[0] == points[i].coords[0] else value
        return field

    triple = CompatibleTriple(
        TensorField.matrix(broken_at(2, np.array([[0.0, 1.0], [-1.0, 0.0]])), 2, name="omega"),
        TensorField.matrix(broken_at(1, np.eye(2)), 2, name="metric"),
        TensorField.constant(np.array([[0.0, -1.0], [1.0, 0.0]])))
    with pytest.raises(NonFiniteError, match=r"^field 'metric' at ChartPoint\(\[0.3, 0.4\]\)"):
        check_compatibility(triple, points)


def test_penalties_and_cyclic_sums_match_references():
    # fields on which every branch of the residuals is taken: a metric whose
    # least eigenvalue, and a 2-form whose singular-value ratio, fall below
    # a tolerance of 0.5 at some points and clear it at others, and a
    # non-closed form whose index triples sum several nonzero partials
    points2 = sample_box(2, 20, radius=1.5, seed=8)
    points4 = sample_box(4, 20, radius=1.5, seed=9)
    metric = TensorField.matrix(lambda p: np.array([[1.0, 0.3 * p.coords[1]],
                                                    [0.3 * p.coords[1], p.coords[0]]]), 2)

    def blocks(p):
        om = np.zeros((4, 4))
        om[0, 1], om[2, 3] = 1.0, p.coords[0]
        return om - om.T

    def form(p):
        x1, x2, x3, x4 = p.coords
        om = np.zeros((4, 4))
        om[0, 1], om[1, 2], om[0, 3] = x3 * x4, x1 * x1, np.sin(x2)
        return om - om.T

    omega, field = TensorField.matrix(blocks, 4), TensorField.matrix(form, 4)
    for name, check, reference, points in (
            ("metric", lambda pts: check_metric(metric, pts, 0.5),
             lambda pts: reference_metric_residuals(metric, pts, 0.5), points2),
            ("symplectic", lambda pts: check_symplectic_pointwise(omega, pts, 0.5),
             lambda pts: reference_symplectic_residuals(omega, pts, 0.5), points4)):
        _assert_matches(name, check, reference, points)
        want = reference(points)
        assert min(want) == 0.0 < max(want), name  # the penalty is taken and not taken
    _assert_matches("closed", lambda pts: check_closed(field, pts, CFG),
                    lambda pts: reference_closed_residuals(field, pts, CFG), points4)


@pytest.mark.parametrize("shared", [True, False])
def test_failing_moved_point_raises_at_its_point(shared):
    # the metric is non-finite only at the second point moved by the
    # parameter, with or without a shared pushforward table
    points = [ChartPoint([0.1, 0.2]), ChartPoint([0.5, -0.4])]
    params = [np.array([0.3])]
    shift = GroupAction(1, lambda a, p: ChartPoint(p.coords + a[0]))
    target = points[1].coords + 0.3
    metric = TensorField.matrix(
        lambda p: np.full((2, 2), np.inf) if np.array_equal(p.coords, target) else np.eye(2),
        2, name="metric")
    table = pushforward_table(shift, params, points, CFG) if shared else None
    with pytest.raises(NonFiniteError, match=r"^field 'metric' at ChartPoint\(\[ 0\.8, -0\.1\]\)"):
        check_isometry(shift, metric, params, points, CFG, pushforwards=table)
