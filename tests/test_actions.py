"""Group actions: generators, invariance checks, averaging, momentum."""

import numpy as np
import pytest

from symred import actions
from symred.actions import (
    GroupAction,
    MomentumMap,
    apply_flow,
    average_metric,
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    generator,
    generator_vector,
    momentum_residual,
    planar_rotation_action,
    pushforward_table,
    uniform_circle_quadrature,
    uniform_torus_quadrature,
)
from symred.errors import NonFiniteError
from symred.exprlang import compile_exprs, parse_expression
from symred.geometry import ChartPoint, RowMap, TensorField, eval_field, sample_box
from symred.scenarios import builtin
from symred.structures import euclidean_metric, standard_acs, standard_symplectic

from util import reference_action_axioms, reference_generator

HOPF = builtin("hopf")
POINTS_4D = sample_box(4, 5, radius=1.5, seed=6)
POINTS_2D = sample_box(2, 5, radius=1.5, seed=6)
ROTATION = planar_rotation_action()
ANGLES = [np.array([a]) for a in (0.4, np.pi / 3, np.pi, 5.0)]


def scaling_action():
    return GroupAction(
        group_dim=1,
        flow=lambda a, p: ChartPoint(np.exp(a[0]) * p.coords),
    )


def translation_action():
    return GroupAction(
        group_dim=1,
        flow=lambda a, p: ChartPoint(p.coords + a[0] * np.array([1.0, 0.0])),
    )


def test_generator_hopf_clockwise():
    xi = generator(HOPF.action, 0, ChartPoint([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(xi, [0.0, -1.0, 0.0, 0.0], atol=1e-10)


def test_generator_translation_and_zero():
    xi = generator(translation_action(), 0, ChartPoint([0.3, -0.5]))
    np.testing.assert_allclose(xi, [1.0, 0.0], atol=1e-10)
    zero = generator_vector(HOPF.action, [0.0], ChartPoint([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(zero, np.zeros(4), atol=1e-12)


def test_generator_linear_in_algebra_vector():
    torus = GroupAction(
        group_dim=2,
        flow=lambda a, p: ChartPoint(p.coords + np.array([a[0], a[1], a[0] + a[1], 0.0])),
    )
    p = ChartPoint([0.0, 0.0, 0.0, 0.0])
    for a, b in ((1.0, 2.0), (-0.5, 0.25)):
        combo = generator_vector(torus, [a, b], p)
        split = a * generator(torus, 0, p) + b * generator(torus, 1, p)
        np.testing.assert_allclose(combo, split, atol=1e-9)


def test_generator_overflow_raises_nonfinite():
    # every flow value is finite, but the difference stencil overflows
    huge = GroupAction(
        group_dim=1,
        flow=lambda a, p: ChartPoint(p.coords + 1e308 * (1.0 + a[0])),
    )
    with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
        generator(huge, 0, ChartPoint([0.0, 0.0]))


def test_generator_rejects_flow_changing_dimension():
    widening = GroupAction(
        group_dim=1,
        flow=lambda a, p: ChartPoint(np.append(p.coords, a[0])),
    )
    with pytest.raises(ValueError, match="generator length"):
        generator(widening, 0, ChartPoint([0.0, 0.0]))


def test_per_row_flow_on_no_points_keeps_the_chart_width():
    # a per-row flow has no row to read the width of the moved points from
    shift = GroupAction(1, lambda a, p: p.coords + a[0])
    none = np.zeros((0, 2))
    assert apply_flow(shift, [0.3], none).shape == (0, 2)
    assert generator(shift, 0, none).shape == (0, 2)
    assert generator_vector(shift, [1.0], none).shape == (0, 2)
    # the compiled flow of a scenario gives the same shapes
    assert apply_flow(HOPF.action, [0.3], np.zeros((0, 4))).shape == (0, 4)
    assert generator(HOPF.action, 0, np.zeros((0, 4))).shape == (0, 4)


def test_action_axioms_check():
    assert check_action_axioms(HOPF.action, ANGLES, POINTS_4D).passed
    assert check_action_axioms(ROTATION, ANGLES, POINTS_2D).passed


def _torus_action():
    """Rotations of the two coordinate planes, the second shifted by t1,
    compiled as scenario flows are; the shift breaks additivity, so its
    axiom residuals are not zero."""
    texts = ("x1*cos(t1) + x2*sin(t1)", "x2*cos(t1) - x1*sin(t1)",
             "x3*cos(t2) - x4*sin(t2) + t1", "x4*cos(t2) + x3*sin(t2)")
    program = compile_exprs([parse_expression(t) for t in texts],
                            ("x1", "x2", "x3", "x4", "t1", "t2"))
    flow = RowMap(lambda Z: np.array([program(v) for v in Z.tolist()]).reshape(len(Z), 4))
    return GroupAction(group_dim=2, flow=flow)


_SIGNED_ZERO_POINTS = [ChartPoint(c) for c in ([0.0, -0.0, 0.5, -0.0], [-0.0, 0.0, -0.0, 0.0],
                                               [0.3, -0.7, 1.1, -0.0])]


def test_generator_bit_identical_to_per_sample_reference():
    for action in (HOPF.action, _torus_action()):
        opaque = GroupAction(action.group_dim, lambda a, p, _f=action: apply_flow(_f, a, p))
        for p in _SIGNED_ZERO_POINTS:
            for i in range(action.group_dim):
                want = reference_generator(action, i, p)
                assert generator(action, i, p).tobytes() == want.tobytes()
                assert generator(opaque, i, p).tobytes() == want.tobytes()


def test_action_axioms_bit_identical_to_pairwise_reference():
    torus = _torus_action()
    params = [np.array([0.4, -1.0]), np.array([np.pi, 0.0]), np.array([-0.0, 2.5])]
    for action, prm in ((HOPF.action, ANGLES), (torus, params), (ROTATION, ANGLES)):
        for p in POINTS_2D if action is ROTATION else [*_SIGNED_ZERO_POINTS, *POINTS_4D]:
            got = check_action_axioms(action, prm, [p]).max_residual
            assert got == reference_action_axioms(action, prm, p)


def test_momentum_invariance_reads_moved_points_from_the_table(monkeypatch):
    table = pushforward_table(HOPF.action, ANGLES, POINTS_4D)
    want = check_momentum_invariance(HOPF.action, HOPF.mu, ANGLES, POINTS_4D)
    calls = []
    monkeypatch.setattr(actions, "apply_flow", lambda *args: calls.append(args))
    got = check_momentum_invariance(HOPF.action, HOPF.mu, ANGLES, POINTS_4D, pushforwards=table)
    assert calls == []
    assert got.max_residual == want.max_residual
    assert got.worst_point.coords.tobytes() == want.worst_point.coords.tobytes()


def test_isometry_examples():
    assert check_isometry(ROTATION, euclidean_metric(2), ANGLES, POINTS_2D).max_residual < 1e-9

    res = check_isometry(scaling_action(), euclidean_metric(2),
                         [np.array([np.log(2.0)])], POINTS_2D)
    assert not res.passed
    assert abs(res.max_residual - 3.0) < 1e-8  # pullback metric is 4I

    stretched = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    assert check_isometry(HOPF.action, stretched, ANGLES, POINTS_4D).passed


def test_symplectomorphism_examples():
    assert check_symplectomorphism(ROTATION, standard_symplectic(2), ANGLES, POINTS_2D).passed
    res = check_symplectomorphism(scaling_action(), standard_symplectic(2),
                                  [np.array([np.log(2.0)])], POINTS_2D)
    assert not res.passed
    assert abs(res.max_residual - 3.0) < 1e-8
    assert check_symplectomorphism(HOPF.action, standard_symplectic(4),
                                   ANGLES, POINTS_4D).passed


def test_momentum_residual_hopf_and_translation():
    res = momentum_residual(HOPF.action, HOPF.mu, HOPF.omega, [ChartPoint([1, 0, 0, 0])])
    assert res.max_residual < 1e-9

    lt = builtin("linear_translation")
    res = momentum_residual(lt.action, lt.mu, lt.omega, POINTS_4D)
    assert res.max_residual < 1e-10


def test_momentum_residual_wrong_sign():
    wrong = MomentumMap(
        components=(TensorField.scalar(lambda p: -0.5 * float(p.coords @ p.coords)),),
        beta=[0.5],
    )
    p = ChartPoint([0.6, 0.8, 0.0, 0.0])  # |z| = 1
    res = momentum_residual(HOPF.action, wrong, HOPF.omega, [p])
    assert abs(res.max_residual - 2.0) < 1e-8  # both sides flip, gap is 2|z|


def test_momentum_invariance_examples():
    assert check_momentum_invariance(HOPF.action, HOPF.mu, ANGLES, POINTS_4D).max_residual < 1e-12
    lt = builtin("linear_translation")
    assert check_momentum_invariance(lt.action, lt.mu, ANGLES, POINTS_4D).passed

    x1 = MomentumMap((TensorField.scalar(lambda p: float(p.coords[0])),), [0.0])
    res = check_momentum_invariance(ROTATION, x1, [np.array([np.pi / 2])],
                                    [ChartPoint([1.0, 0.0])])
    assert not res.passed
    assert abs(res.max_residual - 1.0) < 1e-12  # coordinate rotates away


def test_average_metric_rotation():
    g0 = TensorField.constant(np.diag([1.0, 4.0]))
    averaged = average_metric(g0, ROTATION, uniform_circle_quadrature(64))
    # average of cos^2 + 4 sin^2 over the circle is 2.5
    for p in POINTS_2D:
        np.testing.assert_allclose(eval_field(averaged, p), 2.5 * np.eye(2), atol=1e-6)
    assert check_isometry(ROTATION, averaged, ANGLES, POINTS_2D).max_residual < 1e-6


def test_average_metric_fixes_invariant_input():
    averaged = average_metric(euclidean_metric(2), ROTATION, uniform_circle_quadrature(64))
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[0]), np.eye(2), atol=1e-9)


def test_average_metric_small_perturbation():
    eps = 0.1
    g0 = TensorField.constant(np.eye(2) + eps * np.outer([1.0, 0.0], [1.0, 0.0]))
    averaged = average_metric(g0, ROTATION, uniform_circle_quadrature(64))
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[0]),
                               (1.0 + eps / 2.0) * np.eye(2), atol=1e-6)


def test_average_metric_cyclic_quadrature_exact():
    # quadrature on the 4-element subgroup makes the average exactly invariant
    # under that subgroup
    cyclic = tuple((np.array([2.0 * np.pi * i / 4]), 0.25) for i in range(4))
    averaged = average_metric(TensorField.constant(np.diag([1.0, 4.0])), ROTATION, cyclic)
    res = check_isometry(ROTATION, averaged, [np.array([np.pi / 2.0])], POINTS_2D)
    assert res.max_residual < 1e-9


def test_field_invariance_examples():
    assert check_field_invariance(standard_acs(4), HOPF.action, ANGLES, POINTS_4D).passed

    from symred.structures import omega_endomorphism
    A = omega_endomorphism(standard_symplectic(4),
                           TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])))
    assert check_field_invariance(A, HOPF.action, ANGLES, POINTS_4D).max_residual < 1e-6

    e12 = TensorField.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    res = check_field_invariance(e12, ROTATION, [np.array([np.pi / 2.0])], POINTS_2D)
    assert not res.passed
    assert res.max_residual > 0.5  # rotation conjugation moves the entry


def test_invariant_metric_gives_invariant_compatible_acs():
    # isometric + symplectic action implies the built J is invariant
    from symred.structures import build_compatible_triple
    g0 = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    triple = build_compatible_triple(standard_symplectic(4), g0)
    assert check_isometry(HOPF.action, g0, ANGLES, POINTS_4D).passed
    assert check_symplectomorphism(HOPF.action, standard_symplectic(4),
                                   ANGLES, POINTS_4D).passed
    res = check_field_invariance(triple.acs, HOPF.action, ANGLES, POINTS_4D)
    assert res.max_residual < 1e-6


def test_quadrature_weights_must_sum_to_one():
    g0 = TensorField.constant(np.eye(2))
    with pytest.raises(ValueError, match="quadrature weights sum to 0.7, expected 1"):
        average_metric(g0, ROTATION, ((np.array([0.0]), 0.7),))
    with pytest.raises(ValueError, match="quadrature weights sum to 0, expected 1"):
        average_metric(g0, ROTATION, ())
    # the one-factor torus rule is the 4-point circle rule: exact for cos^2
    averaged = average_metric(TensorField.constant(np.diag([1.0, 4.0])), ROTATION,
                              uniform_torus_quadrature(1, 4))
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[0]), 2.5 * np.eye(2), atol=1e-9)
