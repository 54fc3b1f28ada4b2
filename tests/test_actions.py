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
    momentum_jacobian,
    momentum_residual,
    planar_rotation_action,
    pushforward_table,
    uniform_torus_quadrature,
)
from symred.errors import NonFiniteError
from symred.exprlang import compile_exprs, parse_expression
from symred.geometry import RowMap, TensorField, eval_field, sample_box
from symred.reduction import lift_frames
from symred.scenarios import _row_map, builtin, compile_scenario, parse_scenario
from symred.structures import standard_acs, standard_symplectic

from util import (
    TORUS_T2_TEXT,
    one,
    reference_action_axioms,
    reference_central_difference,
    reference_fd_generator,
    reference_omega_endomorphism,
)

HOPF = builtin("hopf")
POINTS_4D = sample_box(4, 5, radius=1.5, seed=6)
POINTS_2D = sample_box(2, 5, radius=1.5, seed=6)
ROTATION = planar_rotation_action()
ANGLES = [np.array([a]) for a in (0.4, np.pi / 3, np.pi, 5.0)]


def scaling_action():
    return GroupAction(
        group_dim=1,
        flow=lambda a, p: np.exp(a[0]) * p,
    )


def translation_action():
    return GroupAction(
        group_dim=1,
        flow=lambda a, p: p + a[0] * np.array([1.0, 0.0]),
    )


def test_generator_hopf_clockwise():
    xi = generator(HOPF.action, one([1.0, 0.0, 0.0, 0.0]))[0]
    np.testing.assert_allclose(xi, [[0.0], [-1.0], [0.0], [0.0]], atol=1e-10)


def test_generator_translation_and_zero():
    xi = generator(translation_action(), one([0.3, -0.5]))[0]
    np.testing.assert_allclose(xi, [[1.0], [0.0]], atol=1e-10)
    # the generator of the zero algebra vector is zero
    zero = generator(HOPF.action, one([1.0, 0.0, 0.0, 0.0]))[0] @ [0.0]
    np.testing.assert_allclose(zero, np.zeros(4), atol=1e-12)


def test_generator_linear_in_algebra_vector():
    # the generators, one column per basis element, applied to an algebra
    # vector xi give d/dt flow(t * xi, p) at t = 0, differenced along xi
    torus = GroupAction(
        group_dim=2,
        flow=lambda a, p: p + np.array([a[0], a[1], a[0] + a[1], 0.0]),
    )
    p = one([0.0, 0.0, 0.0, 0.0])
    for a, b in ((1.0, 2.0), (-0.5, 0.25)):
        along = reference_central_difference(
            lambda t: apply_flow(torus, t * np.array([a, b]), p)[0])
        np.testing.assert_allclose(along, generator(torus, p)[0] @ [a, b], atol=1e-9)


def test_generator_overflow_raises_nonfinite():
    # every flow value is finite, but the difference stencil overflows
    huge = GroupAction(
        group_dim=1,
        flow=lambda a, p: p + 1e308 * (1.0 + a[0]),
    )
    with pytest.raises(NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
        generator(huge, one([0.0, 0.0]))


def test_generator_rejects_flow_changing_dimension():
    widening = GroupAction(
        group_dim=1,
        flow=lambda a, p: np.append(p, a[0]),
    )
    with pytest.raises(ValueError, match="generator length"):
        generator(widening, one([0.0, 0.0]))


def test_per_row_flow_on_no_points_is_refused():
    # a per-row flow has no row to read the width of the moved points from;
    # no points are refused before any flow runs, per-row or compiled alike
    shift = GroupAction(1, lambda a, p: p + a[0])
    none = np.zeros((0, 2))
    for call in (lambda: apply_flow(shift, [0.3], none),
                 lambda: generator(shift, none),
                 lambda: apply_flow(HOPF.action, [0.3], np.zeros((0, 4))),
                 lambda: generator(HOPF.action, np.zeros((0, 4)))):
        with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
            call()


def test_action_axioms_check():
    assert check_action_axioms(pushforward_table(HOPF.action, ANGLES, POINTS_4D)).passed
    assert check_action_axioms(pushforward_table(ROTATION, ANGLES, POINTS_2D)).passed


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


_SIGNED_ZERO_POINTS = [np.array(c) for c in ([0.0, -0.0, 0.5, -0.0], [-0.0, 0.0, -0.0, 0.0],
                                             [0.3, -0.7, 1.1, -0.0])]


def test_generator_bit_identical_to_per_sample_reference():
    # a flow without exact derivatives takes the stencil, the per-sample
    # reference's bits; a compiled flow's exact generator of the clockwise
    # rotation is (x2, -x1, x4, -x3), each row the bits of its point alone
    for action in (HOPF.action, _torus_action()):
        opaque = GroupAction(action.group_dim,
                             lambda a, p, _f=action: apply_flow(_f, a, one(p))[0])
        for p in _SIGNED_ZERO_POINTS:
            for i in range(action.group_dim):
                want = reference_fd_generator(opaque, i, p)
                assert generator(opaque, one(p))[0, :, i].tobytes() == want.tobytes()
                if action is not HOPF.action:
                    assert generator(action, one(p))[0, :, i].tobytes() == want.tobytes()
    X = np.vstack([_SIGNED_ZERO_POINTS, POINTS_4D])
    stacked = generator(HOPF.action, X)
    assert np.array_equal(stacked[:, :, 0], X[:, [1, 0, 3, 2]] * [1.0, -1.0, 1.0, -1.0])
    for i, x in enumerate(X):
        assert stacked[i].tobytes() == generator(HOPF.action, one(x))[0].tobytes()


def test_action_axioms_bit_identical_to_pairwise_reference():
    torus = _torus_action()
    params = [np.array([0.4, -1.0]), np.array([np.pi, 0.0]), np.array([-0.0, 2.5])]
    for action, prm in ((HOPF.action, ANGLES), (torus, params), (ROTATION, ANGLES)):
        for p in POINTS_2D if action is ROTATION else [*_SIGNED_ZERO_POINTS, *POINTS_4D]:
            got = check_action_axioms(pushforward_table(action, prm, [p])).max_residual
            assert got == reference_action_axioms(action, prm, p)


def test_momentum_invariance_reads_moved_points_from_the_table(monkeypatch):
    table = pushforward_table(HOPF.action, ANGLES, POINTS_4D)
    # the oracle: mu at each point moved by its own flow call
    want = max(np.max(np.abs(eval_field(HOPF.mu.field, apply_flow(HOPF.action, a, one(p)))
                             - eval_field(HOPF.mu.field, one(p))))
               for a in ANGLES for p in POINTS_4D)
    calls = []
    for name in ("apply_flow", "_flow"):
        monkeypatch.setattr(actions, name, lambda *args: calls.append(args))
    got = check_momentum_invariance(HOPF.mu, table)
    assert calls == []
    assert got.max_residual == want
    assert got.passed


def test_a_table_of_no_parameters_is_refused():
    # a check over no group element used to pass with residual 0.0 where
    # one parameter fails
    scen = builtin("noninvariant_metric_hopf")
    points = sample_box(4, 5, 1.5, 0)
    res = check_isometry(scen.metric, pushforward_table(scen.action, [0.7], points))
    assert not res.passed
    assert res.max_residual > 1.0
    # every check reads its parameters from a table, so the table refuses none
    with pytest.raises(ValueError, match="^pushforward table has no group parameters"):
        pushforward_table(scen.action, [], points)


def test_a_nonfinite_group_parameter_is_refused_as_one():
    # it used to be blamed on a chart point: the rows (point, parameter)
    # that the flow reads were refused as chart points
    point = np.full((1, 4), 0.5)
    want = "^group parameter \\[nan\\] of a group of dimension k = 1 contains non-finite entries$"
    for call in (lambda: pushforward_table(HOPF.action, [np.nan], point),
                 lambda: pushforward_table(HOPF.action, [[0.3], [np.nan]], point),
                 lambda: apply_flow(HOPF.action, [np.nan], point),
                 lambda: lift_frames(HOPF, [[0.1, 0.2]], [np.nan])):
        with pytest.raises(NonFiniteError, match=want):
            call()


def test_a_group_parameter_of_another_length_is_refused_as_one():
    # a parameter row of two entries at k = 1 used to fail in numpy's
    # broadcast, naming no parameter
    point = np.full((1, 4), 0.5)
    want = "^group parameter \\[0.3, 0.4\\] has length 2, expected k = 1$"
    for call in (lambda: pushforward_table(HOPF.action, [[0.3, 0.4]], point),
                 lambda: apply_flow(HOPF.action, [0.3, 0.4], point),
                 lambda: lift_frames(HOPF, [[0.1, 0.2]], [[0.3, 0.4]])):
        with pytest.raises(ValueError, match=want):
            call()
    # a scalar is a parameter of one entry wherever a group parameter is
    # read: at k = 1 it moves by that angle, and at k = 2 it is refused
    assert lift_frames(HOPF, [[0.1, 0.2]], [0.3]).fiber_params.tolist() == [[0.3]]
    torus = compile_scenario(parse_scenario(TORUS_T2_TEXT))
    want = "^group parameter \\[0.3\\] has length 1, expected k = 2$"
    for call in (lambda: pushforward_table(torus.action, [0.3], np.zeros((1, 8))),
                 lambda: apply_flow(torus.action, 0.3, np.zeros((1, 8))),
                 lambda: lift_frames(torus, [[0.1, 0.2, 0.3, 0.4]], [0.3])):
        with pytest.raises(ValueError, match=want):
            call()


def test_momentum_residual_checks_every_generator():
    # a torus on R^4, t1 rotating (x1, x2) and t2 rotating (x3, x4), with
    # mu = (|z1|^2 / 2, |z2|^2 / 2); scaling the second component breaks the
    # condition only for the second generator
    flow = RowMap(lambda Z: np.stack([
        np.cos(Z[:, 4]) * Z[:, 0] + np.sin(Z[:, 4]) * Z[:, 1],
        np.cos(Z[:, 4]) * Z[:, 1] - np.sin(Z[:, 4]) * Z[:, 0],
        np.cos(Z[:, 5]) * Z[:, 2] + np.sin(Z[:, 5]) * Z[:, 3],
        np.cos(Z[:, 5]) * Z[:, 3] - np.sin(Z[:, 5]) * Z[:, 2]], axis=1))
    torus = GroupAction(2, flow)

    def mu(scale):
        return MomentumMap(
            TensorField.vector(lambda p: [0.5 * float(p[0] ** 2 + p[1] ** 2),
                                          scale * 0.5 * float(p[2] ** 2 + p[3] ** 2)],
                               2),
            [0.5, 0.5 * scale])

    exact = momentum_residual(torus, mu(1.0), standard_symplectic(4), POINTS_4D)
    assert exact.passed
    assert exact.max_residual < 1e-9
    scaled = momentum_residual(torus, mu(0.6), standard_symplectic(4), POINTS_4D)
    assert not scaled.passed
    # the second generator misses d mu_2 by 0.4 |(x3, x4)|
    np.testing.assert_allclose(scaled.max_residual,
                               0.4 * np.max(np.hypot(POINTS_4D[:, 2], POINTS_4D[:, 3])))


def test_isometry_examples():
    rotations = pushforward_table(ROTATION, ANGLES, POINTS_2D)
    assert check_isometry(TensorField.constant(np.eye(2)), rotations).max_residual < 1e-9

    doubling = pushforward_table(scaling_action(), [np.array([np.log(2.0)])], POINTS_2D)
    res = check_isometry(TensorField.constant(np.eye(2)), doubling)
    assert not res.passed
    assert abs(res.max_residual - 3.0) < 1e-8  # pullback metric is 4I

    stretched = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    assert check_isometry(stretched, pushforward_table(HOPF.action, ANGLES, POINTS_4D)).passed


def test_symplectomorphism_examples():
    rotations = pushforward_table(ROTATION, ANGLES, POINTS_2D)
    assert check_symplectomorphism(standard_symplectic(2), rotations).passed
    doubling = pushforward_table(scaling_action(), [np.array([np.log(2.0)])], POINTS_2D)
    res = check_symplectomorphism(standard_symplectic(2), doubling)
    assert not res.passed
    assert abs(res.max_residual - 3.0) < 1e-8
    assert check_symplectomorphism(standard_symplectic(4),
                                   pushforward_table(HOPF.action, ANGLES, POINTS_4D)).passed


def test_momentum_residual_hopf_and_translation():
    res = momentum_residual(HOPF.action, HOPF.mu, HOPF.omega, one([1, 0, 0, 0]))
    assert res.max_residual < 1e-9

    lt = builtin("linear_translation")
    res = momentum_residual(lt.action, lt.mu, lt.omega, POINTS_4D)
    assert res.max_residual < 1e-10


def test_momentum_residual_wrong_sign():
    wrong = MomentumMap(
        field=TensorField.vector(lambda p: [-0.5 * float(p @ p)], 1),
        beta=[0.5],
    )
    p = one([0.6, 0.8, 0.0, 0.0])  # |z| = 1
    res = momentum_residual(HOPF.action, wrong, HOPF.omega, p)
    assert abs(res.max_residual - 2.0) < 1e-8  # both sides flip, gap is 2|z|


def test_momentum_map_stack_raises_its_first_failing_rows_error():
    # mu is one program over its entries, run once on the stack, so a
    # failing stack raises the error of its first failing operation: row 0
    # fails only in the second entry, row 1 already in the first, which the
    # program runs first
    program = compile_exprs([parse_expression("sqrt(x1)"), parse_expression("sqrt(x2)")],
                            ("x1", "x2", "x3", "x4"), "mu")
    mu = MomentumMap(TensorField.vector(_row_map(program, (2,), "t2 mu"), 2, name="t2 mu"),
                     [1.0, 1.0])
    X = np.array([[1.0, -2.0, 0.0, 0.0], [-3.0, 1.0, 0.0, 0.0]])
    for fn in (lambda mu, X: eval_field(mu.field, X), momentum_jacobian):
        for rows in (X, X[1:]):
            with pytest.raises(NonFiniteError, match=r"^sqrt of negative value -3\.0$"):
                fn(mu, rows)
        with pytest.raises(NonFiniteError, match=r"^sqrt of negative value -2\.0$"):
            fn(mu, X[:1])


def test_momentum_map_is_one_vector_field_of_the_level_shape():
    with pytest.raises(ValueError, match=r"momentum map of shape \(1,\) but level vector "
                                         r"of shape \(2,\)"):
        MomentumMap(HOPF.mu.field, [0.5, 0.5])
    with pytest.raises(ValueError, match="momentum map of shape"):
        MomentumMap(TensorField.scalar(lambda p: 0.5), [0.5])
    assert MomentumMap(HOPF.mu.field, 0.5).beta.tolist() == [0.5]


def test_momentum_invariance_examples():
    hopf = pushforward_table(HOPF.action, ANGLES, POINTS_4D)
    assert check_momentum_invariance(HOPF.mu, hopf).max_residual < 1e-12
    lt = builtin("linear_translation")
    assert check_momentum_invariance(lt.mu, pushforward_table(lt.action, ANGLES, POINTS_4D)).passed

    x1 = MomentumMap(TensorField.vector(lambda p: p[:1], 1), [0.0])
    quarter = pushforward_table(ROTATION, [np.array([np.pi / 2])], one([1.0, 0.0]))
    res = check_momentum_invariance(x1, quarter)
    assert not res.passed
    assert abs(res.max_residual - 1.0) < 1e-12  # coordinate rotates away


def test_average_metric_rotation():
    g0 = TensorField.constant(np.diag([1.0, 4.0]))
    averaged = average_metric(g0, ROTATION, uniform_torus_quadrature(1, 64))
    # average of cos^2 + 4 sin^2 over the circle is 2.5
    for p in POINTS_2D:
        np.testing.assert_allclose(eval_field(averaged, one(p))[0], 2.5 * np.eye(2), atol=1e-6)
    assert check_isometry(averaged, pushforward_table(ROTATION, ANGLES, POINTS_2D)
                          ).max_residual < 1e-6


def test_average_metric_fixes_invariant_input():
    averaged = average_metric(TensorField.constant(np.eye(2)), ROTATION,
                              uniform_torus_quadrature(1, 64))
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[:1])[0], np.eye(2), atol=1e-9)


def test_average_metric_small_perturbation():
    eps = 0.1
    g0 = TensorField.constant(np.eye(2) + eps * np.outer([1.0, 0.0], [1.0, 0.0]))
    averaged = average_metric(g0, ROTATION, uniform_torus_quadrature(1, 64))
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[:1])[0],
                               (1.0 + eps / 2.0) * np.eye(2), atol=1e-6)


def test_average_metric_cyclic_quadrature_exact():
    # quadrature on the 4-element subgroup makes the average exactly invariant
    # under that subgroup
    cyclic = tuple((np.array([2.0 * np.pi * i / 4]), 0.25) for i in range(4))
    averaged = average_metric(TensorField.constant(np.diag([1.0, 4.0])), ROTATION, cyclic)
    res = check_isometry(averaged, pushforward_table(ROTATION, [np.array([np.pi / 2.0])],
                                                     POINTS_2D))
    assert res.max_residual < 1e-9


def test_field_invariance_examples():
    hopf = pushforward_table(HOPF.action, ANGLES, POINTS_4D)
    assert check_field_invariance(standard_acs(4), hopf).passed

    A = reference_omega_endomorphism(standard_symplectic(4),
                                     TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])))
    assert check_field_invariance(A, hopf).max_residual < 1e-6

    e12 = TensorField.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
    quarter = pushforward_table(ROTATION, [np.array([np.pi / 2.0])], POINTS_2D)
    res = check_field_invariance(e12, quarter)
    assert not res.passed
    assert res.max_residual > 0.5  # rotation conjugation moves the entry


def test_invariant_metric_gives_invariant_compatible_acs():
    # isometric + symplectic action implies the built J is invariant
    from symred.structures import build_compatible_triple
    g0 = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    triple = build_compatible_triple(standard_symplectic(4), g0)
    hopf = pushforward_table(HOPF.action, ANGLES, POINTS_4D)
    assert check_isometry(g0, hopf).passed
    assert check_symplectomorphism(standard_symplectic(4), hopf).passed
    res = check_field_invariance(triple.acs, hopf)
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
    np.testing.assert_allclose(eval_field(averaged, POINTS_2D[:1])[0], 2.5 * np.eye(2), atol=1e-9)
