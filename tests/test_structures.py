"""Structure field checks and the compatible-triple construction."""

import numpy as np
import pytest

from symred.actions import average_metric, planar_rotation_action, uniform_torus_quadrature
from symred.cli import RunConfig, run
from symred.errors import NotSPDError, OddDimensionError
from symred.geometry import RowMap, TensorField, eval_field, fd_directional, sample_box
from symred.scenarios import builtin
from symred.structures import (
    CompatibleTriple,
    StructureCheckResult,
    build_compatible_triple,
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
    check_tolerance,
    standard_acs,
    standard_acs_matrix,
    standard_symplectic,
    standard_symplectic_matrix,
)

from util import (
    ASYMMETRIC_METRIC_HOPF_TEXT,
    one,
    oracle_compatible_acs,
    random_symplectic_metric_pair,
    reference_average_metric,
    reference_compatible_triple,
)

POINTS = sample_box(4, 6, radius=2.0, seed=3)
POINTS_2D = sample_box(2, 6, radius=2.0, seed=4)


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_is_no_tolerance(flag):
    # float(True) is 1.0, which once loosened the metric check 1e8-fold
    with pytest.raises(ValueError, match=r"^tolerance 'structures.metric' must be a number"):
        check_tolerance("structures.metric", flag)
    with pytest.raises(ValueError, match=r"^tolerance of check 'c' must be a number"):
        StructureCheckResult("c", 0.0, flag, None)
    with pytest.raises(ValueError, match="must be a number"):
        check_metric(TensorField.constant(np.eye(4)), POINTS, tol=flag)


def test_an_asymmetric_metric_fails_the_metric_check_by_its_asymmetry(tmp_path):
    # metric entry (1, 2) = 0.3, entry (2, 1) = 0: the symmetric part has
    # lambda_min 0.85, so no definiteness penalty applies and the metric
    # residual is the symmetry term alone, the max-abs asymmetry 0.3; Omega J
    # is the identity, so compatibility misses by the same entry
    path = tmp_path / "asymmetric_metric_hopf.scen"
    path.write_text(ASYMMETRIC_METRIC_HOPF_TEXT)
    report, code = run(RunConfig(str(path), suites=("structures",), seed=0))
    rows = {c.name: (c.max_residual, c.passed) for _, c in report.all_checks()}
    assert code == 1
    assert rows.pop("metric field") == rows.pop("compatibility") == (0.3, False)
    assert sorted(rows) == ["almost complex structure", "closedness of omega",
                            "symplectic field"]
    assert all(passed for _, passed in rows.values())


def test_check_metric_pass_and_fail():
    assert check_metric(TensorField.constant(np.eye(4)), POINTS).passed
    res = check_metric(TensorField.constant(np.eye(4)), POINTS)
    assert res.max_residual == 0.0
    assert check_metric(TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])), POINTS).passed
    skew = TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not check_metric(skew, POINTS_2D).passed


def test_check_symplectic_examples():
    res = check_symplectic_pointwise(standard_symplectic(4), POINTS)
    assert res.passed
    assert not check_symplectic_pointwise(TensorField.constant(np.zeros((2, 2))), POINTS_2D).passed
    scaled = TensorField.matrix(
        lambda p: (1.0 + p[0] ** 2) * standard_symplectic_matrix(2), 2)
    # det = (1 + x^2)^2 > 0 everywhere, so nondegenerate
    assert check_symplectic_pointwise(scaled, POINTS_2D).passed


def test_check_symplectic_nondegeneracy_is_scale_invariant():
    # det(0.1 * omega_std) = 1e-16 in dimension 16, yet the form is as well
    # conditioned as omega_std itself
    points = sample_box(16, 3, radius=1.0, seed=8)
    small = TensorField.constant(0.1 * standard_symplectic_matrix(16))
    res = check_symplectic_pointwise(small, points)
    assert res.passed and res.max_residual == 0.0
    assert not check_symplectic_pointwise(TensorField.constant(np.zeros((16, 16))), points).passed
    rank_deficient = standard_symplectic_matrix(16)
    rank_deficient[14:, 14:] = 0.0
    assert not check_symplectic_pointwise(TensorField.constant(rank_deficient), points).passed


def test_a_symplectic_field_that_is_not_square_is_refused():
    with pytest.raises(ValueError, match=r"^symplectic field must be square, got \(2, 3\)$"):
        check_symplectic_pointwise(TensorField.constant(np.zeros((2, 3))), POINTS_2D)


def test_a_triple_of_mismatched_shapes_is_refused():
    with pytest.raises(ValueError,
                       match=r"^omega shape \(4, 4\) does not match metric shape \(2, 2\)$"):
        build_compatible_triple(standard_symplectic(4), TensorField.constant(np.eye(2)))


def test_a_check_of_no_residuals_is_refused():
    with pytest.raises(ValueError, match="^c: no residuals to check$"):
        StructureCheckResult.from_samples("c", [], np.zeros((0, 2)), 1e-8)


def test_check_symplectic_rejects_odd_dimension():
    with pytest.raises(OddDimensionError):
        check_symplectic_pointwise(TensorField.constant(np.zeros((3, 3))), POINTS)


def test_check_closed_constant_and_counterexample():
    res = check_closed(standard_symplectic(4), POINTS)
    assert res.passed and res.max_residual < 1e-9

    def varying(p):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = p[2], -p[2]  # x2 dx1^dy1
        om[2, 3], om[3, 2] = 1.0, -1.0                  # dx2^dy2
        return om

    res = check_closed(TensorField.matrix(varying, 4), POINTS)
    # hand cyclic sum: d/dx2 of the (x1, y1) coefficient contributes 1
    assert not res.passed
    assert abs(res.max_residual - 1.0) < 1e-6


def test_check_closed_exact_form_cancels():
    # omega = d(x1 x2 dx3): the cyclic sum cancels nonzero FD partials
    def exact_form(p):
        om = np.zeros((4, 4))
        om[0, 2], om[2, 0] = p[1], -p[1]
        om[1, 2], om[2, 1] = p[0], -p[0]
        return om

    res = check_closed(TensorField.matrix(exact_form, 4), POINTS)
    assert res.passed
    assert res.max_residual < 1e-9


def test_check_closed_fails_on_nonfinite_partials():
    # (x1 dx2^dy2) is not closed; the finite 1e308 entry overflows the
    # difference stencil to NaN, which must fail the check, not vanish
    def form(p, huge):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = 1.0, -1.0
        om[2, 3], om[3, 2] = p[0], -p[0]
        om[0, 2], om[2, 0] = huge, -huge
        return om

    point = one([0.3, -0.2, 0.5, 0.1])
    res = check_closed(TensorField.matrix(lambda p: form(p, 0.0), 4), point)
    assert not res.passed and abs(res.max_residual - 1.0) < 1e-9
    with np.errstate(over="ignore", invalid="ignore"):
        res = check_closed(TensorField.matrix(lambda p: form(p, 1e308), 4), point)
    assert not res.passed
    assert np.isnan(res.max_residual)


def test_check_closed_top_degree_always_passes():
    field = TensorField.matrix(
        lambda p: (1.0 + p[0] ** 2) * standard_symplectic_matrix(2), 2)
    res = check_closed(field, POINTS_2D)
    assert res.passed and res.max_residual == 0.0  # no index triples in dim 2


def test_check_acs_examples():
    assert check_acs(standard_acs(4), POINTS).passed
    bad = check_acs(TensorField.constant(np.eye(2)), POINTS_2D)
    assert not bad.passed
    assert abs(bad.max_residual - np.linalg.norm(2.0 * np.eye(2))) < 1e-12
    half = check_acs(TensorField.constant(0.5 * standard_acs_matrix(4)), POINTS)
    assert abs(half.max_residual - 0.75 * 2.0) < 1e-12  # (3/4) sqrt(4)


def test_check_compatibility_examples():
    good = CompatibleTriple(standard_symplectic(2), TensorField.constant(np.eye(2)), standard_acs(2))
    assert check_compatibility(good, POINTS_2D).passed

    skewed = CompatibleTriple(
        standard_symplectic(4),
        TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])),
        standard_acs(4),
    )
    res = check_compatibility(skewed, POINTS)
    assert not res.passed
    assert abs(res.max_residual - 3.0) < 1e-12  # Omega J = I vs diag(1,1,4,4)

    doubled = CompatibleTriple(
        TensorField.constant(2.0 * standard_symplectic_matrix(4)),
        TensorField.constant(2.0 * np.eye(4)),
        standard_acs(4),
    )
    assert check_compatibility(doubled, POINTS).passed


def test_compatibility_scaling_invariance():
    # (c Omega) J - (c G) = c (Omega J - G): the verdict is scale independent
    rng = np.random.default_rng(9)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
    base = check_compatibility(triple, POINTS)
    assert base.passed
    for c in (0.5, 3.0, 17.0):
        scaled = CompatibleTriple(
            TensorField.constant(c * om),
            TensorField.matrix(lambda p, _c=c: _c * eval_field(triple.metric, one(p))[0], 4),
            triple.acs,
        )
        res = check_compatibility(scaled, POINTS)
        assert res.passed
        assert abs(res.max_residual - c * base.max_residual) <= 1e-12 * c + 1e-15


def test_build_triple_standard_case():
    triple = build_compatible_triple(standard_symplectic(4), TensorField.constant(np.eye(4)))
    p = POINTS[0]
    np.testing.assert_allclose(eval_field(triple.acs, one(p))[0],
                               -standard_symplectic_matrix(4), atol=1e-12)
    np.testing.assert_allclose(eval_field(triple.metric, one(p))[0], np.eye(4), atol=1e-12)


def test_build_triple_skewed_metric_recovers_standard_acs():
    # A = -inv(G0) Omega picks up the 1/4 factor on the second plane, and
    # the polar factor removes it
    g0 = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    triple = build_compatible_triple(standard_symplectic(4), g0)
    np.testing.assert_allclose(eval_field(triple.acs, POINTS[:1])[0],
                               standard_acs_matrix(4), atol=1e-12)
    np.testing.assert_allclose(eval_field(triple.metric, POINTS[:1])[0], np.eye(4), atol=1e-12)
    assert check_acs(triple.acs, POINTS).max_residual < 1e-9
    assert check_compatibility(triple, POINTS).max_residual < 1e-9


def test_build_triple_random_with_newton_polar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        om, g0 = random_symplectic_metric_pair(rng, 6)
        triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
        p = np.zeros(6)
        J = eval_field(triple.acs, one(p))[0]
        G = eval_field(triple.metric, one(p))[0]
        assert np.linalg.norm(J @ J + np.eye(6)) < 1e-9
        assert np.linalg.norm(om @ J - G) < 1e-9
        assert np.linalg.eigvalsh(G)[0] > 0
        np.testing.assert_allclose(J, oracle_compatible_acs(om, g0), atol=1e-8)


def test_build_triple_idempotent_metric_branch():
    rng = np.random.default_rng(13)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    first = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
    p = np.zeros((1, 4))
    second = build_compatible_triple(
        TensorField.constant(om),
        TensorField.constant(eval_field(first.metric, p)[0]),
    )
    np.testing.assert_allclose(eval_field(second.acs, p), eval_field(first.acs, p), atol=1e-9)


def test_build_triple_rejects_degenerate_omega():
    degenerate = TensorField.constant(np.zeros((2, 2)))
    triple = build_compatible_triple(degenerate, TensorField.constant(np.eye(2)))
    with pytest.raises(NotSPDError):
        eval_field(triple.acs, one([0.0, 0.0]))


def test_second_form_holds_for_built_triples():
    rng = np.random.default_rng(21)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
    # omega(u, v) = g(J u, v), i.e. J^T @ G == Omega
    for p in POINTS:
        Jm, G = eval_field(triple.acs, one(p))[0], eval_field(triple.metric, one(p))[0]
        assert np.max(np.abs(Jm.T @ G - eval_field(triple.omega, one(p))[0])) < 1e-9


def _stacked_omega(X):
    """The standard form on R^4 with its first plane scaled by x1: degenerate
    where x1 = 0."""
    Om = np.repeat(standard_symplectic_matrix(4)[np.newaxis], len(X), axis=0)
    Om[:, 0, 1], Om[:, 1, 0] = X[:, 0], -X[:, 0]
    return Om


def _stacked_metric(X):
    """An SPD metric varying over the chart, asymmetric where x2 > 1."""
    G = np.repeat(np.diag([1.0, 2.0, 1.5, 1.0])[np.newaxis], len(X), axis=0)
    G[:, 0, 0] += X[:, 0] ** 2
    G[:, 2, 3] = G[:, 3, 2] = 0.3 * np.sin(X[:, 1])
    G[:, 0, 1] += np.where(X[:, 1] > 1.0, 0.5, 0.0)
    return G


def _field_pairs():
    """(omega, g0) pairs: compiled scenario fields, random constants and
    fields varying over the chart."""
    rng = np.random.default_rng(21)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    hopf, noninvariant = builtin("hopf"), builtin("noninvariant_metric_hopf")
    varying = (TensorField.matrix(RowMap(_stacked_omega), 4, name="omega"),
               TensorField.matrix(RowMap(_stacked_metric), 4, name="g0"))
    return [(hopf.omega, noninvariant.metric),
            (TensorField.constant(om), TensorField.constant(g0)),
            varying, (hopf.omega, varying[1])]


def _bits(field, X):
    return eval_field(field, X).tobytes()


def test_stacked_fields_are_the_bits_of_the_per_point_references():
    # every row of the stacked fields, and of their stencils, is the bits of
    # building it at that point alone
    X = np.random.default_rng(8).uniform(0.2, 0.9, size=(25, 4))
    e = np.array([0.0, 1.0, 0.0, 0.0])
    for w, g0 in _field_pairs():
        triple, want = build_compatible_triple(w, g0), reference_compatible_triple(w, g0)
        for got_field, want_field in ((triple.acs, want.acs), (triple.metric, want.metric)):
            assert _bits(got_field, X) == _bits(want_field, X)
            assert _bits(got_field, X[3:4]) == _bits(want_field, X[3:4])
            assert fd_directional(got_field, X, e).tobytes() == \
                fd_directional(want_field, X, e).tobytes()
    hopf = builtin("hopf")
    rule = uniform_torus_quadrature(1, 6)
    for g0 in (builtin("noninvariant_metric_hopf").metric, _field_pairs()[2][1]):
        assert _bits(average_metric(g0, hopf.action, rule), X[:8]) == \
            _bits(reference_average_metric(g0, hopf.action, rule), X[:8])
    rotation = planar_rotation_action()
    plane = TensorField.matrix(lambda p: np.diag([1.0 + p[0] ** 2, 2.0]), 2)
    assert _bits(average_metric(plane, rotation, rule), X[:8, :2]) == \
        _bits(reference_average_metric(plane, rotation, rule), X[:8, :2])


def _error(call):
    with pytest.raises(Exception) as raised:  # noqa: PT011 - type and text are compared
        call()
    return type(raised.value), str(raised.value)


@pytest.mark.parametrize("rows", [[0, 1, 2, 3], [0, 3, 2, 1]])
def test_stacked_triple_raises_the_first_failing_points_error(rows):
    # omega is degenerate at point 1 (x1 = 0) and g0 asymmetric at point 3
    # (x2 > 1).  The batch takes the square root of g0 at every point before
    # it looks at omega, so the asymmetry is raised whichever point comes
    # first, where point by point the first point's error is.  Without the
    # asymmetric point, the batch raises the degenerate point's error
    X = np.array([[0.5, 0.2, 0.1, 0.3], [0.0, 0.4, 0.2, 0.1],
                  [0.7, -0.3, 0.5, 0.2], [0.6, 1.5, 0.1, 0.1]])[rows]
    w = TensorField.matrix(RowMap(_stacked_omega), 4)
    g0 = TensorField.matrix(RowMap(_stacked_metric), 4)
    got, want = build_compatible_triple(w, g0), reference_compatible_triple(w, g0)
    alone = _error(lambda: eval_field(want.acs, X))
    assert alone[0] is NotSPDError
    assert ("degenerate" in alone[1]) == (rows[1] == 1)
    for field in (got.acs, got.metric):
        assert _error(lambda: eval_field(field, X)) == (NotSPDError, "matrix is not symmetric")
    symmetric = X[[i for i, row in enumerate(rows) if row != 3]]
    expected = _error(lambda: eval_field(want.acs, symmetric))
    assert expected[0] is NotSPDError and "degenerate" in expected[1]
    for got_field, want_field in ((got.acs, want.acs), (got.metric, want.metric)):
        assert _error(lambda: eval_field(got_field, symmetric)) == \
            _error(lambda: eval_field(want_field, symmetric))
