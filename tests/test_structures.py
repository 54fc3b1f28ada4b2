"""Structure field checks and the compatible-triple construction."""

import numpy as np
import pytest

from symred.errors import NotSPDError, OddDimensionError
from symred.geometry import ChartPoint, TensorField, eval_field, sample_box
from symred.structures import (
    CompatibleTriple,
    build_compatible_triple,
    check_acs,
    check_closed,
    check_compatibility,
    check_compatibility_second_form,
    check_metric,
    check_symplectic_pointwise,
    euclidean_metric,
    omega_endomorphism,
    standard_acs,
    standard_acs_matrix,
    standard_symplectic,
    standard_symplectic_matrix,
)

from util import oracle_compatible_acs, random_symplectic_metric_pair

POINTS = sample_box(4, 6, radius=2.0, seed=3)
POINTS_2D = sample_box(2, 6, radius=2.0, seed=4)


def test_check_metric_pass_and_fail():
    assert check_metric(euclidean_metric(4), POINTS).passed
    res = check_metric(euclidean_metric(4), POINTS)
    assert res.max_residual == 0.0
    assert check_metric(TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0])), POINTS).passed
    skew = TensorField.constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not check_metric(skew, POINTS_2D).passed


def test_check_symplectic_examples():
    res = check_symplectic_pointwise(standard_symplectic(4), POINTS)
    assert res.passed
    assert not check_symplectic_pointwise(TensorField.constant(np.zeros((2, 2))), POINTS_2D).passed
    scaled = TensorField.matrix(
        lambda p: (1.0 + p.coords[0] ** 2) * standard_symplectic_matrix(2), 2)
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


def test_check_symplectic_rejects_odd_dimension():
    with pytest.raises(OddDimensionError):
        check_symplectic_pointwise(TensorField.constant(np.zeros((3, 3))), POINTS)


def test_check_closed_constant_and_counterexample():
    res = check_closed(standard_symplectic(4), POINTS)
    assert res.passed and res.max_residual < 1e-9

    def varying(p):
        om = np.zeros((4, 4))
        om[0, 1], om[1, 0] = p.coords[2], -p.coords[2]  # x2 dx1^dy1
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
        om[0, 2], om[2, 0] = p.coords[1], -p.coords[1]
        om[1, 2], om[2, 1] = p.coords[0], -p.coords[0]
        return om

    res = check_closed(TensorField.matrix(exact_form, 4), POINTS)
    assert res.passed
    assert res.max_residual < 1e-9


def test_check_closed_top_degree_always_passes():
    field = TensorField.matrix(
        lambda p: (1.0 + p.coords[0] ** 2) * standard_symplectic_matrix(2), 2)
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
    good = CompatibleTriple(standard_symplectic(2), euclidean_metric(2), standard_acs(2))
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
            TensorField.matrix(lambda p, _c=c: _c * eval_field(triple.metric, p), 4),
            triple.acs,
        )
        res = check_compatibility(scaled, POINTS)
        assert res.passed
        assert abs(res.max_residual - c * base.max_residual) <= 1e-12 * c + 1e-15


def test_build_triple_standard_case():
    triple = build_compatible_triple(standard_symplectic(4), euclidean_metric(4))
    p = POINTS[0]
    np.testing.assert_allclose(eval_field(triple.acs, p),
                               -standard_symplectic_matrix(4), atol=1e-12)
    np.testing.assert_allclose(eval_field(triple.metric, p), np.eye(4), atol=1e-12)


def test_build_triple_skewed_metric_recovers_standard_acs():
    # per-plane endomorphism picks up the 1/4 factor, the polar factor removes it
    g0 = TensorField.constant(np.diag([1.0, 1.0, 4.0, 4.0]))
    A = omega_endomorphism(standard_symplectic(4), g0)
    block = standard_symplectic_matrix(2)
    expected_a = np.zeros((4, 4))
    expected_a[:2, :2] = -block
    expected_a[2:, 2:] = -0.25 * block
    np.testing.assert_allclose(eval_field(A, POINTS[0]), expected_a, atol=1e-12)

    triple = build_compatible_triple(standard_symplectic(4), g0)
    np.testing.assert_allclose(eval_field(triple.acs, POINTS[0]),
                               standard_acs_matrix(4), atol=1e-12)
    np.testing.assert_allclose(eval_field(triple.metric, POINTS[0]), np.eye(4), atol=1e-12)
    assert check_acs(triple.acs, POINTS).max_residual < 1e-9
    assert check_compatibility(triple, POINTS).max_residual < 1e-9


def test_build_triple_random_with_newton_polar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        om, g0 = random_symplectic_metric_pair(rng, 6)
        triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
        p = ChartPoint(np.zeros(6))
        J = eval_field(triple.acs, p)
        G = eval_field(triple.metric, p)
        assert np.linalg.norm(J @ J + np.eye(6)) < 1e-9
        assert np.linalg.norm(om @ J - G) < 1e-9
        assert np.linalg.eigvalsh(G)[0] > 0
        np.testing.assert_allclose(J, oracle_compatible_acs(om, g0), atol=1e-8)


def test_build_triple_idempotent_metric_branch():
    rng = np.random.default_rng(13)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    first = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
    p = ChartPoint(np.zeros(4))
    second = build_compatible_triple(
        TensorField.constant(om),
        TensorField.constant(eval_field(first.metric, p)),
    )
    np.testing.assert_allclose(eval_field(second.acs, p), eval_field(first.acs, p), atol=1e-9)


def test_build_triple_rejects_degenerate_omega():
    degenerate = TensorField.constant(np.zeros((2, 2)))
    triple = build_compatible_triple(degenerate, euclidean_metric(2))
    with pytest.raises(NotSPDError):
        eval_field(triple.acs, ChartPoint([0.0, 0.0]))


def test_second_form_holds_for_built_triples():
    rng = np.random.default_rng(21)
    om, g0 = random_symplectic_metric_pair(rng, 4)
    triple = build_compatible_triple(TensorField.constant(om), TensorField.constant(g0))
    assert check_compatibility_second_form(triple, POINTS).max_residual < 1e-9
