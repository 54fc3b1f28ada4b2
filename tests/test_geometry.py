"""Chart primitives, finite differences and the dense linear-algebra kit."""

import numpy as np
import pytest

from symred.errors import DegenerateInputError, NonFiniteError, NotSPDError
from symred.geometry import (
    ChartPoint,
    FDConfig,
    TangentVector,
    TensorField,
    eval_field,
    fd_directional,
    fd_gradient,
    fd_jacobian,
    kernel_basis,
    orthonormalize,
    sample_ball,
    sqrt_inverse_spd,
)
from symred.scenarios import builtin
from symred.structures import standard_symplectic_matrix

from util import reference_sample_ball


def test_chart_point_validation():
    p = ChartPoint([1.0, 2.0])
    assert p.dim == 2
    with pytest.raises(NonFiniteError):
        ChartPoint([np.nan, 0.0])
    with pytest.raises(ValueError):
        TangentVector(p, [1.0, 2.0, 3.0])


def test_eval_constant_identity_field():
    field = TensorField.constant(np.eye(3))
    np.testing.assert_array_equal(eval_field(field, [0.4, -1.0, 2.0]), np.eye(3))


def test_eval_coordinate_dependent_field():
    field = TensorField.matrix(lambda p: np.diag([p.coords[0] ** 2, 1.0]), 2)
    np.testing.assert_allclose(eval_field(field, [2.0, 0.0]), np.diag([4.0, 1.0]))


def test_eval_standard_symplectic_on_r4():
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_array_equal(standard_symplectic_matrix(4), expected)


def test_eval_field_rejects_nonfinite_output():
    field = TensorField.scalar(lambda p: 1.0 / p.coords[0] if p.coords[0] else np.inf)
    with pytest.raises(NonFiniteError):
        eval_field(field, [0.0])


def test_eval_field_success_never_formats_the_point(monkeypatch):
    def refuse(self):
        raise AssertionError("point formatted on the success path")

    monkeypatch.setattr(ChartPoint, "__repr__", refuse)
    p = ChartPoint([0.3, -0.2, 0.5, 0.1])
    metric = builtin("noninvariant_metric_hopf").metric
    assert eval_field(metric, p)[0, 0] == 1.0 + 0.5 ** 2
    assert eval_field(TensorField.scalar(lambda q: 2.0), p) == 2.0


def test_eval_field_nan_message_names_field_and_point():
    field = TensorField.vector(lambda p: np.array([1.0, np.nan]), 2, name="probe")
    with pytest.raises(NonFiniteError) as excinfo:
        eval_field(field, [0.25, -1.5])
    assert str(excinfo.value) == (
        "field 'probe' at ChartPoint([ 0.25, -1.5 ]) contains non-finite entries")


# the one-at-a-time reference needs about 27k draws per point at dim 14
@pytest.mark.parametrize("dim, counts, seeds, radii", [
    (0, (0, 3), (0,), (2.0,)),
    (1, (1, 7), (0, 1, 9), (2.0, 0.7)),
    (2, (5, 40), (0, 3), (2.0, 0.7)),
    (3, (1, 25), (2, 11), (2.0, 0.7)),
    (8, (4, 12), (0, 5), (2.0, 0.7)),
    (14, (2,), (0, 5), (1.5,)),
])
def test_sample_ball_matches_one_at_a_time_reference(dim, counts, seeds, radii):
    for count in counts:
        for seed in seeds:
            for radius in radii:
                got = sample_ball(dim, count, radius, seed)
                want = reference_sample_ball(dim, count, radius, seed)
                assert len(got) == len(want) == count
                for a, b in zip(got, want):
                    assert a.coords.tobytes() == b.coords.tobytes()


def test_fd_jacobian_identity_and_linear():
    np.testing.assert_allclose(
        fd_jacobian(lambda p: p, ChartPoint([0.3, -0.7])), np.eye(2), atol=1e-11)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    D = fd_jacobian(lambda p: ChartPoint(A @ p.coords), ChartPoint([0.0, 0.0]))
    np.testing.assert_allclose(D, A, atol=1e-10)


def test_fd_jacobian_complex_square():
    # z^2 in interleaved coordinates; hand Jacobian [[2x, -2y], [2y, 2x]]
    def square(p):
        x, y = p.coords
        return ChartPoint([x * x - y * y, 2 * x * y])

    D = fd_jacobian(square, ChartPoint([1.0, 1.0]))
    np.testing.assert_allclose(D, [[2.0, -2.0], [2.0, 2.0]], atol=1e-8)


def test_fd_jacobian_affine_exact_across_steps():
    # at step 1e-6 the roundoff floor eps*|f|/step passes 1e-10 once the map
    # values reach O(1), so the full step range is only exercised where the
    # values stay small (linear maps at the origin, as in the worked example)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    p = ChartPoint(rng.standard_normal(3))
    for step in (1e-5, 1e-4, 1e-3):
        for order in (2, 4):
            D = fd_jacobian(lambda q: A @ q.coords + b, p, FDConfig(step, order))
            assert np.max(np.abs(D - A)) < 1e-10
    origin = ChartPoint(np.zeros(3))
    for step in (1e-6, 1e-5, 1e-4, 1e-3):
        for order in (2, 4):
            D = fd_jacobian(lambda q: A @ q.coords, origin, FDConfig(step, order))
            assert np.max(np.abs(D - A)) < 1e-10


def _wiggly(p):
    x, y = p.coords
    return np.array([np.sin(3.0 * x) * np.exp(y), np.cos(2.0 * y) + x ** 3])


def _wiggly_jacobian(p):
    x, y = p.coords
    return np.array([
        [3.0 * np.cos(3.0 * x) * np.exp(y), np.sin(3.0 * x) * np.exp(y)],
        [3.0 * x * x, -2.0 * np.sin(2.0 * y)],
    ])


@pytest.mark.parametrize("order,factor", [(2, 2.0), (4, 8.0)])
def test_fd_jacobian_convergence_order(order, factor):
    # halving the step must shrink the error by at least 2^(order - 1)
    p = ChartPoint([0.3, 0.2])
    exact = _wiggly_jacobian(p)
    errors = []
    for step in (2e-2, 1e-2, 5e-3):
        D = fd_jacobian(_wiggly, p, FDConfig(step, order))
        errors.append(np.max(np.abs(D - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        if fine < 1e-11:
            break
        assert coarse / fine >= factor


def test_fd_directional_examples():
    const = TensorField.constant(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(
        fd_directional(const, [0.1, 0.2], [1.0, 0.0]), np.zeros((2, 2)), atol=1e-12)

    product = TensorField.scalar(lambda p: p.coords[0] * p.coords[1])
    assert abs(fd_directional(product, [1.0, 2.0], [1.0, 0.0]) - 2.0) < 1e-10

    half_norm = TensorField.scalar(lambda p: 0.5 * float(p.coords @ p.coords))
    assert abs(fd_directional(half_norm, [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])) < 1e-10
    # oracle: the gradient is the point itself, so the derivative is x . dir
    np.testing.assert_allclose(fd_gradient(half_norm, [1.0, 0.0, 0.0, 0.0]),
                               [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_fd_directional_rejects_zero_direction():
    field = TensorField.scalar(lambda p: float(p.coords[0]))
    with pytest.raises(DegenerateInputError):
        fd_directional(field, [1.0], [0.0])


def test_kernel_basis_rank_one_row():
    # kernel of the momentum differential of the circle scenario at the pole
    basis = kernel_basis(np.array([[1.0, 0.0, 0.0, 0.0]]), 1e-8)
    assert len(basis) == 3
    for v in basis:
        assert abs(v[0]) < 1e-14
    gram = np.array([[u @ v for v in basis] for u in basis])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_kernel_basis_trivial_and_full():
    assert kernel_basis(np.eye(2), 1e-8) == []
    full = kernel_basis(np.zeros((2, 2)), 1e-8)
    assert len(full) == 2
    with pytest.raises(DegenerateInputError):
        kernel_basis(np.zeros((2, 2)), 1e-8, require_positive_rank=True)


def test_kernel_basis_residual_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n, rank = rng.integers(1, 6), rng.integers(2, 7), 0
        a = rng.standard_normal((m, n))
        basis = kernel_basis(a, 1e-8)
        smax = np.linalg.svd(a, compute_uv=False)[0]
        for v in basis:
            assert np.linalg.norm(a @ v) < 10 * 1e-8 * smax
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                assert abs(u @ v - (i == j)) < 1e-12


def test_orthonormalize_examples():
    already = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.eye(2))
    np.testing.assert_allclose(already, [[1.0, 0.0], [0.0, 1.0]], atol=1e-14)

    schmidt = orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 1.0])], np.eye(2))
    np.testing.assert_allclose(schmidt, [[1.0, 0.0], [0.0, 1.0]], atol=1e-14)

    scaled = orthonormalize([np.array([1.0, 0.0])], np.diag([4.0, 1.0]))
    np.testing.assert_allclose(scaled, [[0.5, 0.0]], atol=1e-14)


def test_orthonormalize_idempotent_and_drops_dependent():
    rng = np.random.default_rng(5)
    G = np.diag([1.0, 2.0, 5.0])
    vecs = [rng.standard_normal(3) for _ in range(3)]
    vecs.append(vecs[0] + vecs[1])  # dependent
    once = orthonormalize(vecs, G)
    assert len(once) == 3
    twice = orthonormalize(once, G)
    for a, b in zip(once, twice):
        assert np.max(np.abs(a - b)) < 1e-12
    gram = np.array([[u @ G @ v for v in once] for u in once])
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_orthonormalize_tangent_vectors():
    base = ChartPoint([0.0, 0.0])
    out = orthonormalize([TangentVector(base, [2.0, 0.0])], np.eye(2))
    assert isinstance(out[0], TangentVector)
    np.testing.assert_allclose(out[0].components, [1.0, 0.0])


def test_sqrt_inverse_spd_examples():
    np.testing.assert_allclose(sqrt_inverse_spd(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sqrt_inverse_spd(np.diag([4.0, 9.0])),
                               np.diag([0.5, 1.0 / 3.0]), atol=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
    s = sqrt_inverse_spd(m)
    np.testing.assert_allclose(s @ s @ m, np.eye(2), atol=1e-10)
    assert np.max(np.abs(s @ m - m @ s)) < 1e-10


def test_sqrt_inverse_spd_rejects_non_spd():
    with pytest.raises(NotSPDError):
        sqrt_inverse_spd(np.diag([1.0, -2.0]))
    with pytest.raises(NotSPDError):
        sqrt_inverse_spd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eval_field_shape_mismatch():
    wrong = TensorField.matrix(lambda p: np.zeros((3, 3)), 2)
    with pytest.raises(ValueError, match="shape"):
        eval_field(wrong, [0.0, 0.0])


def test_fd_config_validation():
    with pytest.raises(ValueError):
        FDConfig(step=0.0)
    with pytest.raises(ValueError):
        FDConfig(order=3)


def test_sqrt_commutes_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        b = rng.standard_normal((n, n))
        m = b @ b.T + 0.5 * np.eye(n)
        s = sqrt_inverse_spd(m)
        assert np.max(np.abs(s @ m - m @ s)) < 1e-10
        assert np.max(np.abs(s @ s @ m - np.eye(n))) < 1e-10
