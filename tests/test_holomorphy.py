"""Almost-complex-mapping and Cauchy-Riemann residuals."""

import numpy as np
import pytest

from symred.errors import NonFiniteError, NotStandardStructureError, OddDimensionError
from symred.geometry import ChartPoint, RowMap, TensorField, fd_jacobian, sample_box
from symred.holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from symred.structures import standard_acs

J2 = standard_acs(2)


def charted(func, source_acs=J2, target_acs=J2):
    return ChartedMap(2, 2, func, source_acs, target_acs)


def square(p):
    x, y = p.coords
    return np.array([x * x - y * y, 2.0 * x * y])


def conjugate(p):
    x, y = p.coords
    return np.array([x, -y])


def exp_map(p):
    x, y = p.coords
    return np.array([np.exp(x) * np.cos(y), np.exp(x) * np.sin(y)])


def test_square_map_is_holomorphic():
    assert almost_complex_residual(charted(square), ChartPoint([1.0, 1.0])) < 1e-8


def test_conjugation_residual_value():
    # D = diag(1, -1), so DJ - JD has two entries of size 2: norm 2 sqrt(2)
    res = almost_complex_residual(charted(conjugate), ChartPoint([0.3, -0.8]))
    assert abs(res - 2.0 * np.sqrt(2.0)) < 1e-8


def test_identity_map_residual_vanishes():
    res = almost_complex_residual(charted(lambda p: p), ChartPoint([2.0, -1.0]))
    assert res < 1e-10


def test_cauchy_riemann_exponential():
    assert cauchy_riemann_residual(charted(exp_map), ChartPoint([0.0, 0.0])) < 1e-8


def test_cauchy_riemann_reflection_value():
    # d a/dx - d b/dy = 1 - (-1) = 2
    res = cauchy_riemann_residual(charted(conjugate), ChartPoint([0.5, 0.5]))
    assert abs(res - 2.0) < 1e-10


def test_cauchy_riemann_constant_map():
    res = cauchy_riemann_residual(charted(lambda p: np.array([1.0, -2.0])),
                                  ChartPoint([0.4, 0.1]))
    assert res == 0.0


def test_cauchy_riemann_fails_on_nonfinite_jacobian():
    # the values are finite, but the 1e308 offset overflows the difference
    # stencil; a NaN defect must not read as holomorphic
    shifted = charted(lambda p: np.array([p.coords[0] + 1e308, p.coords[1]]))
    with np.errstate(over="ignore", invalid="ignore"):
        res = cauchy_riemann_residual(shifted, ChartPoint([0.3, -0.8]))
    assert not res <= 1e-8


def test_cauchy_riemann_requires_standard_structures():
    tilted = TensorField.constant(np.array([[0.0, -2.0], [0.5, 0.0]]))
    with pytest.raises(NotStandardStructureError):
        cauchy_riemann_residual(charted(square, source_acs=tilted), ChartPoint([0.0, 0.0]))


def test_charted_map_rejects_odd_dimensions():
    with pytest.raises(OddDimensionError):
        ChartedMap(3, 2, lambda p: p, J2, J2)


def test_equivalence_of_residuals():
    # with standard structures both residuals vanish together; the norms
    # differ by at most 2 sqrt(source_dim)
    maps = [square, conjugate, exp_map, lambda p: p]
    for func in maps:
        for p in sample_box(2, 6, radius=1.2, seed=18):
            acm = almost_complex_residual(charted(func), p)
            cr = cauchy_riemann_residual(charted(func), p)
            assert (acm <= 1e-6) == (cr <= 1e-6)
            assert acm <= 2.0 * np.sqrt(2.0) * cr + 1e-9
            assert cr <= acm + 1e-9


def test_composition_residual_bound():
    # plumbing sanity: residual of a composition of holomorphic maps stays
    # within the chain-rule bound on the tested points
    def composed(p):
        return square(ChartPoint(exp_map(p)))

    for p in sample_box(2, 4, radius=0.8, seed=9):
        res_comp = almost_complex_residual(charted(composed), p)
        d_outer = fd_jacobian(lambda q: square(q), ChartPoint(exp_map(p)))
        res_inner = almost_complex_residual(charted(exp_map), p)
        res_outer = almost_complex_residual(charted(square), ChartPoint(exp_map(p)))
        bound = np.linalg.norm(d_outer, 2) * res_inner + res_outer * 1.0
        assert res_comp <= bound + 1e-6


def test_charted_map_holds_a_row_map():
    # a per-point map is wrapped once; its stencil is one row batch with the
    # values, and so the residuals, of calling it point by point
    cm = charted(exp_map)
    assert isinstance(cm.chart_map, RowMap)
    rows = RowMap(lambda X: np.stack([np.exp(X[:, 0]) * np.cos(X[:, 1]),
                                      np.exp(X[:, 0]) * np.sin(X[:, 1])], axis=1))
    for p in sample_box(2, 5, radius=1.5, seed=3):
        assert almost_complex_residual(charted(rows), p) == almost_complex_residual(cm, p)
        assert cauchy_riemann_residual(charted(rows), p) == cauchy_riemann_residual(cm, p)


def test_overflowing_map_fails_as_a_map_value():
    blowup = charted(lambda p: np.array([np.exp(1e3 * p.coords[0]), p.coords[1]]))
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="map value contains non-finite entries"):
        almost_complex_residual(blowup, ChartPoint([0.9, 0.0]))
