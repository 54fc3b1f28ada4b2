"""Almost-complex-mapping and Cauchy-Riemann residuals.

The residuals run stacked over an (N, 2n) array of points; each must be the
bits of the per-point references in util.py, and a failing stack must raise
what the first failing point raises alone.
"""

import numpy as np
import pytest

from symred import cli
from symred.errors import NonFiniteError, NotStandardStructureError, OddDimensionError
from symred.geometry import (
    ChartPoint,
    RowMap,
    TensorField,
    as_points,
    fd_jacobian,
    sample_box,
)
from symred.holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from symred.structures import standard_acs, standard_acs_matrix

from util import reference_almost_complex_residual, reference_cauchy_riemann_residual

J2 = standard_acs(2)


def charted(func, source_acs=J2, target_acs=J2):
    return ChartedMap(func, source_acs, target_acs)


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
    with pytest.raises(OddDimensionError, match="^source dimension 3 is odd$"):
        ChartedMap(lambda p: p, TensorField.constant(np.eye(3)), J2)


def test_charted_map_dimensions_are_its_structures_sizes():
    # the dimensions are read off the structures, so none can disagree with them
    with pytest.raises(TypeError):
        ChartedMap(2, 2, lambda p: p, J2, J2)
    with pytest.raises(ValueError, match=r"^target acs must be square, got shape \(2, 4\)$"):
        ChartedMap(lambda p: p, J2, TensorField.matrix(lambda p: np.zeros((2, 4)), 2, 4))
    with pytest.raises(ValueError, match=r"^source acs must be square, got shape \(2,\)$"):
        ChartedMap(lambda p: p, TensorField.constant([1.0, 0.0]), J2)


def test_equivalence_of_residuals():
    # with standard structures both residuals vanish together; the norms
    # differ by at most 2 sqrt(n), n the source dimension
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

    for p in map(ChartPoint, sample_box(2, 4, radius=0.8, seed=9)):
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


def test_overflowing_map_fails_as_its_image():
    # both residuals read the image before the Jacobian, so an overflowing
    # image fails in each as the chart point it would be, not as a map value
    blowup = charted(lambda p: np.array([np.exp(1e3 * p.coords[0]), p.coords[1]]))
    for residual in (almost_complex_residual, cauchy_riemann_residual):
        with np.errstate(over="ignore"), pytest.raises(
                NonFiniteError, match="^chart point contains non-finite entries$"):
            residual(blowup, ChartPoint([0.9, 0.0]))


def _coords(points):
    return as_points(points)


def _assert_matches_references(cm, points):
    """Both stacked residuals against the per-point references, bit for bit,
    on the whole stack, on stacks of one and on single points."""
    X = _coords(points)
    for stacked, reference in ((almost_complex_residual, reference_almost_complex_residual),
                               (cauchy_riemann_residual, reference_cauchy_riemann_residual)):
        want = np.array([reference(cm, p) for p in points])
        got = stacked(cm, X)
        assert got.shape == (len(points),)
        assert got.tobytes() == want.tobytes(), stacked.__name__
        for i, x in enumerate(X[:3]):
            assert stacked(cm, X[i:i + 1]).tobytes() == want[i:i + 1].tobytes()
            one = stacked(cm, ChartPoint(x))
            assert isinstance(one, float) and one == want[i]
            assert stacked(cm, x) == want[i]


@pytest.mark.parametrize("samples", [20, 80])
@pytest.mark.parametrize("seed", range(4))
def test_reference_maps_match_per_point_residuals(seed, samples):
    # the suite's maps at the suite's sample points
    points = sample_box(2, samples, radius=1.5, seed=seed + 2)
    for name, func, _ in cli._REFERENCE_MAPS:
        _assert_matches_references(ChartedMap(func, J2, J2), points)


def test_per_point_maps_match_per_point_residuals():
    # opaque callables, wrapped once by as_row_map
    points = sample_box(2, 20, radius=1.5, seed=7)
    for func in (square, conjugate, exp_map):
        _assert_matches_references(charted(func), points)


def _plane_mixing(p):
    x1, y1, x2, y2 = p.coords
    return np.array([x1 * x2 + y2, y1 - x2 ** 2, np.sin(x1) + y2, x2 * y1 - x1])


def _product_and_square(p):
    # (z1, z2) -> (z1 z2, z1^2 + z2), holomorphic
    x1, y1, x2, y2 = p.coords
    return np.array([x1 * x2 - y1 * y2, x1 * y2 + y1 * x2,
                     x1 * x1 - y1 * y1 + x2, 2.0 * x1 * y1 + y2])


def _product(p):
    return _product_and_square(p)[:2]


@pytest.mark.parametrize("func, target_dim", [(_plane_mixing, 4), (_product_and_square, 4),
                                              (_product, 2)])
def test_four_dimensional_maps_match_per_point_residuals(func, target_dim):
    # two source planes, and two target planes but for the product: the
    # Cauchy-Riemann defects read every (target plane, source plane) block
    # of the Jacobian stack
    cm = ChartedMap(func, standard_acs(4), standard_acs(target_dim))
    _assert_matches_references(cm, sample_box(4, 20, radius=1.2, seed=11))


def test_point_dependent_target_structure_matches_per_point_residual():
    # J conjugated by a shear that moves with the image point, read at the
    # image of every sample
    def conjugated(q):
        A = np.eye(4) + np.diag([0.3 * q.coords[0], 0.0, 0.2 * q.coords[3]], 1)
        return A @ standard_acs_matrix(4) @ np.linalg.inv(A)

    target = TensorField.matrix(conjugated, 4, name="sheared J")
    cm = ChartedMap(_plane_mixing, standard_acs(4), target)
    points = sample_box(4, 20, radius=1.2, seed=12)
    want = np.array([reference_almost_complex_residual(cm, p) for p in points])
    assert almost_complex_residual(cm, _coords(points)).tobytes() == want.tobytes()
    with pytest.raises(NotStandardStructureError, match="target structure"):
        cauchy_riemann_residual(cm, _coords(points))


def _first_error(cm, points, reference):
    for p in points:
        try:
            reference(cm, p)
        except Exception as exc:  # the error the per-point loop stops on
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def _assert_same_first_error(cm, points, kind, message):
    """Both residuals and their per-point references raise ``message``."""
    X = _coords(points)
    for stacked, reference in (
            (almost_complex_residual, reference_almost_complex_residual),
            (cauchy_riemann_residual, reference_cauchy_riemann_residual)):
        assert _first_error(cm, points, reference) == (kind, message)
        with pytest.raises(kind) as caught:
            stacked(cm, X)
        assert str(caught.value) == message


POINTS = sample_box(2, 9, radius=1.5, seed=4)
MIDDLE, LATER = _coords(POINTS)[4], _coords(POINTS)[7]


def _square_rows(X):
    return np.stack([X[:, 0] ** 2 - X[:, 1] ** 2, 2.0 * X[:, 0] * X[:, 1]], axis=1)


def test_map_nan_at_a_middle_sample_fails_as_its_chart_point():
    # the stencil around the sample is finite, its image is not: both
    # residuals read the image before the Jacobian and fail on it as a chart
    # point, one fault named one way
    def rows(X):
        at_middle = (X == MIDDLE).all(axis=1)[:, np.newaxis]
        return np.where(at_middle, np.nan, _square_rows(X))

    _assert_same_first_error(charted(RowMap(rows)), POINTS, NonFiniteError,
                             "chart point contains non-finite entries")


def test_first_failing_sample_raises_though_a_later_stencil_fails_first_in_the_batch():
    # the stacked Jacobian meets the later sample's broken stencil before the
    # target structure meets the middle sample's image; the point-by-point
    # replay finds the middle sample first, as the per-point loop does
    image = ChartPoint(_square_rows(MIDDLE[np.newaxis])[0])

    def rows(X):
        near_later = (np.abs(X - LATER) < 1e-4).all(axis=1) & (X != LATER).any(axis=1)
        return np.where(near_later[:, np.newaxis], np.nan, _square_rows(X))

    def target(q):
        broken = (q.coords == image.coords).all()
        return np.full((2, 2), np.nan) if broken else standard_acs_matrix(2)

    cm = charted(RowMap(rows), target_acs=TensorField.matrix(target, 2, name="J at image"))
    _assert_same_first_error(cm, POINTS, NonFiniteError,
                             f"field 'J at image' at {image} contains non-finite entries")
    with pytest.raises(NonFiniteError, match="map value"):
        almost_complex_residual(cm, LATER)


def test_target_structure_nan_at_a_middle_image_names_that_image():
    image = ChartPoint(_square_rows(MIDDLE[np.newaxis])[0])

    def target(q):
        broken = (q.coords == image.coords).all()
        return np.full((2, 2), np.nan) if broken else standard_acs_matrix(2)

    cm = charted(RowMap(_square_rows), target_acs=TensorField.matrix(target, 2, name="J at image"))
    _assert_same_first_error(cm, POINTS, NonFiniteError,
                             f"field 'J at image' at {image} contains non-finite entries")


def test_non_standard_target_structure_raises_on_a_stack():
    tilted = TensorField.constant(np.array([[0.0, -2.0], [0.5, 0.0]]))
    cm = charted(square, target_acs=tilted)
    with pytest.raises(NotStandardStructureError, match="^target structure is not the coordinate J$"):
        cauchy_riemann_residual(cm, _coords(POINTS))
    assert _first_error(cm, POINTS, reference_cauchy_riemann_residual) == (
        NotStandardStructureError, "target structure is not the coordinate J")
    # the almost-complex-mapping residual takes any structure
    want = np.array([reference_almost_complex_residual(cm, p) for p in POINTS])
    assert almost_complex_residual(cm, _coords(POINTS)).tobytes() == want.tobytes()
