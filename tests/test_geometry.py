"""Chart primitives, finite differences and the dense linear-algebra kit."""

import dataclasses
import math
import random

import numpy as np
import pytest

from symred.actions import GroupAction, generator
from symred.errors import DegenerateInputError, NonFiniteError, NotSPDError
from symred.exprlang import compile_exprs, parse_expression
from symred.geometry import (
    RowMap,
    TensorField,
    eval_field,
    fd_directional,
    fd_jacobian,
    kernel_basis,
    max_abs,
    as_points,
    sample_ball,
    sample_box,
    sample_stream,
    spd_sqrt,
    _row_max_abs,
    _row_norms,
)
from symred.scenarios import builtin
from symred.structures import standard_symplectic_matrix

from util import (
    ColumnRefused,
    gram_schmidt,
    one,
    reference_fd_jacobian,
    reference_fd_partials,
    reference_generator,
)


def test_chart_point_validation():
    # a point is a row of an (N, d) array: a non-finite row is refused, and
    # so is a flat vector, which is no stack of points
    assert as_points([[1.0, 2.0]]).shape == (1, 2)
    with pytest.raises(NonFiniteError, match="^chart point contains non-finite entries$"):
        as_points(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError, match=r"^points must be an \(N, d\) array, got shape \(2,\)$"):
        as_points(np.array([1.0, 2.0]))
    # a per-point callable reads a read-only copy of its row
    seen = []
    field = TensorField.vector(lambda p: seen.append(p) or p, 2)
    source = np.array([[1.0, 2.0]])
    assert eval_field(field, source).tolist() == [[1.0, 2.0]]
    source[0, 0] = 5.0
    assert seen[0].tolist() == [1.0, 2.0] and seen[0].ndim == 1
    with pytest.raises(ValueError):
        seen[0][0] = 0.0


def test_eval_constant_identity_field():
    field = TensorField.constant(np.eye(3))
    np.testing.assert_array_equal(eval_field(field, one([0.4, -1.0, 2.0]))[0], np.eye(3))


def test_a_field_of_rank_above_two_is_refused():
    # a field's rank is the length of its shape, stated nowhere else
    assert [len(TensorField.constant(np.ones(s)).shape) for s in ((), (2,), (2, 2))] == [0, 1, 2]
    for make in (lambda: TensorField((2, 2, 2), lambda p: np.zeros((2, 2, 2))),
                 lambda: TensorField.constant(np.zeros((2, 2, 2)))):
        with pytest.raises(ValueError, match=r"^field must be of rank <= 2, got shape \(2, 2, 2"):
            make()
    with pytest.raises(TypeError):
        TensorField(arity="matrix", shape=(2, 2), func=lambda p: np.eye(2))


def test_a_field_that_returns_too_few_values_is_refused():
    short = TensorField((2,), RowMap(lambda X: np.zeros((1, 2))))
    with pytest.raises(ValueError, match="^field '' returned 1 values for 2 points$"):
        eval_field(short, np.zeros((2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda f: eval_field(f, np.zeros((2, 2))), "returned 3 values for 2 points"),
    # an opaque map takes the stencil: 2 points and 4 rows per direction each
    (lambda f: fd_directional(f, np.zeros((2, 2)), np.eye(2)), "returned 19 values for 18 points"),
])
def test_a_field_that_returns_too_many_values_is_refused_by_count(call, message):
    # the count is checked before finiteness, so a non-finite extra value,
    # which names no point, raises the count error, not an IndexError
    extra = TensorField.scalar(RowMap(lambda X: np.append(np.ones(len(X)), np.nan)), "bad")
    with pytest.raises(ValueError, match=f"^field 'bad' {message}$"):
        call(extra)


def test_eval_coordinate_dependent_field():
    field = TensorField.matrix(lambda p: np.diag([p[0] ** 2, 1.0]), 2)
    np.testing.assert_allclose(eval_field(field, one([2.0, 0.0]))[0], np.diag([4.0, 1.0]))


def test_eval_standard_symplectic_on_r4():
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_array_equal(standard_symplectic_matrix(4), expected)


def test_eval_field_rejects_nonfinite_output():
    field = TensorField.scalar(lambda p: 1.0 / p[0] if p[0] else np.inf)
    with pytest.raises(NonFiniteError):
        eval_field(field, one([0.0]))


def test_eval_field_success_never_formats_the_point(monkeypatch):
    def refuse(self):
        raise AssertionError("point formatted on the success path")

    monkeypatch.setattr(np, "array2string", refuse)
    p = one([0.3, -0.2, 0.5, 0.1])
    metric = builtin("noninvariant_metric_hopf").metric
    assert eval_field(metric, p)[0, 0, 0] == 1.0 + 0.5 ** 2
    assert eval_field(TensorField.scalar(lambda q: 2.0), p)[0] == 2.0


def test_eval_field_nan_message_names_field_and_point():
    field = TensorField.vector(lambda p: np.array([1.0, np.nan]), 2, name="probe")
    with pytest.raises(NonFiniteError) as excinfo:
        eval_field(field, one([0.25, -1.5]))
    assert str(excinfo.value) == (
        "field 'probe' at point [ 0.25, -1.5 ] contains non-finite entries")


class _CountingStream(random.Random):
    """A stream that counts the draws a sampler reads from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


@pytest.mark.parametrize("dim, count", [(1, 7), (2, 20), (14, 20), (40, 5), (0, 6)])
def test_sample_ball_draws_count_q_normals_then_count_uniforms(dim, count):
    # q normals per point from ceil(q/2) Box-Muller pairs of uniforms, then
    # one uniform per point for the radii; the stream is passed in, not
    # copied.  A ball of dimension 0 has one point, drawn from nothing
    stream = _CountingStream(3)
    got = sample_ball(dim, count, 2.0, stream)
    assert stream.calls == (count * 2 * ((dim + 1) // 2) + count if dim else 0)
    assert got.shape == (count, dim)
    assert got.tobytes() == sample_ball(dim, count, 2.0, 3).tobytes()


def test_sample_ball_is_box_muller_on_the_stream():
    # the oracle: each point built from its uniforms in Python's math, which
    # may round log, cos, sin and sqrt another way than numpy's ufuncs by an ulp
    for dim in (1, 2, 3, 14):
        got = sample_ball(dim, 30, 1.5, random.Random(5))
        stream = random.Random(5)
        normals = []
        for _ in range(30):
            z = []
            for _ in range((dim + 1) // 2):
                u, v = stream.random(), stream.random()
                r = math.sqrt(-2.0 * math.log(1.0 - u))
                z += [r * math.cos(2.0 * math.pi * v), r * math.sin(2.0 * math.pi * v)]
            normals.append(np.array(z[:dim]))
        for x, z in zip(got, normals):
            want = 1.5 * stream.random() ** (1.0 / dim) * z / math.sqrt(z @ z)
            np.testing.assert_allclose(x, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 14])
def test_sample_ball_directions_have_the_sphere_moments(dim):
    # a uniform direction d on the sphere S^(q-1) has E[d] = 0 and
    # E[d d^T] = I/q, with Var(d_i) = 1/q, Var(d_i^2) = 2(q - 1)/(q^2 (q + 2))
    # and Var(d_i d_j) = 1/(q (q + 2)) for i != j; every sample mean lies
    # within five standard errors over N draws
    n = 20_000
    x = sample_ball(dim, n, 2.0, random.Random(22))
    d = x / np.linalg.norm(x, axis=1)[:, np.newaxis]
    assert np.abs(d.mean(axis=0)).max() <= 5.0 * math.sqrt(1.0 / dim / n)
    second = d.T @ d / n
    off = ~np.eye(dim, dtype=bool)
    diagonal_sd = math.sqrt(2.0 * (dim - 1) / (dim ** 2 * (dim + 2)) / n)
    assert np.abs(np.diag(second) - 1.0 / dim).max() <= 5.0 * diagonal_sd + 1e-12
    if dim > 1:
        assert np.abs(second[off]).max() <= 5.0 * math.sqrt(1.0 / (dim * (dim + 2)) / n)


@pytest.mark.parametrize("dim", [0, 1, 2, 14, 40])
def test_sample_ball_in_ball_and_seeded(dim):
    for radius in (2.0, 0.7):
        got = sample_ball(dim, 50, radius, 9)
        assert got.shape == (50, dim) and got.dtype == float
        # radius * u^(1/q) * z/|z| may round a few ulps past the sphere
        assert max(np.linalg.norm(x) for x in got) <= radius * (1.0 + 1e-12)
        again = sample_ball(dim, 50, radius, 9)
        assert got.tobytes() == again.tobytes()
        if dim:
            other = sample_ball(dim, 50, radius, 10)
            assert not np.array_equal(got[0], other[0])


def test_sample_box_is_one_seeded_array():
    # one stream read row by row: coordinate j of point i is radius * (2u - 1)
    # for the (i * dim + j)-th uniform, and consecutive draws from one stream
    # continue it
    got = sample_box(3, 7, radius=1.5, seed=4)
    stream = random.Random(4)
    want = np.array([[1.5 * (2.0 * stream.random() - 1.0) for _ in range(3)] for _ in range(7)])
    assert got.shape == (7, 3) and got.tobytes() == want.tobytes()
    stream = random.Random(4)
    assert np.vstack([sample_box(3, 2, 1.5, stream), sample_box(3, 5, 1.5, stream)]).tobytes() \
        == got.tobytes()
    assert as_points(got) is got
    assert as_points(list(got)).tobytes() == got.tobytes()
    assert sample_box(2, 0).shape == sample_ball(2, 0).shape == (0, 2)
    # but no points are not a stack of points: a check over them proves nothing
    for none in ([], sample_box(2, 0)):
        with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
            as_points(none)


def test_sample_box_bits_at_seed_0():
    # arithmetic on random.Random(0).random(), whose sequence Python keeps
    # across versions, so every platform draws these bits
    got = sample_box(3, 2, radius=2.0, seed=0)
    assert [x.hex() for x in got.ravel()] == [
        "0x1.60b01f314fb7cp+0", "0x1.082532f1f3834p+0", "-0x1.4556bbeb45a20p-2",
        "-0x1.edbd0e08d74b4p-1", "0x1.717337c65c1c0p-5", "-0x1.8563c829dd310p-2"]


@pytest.mark.parametrize("sample", [sample_box, sample_ball])
def test_a_seed_is_a_non_negative_integer(sample):
    # numpy integers are integers; any other type raises TypeError and a
    # negative integer ValueError
    assert sample(3, 4, 1.0, np.int64(3)).tobytes() == sample(3, 4, 1.0, 3).tobytes()
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        sample(3, 4, 1.0, -3)
    for seed in (1.5, "3", None):
        with pytest.raises(TypeError):
            sample(3, 4, 1.0, seed)
    assert sample_stream(5) is not sample_stream(5)
    stream = random.Random(5)
    assert sample_stream(stream) is stream


@pytest.mark.parametrize("dim", [1, 2, 14, 40])
def test_sample_ball_radial_distribution(dim):
    # uniform in the ball: P(|x| <= r 2^(-1/q)) = 1/2, binomial over N draws
    n, radius = 20_000, 2.0
    norms = np.array([np.linalg.norm(x) for x in sample_ball(dim, n, radius, 21)])
    inner = np.mean(norms <= radius * 2.0 ** (-1.0 / dim))
    assert abs(inner - 0.5) <= 5.0 * np.sqrt(0.25 / n)


def test_fd_jacobian_identity_and_linear():
    np.testing.assert_allclose(
        fd_jacobian(lambda p: p, one([0.3, -0.7]))[0], np.eye(2), atol=1e-11)
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    D = fd_jacobian(lambda p: A @ p, one([0.0, 0.0]))[0]
    np.testing.assert_allclose(D, A, atol=1e-10)


def test_fd_jacobian_of_no_points_is_refused():
    for f, X in ((RowMap(lambda X: 2 * X), np.zeros((0, 2))),
                 (RowMap(lambda X: X[:, :1]), np.zeros((0, 3)))):
        with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
            fd_jacobian(f, X)


def test_fd_jacobian_on_a_chart_of_no_coordinates_has_no_columns():
    # no direction to differentiate along: the values at the points, read
    # in the derivative batch, give the width of the (N, m, 0) stack
    for f in (lambda p: np.array([1.0, 2.0]), RowMap(lambda X: np.ones((len(X), 2)))):
        assert fd_jacobian(f, np.zeros((3, 0))).shape == (3, 2, 0)


def test_fd_jacobian_complex_square():
    # z^2 in interleaved coordinates; hand Jacobian [[2x, -2y], [2y, 2x]]
    def square(p):
        x, y = p
        return [x * x - y * y, 2 * x * y]

    D = fd_jacobian(square, one([1.0, 1.0]))[0]
    np.testing.assert_allclose(D, [[2.0, -2.0], [2.0, 2.0]], atol=1e-8)


def test_fd_jacobian_affine_exact_across_steps():
    # at step 1e-6 the roundoff floor eps*|f|/step passes 1e-10 once the map
    # values reach O(1), so the full step range is only exercised where the
    # values stay small (linear maps at the origin, as in the worked example)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    p = one(rng.standard_normal(3))
    for step in (1e-5, 1e-4, 1e-3):
        D = fd_jacobian(lambda q: A @ q + b, p, step=step)[0]
        assert np.max(np.abs(D - A)) < 1e-10
    origin = one(np.zeros(3))
    for step in (1e-6, 1e-5, 1e-4, 1e-3):
        D = fd_jacobian(lambda q: A @ q, origin, step=step)[0]
        assert np.max(np.abs(D - A)) < 1e-10


def _wiggly(p):
    x, y = p
    return np.array([np.sin(3.0 * x) * np.exp(y), np.cos(2.0 * y) + x ** 3])


def _wiggly_jacobian(p):
    x, y = p
    return np.array([
        [3.0 * np.cos(3.0 * x) * np.exp(y), np.sin(3.0 * x) * np.exp(y)],
        [3.0 * x * x, -2.0 * np.sin(2.0 * y)],
    ])


def test_fd_jacobian_convergence_order():
    # fourth order: halving the step must shrink the error by at least 2^3
    p = np.array([0.3, 0.2])
    exact = _wiggly_jacobian(p)
    errors = []
    for step in (2e-2, 1e-2, 5e-3):
        D = fd_jacobian(_wiggly, one(p), step=step)[0]
        errors.append(np.max(np.abs(D - exact)))
    for coarse, fine in zip(errors, errors[1:]):
        if fine < 1e-11:
            break
        assert coarse / fine >= 8.0


def _compiled(texts, names, shape=None):
    """A map compiled from expression texts, as scenario maps are."""
    program = compile_exprs([parse_expression(t) for t in texts], names)
    shape = (len(texts),) if shape is None else shape
    return RowMap(lambda X: np.array([program(v) for v in X.tolist()],
                                     dtype=float).reshape(len(X), *shape))


_SIGNED_ZERO_POINTS = ([0.0, -0.0, 0.5, -0.0], [-0.0, 0.0, -0.0, 0.0],
                       [0.3, -0.7, 1.1, -0.0], [-0.0, -0.0, -0.0, -0.0])
_MAP_TEXTS = ("x1*x2 - x3", "-(x1 + x4)", "x3/(2 + x1)", "cos(x1)*x2 + sin(x1)*x4",
              "exp(-x2)*x3^2", "x4*cos(x1)*x2 + sin(x1)*x4")
_X4 = ("x1", "x2", "x3", "x4")


def _section_jacobian(w):
    """The closed-form Jacobian of hopf's section (1, 0, w1, w2) / r with
    r = sqrt(1 + |w|^2)."""
    w = np.asarray(w, dtype=float)
    r = np.sqrt(1.0 + w @ w)
    z = np.array([1.0, 0.0, *w])
    return np.vstack([np.zeros((2, 2)), np.eye(2)]) / r - np.outer(z, w) / r ** 3


def test_fd_jacobian_bit_identical_to_per_column_reference():
    # the stencil of a map without exact derivatives is the per-column
    # reference, bit for bit; a compiled map's exact Jacobian is the closed
    # form to roundoff, each row the bits of its point alone
    compiled = _compiled(_MAP_TEXTS, _X4)
    opaque = lambda p: compiled.rows(one(p))[0]  # noqa: E731 - forces the per-point path
    hopf = builtin("hopf")
    for coords in _SIGNED_ZERO_POINTS:
        p = np.array(coords)
        want = reference_fd_jacobian(compiled, p)
        for chart_map in (compiled, opaque):
            got = fd_jacobian(chart_map, one(p))[0]
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
    W = np.array([[0.3, -0.7], [1.5, 0.2], [-0.0, 0.0], [-2.0, 1.1]])
    stacked = fd_jacobian(hopf.section, W)
    assert stacked.flags.c_contiguous
    for i, w in enumerate(W):
        assert stacked[i].tobytes() == fd_jacobian(hopf.section, w[np.newaxis])[0].tobytes()
        assert np.max(np.abs(stacked[i] - _section_jacobian(w))) < 1e-15
        assert np.max(np.abs(stacked[i] - reference_fd_jacobian(hopf.section, w))) < 1e-10


def test_fd_directional_bit_identical_to_reference():
    # the stencil of a field without exact derivatives is the per-direction
    # reference, bit for bit, along the coordinate axes or one direction; a
    # compiled field's are exact: the partials of half the squared norm are
    # the point, the x3-partial of 1 + x3^2 is 2 x3
    mu = builtin("euclidean_r2n").mu.field
    fields = [TensorField.scalar(_compiled(["x1*x2 - x3/(1 + x4^2)"], _X4, ())),
              TensorField.vector(lambda q, _f=mu.func: _f.rows(one(q))[0], 1)]
    metric = builtin("noninvariant_metric_hopf").metric
    opaque_metric = TensorField.matrix(lambda q, _f=metric.func: _f.rows(one(q))[0], 4)
    axes = np.eye(4)
    e3 = axes[2]
    for coords in _SIGNED_ZERO_POINTS:
        p = np.array(coords)
        for field in fields:
            got = fd_directional(field, one(p), axes)[0]
            assert got.tobytes() == reference_fd_partials(field, p).tobytes()
        assert np.array_equal(fd_directional(mu, one(p), axes), one(p)[np.newaxis])
        got = fd_directional(opaque_metric, one(p), e3)[0]
        want = reference_fd_jacobian(
            lambda q: eval_field(opaque_metric, one(q))[0].ravel(), p)[:, 2].reshape(4, 4)
        assert got.tobytes() == want.tobytes()
        want = np.zeros((4, 4))
        want[0, 0] = 2.0 * coords[2]
        assert np.array_equal(fd_directional(metric, one(p), e3)[0], want)
    # a stack of points is the stack of the single-point derivatives
    X = np.array(_SIGNED_ZERO_POINTS)
    stacked = fd_directional(metric, X, e3)
    for i, x in enumerate(X):
        assert stacked[i].tobytes() == fd_directional(metric, one(x), e3)[0].tobytes()
    stacked = fd_directional(fields[0], X, e3)
    assert stacked.shape == (len(X),)
    for i, x in enumerate(X):
        assert stacked[i] == fd_directional(fields[0], one(x), e3)[0]


def _failure(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)
    raise AssertionError("expected an error")


# (entries, point, step): where only one stencil row fails, the first error
# the stencil's one batch meets is the per-point path's
_FAILING_MAPS = [
    # non-finite values in the first rows, division by zero in a later one
    (("1e308*x1", "1/(x2 - 0.00001)"), [1.797693, 0.0], 1e-5),
    # division by zero in the second row, non-finite values in a later column
    (("1/(x1 - 0.00001)", "1e308*x2"), [0.0, 1.797693], 1e-5),
    # in one row, a non-finite entry then an entry that raises
    (("1e308*x1", "sqrt(x2 - 5)"), [1.797693, 0.0], 1e-5),
    # in one row, two entries that raise: the first one's error
    (("1/(x1 - x1)", "sqrt(x2 - 5)"), [0.5, 0.0], 1e-5),
    # a stencil point overflows
    (("x1", "x2"), [1.7e308, 0.0], 5e307),
]
# where several stencil rows fail differently, the batch's error: its
# program raises before any value is checked, while the per-point path
# meets the first row's non-finite value first
_BATCH_ERRORS = {("1e308*x1", "1/(x2 - 0.00001)"): (NonFiniteError, "division by zero")}


@pytest.mark.parametrize("texts, coords, step", _FAILING_MAPS)
def test_first_failing_stencil_row_raises_as_the_per_point_path(texts, coords, step):
    compiled = _compiled(texts, ("x1", "x2"))
    p = one(coords)
    with np.errstate(over="ignore"):
        alone = _failure(lambda: reference_fd_jacobian(compiled, p[0], step=step))
        assert alone[0] is NonFiniteError
        want = _BATCH_ERRORS.get(texts, alone)
        assert _failure(lambda: fd_jacobian(compiled, p, step=step)) == want
        assert _failure(lambda: fd_jacobian(lambda q: compiled.rows(one(q))[0], p,
                                            step=step)) == want


def test_nonfinite_stencil_messages():
    p = one([1.797693, 0.0])
    assert _failure(lambda: fd_jacobian(_compiled(("1e308*x1", "x2"), ("x1", "x2")), p)) \
        == (NonFiniteError, "map value contains non-finite entries")
    # a map returning a plain array is checked as a map value
    with np.errstate(over="ignore"):
        assert _failure(lambda: fd_jacobian(lambda q: 1e308 * q, p)) \
            == (NonFiniteError, "map value contains non-finite entries")
    field = TensorField.scalar(_compiled(["1e308*x1"], ("x1", "x2"), ()), name="big")
    want = (NonFiniteError, "field 'big' at point [1.797713, 0.      ] "
                            "contains non-finite entries")
    assert _failure(lambda: fd_directional(field, p, np.eye(2))) == want
    assert _failure(lambda: reference_fd_partials(field, p[0])) == want
    assert _failure(lambda: fd_directional(field, p, [1.0, 0.0])) == want


class _Recorder:
    """A per-point callable that logs the point (and group parameters) of
    every call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, *args):
        self.calls.append([*args[-1], *(args[0] if len(args) == 2 else ())])
        return self.fn(*args)


def test_per_point_callables_run_once_per_stencil_row_in_order():
    # on a successful batch the wrapped callable sees exactly the points the
    # per-column reference evaluates, each once, in the same order: the
    # point itself, then its stencil
    p = np.array([0.3, -0.7, 1.1, 0.2])
    hopf = builtin("hopf")

    def rotate(a, q):
        c, s = np.cos(a[0]), np.sin(a[0])
        return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, s, c]]) @ q

    cases = [  # (callable, derivative, its reference, stencil rows)
        (lambda q: np.array([q[0] * q[1], np.sin(q[2])]),
         lambda f: fd_jacobian(f, one(p))[0], lambda f: reference_fd_jacobian(f, p), 1 + 16),
        (lambda q: float(q @ q),
         lambda f: fd_directional(TensorField.scalar(f), one(p), np.eye(4))[0],
         lambda f: reference_fd_partials(TensorField.scalar(f), p), 1 + 16),
        (rotate,
         lambda f: generator(GroupAction(1, f), one(p))[0, :, 0],
         lambda f: reference_generator(GroupAction(1, f), 0, p), 1 + 4),
        (lambda w: np.array([1.0, 0.0, *w]) / np.sqrt(1.0 + w @ w),
         lambda f: fd_jacobian(dataclasses.replace(hopf, section=f).section, one(p[:2]))[0],
         lambda f: reference_fd_jacobian(f, p[:2]), 1 + 8),
    ]
    for fn, derivative, reference, rows in cases:
        got, want = _Recorder(fn), _Recorder(fn)
        assert derivative(got).tobytes() == reference(want).tobytes()
        assert got.calls == want.calls and len(got.calls) == rows


def test_per_point_batch_raises_the_first_error_its_pass_meets():
    # the first stencil row overflows and the last one raises.  The batch
    # calls the map on every row, then checks the values, so the raising
    # row decides the error; the per-point path stops at the first row
    def chart_map(q):
        if q[0] < 1.797693 - 1.5e-5:
            raise ZeroDivisionError("a later row")
        return 1e308 * q

    p = np.array([1.797693])
    with np.errstate(over="ignore"):
        assert _failure(lambda: reference_fd_jacobian(chart_map, p)) \
            == (NonFiniteError, "map value contains non-finite entries")
        assert _failure(lambda: fd_jacobian(chart_map, one(p))) \
            == (ZeroDivisionError, "a later row")


def test_row_field_of_the_wrong_shape_fails_like_one_point():
    # a batch is checked against the declared shape as eval_field checks a value
    wide = TensorField.scalar(RowMap(lambda X: np.zeros((len(X), 2))), name="wide")
    want = _failure(lambda: eval_field(wide, one([0.0, 0.0])))
    assert want == (ValueError, "field 'wide' returned shape (2,), declared ()")
    assert _failure(lambda: fd_directional(wide, one([0.0, 0.0]), np.eye(2))) == want
    assert _failure(lambda: fd_directional(wide, one([0.0, 0.0]), [1.0, 0.0])) == want


def test_fd_directional_examples():
    const = TensorField.constant(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(
        fd_directional(const, one([0.1, 0.2]), [1.0, 0.0])[0], np.zeros((2, 2)), atol=1e-12)

    product = TensorField.scalar(lambda p: p[0] * p[1])
    assert abs(fd_directional(product, one([1.0, 2.0]), [1.0, 0.0])[0] - 2.0) < 1e-10

    half_norm = TensorField.scalar(lambda p: 0.5 * float(p @ p))
    e1 = one([1.0, 0.0, 0.0, 0.0])
    assert abs(fd_directional(half_norm, e1, [0.0, 1.0, 0.0, 0.0])[0]) < 1e-10
    # oracle: the gradient is the point itself, so the derivative is x . dir
    np.testing.assert_allclose(fd_directional(half_norm, e1, np.eye(4)), e1, atol=1e-10)


def test_fd_directional_rejects_zero_direction():
    field = TensorField.scalar(lambda p: float(p[0]))
    with pytest.raises(DegenerateInputError):
        fd_directional(field, one([1.0]), [0.0])


def test_fd_directional_refuses_no_directions():
    # a derivative along no direction is refused as a zero direction is,
    # on a compiled field as on a per-point one, before any evaluation
    X = sample_box(4, 3, 1.0, 5)
    for field in (builtin("hopf").metric, TensorField.matrix(lambda p: np.eye(4), 4)):
        with pytest.raises(DegenerateInputError,
                           match="^directional derivative needs a nonzero direction$"):
            fd_directional(field, X, np.zeros((4, 0)))


def test_kernel_basis_rank_one_row():
    # kernel of the momentum differential of the circle scenario at the pole
    basis = kernel_basis(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert basis.shape == (4, 3)
    assert np.max(np.abs(basis[0])) < 1e-14
    np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)


def test_kernel_basis_trivial_and_full():
    assert kernel_basis(np.eye(2)).shape == (2, 0)
    full = kernel_basis(np.zeros((2, 2)))
    assert full.shape == (2, 2)
    np.testing.assert_allclose(full.T @ full, np.eye(2), atol=1e-14)
    # no rows at all: every direction is in the kernel
    assert kernel_basis(np.zeros((0, 3))).shape == (3, 3)


def test_kernel_basis_residual_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, n, rank = rng.integers(1, 6), rng.integers(2, 7), 0
        a = rng.standard_normal((m, n))
        basis = kernel_basis(a)
        smax = np.linalg.svd(a, compute_uv=False)[0]
        assert basis.shape == (n, max(n - m, 0))
        for j in range(basis.shape[1]):
            assert np.linalg.norm(a @ basis[:, j]) < 10 * 1e-8 * smax
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(basis.shape[1])), initial=0.0) < 1e-12


def test_orthonormalize_examples():
    already = gram_schmidt(np.eye(2), np.eye(2))
    np.testing.assert_allclose(already, np.eye(2), atol=1e-14)

    schmidt = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    np.testing.assert_allclose(schmidt, np.eye(2), atol=1e-14)

    scaled = gram_schmidt(np.array([[1.0], [0.0]]), np.diag([4.0, 1.0]))
    np.testing.assert_allclose(scaled, [[0.5], [0.0]], atol=1e-14)

    assert gram_schmidt(np.zeros((3, 0)), np.eye(3)).shape == (3, 0)


def test_orthonormalize_idempotent_and_refuses_dependent():
    rng = np.random.default_rng(5)
    G = np.diag([1.0, 2.0, 5.0])
    vecs = rng.standard_normal((3, 3)).T  # three random columns
    once = gram_schmidt(vecs, G)
    assert once.shape == (3, 3)
    twice = gram_schmidt(once, G)
    assert np.max(np.abs(once - twice)) < 1e-12
    np.testing.assert_allclose(once.T @ G @ once, np.eye(3), atol=1e-12)
    with pytest.raises(ColumnRefused):  # a fourth column in their span
        gram_schmidt(np.column_stack([vecs, vecs[:, 0] + vecs[:, 1]]), G)


def test_sqrt_inverse_spd_examples():
    np.testing.assert_allclose(spd_sqrt(np.eye(3))[1], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(spd_sqrt(np.diag([4.0, 9.0]))[1],
                               np.diag([0.5, 1.0 / 3.0]), atol=1e-14)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
    s = spd_sqrt(m)[1]
    np.testing.assert_allclose(s @ s @ m, np.eye(2), atol=1e-10)
    assert np.max(np.abs(s @ m - m @ s)) < 1e-10


def test_sqrt_inverse_spd_rejects_non_spd():
    with pytest.raises(NotSPDError):
        spd_sqrt(np.diag([1.0, -2.0]))
    with pytest.raises(NotSPDError):
        spd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eval_field_shape_mismatch():
    wrong = TensorField.matrix(lambda p: np.zeros((3, 3)), 2)
    with pytest.raises(ValueError, match="shape"):
        eval_field(wrong, one([0.0, 0.0]))


def test_fd_jacobian_step_validation():
    p = one([0.3, 0.2])
    for step in (0.0, -1e-5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            fd_jacobian(_wiggly, p, step=step)


def test_sqrt_commutes_property():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        b = rng.standard_normal((n, n))
        m = b @ b.T + 0.5 * np.eye(n)
        s = spd_sqrt(m)[1]
        assert np.max(np.abs(s @ m - m @ s)) < 1e-10
        assert np.max(np.abs(s @ s @ m - np.eye(n))) < 1e-10


def test_row_reductions_are_the_bits_of_the_per_row_calls():
    # a (1, k) @ (k, 1) product per row is np.linalg.norm's dot product;
    # np.linalg.norm(axis=1) adds in another order and differs in the last bit
    rng = np.random.default_rng(13)
    for k in (0, 1, 3, 16, 256, 1000):
        V = rng.standard_normal((40, k))
        V[0] = -0.0
        norms, maxes = _row_norms(V), _row_max_abs(V)
        for i, v in enumerate(V):
            assert norms[i].tobytes() == np.float64(np.linalg.norm(v)).tobytes()
            assert maxes[i].tobytes() == np.float64(max_abs(v)).tobytes()
    stack = rng.standard_normal((7, 3, 5))
    stack[2, 1, 4] = np.nan
    maxes = _row_max_abs(stack)
    assert np.isnan(maxes[2]) and np.isnan(max_abs(stack[2]))
    assert [maxes[i] for i in (0, 1, 3)] == [max_abs(stack[i]) for i in (0, 1, 3)]
