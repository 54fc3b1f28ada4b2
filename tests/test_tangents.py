"""Exact first derivatives of compiled maps against sympy.

Every compiled scenario map is differentiated in forward mode
(``Program.tangents``).  Here each Jacobian is compared with sympy's
derivative of the same parsed expressions, evaluated at 30 digits at the
same float points: the flow with respect to the point and the group
parameters, the generators, the section, each momentum component and
each matrix field of every built-in and of euclidean_r2n at 8 planes, the
holomorphy suite's reference maps, and random expressions of the grammar,
the last within a running error bound of the forward pass.  sympy and
hypothesis are test-only dependencies; without sympy the module is skipped.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from symred import cli  # noqa: E402
from symred.actions import generator, pushforward_table  # noqa: E402
from symred.errors import NonFiniteError  # noqa: E402
from symred.exprlang import (  # noqa: E402
    BinOp,
    Call,
    Coord,
    Neg,
    Num,
    Pow,
    Program,
    FUNCTIONS,
    compile_exprs,
    parse_expression,
)
from symred.geometry import (  # noqa: E402
    RowMap,
    fd_directional,
    fd_gradient,
    fd_jacobian,
    sample_ball,
    sample_box,
)
from symred.scenarios import (  # noqa: E402
    _row_map,
    builtin_names,
    builtin_text,
    compile_scenario,
    parse_scenario,
)

_SYMPY_FUNCTIONS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "sqrt": sp.sqrt}
_SYMPY_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: a / b}
RTOL = 1e-13


def to_sympy(e, symbols):
    """The sympy expression of a parsed expression, its literals exact."""
    kind = type(e)
    if kind is Num:
        return sp.Rational(e.value)
    if kind is Coord:
        return symbols[e.name]
    if kind is Neg:
        return -to_sympy(e.arg, symbols)
    if kind is Pow:
        return to_sympy(e.base, symbols) ** e.power
    if kind is Call:
        return _SYMPY_FUNCTIONS[e.fn](to_sympy(e.arg, symbols))
    return _SYMPY_OPS[e.op](to_sympy(e.left, symbols), to_sympy(e.right, symbols))


def _sympy_matrix(exprs, names):
    """The sympy column of the entries ``exprs`` and the symbols of ``names``."""
    symbols = {name: sp.Symbol(name, real=True) for name in names}
    return sp.Matrix([to_sympy(e, symbols) for e in exprs]), [symbols[n] for n in names]


def _at_points(entries, args, points):
    """The (N, len(entries)) values of sympy expressions over the symbols
    ``args`` at the rows of ``points``, evaluated at 30 digits at the exact
    values of the float coordinates."""
    f = sp.lambdify(args, list(entries), "mpmath")
    with mpmath.workdps(30):
        return np.array([[float(v) for v in f(*map(mpmath.mpf, p.tolist()))] for p in points])


def sympy_values(exprs, names, points):
    """The (N, m) values of the entries ``exprs`` over the coordinates
    ``names`` at the rows of ``points``, from sympy at 30 digits."""
    return _at_points(*_sympy_matrix(exprs, names), points)


def sympy_jacobians(exprs, names, points):
    """The (N, m, d) Jacobians of the entries ``exprs`` over the coordinates
    ``names`` at the rows of ``points``, from sympy's derivatives evaluated
    at 30 digits at the exact values of the float coordinates."""
    column, args = _sympy_matrix(exprs, names)
    return _at_points(column.jacobian(args), args, points).reshape(
        len(points), len(exprs), len(names))


def assert_exact(got, want, what, rtol=RTOL):
    """Each entry within ``rtol`` of sympy's, relative to the larger of the
    entry and the largest entry of its point's Jacobian, so an entry that
    vanishes must come out zero where its whole Jacobian does."""
    assert got.shape == want.shape, what
    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)), keepdims=True)
    bound = rtol * np.maximum(np.abs(want), scale)
    worst = np.max(np.abs(got - want) - bound)
    assert worst <= 0.0, f"{what}: error exceeds the bound by {worst:.3e}"


def _scenario(name):
    text = builtin_text("euclidean_r2n", 8) if name == "r2n_8" else builtin_text(name)
    sf = parse_scenario(text)
    return sf, compile_scenario(sf)


@pytest.mark.parametrize("name", [*builtin_names(), "r2n_8"])
def test_scenario_jacobians_match_sympy(name):
    sf, scen = _scenario(name)
    n, k, q = sf.dim, sf.group_dim, sf.quotient_dim
    x_names = tuple(f"x{i + 1}" for i in range(n))
    t_names = tuple(f"t{i + 1}" for i in range(k))
    w_names = tuple(f"w{i + 1}" for i in range(q))
    X = sample_box(n, 20, radius=2.0, seed=31)
    T = np.random.default_rng(32).uniform(-np.pi, np.pi, (20, k))
    W = sample_ball(q, 20, radius=sf.sample_spec.radius, seed=33)

    # the flow over the point and the group parameters at once, the flow
    # Jacobians of pushforward_table (the point only) and the generators
    # (the parameters only, at t = 0)
    rows = np.hstack([X, T])
    want = sympy_jacobians(sf.flow, x_names + t_names, rows)
    assert_exact(fd_jacobian(scen.action.flow, rows), want, f"{name} flow")
    table = pushforward_table(scen.action, T[:1], X)
    assert_exact(table.D[0], sympy_jacobians(sf.flow, x_names + t_names,
                                             np.hstack([X, np.tile(T[:1], (20, 1))]))[..., :n],
                 f"{name} flow Jacobians in the point")
    at_identity = sympy_jacobians(sf.flow, x_names + t_names, np.hstack([X, np.zeros((20, k))]))
    for i in range(k):
        assert_exact(generator(scen.action, i, X), at_identity[:, :, n + i],
                     f"{name} generator {i}")

    assert_exact(fd_jacobian(scen.section, W), sympy_jacobians(sf.section, w_names, W),
                 f"{name} section")
    for i, (expr, component) in enumerate(zip(sf.mu, scen.mu.components)):
        assert_exact(fd_gradient(component, X), sympy_jacobians((expr,), x_names, X)[:, 0],
                     f"{name} mu[{i}]")
    for key in ("omega", "metric", "acs"):
        field = getattr(scen, key)
        entries = [e for row in getattr(sf, key) for e in row]
        got = fd_directional(field, X, np.eye(n)).reshape(20, n * n, n)
        assert_exact(got, sympy_jacobians(entries, x_names, X), f"{name} {key}")


# the holomorphy suite's maps of the plane, written out again: the values
# check that the compiled maps are these formulas, the Jacobians that their
# exact derivatives are right at the suite's sample points
_REFERENCE_FORMULAS = {
    "square map": ("x1^2 - x2^2", "2*x1*x2"),
    "exponential map": ("exp(x1)*cos(x2)", "exp(x1)*sin(x2)"),
    "reciprocal map at offset 2": ("(x1 - 2)/((x1 - 2)^2 + x2^2)", "-x2/((x1 - 2)^2 + x2^2)"),
    "conjugation": ("x1", "-x2"),
}


@pytest.mark.parametrize("samples", [20, 80])
@pytest.mark.parametrize("seed", range(4))
def test_holomorphy_reference_maps_match_sympy(seed, samples):
    X = sample_box(2, samples, radius=1.5, seed=seed + 2)
    assert [name for name, _, _ in cli._REFERENCE_MAPS] == list(_REFERENCE_FORMULAS)
    for name, row_map, _ in cli._REFERENCE_MAPS:
        exprs = [parse_expression(text) for text in _REFERENCE_FORMULAS[name]]
        assert_exact(row_map.rows(X), sympy_values(exprs, ("x1", "x2"), X), f"{name} values")
        assert_exact(fd_jacobian(row_map, X), sympy_jacobians(exprs, ("x1", "x2"), X), name)


_NAMES = ("x1", "x2", "x3")


def _compiled(exprs):
    return _row_map(compile_exprs(exprs, _NAMES), (len(exprs),), "expression")


# every operation and function, each power from 0 to 5, shared subtrees and
# folded constants: each rule of the tangent table is read somewhere here
_COVERING = (
    "x1 + x2 - x3", "-(x1 - 2*x2)", "x1*x2*x3", "x1/x2", "2/x3", "(x1 + 3)/(x2*x3 + 5)",
    "sin(x1*x2)", "cos(x2^2 - x1)", "exp(-x3*x1)", "sqrt(1 + x1^2 + x2^2)",
    "x1^0 + x2^1 + x3^2 + x1^3 + x2^4 + x3^5", "(x1 - x2)^3*x3^0",
    "sin(x1*x2)*cos(x1*x2) + (x1*x2)^2", "sqrt(4)*x1 + 2^3*x2 - exp(0)*x3 + cos(0)",
    "x1/sqrt(x1^2 + x2^2 + x3^2)", "exp(sin(x1))*sqrt(2 + cos(x2*x3))",
)


def test_every_tangent_rule_matches_sympy():
    exprs = [parse_expression(text) for text in _COVERING]
    points = sample_box(3, 20, radius=1.5, seed=41) + np.array([0.0, 0.0, 2.0])
    got = fd_jacobian(_compiled(exprs), points)
    want = sympy_jacobians(exprs, _NAMES, points)
    for j, text in enumerate(_COVERING):
        assert_exact(got[:, j:j + 1], want[:, j:j + 1], text)


def test_directional_derivatives_are_the_jacobian_applied():
    # seeding a direction gives the Jacobian applied to it, exactly as the
    # forward pass computes it, column by column
    exprs = [parse_expression(text) for text in _COVERING]
    points = sample_box(3, 10, radius=1.5, seed=42) + np.array([0.0, 0.0, 2.0])
    f = _compiled(exprs)
    jacobian = fd_jacobian(f, points)
    for direction in np.eye(3):
        got = f.tangents(points, direction[:, np.newaxis])[..., 0]
        assert np.array_equal(got, jacobian @ direction)


def test_folded_map_has_a_zero_jacobian_without_running(monkeypatch):
    program = compile_exprs([parse_expression(t) for t in ("sqrt(4)", "-(2^3)", "cos(0)")],
                            _NAMES)
    ran = []
    monkeypatch.setattr(Program, "run", lambda *args: ran.append(args))
    monkeypatch.setattr(Program, "tangents", lambda *args: ran.append(args))
    D = fd_jacobian(_row_map(program, (3,), "constants"), sample_box(3, 4, seed=1))
    assert D.shape == (4, 3, 3) and not D.any() and ran == []


def test_nonfinite_tangent_names_the_map_and_first_point():
    # sqrt is not differentiable at 0: the tangent of sqrt(x1^2) there is
    # 0/0, while the value is finite
    f = _compiled([parse_expression("x2 + 0*sqrt(x1^2)")])
    points = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
    assert np.isfinite(f.rows(points)).all()
    with pytest.raises(NonFiniteError, match=r"^derivative of expression at "
                       r"ChartPoint\(\[0\., 2\., 0\.\]\) contains non-finite entries$"):
        fd_jacobian(f, points)
    assert fd_jacobian(f, points[:1])[0].tolist() == [[0.0, 1.0, 0.0]]


def test_a_map_without_tangents_takes_the_stencil():
    exprs = [parse_expression(text) for text in _COVERING[:6]]
    compiled = _compiled(exprs)
    opaque = RowMap(compiled.rows)
    points = sample_box(3, 5, radius=1.0, seed=43) + np.array([0.0, 0.0, 2.0])
    exact, stencil = fd_jacobian(compiled, points), fd_jacobian(opaque, points)
    assert not np.array_equal(exact, stencil)
    assert np.max(np.abs(exact - stencil)) < 1e-8


# --- random expressions ----------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_leaf = st.one_of(st.sampled_from([Coord(name) for name in _NAMES]),
                  st.floats(0.5, 2.0).map(Num))
_expr = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
        st.builds(Pow, inner, st.integers(0, 5)),
        st.builds(Call, st.sampled_from(sorted(_SYMPY_FUNCTIONS)), inner),
    ),
    max_leaves=6,
)


# A running error bound (Higham, *Accuracy and Stability of Numerical
# Algorithms*, 2002, ch. 3) on the forward pass at one point.  Every kernel
# result carries a relative error of at most U (the IEEE operations and
# sqrt, correctly rounded) or F (sin, cos, exp and np.power: within an ulp
# of math's, itself within an ulp), plus ETA, the absolute error of an
# underflow.  Each rule's rounding is bounded by its count of roundings
# times the sum of the magnitudes of its terms, and the errors of the
# values and tangents it reads pass through the magnitudes of its
# coefficients, each taken at its largest over the error interval of the
# value it is computed from, so products of errors are bounded too.
U, ETA = 2.0 ** -53, 2.0 ** -1074
F = 4 * U


def _unary(e, a, ea):
    """For the unary node e at the value a with error bound ea: its value
    y, the coefficient d of its tangent rule t = d * ta, the largest |d|
    and |dd/da| over [a - ea, a + ea], and the relative rounding of its
    value kernel and of its tangent rule."""
    if type(e) is Neg:
        return -a, -1.0, 1.0, 0.0, 0.0, 0.0
    a_max = abs(a) + ea
    if type(e) is Pow:
        k = e.power
        if k == 0:
            return 1.0, 0.0, 0.0, 0.0, 0.0, 0.0
        if k == 2:  # a*a, and (a + a)*ta
            return a * a, 2 * a, 2 * a_max, 2.0, U, U
        return (a ** k, k * a ** (k - 1), k * a_max ** (k - 1),
                k * (k - 1) * a_max ** max(k - 2, 0), F, F + 2 * U)
    y = FUNCTIONS[e.fn](a)
    if e.fn == "sin":
        return y, np.cos(a), min(1.0, abs(np.cos(a)) + ea), min(1.0, abs(y) + ea), F, F + U
    if e.fn == "cos":
        return y, -np.sin(a), min(1.0, abs(np.sin(a)) + ea), min(1.0, abs(y) + ea), F, F + U
    if e.fn == "exp":  # y*ta
        return y, y, abs(y) * np.exp(ea), abs(y) * np.exp(ea), F, F + U
    low = a - ea if a - ea > 0 else np.nan  # sqrt: ta/(y + y)
    return y, 0.5 / y, 0.5 / np.sqrt(low), 0.25 / low ** 1.5, U, 2 * U


def _running_bound(e, point):
    """(y, t, ey, et): the value and the (3,) tangent of the parsed
    expression e at the float point, and bounds on their errors; a bound
    is NaN where a value's error interval reaches a pole."""
    kind = type(e)
    if kind is Num:
        return np.float64(e.value), np.zeros(3), 0.0, np.zeros(3)
    if kind is Coord:
        i = _NAMES.index(e.name)
        return np.float64(point[i]), np.eye(3)[i], 0.0, np.zeros(3)
    if kind is not BinOp:
        a, ta, ea, eta = _running_bound(e.arg if kind is not Pow else e.base, point)
        y, d, d_max, dd_max, value_round, tangent_round = _unary(e, a, ea)
        return (y, d * ta, d_max * ea + value_round * abs(y) + ETA,
                d_max * eta + dd_max * ea * (np.abs(ta) + eta)
                + tangent_round * abs(d) * np.abs(ta) + ETA)
    a, ta, ea, eta = _running_bound(e.left, point)
    b, tb, eb, etb = _running_bound(e.right, point)
    if e.op in "+-":
        y, t = (a + b, ta + tb) if e.op == "+" else (a - b, ta - tb)
        return (y, t, ea + eb + U * abs(y) + ETA,
                eta + etb + U * (np.abs(ta) + np.abs(tb)) + ETA)
    if e.op == "*":  # ta*b + a*tb: two products and a sum
        m = np.abs(ta) * abs(b) + abs(a) * np.abs(tb)
        return (a * b, ta * b + a * tb, (abs(a) + ea) * eb + abs(b) * ea + U * abs(a * b) + ETA,
                (np.abs(ta) + eta) * eb + abs(b) * eta + (abs(a) + ea) * etb + np.abs(tb) * ea
                + 2 * (U * m + ETA))
    low = abs(b) - eb if abs(b) > eb else np.nan  # (ta - y*tb)/b: a product, a difference, a quotient
    y = a / b
    t = (ta - y * tb) / b
    ey = (ea + abs(y) * eb) / low + U * abs(y) + ETA
    m = (np.abs(ta) + abs(y) * np.abs(tb)) / abs(b)
    return (y, t, ey, (eta + (abs(y) + ey) * etb + np.abs(tb) * ey + np.abs(t) * eb) / low
            + 3 * (U * m + ETA))


_TINY_QUOTIENT = [  # (constant c, x1): x1/(x1*c) cancels its quotient rule's terms
    (1.9, 1e-30), (1.9, 1.81e-79), (1.75, 1.81e-79), (0.7, 1e-30), (1.1, 1e-30)]


def _tiny_quotients(test):
    for c, x1 in _TINY_QUOTIENT:
        test = hypothesis.example(a=Coord("x1"), point=[x1, 0.0, 0.0],
                                  b=BinOp("/", Coord("x1"), BinOp("*", Coord("x1"), Num(c))))(test)
    return test


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(a=_expr, b=_expr, point=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3))
@_tiny_quotients
def test_random_expressions_match_sympy(a, b, point):
    # entries that share the subtrees a and b, so the compile walk gives
    # them one slot each, and folds every subtree that reads no coordinate
    exprs = [a, BinOp("*", a, b), BinOp("+", Call("sin", b), a), Pow(BinOp("-", b, a), 2)]
    program = compile_exprs(exprs, _NAMES)
    X = np.array([point])
    try:
        got = fd_jacobian(_row_map(program, (len(exprs),), "expression"), X)
    except (NonFiniteError, ValueError):  # a value or a tangent fails closed
        hypothesis.reject()
    want = sympy_jacobians(exprs, _NAMES, X)
    hypothesis.assume(np.isfinite(want).all())
    # each entry's running bound, plus the rounding of sympy's value to a float
    with np.errstate(all="ignore"):  # an infinite or NaN bound bounds nothing
        bound = np.array([_running_bound(e, point)[3] for e in exprs])[np.newaxis]
    bound += U * np.abs(want)
    hypothesis.assume(np.isfinite(bound).all())
    assert (np.abs(got - want) <= bound).all()
