"""Shared test oracles, kept independent of the library code paths they check."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np

from symred.errors import NonFiniteError, ParseError, ValidationError
from symred.exprlang import BinOp, Call, Coord, Neg, Num, Pow
from symred.geometry import FD_STEP, ChartPoint


def newton_polar_unitary(a, tol=1e-13, max_iter=200):
    """Orthogonal polar factor by the Newton iteration X <- (X + X^-T)/2."""
    x = np.asarray(a, dtype=float).copy()
    for _ in range(max_iter):
        xn = 0.5 * (x + np.linalg.inv(x).T)
        if np.max(np.abs(xn - x)) < tol:
            return xn
        x = xn
    raise AssertionError("newton polar iteration did not converge")


def oracle_compatible_acs(Om, G0):
    """J from the polar factor of the skew endomorphism, via Newton iteration.

    Works in a frame orthonormal for G0 (A_frame = -S^-1 Om S^-1 with
    S = sqrt(G0)); the unitary polar factor of a skew matrix equals
    inv(sqrt(-A^2)) A, so this is an independent route to the same J.
    """
    w, v = np.linalg.eigh(np.asarray(G0, dtype=float))
    s_root = (v * np.sqrt(w)) @ v.T
    s_inv = (v / np.sqrt(w)) @ v.T
    a_frame = -s_inv @ np.asarray(Om, dtype=float) @ s_inv
    u = newton_polar_unitary(a_frame)
    return s_inv @ u @ s_root


def random_symplectic_metric_pair(rng, n):
    """Well-conditioned random (Omega, G0): skew nondegenerate + SPD."""
    while True:
        r = rng.standard_normal((n, n))
        om = r - r.T
        if np.linalg.svd(om, compute_uv=False)[-1] > 0.2:
            break
    b = rng.standard_normal((n, n))
    g0 = b @ b.T + 0.5 * np.eye(n)
    return om, g0


def projective_plane_oracle(w_real):
    """Reduced metric and symplectic form of the two-complex-plane quotient,
    computed with exact complex arithmetic (no finite differences).

    The unit-sphere level in flat complex 3-space is parametrized by
    sigma(w) = (1, w1 + i w2, w3 + i w4) / sqrt(1 + |w|^2); the vertical
    direction is the phase direction i sigma, and the quotient metric and
    form are the flat real pairing and Im <a, b> of the projected section
    partials.  Analytic derivatives throughout, so this is independent of
    the library's kernel/lift machinery.
    """
    w = np.array([w_real[0] + 1j * w_real[1], w_real[2] + 1j * w_real[3]])
    z = np.concatenate([[1.0 + 0.0j], w])
    r2 = 1.0 + float(np.sum(np.abs(w) ** 2))
    r = np.sqrt(r2)
    sigma = z / r

    partials = []
    for slot in (1, 2):
        for comp in (1.0, 1.0j):
            dz = np.zeros(3, dtype=complex)
            dz[slot] = comp
            dr = float(np.real(np.vdot(z, dz))) / r
            partials.append(dz / r - z * dr / r2)

    vertical = 1.0j * sigma  # unit for the flat real pairing

    def real_ip(a, b):
        return float(np.real(np.vdot(b, a)))

    lifts = [p - real_ip(p, vertical) * vertical for p in partials]
    h = np.array([[real_ip(a, b) for b in lifts] for a in lifts])
    omega = np.array([[float(np.imag(np.vdot(a, b))) for b in lifts] for a in lifts])
    return h, omega


def round_sphere_metric(w):
    """Closed-form reduced metric of the radius-1/2 round sphere in the
    affine chart: identity over (1 + |w|^2)^2."""
    r2 = float(np.dot(w, w))
    return np.eye(2) / (1.0 + r2) ** 2


def round_sphere_symplectic(w):
    """Closed-form reduced area form: standard 2x2 block over (1 + |w|^2)^2."""
    r2 = float(np.dot(w, w))
    return np.array([[0.0, 1.0], [-1.0, 0.0]]) / (1.0 + r2) ** 2


_COORDS = ("x1", "x2", "x3", "x4", "t1", "w1", "w2")
_FUNCTIONS = ("sin", "cos", "exp", "sqrt")


def random_expr(rng, depth=0):
    """Random AST for round-trip tests; leaves get likelier with depth."""
    leaf_bias = 0.25 * depth
    roll = rng.random() + leaf_bias
    if roll > 0.9:
        return Num(float(rng.uniform(0.0, 10.0)))
    if roll > 0.65:
        return Coord(_COORDS[rng.integers(len(_COORDS))])
    kind = rng.integers(4)
    if kind == 0:
        return Neg(random_expr(rng, depth + 1))
    if kind == 1:
        op = "+-*/"[rng.integers(4)]
        return BinOp(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == 2:
        return Pow(random_expr(rng, depth + 1), int(rng.integers(0, 6)))
    return Call(_FUNCTIONS[rng.integers(len(_FUNCTIONS))], random_expr(rng, depth + 1))


# the package's elementwise kernels, bound here so that tests patching
# exprlang.FUNCTIONS count only the package's calls
_REFERENCE_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt}


def _reference_kernel(name, fn, arg, *args):
    """fn(arg, *args) as a float, with math's errors: a NaN from an argument
    that is not NaN is a domain error, an infinity from a finite one an
    overflow."""
    with np.errstate(all="ignore"):
        value = float(fn(arg, *args))
    if math.isnan(value) and not math.isnan(arg):
        raise ValueError("math domain error")
    if math.isinf(value) and math.isfinite(arg):
        raise NonFiniteError(f"{name} overflows")
    return value


def reference_eval_expr(e, env):
    """Tree-walking evaluator: the reference for the compiled programs.

    Plain float arithmetic over a name -> value environment, walking the AST
    at every call, with the package's elementwise kernels (numpy's ufuncs)
    for functions and powers.  Division by zero, square roots
    of negative numbers and overflowing powers and functions raise
    NonFiniteError, sin or cos of an infinity ValueError; unknown names
    raise ValidationError when they are reached.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Coord):
        try:
            return env[e.name]
        except KeyError:
            raise ValidationError(f"unknown coordinate {e.name!r} at evaluation") from None
    if isinstance(e, Neg):
        return -reference_eval_expr(e.arg, env)
    if isinstance(e, Pow):
        base = reference_eval_expr(e.base, env)
        if e.power == 2:  # the package squares with one multiply
            return _reference_kernel("power", lambda x: x * x, base)
        return _reference_kernel("power", np.power, base, e.power)
    if isinstance(e, Call):
        arg = reference_eval_expr(e.arg, env)
        if e.fn == "sqrt" and arg < 0:
            raise NonFiniteError(f"sqrt of negative value {arg}")
        if e.fn not in _REFERENCE_FUNCTIONS:
            raise ValidationError(f"unknown function {e.fn!r}")
        return _reference_kernel(e.fn, _REFERENCE_FUNCTIONS[e.fn], arg)
    if isinstance(e, BinOp):
        left = reference_eval_expr(e.left, env)
        right = reference_eval_expr(e.right, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0.0:
            raise NonFiniteError("division by zero")
        return left / right
    raise TypeError(f"not an expression node: {e!r}")


_REFERENCE_SINGLE = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "^": "CARET",
                     "(": "LPAREN", ")": "RPAREN", "[": "LBRACKET", "]": "RBRACKET",
                     ",": "COMMA", "=": "EQUALS", ".": "DOT"}


def _is_ascii_digit(ch):
    return "0" <= ch <= "9"


def reference_tokenize(text):
    """Character-by-character scanner: the reference for exprlang.tokenize.

    The tokens as (kind, text, line, column) tuples, and the same ParseError
    text and position, one Python loop step per character.
    """
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if _is_ascii_digit(ch):
            start, start_col = i, col
            while i < n and _is_ascii_digit(text[i]):
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and _is_ascii_digit(text[i]):
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and _is_ascii_digit(text[j]):
                    i = j
                    while i < n and _is_ascii_digit(text[i]):
                        i += 1
            lexeme = text[start:i]
            col = start_col + len(lexeme)
            if not math.isfinite(float(lexeme)):
                raise ParseError(f"number literal {lexeme!r} overflows", line, start_col)
            tokens.append(("NUMBER", lexeme, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            lexeme = text[start:i]
            col = start_col + len(lexeme)
            tokens.append(("IDENT", lexeme, line, start_col))
            continue
        kind = _REFERENCE_SINGLE.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, ch, line, col))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens


def horizontal_projector_oracle(jmu, generators, metric, dim):
    """G-orthogonal projector onto the horizontal space, the part of ker d mu
    that G pairs to zero with the generators, from one SVD of the stacked
    matrix [d mu; generators^T G].

    The ``dim`` trailing right-singular vectors span the common null space;
    the projector onto their span, orthogonal for G, is
    N (N^T G N)^-1 N^T G.  No kernel cut-off or Gram-Schmidt is involved,
    so this is independent of the library's two-step construction.
    """
    G = np.asarray(metric, dtype=float)
    stacked = np.vstack([np.asarray(jmu, dtype=float), np.asarray(generators, dtype=float).T @ G])
    n = stacked.shape[1]
    N = np.linalg.svd(stacked, full_matrices=True)[2][n - dim:].T
    return N @ np.linalg.solve(N.T @ G @ N, N.T @ G)


def reference_central_difference(sample, h=FD_STEP):
    """One derivative from stencil samples, one call per offset: the
    per-column formula the batched stencil must reproduce bit for bit."""
    return (-sample(2 * h) + 8.0 * sample(h) - 8.0 * sample(-h) + sample(-2 * h)) / (12.0 * h)


def reference_fd_jacobian(chart_map, p, *, step=FD_STEP):
    """Column-by-column Jacobian, one ChartPoint per stencil sample, after
    the map's value at p itself, which the batched stencil reads first."""
    x = np.asarray(p.coords if isinstance(p, ChartPoint) else p, dtype=float)
    n = x.shape[0]

    def value(y):
        out = chart_map(ChartPoint(y))
        out = np.asarray(out.coords if isinstance(out, ChartPoint) else out, dtype=float)
        if not np.isfinite(out).all():
            raise NonFiniteError("map value contains non-finite entries")
        return out

    value(x)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(reference_central_difference(lambda t: value(x + t * e), step))
    return np.column_stack(cols)


def _has_exact_derivative(chart_map):
    """Whether a map (a RowMap) is differentiated exactly, as a compiled
    scenario map is, rather than by the stencil."""
    return getattr(chart_map, "tangents", None) is not None


def reference_jacobian(chart_map, p):
    """The Jacobian at one point that the per-point references use: the
    map's own exact derivative at that point alone if it has one, else the
    column-by-column stencil.  The exact derivatives themselves are checked
    against sympy (tests/test_tangents.py)."""
    from symred.geometry import as_point, fd_jacobian

    if _has_exact_derivative(chart_map):
        return fd_jacobian(chart_map, as_point(p))
    return reference_fd_jacobian(chart_map, p)


def reference_partials(field, p):
    """A field's partials at one point, the (*shape, n) array, as
    ``reference_jacobian``: a compiled field's exact ones along the
    coordinate axes at that point alone, else the stencil per coordinate."""
    from symred.geometry import as_point, fd_directional

    if _has_exact_derivative(field.func):
        point = as_point(p)
        return fd_directional(field, point, np.eye(point.dim))
    return reference_fd_partials(field, p)


def reference_fd_partials(field, p):
    """A field's partials at one point, one directional difference per
    coordinate, stacked on the last axis: for a scalar field its gradient.
    The field's value at p itself comes first, as the batched stencil
    reads it."""
    from symred.geometry import eval_field

    x = np.asarray(p.coords if isinstance(p, ChartPoint) else p, dtype=float)
    n = x.shape[0]
    eval_field(field, ChartPoint(x))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(reference_central_difference(
            lambda t: np.asarray(eval_field(field, ChartPoint(x + t * e)), dtype=float)))
    return np.stack(cols, axis=-1)


def reference_generator(action, xi_index, p):
    """Generator of one algebra basis element at one point, as
    ``reference_jacobian``: a compiled flow's exact one at that point
    alone, else ``reference_fd_generator``."""
    from symred.actions import generator
    from symred.geometry import as_point

    if _has_exact_derivative(action.flow):
        return generator(action, as_point(p))[:, xi_index]
    return reference_fd_generator(action, xi_index, p)


def reference_fd_generator(action, xi_index, p):
    """Generator of one algebra basis element, one flow call per sample,
    after the flow by the identity, which the batched stencil reads first."""
    from symred.actions import apply_flow

    direction = np.zeros(action.group_dim)
    direction[xi_index] = 1.0
    apply_flow(action, np.zeros(action.group_dim), p)
    return reference_central_difference(
        lambda t: apply_flow(action, t * direction, p).coords)


def reference_action_axioms(action, params, p):
    """Worst axiom residual at one point, one flow call per (s, t) pair in
    the order of the nested loops: the reference for the batched check."""
    from symred.actions import apply_flow

    p = ChartPoint(p) if not isinstance(p, ChartPoint) else p
    prm = [np.asarray(a, dtype=float).reshape(action.group_dim) for a in params]
    res = [float(np.linalg.norm(apply_flow(action, np.zeros(action.group_dim), p).coords
                                - p.coords))]
    for s in prm:
        for t in prm:
            two_step = apply_flow(action, s, apply_flow(action, t, p))
            one_step = apply_flow(action, s + t, p)
            res.append(float(np.linalg.norm(two_step.coords - one_step.coords)))
    return max(res)


def reference_kernel_basis(mat, rank_tol=1e-8):
    """Null-space basis of one matrix from one SVD: the per-matrix reference
    for the stacked ``kernel_basis``."""
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains non-finite entries")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rank_tol * smax)) if smax > 0.0 else 0
    return np.ascontiguousarray(vt[rank:].T)


def reference_orthonormalize(frame, metric, tol=1e-10):
    """Gram-Schmidt of one frame with 2-D products, each column projected
    against the whole kept basis B at once, w - B ((B^T G) w), twice: the
    per-frame reference for the stacked ``orthonormalize``."""
    G = np.asarray(metric, dtype=float)
    cols = np.asarray(frame, dtype=float)
    B = np.zeros((cols.shape[0], 0))
    for j in range(cols.shape[1]):
        w = cols[:, j:j + 1].copy()
        if B.shape[1]:
            BtG = B.T @ G
            for _ in range(2):
                w = w - B @ (BtG @ w)
        nrm = float(np.sqrt(max(float((w.T @ G @ w)[0, 0]), 0.0)))
        if nrm < tol:
            continue
        B = np.hstack([B, w / nrm])
    return B


def reference_orthonormalize_per_vector(frame, metric, tol=1e-10):
    """Modified Gram-Schmidt of one frame, one kept vector at a time with
    1-D products: an independent oracle for ``orthonormalize``, equal to it
    up to roundoff."""
    G = np.asarray(metric, dtype=float)
    cols = np.asarray(frame, dtype=float)
    basis, rows = [], []
    for j in range(cols.shape[1]):
        w = cols[:, j].copy()
        for _ in range(2):
            for b, bG in zip(basis, rows):
                w -= (bG @ w) * b
        nrm = float(np.sqrt(max(float(w @ G @ w), 0.0)))
        if nrm < tol:
            continue
        basis.append(w / nrm)
        rows.append(basis[-1] @ G)
    return np.column_stack(basis) if basis else np.zeros((cols.shape[0], 0))


def _reference_level_gap(scen, point):
    from symred.geometry import eval_field

    return float(np.linalg.norm(eval_field(scen.mu.field, point) - scen.mu.beta))


def reference_split_tangent(scen, m, per_vector=False):
    """The splitting at one point, built with the per-point references and
    raising the errors of the per-point construction, in its order; a dict of
    the arrays ``split_tangent`` keeps.  ``per_vector`` orthonormalizes with
    ``reference_orthonormalize_per_vector``, for the tolerance oracles."""
    from symred.errors import (
        ActionNotFreeError, DegenerateInputError, NotOnLevelError, NotRegularValueError)
    from symred.geometry import as_point, eval_field
    from symred.reduction import FREE_TOL, LEVEL_TOL, RANK_TOL

    point = as_point(m)
    n, k = scen.chart_dim, scen.action.group_dim
    gap = _reference_level_gap(scen, point)
    if gap >= LEVEL_TOL:
        raise NotOnLevelError(f"{point} is off the level set: "
                              f"|mu(m) - beta| = {gap:.3e} exceeds {LEVEL_TOL:.1e}")
    jmu = reference_partials(scen.mu.field, point)
    level = reference_kernel_basis(jmu, RANK_TOL)
    if level.shape[1] != n - k:
        raise NotRegularValueError(
            f"kernel of d mu has dimension {level.shape[1]} at {point}, expected {n - k}")
    V = np.zeros((n, k))
    for i in range(k):
        V[:, i] = reference_generator(scen.action, i, point)
        if not np.isfinite(V[:, i]).all():
            raise NonFiniteError("generator contains non-finite entries")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] <= FREE_TOL:
        raise ActionNotFreeError(
            f"generators are degenerate at {point} (smallest singular value {sv[-1]:.3e})")
    scale = 1.0 + float(np.max(np.abs(jmu)))
    tangency = float(np.max(np.abs(jmu @ V)))
    if tangency > LEVEL_TOL * scale:
        raise DegenerateInputError(
            f"generators leave ker d mu by {tangency:.3e}; "
            "the action is not tangent to the level set")
    G = eval_field(scen.metric, point)
    orthonormalize = reference_orthonormalize_per_vector if per_vector else reference_orthonormalize
    vertical = orthonormalize(V, G, tol=FREE_TOL)
    if vertical.shape[1] != k:
        raise ActionNotFreeError(f"vertical space degenerates to dimension below {k} at {point}")
    complement = reference_kernel_basis(vertical.T @ G @ level, RANK_TOL)
    horizontal = orthonormalize(level @ complement, G)
    if horizontal.shape[1] < complement.shape[1]:
        raise DegenerateInputError(
            f"horizontal complement degenerates to dimension below {n - 2 * k} at {point}")
    if horizontal.shape[1] != n - 2 * k:
        raise DegenerateInputError(
            f"horizontal complement has dimension {horizontal.shape[1]}, expected {n - 2 * k}")
    return {"metric": G, "level": level, "vertical": vertical, "horizontal": horizontal,
            "jmu": jmu, "generators": V}


def reference_lift_frame(scen, x, a=None, per_vector=False):
    """The lift frame at one quotient point, frame by frame: the reference
    for the batched ``lift_frames``, through the section or, given a group
    parameter a, through Phi_a o sigma, whose Jacobian is the chain
    D Phi_a(sigma(x)) D sigma(x).  Returns the point m and a dict of every
    array of the frame, and raises what the per-frame construction raised,
    in its order.  ``per_vector`` as for ``reference_split_tangent``."""
    from symred.actions import apply_flow
    from symred.errors import RankDeficientLiftError
    from symred.geometry import as_point, eval_field
    from symred.reduction import RANK_TOL

    xq = as_point(x)
    m0 = as_point(scen.section(xq))
    m = m0 if a is None else apply_flow(scen.action, a, m0)
    frame = reference_split_tangent(scen, m, per_vector)
    G, h_onb = frame["metric"], frame["horizontal"]
    frame["Om"] = eval_field(scen.omega, m)
    frame["J"] = eval_field(scen.acs, m)
    dsig = reference_jacobian(scen.section, xq)
    if a is not None:
        dsig = reference_pushforward(scen.action, a, m0)[0] @ dsig
    lifts = h_onb @ (h_onb.T @ G @ dsig)
    sv = np.linalg.svd(lifts, compute_uv=False)
    if sv[-1] <= RANK_TOL * max(1.0, sv[0]):
        raise RankDeficientLiftError(
            f"projection differential is not invertible on H at {m} (singular values {sv})")
    frame["lifts"] = lifts
    frame["coef"] = h_onb.T @ G @ lifts
    return m, frame


def reference_pushforward(action, a, p):
    """Flow Jacobian and moved point at one point, the reference for the
    batched pushforwards: a compiled flow's exact Jacobian at that point
    and parameter alone, else one flow call per stencil sample."""
    from symred.actions import apply_flow, pushforward_table
    from symred.geometry import as_point

    if _has_exact_derivative(action.flow):
        D = pushforward_table(action, [a], as_point(p).coords[np.newaxis]).D[0, 0]
    else:
        D = reference_fd_jacobian(lambda q: apply_flow(action, a, q), p)
    return D, apply_flow(action, a, p)


# --- per-point references for the sampled checks ------------------------------
# Each returns the list of per-point residuals the check reports, computed one
# point at a time with one-point evaluations and one flow call per stencil
# sample: the references for the stacked checks.

def _max_abs(values):
    arr = np.asarray(values, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def reference_metric_residuals(g, points, tol):
    from symred.geometry import eval_field

    out = []
    for p in points:
        G = eval_field(g, p)
        lam_min = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
        out.append(_max_abs(G - G.T) + (0.0 if lam_min > tol else (2.0 * tol - lam_min)))
    return out


def reference_symplectic_residuals(w, points, tol):
    from symred.geometry import eval_field

    out = []
    for p in points:
        Om = eval_field(w, p)
        s = np.linalg.svd(Om, compute_uv=False)
        if s.size == 0:
            ratio = 1.0
        else:
            ratio = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
        out.append(max(_max_abs(Om + Om.T), 0.0 if ratio > tol else (2.0 * tol - ratio)))
    return out


def reference_closed_residuals(w, points):
    """Cyclic sums of partials, one point at a time: for a compiled field
    its exact partials at that point alone, else each partial one
    difference per coordinate direction with one field evaluation per
    stencil sample."""
    import itertools

    from symred.geometry import eval_field, fd_directional

    n = w.shape[0]
    out = []
    for p in points:
        x = np.asarray(p.coords if isinstance(p, ChartPoint) else p, dtype=float)
        if _has_exact_derivative(w.func):
            exact = fd_directional(w, ChartPoint(x), np.eye(n))
            partials = [exact[..., i] for i in range(n)]
        else:
            partials = []
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                partials.append(reference_central_difference(
                    lambda t: eval_field(w, ChartPoint(x + t * e))))
        out.append(_max_abs([partials[i][j, k] + partials[j][k, i] + partials[k][i, j]
                             for i, j, k in itertools.combinations(range(n), 3)]))
    return out


def reference_acs_residuals(J, points):
    from symred.geometry import eval_field

    eye = np.eye(J.shape[0])
    return [float(np.linalg.norm(eval_field(J, p) @ eval_field(J, p) + eye)) for p in points]


def reference_compatibility_residuals(omega, metric, acs, points):
    from symred.geometry import eval_field

    out = []
    for p in points:
        Om, G, Jm = eval_field(omega, p), eval_field(metric, p), eval_field(acs, p)
        out.append(_max_abs(Om @ Jm - G))
    return out


def reference_invariance_residuals(kind, action, field, params, points):
    """Isometry and symplectomorphism ("pullback"), momentum invariance
    ("momentum", ``field`` a MomentumMap) or endomorphism invariance
    ("endomorphism"): per point the worst over the parameters, each flow
    Jacobian and moved point from ``reference_pushforward``."""
    from symred.geometry import eval_field

    def value(p):
        if kind == "momentum":
            return eval_field(field.field, p)
        return eval_field(field, p)

    residual = {
        "pullback": lambda D, here, moved: _max_abs(D.T @ moved @ D - here),
        "momentum": lambda D, here, moved: _max_abs(moved - here),
        "endomorphism": lambda D, here, moved: _max_abs(D @ here - moved @ D),
    }[kind]
    out = []
    for p in points:
        here = value(p)
        per_param = []
        for a in params:
            D, moved = reference_pushforward(action, np.asarray(a, dtype=float), p)
            per_param.append(residual(D, here, value(moved)))
        out.append(_max_abs(per_param))
    return out


def reference_momentum_residuals(action, mu, w, points):
    """Omega^T xi - grad mu_xi per basis element, from per-sample generators
    and gradients."""
    from symred.geometry import eval_field

    out = []
    for p in points:
        Om = eval_field(w, p)
        grads = reference_partials(mu.field, p)
        out.append(_max_abs([
            float(np.linalg.norm(Om.T @ reference_generator(action, i, p) - grads[i]))
            for i in range(action.group_dim)]))
    return out


# --- per-point references for the reduction side ------------------------------
# The per-point pipelines the stacked ones replaced, each frame from
# ``reference_lift_frame``.  The references take each frame as one 2-D
# matrix in every product, as the stacked pipelines take it as one slice, and
# read the pairings and norms of its columns off the diagonals of whole
# products; d pi is one ``np.linalg.solve`` of C = H^T G L per frame over
# all of the frame's right-hand sides.  The ``_per_vector`` oracles (and
# ``reference_submersion`` with ``per_vector``) take each vector alone in
# 1-D products, their frames from modified Gram-Schmidt
# (``reference_orthonormalize_per_vector``), and so agree with the stacked
# pipelines up to roundoff; ``solver`` picks how they invert d pi: "solve",
# as above, or "lstsq", one least-squares solve of the lifts per vector, as
# the library did before it stacked the frames.

def _g_norm(v, G):
    return float(np.sqrt(max(float(v @ G @ v), 0.0)))


def _column_g_norms(W, G=None):
    """The g-norms of the columns of W, off the diagonal of W^T G W."""
    gram = W.T @ W if G is None else W.T @ G @ W
    return np.sqrt(np.maximum(np.diagonal(gram), 0.0))


def _ratio(a, scale):
    return np.divide(a, scale, out=np.zeros_like(a), where=scale != 0.0)


def _reference_reduced_metric(frame):
    L = frame["lifts"]
    h = L.T @ frame["metric"] @ L
    return 0.5 * (h + h.T)


def _reference_reduced_symplectic(frame):
    L = frame["lifts"]
    w = L.T @ frame["Om"] @ L
    return 0.5 * (w - w.T)


def reference_reduced_from_frame(frame):
    """Reduced metric, symplectic form and acs candidate at one frame, with
    the vertical and level-normal leaks of J applied to each lift."""
    L, G, H, V = frame["lifts"], frame["metric"], frame["horizontal"], frame["vertical"]
    image = frame["J"] @ L
    h_coef = (H.T @ G) @ image
    v_coef = V.T @ G @ image
    normal = image - H @ h_coef - V @ v_coef
    scale = _column_g_norms(L, G)
    return (_reference_reduced_metric(frame), _reference_reduced_symplectic(frame),
            np.linalg.solve(frame["coef"], h_coef),
            _ratio(_column_g_norms(v_coef), scale), _ratio(_column_g_norms(normal, G), scale))


def reference_submersion(scen, xs, fiber_params, per_vector=False):
    """Fibre-independence and vertical-invariance residuals, point by point,
    over the fibre parameters, each a vector of k entries; ``per_vector``,
    the oracle, with each pushed generator's leak alone."""
    fiber_res, vert_res = [], []
    for x in xs:
        m, frame = reference_lift_frame(scen, x, per_vector=per_vector)
        h_here = _reference_reduced_metric(frame)
        gaps, leaks = [], []
        for a in fiber_params:
            _, moved = reference_lift_frame(scen, x, a, per_vector)
            D, _ = reference_pushforward(scen.action, a, m)
            gaps.append(_max_abs(h_here - _reference_reduced_metric(moved)))
            G, V = moved["metric"], moved["vertical"]
            pushed = D @ frame["generators"]
            leak = pushed - V @ (V.T @ G @ pushed)
            leaks.append(_max_abs([_g_norm(v, G) for v in leak.T] if per_vector
                                  else _column_g_norms(leak, G)))
        fiber_res.append(_max_abs(gaps))
        vert_res.append(_max_abs(leaks))
    return fiber_res, vert_res


def reference_reduction_identity(scen, xs, pairs_per_point=3, seed=0):
    """Pullback-identity and vertical-degeneracy residuals, point by point,
    the pair coefficients drawn per point and pair, u before v, and the
    level vectors of a point the columns u_1..u_P, v_1..v_P of one product."""
    rng = np.random.default_rng(seed)
    P = pairs_per_point
    id_res, deg_res = [], []
    for x in xs:
        _, frame = reference_lift_frame(scen, x)
        K, V, Om, H, G = (frame[key] for key in ("level", "vertical", "Om", "horizontal", "metric"))
        coefs = rng.standard_normal((P, 2, K.shape[1]))
        uv = K @ coefs.T.reshape(K.shape[1], 2 * P)
        d = np.linalg.solve(frame["coef"], (H.T @ G) @ uv)
        ambient = np.diagonal(uv[:, :P].T @ Om @ uv[:, P:])
        reduced = np.diagonal(d[:, :P].T @ _reference_reduced_symplectic(frame) @ d[:, P:])
        id_res.append(_max_abs(ambient - reduced))
        deg_res.append(_max_abs(V.T @ Om @ K))
    return id_res, deg_res


def _main_theorem_rows(frame, reduced, j_vertical, out):
    """Append the main-theorem residuals and leak values of one frame to the
    lists of ``out``, from its reduced structures and leaks and the norms of
    the horizontal coefficients of J applied to its vertical vectors."""
    h_red, w_red, j_red, vert_leak, normal_leak = reduced
    eye = np.eye(len(j_red))
    for key, value in (
            ("acm_residual", _max_abs([*normal_leak, *j_vertical])),
            ("compat_residual", _max_abs(w_red @ j_red - h_red)),
            ("acs_residual", float(np.linalg.norm(j_red @ j_red + eye))),
            ("hypothesis", _max_abs(frame["Om"] @ frame["J"] - frame["metric"])),
            ("vertical_leak", _max_abs(vert_leak)),
            ("normal_leak", _max_abs(normal_leak))):
        out[key].append(value)


_MAIN_THEOREM_KEYS = ("acm_residual", "compat_residual", "acs_residual", "hypothesis",
                      "vertical_leak", "normal_leak")


def reference_main_theorem(scen, xs):
    """The main-theorem residuals and leak values, point by point, as a dict
    of per-point lists keyed as the report's sample rows."""
    out = {key: [] for key in _MAIN_THEOREM_KEYS}
    for x in xs:
        _, frame = reference_lift_frame(scen, x)
        H, G = frame["horizontal"], frame["metric"]
        j_vertical = _column_g_norms((H.T @ G) @ frame["J"] @ frame["vertical"])
        _main_theorem_rows(frame, reference_reduced_from_frame(frame), j_vertical, out)
    return out


def _decompose(frame, u):
    """Horizontal and vertical coefficients of u and its level-normal part."""
    H, V, G = frame["horizontal"], frame["vertical"], frame["metric"]
    h_coef = H.T @ G @ u
    v_coef = V.T @ G @ u
    return h_coef, v_coef, u - H @ h_coef - V @ v_coef


def _dpi_columns(frame, h_coefs, solver):
    """d pi of vectors given by their horizontal coefficients, one per entry."""
    L, H = frame["lifts"], frame["horizontal"]
    if solver == "lstsq":
        return [np.linalg.lstsq(L, H @ h, rcond=None)[0] if L.shape[1] else np.zeros(0)
                for h in h_coefs]
    rhs = np.column_stack(h_coefs) if h_coefs else np.zeros((L.shape[1], 0))
    out = np.linalg.solve(frame["coef"], rhs)
    return [out[:, j] for j in range(out.shape[1])]


def reference_reduced_per_vector(frame, solver="solve"):
    """``reference_reduced_from_frame`` with each lift alone in 1-D products."""
    L, G = frame["lifts"], frame["metric"]
    q = L.shape[1]
    w = L.T @ frame["Om"] @ L
    h_coefs, vert_leak, normal_leak = [], np.zeros(q), np.zeros(q)
    for i in range(q):
        h_coef, v_coef, rem = _decompose(frame, frame["J"] @ L[:, i])
        scale = _g_norm(L[:, i], G)
        vert_leak[i] = float(np.linalg.norm(v_coef)) / scale if scale else 0.0
        normal_leak[i] = _g_norm(rem, G) / scale if scale else 0.0
        h_coefs.append(h_coef)
    cols = _dpi_columns(frame, h_coefs, solver)
    j_red = np.column_stack(cols) if cols else np.zeros((0, 0))
    return _reference_reduced_metric(frame), 0.5 * (w - w.T), j_red, vert_leak, normal_leak


def reference_reduction_identity_per_vector(scen, xs, pairs_per_point=3, seed=0, solver="solve"):
    """``reference_reduction_identity`` with each level vector and each
    pairing alone."""
    rng = np.random.default_rng(seed)
    id_res, deg_res = [], []
    for x in xs:
        _, frame = reference_lift_frame(scen, x, per_vector=True)
        K, V, Om = frame["level"], frame["vertical"], frame["Om"]
        w_red = _reference_reduced_symplectic(frame)
        pairs = [(K @ rng.standard_normal(K.shape[1]), K @ rng.standard_normal(K.shape[1]))
                 for _ in range(pairs_per_point)]
        d = _dpi_columns(frame, [_decompose(frame, u)[0] for pair in pairs for u in pair], solver)
        id_res.append(_max_abs([float(u @ Om @ v) - float(d[2 * p] @ w_red @ d[2 * p + 1])
                                for p, (u, v) in enumerate(pairs)]))
        deg_res.append(_max_abs([V[:, j] @ Om @ K for j in range(V.shape[1])]))
    return id_res, deg_res


def reference_main_theorem_per_vector(scen, xs, solver="solve"):
    """``reference_main_theorem`` with each lift and vertical vector alone."""
    out = {key: [] for key in _MAIN_THEOREM_KEYS}
    for x in xs:
        _, frame = reference_lift_frame(scen, x, per_vector=True)
        V, J = frame["vertical"], frame["J"]
        j_vertical = [np.linalg.norm(_decompose(frame, J @ V[:, j])[0])
                      for j in range(V.shape[1])]
        _main_theorem_rows(frame, reference_reduced_per_vector(frame, solver), j_vertical, out)
    return out


@contextmanager
def residuals_seen():
    """The residual arrays every check hands to from_samples while open."""
    from symred.structures import StructureCheckResult

    seen = []
    original = StructureCheckResult.from_samples

    def capture(name, residuals, points, tolerance, identity="", extras=None):
        seen.append(np.array(list(residuals), dtype=float))
        return original(name, residuals, points, tolerance, identity, extras)

    with mock.patch.object(StructureCheckResult, "from_samples", staticmethod(capture)):
        yield seen


def opaque_scenario(scen):
    """The scenario with every compiled map wrapped in a plain lambda, so
    each evaluation goes through the per-point path."""
    import dataclasses

    from symred.actions import MomentumMap, apply_flow
    from symred.geometry import TensorField

    def field(f):
        return TensorField(f.shape, lambda p, _f=f.func: _f(p), f.name)

    action, section = scen.action, scen.section
    return dataclasses.replace(
        scen, omega=field(scen.omega), metric=field(scen.metric), acs=field(scen.acs),
        action=dataclasses.replace(scen.action, flow=lambda a, p: apply_flow(action, a, p)),
        mu=MomentumMap(field(scen.mu.field), scen.mu.beta),
        section=lambda x: section(x))


# --- per-point references for the fields the package builds -------------------
# The per-point constructions the stacked fields replaced, each a TensorField
# over a per-point callable, so every row is built from that point alone: the
# references for build_compatible_triple, omega_endomorphism and
# average_metric.

def reference_spd_sqrt(mat):
    """Symmetric square root and inverse square root of one SPD matrix."""
    from symred.errors import NotSPDError

    a = np.asarray(mat, dtype=float)
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix contains non-finite entries")
    scale = max(1.0, _max_abs(a))
    if _max_abs(a - a.T) > 1e-10 * scale:
        raise NotSPDError("matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0.0:
        raise NotSPDError(f"matrix has nonpositive eigenvalue {w[0]:.3e}")
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def reference_compatible_pointwise(Om, G0):
    """Polar-decomposition (J, G) from (Omega, G0) at one point."""
    from symred.errors import NotSPDError

    A = -np.linalg.solve(G0, Om)
    M = -(A @ A)
    s_root, s_inv = reference_spd_sqrt(G0)
    B = s_root @ M @ s_inv
    B = 0.5 * (B + B.T)
    w_eig, v = np.linalg.eigh(B)
    if w_eig[0] <= 0.0:
        raise NotSPDError(
            f"-A^2 is not positive definite (eigenvalue {w_eig[0]:.3e}); omega is degenerate")
    b_inv_root = (v / np.sqrt(w_eig)) @ v.T
    J = s_inv @ b_inv_root @ s_root @ A
    G = Om @ J
    return J, 0.5 * (G + G.T)


def reference_compatible_triple(w, g0):
    """The compatible triple with J and G built point by point."""
    from symred.geometry import TensorField, eval_field
    from symred.structures import CompatibleTriple

    def j_eval(p):
        return reference_compatible_pointwise(eval_field(w, p), eval_field(g0, p))[0]

    def g_eval(p):
        return reference_compatible_pointwise(eval_field(w, p), eval_field(g0, p))[1]

    n = w.shape[0]
    return CompatibleTriple(w, TensorField.matrix(g_eval, n, name="compatible metric"),
                            TensorField.matrix(j_eval, n, name="compatible acs"))


def reference_omega_endomorphism(w, g0):
    """A = -inv(G0) Omega, point by point."""
    from symred.geometry import TensorField, eval_field

    def a_eval(p):
        Om = eval_field(w, p)
        G0 = eval_field(g0, p)
        return -np.linalg.solve(G0, Om)

    return TensorField.matrix(a_eval, w.shape[0], name="omega endomorphism")


def reference_average_metric(g0, action, quadrature):
    """The group average sum_a w_a D_a^T G0(Phi_a(p)) D_a, point by point:
    one pushforward table per point, summed from zero in rule order."""
    from symred.actions import pushforward_table
    from symred.geometry import TensorField, eval_field

    rule = [(np.asarray(a, dtype=float).reshape(action.group_dim), float(w))
            for a, w in quadrature]
    n = g0.shape[0]

    def avg(p):
        table = pushforward_table(action, [a for a, _ in rule], [p])
        D, moved = table.D, table.moved
        terms = np.array([w for _, w in rule])[:, np.newaxis, np.newaxis] * (
            D[:, 0].swapaxes(1, 2) @ eval_field(g0, moved[:, 0]) @ D[:, 0])
        total = np.cumsum(np.concatenate([np.zeros((1, n, n)), terms]), axis=0)[-1]
        return 0.5 * (total + total.T)

    return TensorField.matrix(avg, n, name=f"group average of {g0.name or 'metric'}")


# --- per-point references for the holomorphy residuals -------------------------
# The residual at one point, with one map call per stencil sample and one map
# call at the point for the target structure: the references for the stacked
# residuals.

def reference_almost_complex_residual(cm, p):
    from symred.geometry import as_point, eval_field

    point = as_point(p)
    J1 = eval_field(cm.source_acs, point)
    J2 = eval_field(cm.target_acs, as_point(cm.chart_map(point)))
    D = reference_jacobian(cm.chart_map, point)
    return float(np.linalg.norm(D @ J1 - J2 @ D))


def reference_cauchy_riemann_residual(cm, p):
    from symred.errors import NotStandardStructureError
    from symred.geometry import as_point, eval_field
    from symred.structures import standard_acs_matrix

    point = as_point(p)
    n1, n2 = cm.source_acs.shape[0], cm.target_acs.shape[0]
    J1_std = standard_acs_matrix(n1)
    J2_std = standard_acs_matrix(n2)
    if _max_abs(eval_field(cm.source_acs, point) - J1_std) > 1e-10:
        raise NotStandardStructureError("source structure is not the coordinate J")
    if _max_abs(eval_field(cm.target_acs, as_point(cm.chart_map(point))) - J2_std) > 1e-10:
        raise NotStandardStructureError("target structure is not the coordinate J")
    D = reference_jacobian(cm.chart_map, point)
    defects = []
    for j in range(n2 // 2):
        for i in range(n1 // 2):
            a_x = D[2 * j, 2 * i]
            a_y = D[2 * j, 2 * i + 1]
            b_x = D[2 * j + 1, 2 * i]
            b_y = D[2 * j + 1, 2 * i + 1]
            defects += [a_x - b_y, a_y + b_x]
    return _max_abs(defects)


def run_group_params(seed, k):
    """The (5, k) group parameters a ``verify`` run at ``seed`` draws, as
    ``cli.run`` draws them: the action suite moves by all five rows, and
    rows 0-1 are the reduction suite's fibre parameters."""
    return np.random.default_rng(seed + 1).uniform(-np.pi, np.pi, (5, k))


# --- scenario fixtures ----------------------------------------------------------
# Scenario texts that are not built-ins: the tests compile them, and
# ``tests/report_sweep.py`` writes them beside its other scenario files.

# A 2-torus on C^2 x C^2 = R^8: t1 rotates the planes (x1, x2) and (x3, x4),
# t2 the planes (x5, x6) and (x7, x8), mu = (|x_{1..4}|^2 / 2, |x_{5..8}|^2 / 2)
# at beta = (1/2, 1/2), and the section is hopf's in each factor, so the
# quotient is CP^1 x CP^1 with hopf's reduced structures on each block.
TORUS_T2_TEXT = """
# hopf's circle reduction in each factor of C^2 x C^2, by a 2-torus
name = torus_t2
dim = 8
group_dim = 2
quotient_dim = 4
abelian = true

omega = [[0, 1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 1, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, -1, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, -1, 0]]
metric = [[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
          [0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0],
          [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]]
acs = [[0, -1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0],
       [0, 0, 0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0],
       [0, 0, 0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0],
       [0, 0, 0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, 0, 1, 0]]

flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),
        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1),
        x5*cos(t2) + x6*sin(t2), x6*cos(t2) - x5*sin(t2),
        x7*cos(t2) + x8*sin(t2), x8*cos(t2) - x7*sin(t2)]
mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2), 0.5*(x5^2 + x6^2 + x7^2 + x8^2)]
beta = [0.5, 0.5]

section = [1/sqrt(1 + w1^2 + w2^2), 0,
           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2),
           1/sqrt(1 + w3^2 + w4^2), 0,
           w3/sqrt(1 + w3^2 + w4^2), w4/sqrt(1 + w3^2 + w4^2)]

sample.count = 20
sample.seed = 7
sample.radius = 2
"""


# hopf with the metric phi * I, phi = 1 + 0.001 Re((x1 + i x2)^6): the circle
# turns the phase of x1 + i x2, so phi is no invariant of it, yet a sixfold
# harmonic takes one value at the fibre angles 0, pi/3 and pi.  It is the
# witness that fibre independence reads the fibre at other angles than those.
SIXFOLD_METRIC_HOPF_TEXT = """
# hopf with a metric that changes along each circle by a sixfold harmonic
name = sixfold_metric_hopf
dim = 4
group_dim = 1
quotient_dim = 2
abelian = true

omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1 + 0.001*(x1^6 - 15*x1^4*x2^2 + 15*x1^2*x2^4 - x2^6), 0, 0, 0],
          [0, 1 + 0.001*(x1^6 - 15*x1^4*x2^2 + 15*x1^2*x2^4 - x2^6), 0, 0],
          [0, 0, 1 + 0.001*(x1^6 - 15*x1^4*x2^2 + 15*x1^2*x2^4 - x2^6), 0],
          [0, 0, 0, 1 + 0.001*(x1^6 - 15*x1^4*x2^2 + 15*x1^2*x2^4 - x2^6)]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),
        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]
mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]
beta = [0.5]

section = [1/sqrt(1 + w1^2 + w2^2), 0,
           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2)]

sample.count = 20
sample.seed = 7
sample.radius = 2
"""
