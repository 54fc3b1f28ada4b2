"""Shared test oracles, kept independent of the library code paths they check."""

import math

import numpy as np

from symred.errors import NonFiniteError, ValidationError
from symred.exprlang import BinOp, Call, Coord, Neg, Num, Pow
from symred.geometry import ChartPoint


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


_REFERENCE_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": math.sqrt}


def reference_eval_expr(e, env):
    """Tree-walking evaluator: the reference for the closure compiler.

    Plain float arithmetic over a name -> value environment, walking the AST
    at every call.  Division by zero, square roots of negative numbers and
    overflow raise NonFiniteError; unknown names raise ValidationError when
    they are reached.
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
        try:
            return float(reference_eval_expr(e.base, env) ** e.power)
        except OverflowError:
            raise NonFiniteError("power overflows") from None
    if isinstance(e, Call):
        arg = reference_eval_expr(e.arg, env)
        if e.fn == "sqrt" and arg < 0:
            raise NonFiniteError(f"sqrt of negative value {arg}")
        try:
            return _REFERENCE_FUNCTIONS[e.fn](arg)
        except KeyError:
            raise ValidationError(f"unknown function {e.fn!r}") from None
        except OverflowError:
            raise NonFiniteError(f"{e.fn} overflows") from None
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


def reference_sample_ball(dim, count, radius=2.0, seed=0):
    """Rejection sampling one candidate at a time: the reference for the
    batched sampler, which must return the same points bit for bit."""
    rng = np.random.default_rng(seed)
    if dim == 0:
        return [ChartPoint(np.zeros(0)) for _ in range(count)]
    points = []
    while len(points) < count:
        x = rng.uniform(-1.0, 1.0, size=dim)
        if np.linalg.norm(x) <= 1.0:
            points.append(ChartPoint(radius * x))
    return points
