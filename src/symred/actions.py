"""Lie group actions on charted manifolds: infinitesimal generators,
isometry / symplectomorphism / Hamiltonian checks, invariant-metric
averaging, and invariance of endomorphism fields.

Group elements are addressed by Lie-algebra parameter vectors through a
fixed exponential chart; the built-in groups are circles, tori and
translations, so the chart is globally surjective.  ``average_metric``
takes its quadrature rule over the group as an argument; for a torus,
``uniform_circle_quadrature`` and ``uniform_torus_quadrature`` build plain
uniform rules.  The momentum sign convention is ``omega(xi_M, .) = d mu_xi``.

``apply_flow``, ``generator``, ``momentum_values`` and
``momentum_jacobian`` take an (N, n) array of points, one point being a
stack of one (``geometry.takes_points``), and evaluate all rows in one flow
or stencil batch, as every check does; ``pushforward_table`` builds its
flow Jacobians in one stencil batch per group parameter and every moved
point in one flow batch, and an invariance check or ``average_metric``
reads its field at all of them in one call.  Each row is the bits of the
call on its point alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    ChartPoint,
    RowMap,
    TensorField,
    as_points,
    eval_field,
    fd_gradient,
    fd_jacobian,
    takes_points,
    _differences,
    _evaluate_rows,
    _finite,
    _require_finite,
    _row_max_abs,
    _row_norms,
    _stencil,
)
from .structures import StructureCheckResult, _sampled

__all__ = [
    "GroupAction",
    "MomentumMap",
    "apply_flow",
    "generator",
    "generator_vector",
    "pushforward_table",
    "momentum_values",
    "momentum_jacobian",
    "check_action_axioms",
    "check_isometry",
    "check_symplectomorphism",
    "momentum_residual",
    "check_momentum_invariance",
    "average_metric",
    "check_field_invariance",
    "uniform_circle_quadrature",
    "uniform_torus_quadrature",
    "planar_rotation_action",
]

IDENTITY_ISOMETRY = "g_m(u, v) = g_{Phi_a(m)}(D u, D v)"
IDENTITY_SYMPLECTO = "omega_m(u, v) = omega_{Phi_a(m)}(D u, D v)"
IDENTITY_MOMENTUM = "omega(xi_M, .) = d mu_xi"
IDENTITY_MU_INVARIANT = "mu o Phi_a = mu"
IDENTITY_FIELD_INVARIANT = "D F(m) = F(Phi_a(m)) D"
IDENTITY_AXIOMS = "Phi_0 = id and Phi_s o Phi_t = Phi_{s+t}"


def _pairs(points: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Rows (point, parameter) for a flow's ``rows``, one per row of
    ``points``: the point, then its row of ``params``, or ``params`` itself
    if that is one parameter vector."""
    n = points.shape[1]
    rows = np.empty((len(points), n + params.shape[-1]))
    rows[:, :n] = points
    rows[:, n:] = params
    return rows


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Parametrized flow of a k-dimensional abelian group on one chart.

    ``flow`` is a RowMap from rows (chart point, parameter vector in the
    exponential chart) to the moved points; a per-point callable
    ``flow(params, p)`` is wrapped on construction and called once per row
    with the parameters and a ChartPoint.
    """

    group_dim: int
    flow: RowMap  # given as a RowMap or as a (params, ChartPoint) -> point callable

    def __post_init__(self):
        if self.group_dim < 1:
            raise ValueError("group dimension must be at least 1")
        if not isinstance(self.flow, RowMap):
            flow, k = self.flow, self.group_dim
            object.__setattr__(self, "flow", RowMap.per_row(
                lambda z: flow(z[len(z) - k:], ChartPoint(z[:len(z) - k]))))


@dataclass(frozen=True, eq=False)
class MomentumMap:
    """Component scalar fields of a momentum map together with the level."""

    components: tuple
    beta: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if len(comps) != beta.shape[0]:
            raise ValueError(
                f"{len(comps)} momentum components but level vector of length {beta.shape[0]}"
            )
        object.__setattr__(self, "components", comps)
        beta = beta.copy()
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @property
    def group_dim(self) -> int:
        return len(self.components)


@takes_points(2, row=lambda moved: ChartPoint(moved[0]))
def apply_flow(action: GroupAction, params, X):
    """The rows of the (N, n) array X moved by the group element ``params``,
    the (N, n) array of moved points from one flow batch; one point moved
    comes back as a ChartPoint."""
    a = np.asarray(params, dtype=float).reshape(action.group_dim)
    return _flow_values(action, _pairs(X, a))


def _flow_values(action: GroupAction, rows: np.ndarray) -> np.ndarray:
    """Phi at every (point, parameter) row of ``rows`` (see ``_pairs``), as
    an (N, n) array from one flow batch, a failing row raising what it
    raises alone.  With no rows a per-row flow has no value to give the
    width by, so the (0, n) result is made here."""
    if not len(rows):
        return np.zeros((0, rows.shape[1] - action.group_dim))
    return _evaluate_rows(action.flow, rows, _finite("chart point"))


def _flow_map(action: GroupAction, params) -> RowMap:
    """Phi_a as a chart map, the group parameter repeated over every row; a
    moved point is checked as apply_flow checks it."""
    a = np.asarray(params, dtype=float).reshape(action.group_dim)
    rows = action.flow.rows
    return RowMap(lambda X: _require_finite(rows(_pairs(X, a)), "chart point"))


def _param_rows(action: GroupAction, params) -> np.ndarray:
    """The group parameters as rows of a (P, k) array; a scalar t is t * (1, ..., 1)."""
    k = action.group_dim
    return np.array([np.full(k, a, dtype=float) for a in params]).reshape(-1, k)


def pushforward_table(action: GroupAction, params, points):
    """(D, moved) for P group parameters and N points: D[j] is the (N, n, n)
    stack of flow Jacobians of the j-th parameter a, one stencil batch per
    parameter, and moved[j] the (N, n) points moved by Phi_a, all P * N from
    one flow batch, each row the bits of the call on its point alone.
    Passed as ``pushforwards=`` to check_isometry, check_symplectomorphism,
    check_field_invariance and check_momentum_invariance over the same params
    and points, it lets them share one flow Jacobian and moved point per
    (point, parameter) instead of each differentiating or applying the flow."""
    X, prm = as_points(points), _param_rows(action, params)
    (N, n), P = X.shape, len(prm)
    D = np.array([fd_jacobian(_flow_map(action, a), X) for a in prm]).reshape(P, N, n, n)
    moved = _flow_values(action, _pairs(np.tile(X, (P, 1)), np.repeat(prm, N, axis=0)))
    return D, moved.reshape(P, N, n)


@takes_points(2)
def generator_vector(action: GroupAction, xi, X) -> np.ndarray:
    """Infinitesimal generator along an arbitrary algebra vector:
    d/dt flow(t * xi, p) at t = 0, as a component vector at each row p of
    the (N, n) array X, the (N, n) stack from one flow batch."""
    N, n = X.shape
    direction = np.asarray(xi, dtype=float).reshape(action.group_dim)
    steps = _stencil(direction[np.newaxis])
    values = _flow_values(action, _pairs(np.repeat(X, len(steps), axis=0),
                                         np.tile(steps, (N, 1))))
    v = _differences(values, N)
    if v.shape[1:] != (n,):
        raise ValueError(f"generator length {v.shape[1:]} does not match chart dimension {n}")
    return _require_finite(v, "generator")


def generator(action: GroupAction, xi_index: int, p) -> np.ndarray:
    """Generator of the xi_index-th algebra basis element at p, or at each
    row of an (N, n) array of points."""
    if not 0 <= xi_index < action.group_dim:
        raise ValueError(f"algebra index {xi_index} out of range for k={action.group_dim}")
    e = np.zeros(action.group_dim)
    e[xi_index] = 1.0
    return generator_vector(action, e, p)


def momentum_values(mu: MomentumMap, p) -> np.ndarray:
    """The k component values at p, or the (N, k) values at each row of an
    (N, n) array of points."""
    return np.stack([eval_field(c, p) for c in mu.components], axis=-1)


def momentum_jacobian(mu: MomentumMap, p) -> np.ndarray:
    """k x n matrix whose rows are the gradients of the momentum components;
    for an (N, n) array of points, the (N, k, n) stack, one stencil batch
    per component."""
    return np.stack([fd_gradient(c, p) for c in mu.components], axis=-2)


def check_action_axioms(action: GroupAction, params, points,
                        tol: float = 1e-9) -> StructureCheckResult:
    """Identity axiom flow(0, p) = p and additivity flow(s, flow(t, p)) =
    flow(s + t, p) over the sampled parameters.

    The flows Phi_t(p), the two-step flows over every (s, t) and the
    one-step flows Phi_{s+t}(p) are each evaluated as one batch of rows.
    """
    prm = _param_rows(action, params)
    P = len(prm)

    def residuals(X, rows):
        N, n = X.shape
        res = _row_norms(apply_flow(action, np.zeros(action.group_dim), X) - X)[:, np.newaxis]
        if P:
            # per point, (s, t) pairs with s outer: s repeated per t, t cycled per s
            outer = np.tile(np.repeat(prm, P, axis=0), (N, 1))
            sums = np.tile((prm[:, np.newaxis] + prm[np.newaxis]).reshape(P * P, -1), (N, 1))
            moved = _flow_values(action, _pairs(np.repeat(X, P, axis=0), np.tile(prm, (N, 1))))
            starts = np.tile(moved.reshape(N, P, n), (1, P, 1)).reshape(-1, n)
            two_step = _flow_values(action, _pairs(starts, outer))
            one_step = _flow_values(action, _pairs(np.repeat(X, P * P, axis=0), sums))
            res = np.hstack([res, _row_norms(two_step - one_step).reshape(N, P * P)])
        return _row_max_abs(res)

    return _sampled("action axioms", IDENTITY_AXIOMS, residuals, points, tol)


def _invariance_check(name, identity, residual, action, value, params, points, tol,
                      pushforwards):
    """Shared body of the invariance checks: per point, the largest entry of
    residual(D, F(p), F(Phi_a(p))) over all parameters a, stacked parameter
    outer, F being ``value``, read at the points and at all moved points in
    one call each.  ``pushforwards`` is a ``pushforward_table`` of the same
    params and points, or None."""
    def residuals(X, rows):
        if pushforwards is None:
            D, moved = pushforward_table(action, params, X)
        else:
            D, moved = (a[:, rows] for a in pushforwards)
        there = value(moved.reshape(-1, moved.shape[2]))
        diff = residual(D, value(X), there.reshape(moved.shape[:2] + there.shape[1:]))
        return _row_max_abs(diff.swapaxes(0, 1))

    return _sampled(name, identity, residuals, points, tol)


def _pullback_residual(D, here, moved) -> np.ndarray:
    """A bilinear field against its pullback D^T F(Phi_a(p)) D."""
    return D.swapaxes(-1, -2) @ moved @ D - here


def check_isometry(action: GroupAction, g: TensorField, params, points,
                   tol: float = 1e-6, *, pushforwards=None) -> StructureCheckResult:
    return _invariance_check("isometry", IDENTITY_ISOMETRY, _pullback_residual,
                             action, g, params, points, tol, pushforwards)


def check_symplectomorphism(action: GroupAction, w: TensorField, params, points,
                            tol: float = 1e-6, *, pushforwards=None) -> StructureCheckResult:
    return _invariance_check("symplectomorphism", IDENTITY_SYMPLECTO, _pullback_residual,
                             action, w, params, points, tol, pushforwards)


def momentum_residual(action: GroupAction, mu: MomentumMap, w: TensorField, points,
                      tol: float = 1e-6) -> StructureCheckResult:
    """Hamiltonian condition omega(xi_M, .) = d mu_xi for every basis element.

    With the row convention u^T Omega v for omega(u, v) the identity in
    components is Omega^T xi_M = grad mu, checked in the Euclidean norm.
    """
    def residuals(X, rows):
        OmT = eval_field(w, X).swapaxes(1, 2)
        per_basis = []
        for i in range(action.group_dim):
            xi = generator(action, i, X)
            grad = fd_gradient(mu.components[i], X)
            per_basis.append(_row_norms((OmT @ xi[:, :, np.newaxis])[:, :, 0] - grad))
        return _row_max_abs(np.array(per_basis).T)

    return _sampled("hamiltonian condition", IDENTITY_MOMENTUM, residuals, points, tol)


def check_momentum_invariance(action: GroupAction, mu: MomentumMap, params, points,
                              tol: float = 1e-6, *, pushforwards=None) -> StructureCheckResult:
    """Invariance mu o Phi_a = mu; this is equivariance for abelian groups.

    ``pushforwards`` is a ``pushforward_table`` of the same params and
    points whose moved points are read, or None to build one.
    """
    return _invariance_check("momentum invariance", IDENTITY_MU_INVARIANT,
                             lambda D, here, moved: moved - here,
                             action, lambda X: momentum_values(mu, X), params, points,
                             tol, pushforwards)


def average_metric(g0: TensorField, action: GroupAction, quadrature) -> TensorField:
    """Group average of the pullback metrics over ``quadrature``, a sequence
    of (parameter vector, weight) pairs with weights summing to one:
    sum_a w_a D_a^T G0(Phi_a(p)) D_a.

    A convex combination of pullbacks of an SPD field is SPD, and for an
    exact quadrature the average is invariant under the group.
    """
    rule = [(np.asarray(a, dtype=float).reshape(action.group_dim), float(w))
            for a, w in quadrature]
    weights = sum(w for _, w in rule)
    if abs(weights - 1.0) > 1e-12:
        raise ValueError(f"quadrature weights sum to {weights}, expected 1")
    n = g0.shape[0]
    params = [a for a, _ in rule]
    scale = np.array([w for _, w in rule])[:, np.newaxis, np.newaxis, np.newaxis]

    def avg(X: np.ndarray) -> np.ndarray:
        # one pushforward table over every (parameter, point) pair
        D, moved = pushforward_table(action, params, X)
        G = eval_field(g0, moved.reshape(-1, n)).reshape(D.shape)
        terms = scale * (D.swapaxes(-1, -2) @ G @ D)
        # running sum from zero, term by term in rule order
        total = np.cumsum(np.concatenate([np.zeros((1,) + D.shape[1:]), terms]), axis=0)[-1]
        return 0.5 * (total + total.swapaxes(1, 2))

    return TensorField.matrix(RowMap(avg), n, name=f"group average of {g0.name or 'metric'}")


def check_field_invariance(field_: TensorField, action: GroupAction, params, points,
                           tol: float = 1e-6, *, pushforwards=None) -> StructureCheckResult:
    """Invariance of an endomorphism field: D F(p) = F(Phi_a(p)) D."""
    return _invariance_check("endomorphism invariance", IDENTITY_FIELD_INVARIANT,
                             lambda D, here, moved: D @ here - moved @ D,
                             action, field_, params, points, tol, pushforwards)


def uniform_circle_quadrature(n: int = 64) -> tuple:
    """n equally weighted angles on [0, 2 pi); exact for low trigonometric
    polynomials, spectrally accurate for smooth periodic integrands."""
    return tuple((np.array([2.0 * np.pi * i / n]), 1.0 / n) for i in range(n))


def uniform_torus_quadrature(k: int, n: int = 16) -> tuple:
    """Product of k uniform circle rules with n points per factor."""
    nodes = [np.array([2.0 * np.pi * i / n]) for i in range(n)]
    out = [np.zeros(0)]
    for _ in range(k):
        out = [np.concatenate([a, t]) for a in out for t in nodes]
    weight = 1.0 / len(out)
    return tuple((a, weight) for a in out)


def planar_rotation_action() -> GroupAction:
    """Counterclockwise rotations of the plane, the basic circle action."""

    def flow(Z: np.ndarray) -> np.ndarray:
        x, y, theta = Z[:, 0], Z[:, 1], Z[:, 2]
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([c * x - s * y, s * x + c * y], axis=1)

    return GroupAction(group_dim=1, flow=RowMap(flow))
