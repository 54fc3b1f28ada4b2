"""Lie group actions on charted manifolds: infinitesimal generators,
isometry / symplectomorphism / Hamiltonian checks, invariant-metric
averaging, and invariance of endomorphism fields.

Group elements are addressed by Lie-algebra parameter vectors through a
fixed exponential chart; the built-in groups are circles, tori and
translations, so the chart is globally surjective.  ``average_metric``
takes its quadrature rule over the group as an argument; for a torus,
``uniform_torus_quadrature`` builds a plain uniform rule (k = 1 for a
circle).  The momentum sign convention is ``omega(xi_M, .) = d mu_xi``.
The momentum map mu: M -> g* is one vector field of shape (k,)
(``MomentumMap.field``), compiled from one program over its k entries: its
values at N points are ``eval_field(mu.field, X)``, one batch, and its
Jacobian one ``fd_directional`` batch along the coordinate axes, for any
k, so a failing stack raises the first error its program meets across all
entries.

``apply_flow``, ``generator`` and ``momentum_jacobian`` take an (N, n)
array of points, and nothing else, and evaluate all rows in one flow or
derivative batch, as every check does, the k generators one (N, n, k)
batch; ``pushforward_table`` builds the flow Jacobians and the moved
points of all P * N (parameter, point) pairs in one derivative batch, and
refuses a group parameter of another length than k or not finite, as
``apply_flow`` does.  That table is the one input
of the axiom and invariance checks, which read their parameters, points and
moves from it; an invariance check or ``average_metric`` reads its field at
all moved points in one call.  Each row is the bits of the call on its
point alone.  A compiled flow's derivatives are exact
(``geometry.RowMap.tangents``): the flow Jacobians seed the point
coordinates and the generators the group parameters.  Each invariance
residual and the Hamiltonian one is one private ``_*_residual`` function
of stacked arrays, and every pullback D^T F D is ``geometry._pullback``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, Record
from .geometry import (
    RowMap,
    TensorField,
    as_points,
    eval_field,
    fd_directional,
    _derivative,
    _evaluate_rows,
    _pullback,
    _require_finite,
    _row_max_abs,
    _row_norms,
    _stack,
)
from .structures import DEFAULT_TOLERANCES, StructureCheckResult, _row

__all__ = [
    "GroupAction",
    "MomentumMap",
    "apply_flow",
    "generator",
    "PushforwardTable",
    "pushforward_table",
    "momentum_jacobian",
    "check_action_axioms",
    "check_isometry",
    "check_symplectomorphism",
    "momentum_residual",
    "check_momentum_invariance",
    "average_metric",
    "check_field_invariance",
    "uniform_torus_quadrature",
    "planar_rotation_action",
]


def _pairs(points: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Rows (point, parameter) for a flow's ``rows``, one per row of
    ``points``: the point, then its row of ``params``, or ``params`` itself
    if that is one parameter vector."""
    n = points.shape[1]
    rows = np.empty((len(points), n + params.shape[-1]))
    rows[:, :n] = points
    rows[:, n:] = params
    return rows


class GroupAction(Record):
    """Parametrized flow of a k-dimensional abelian group on one chart.

    ``flow`` is a RowMap from rows (chart point, parameter vector in the
    exponential chart) to the moved points; a per-point callable
    ``flow(params, p)`` is wrapped on construction and called once per row
    with the parameters and the point, read-only 1-D float arrays
    (``RowMap.per_row``).
    """

    __slots__ = ("group_dim", "flow")

    def __init__(self, group_dim: int, flow):
        if group_dim < 1:
            raise ValueError("group dimension must be at least 1")
        super().__init__(group_dim, flow if isinstance(flow, RowMap) else RowMap.per_row(
            lambda z: flow(z[len(z) - group_dim:], z[:len(z) - group_dim])))


class MomentumMap(Record):
    """A momentum map mu: M -> g*, one vector field of shape (k,), together
    with the level beta it is reduced at."""

    __slots__ = ("field", "beta")

    def __init__(self, field: TensorField, beta):
        beta = np.array(beta, dtype=float, ndmin=1)  # always a private copy
        if field.shape != beta.shape or beta.ndim != 1:
            raise ValueError(f"momentum map of shape {field.shape} "
                             f"but level vector of shape {beta.shape}")
        beta.flags.writeable = False
        super().__init__(field, beta)

    @property
    def group_dim(self) -> int:
        return self.field.shape[0]


def apply_flow(action: GroupAction, params, X):
    """The rows of the (N, n) array X moved by the group element ``params``,
    a vector of k finite parameters, the (N, n) array of moved points from
    one flow batch."""
    return _flow(action, _pairs(_stack(X), _group_parameter(action, params)))


def _flow(action: GroupAction, rows: np.ndarray, seeds: np.ndarray | None = None):
    """Phi at every (point, parameter) row of ``rows`` (see ``_pairs``), as
    an (N, n) array from one flow batch, each moved point checked as a
    chart point; given ``seeds``, with its (N, n, s) derivatives along
    their columns, from one derivative batch."""
    if seeds is None:
        return _evaluate_rows(action.flow, rows, "chart point")
    return _derivative(action.flow, rows, seeds, "chart point")


def _group_parameter(action: GroupAction, a) -> np.ndarray:
    """The group parameter ``a`` as a vector of k entries, else ValueError,
    and finite, else NonFiniteError, each naming the parameter and k."""
    k = action.group_dim
    a = np.asarray(a, dtype=float).reshape(-1)
    if len(a) != k:
        raise ValueError(f"group parameter {a.tolist()} has length {len(a)}, expected k = {k}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"group parameter {a.tolist()} of a group of dimension k = {k} "
                             "contains non-finite entries")
    return a


def _param_rows(action: GroupAction, params) -> np.ndarray:
    """The group parameters, each a vector of k entries (``_group_parameter``),
    as the rows of a (P, k) array."""
    return np.array([_group_parameter(action, a) for a in params]).reshape(-1, action.group_dim)


class PushforwardTable(Record):
    """The flow Jacobians and moved points of P group parameters at N
    points, with the action, the (N, n) points and the (P, k) parameters
    they were built from: ``D[j]`` is the (N, n, n) stack of Jacobians of
    Phi_a for the j-th parameter a, and ``moved[j]`` the (N, n) points
    moved by Phi_a."""

    __slots__ = ("action", "D", "moved", "points", "params")


def pushforward_table(action: GroupAction, params, points) -> PushforwardTable:
    """The flow Jacobians and moved points of P group parameters at N
    points (``PushforwardTable``), the Jacobians of all P * N pairs from
    one derivative batch and the moved points from one flow batch, each row
    the bits of the call on its point alone; a failing batch raises the
    first error it meets, naming its first failing (parameter, point) row,
    parameter outer.  It
    is the one input of check_action_axioms, check_isometry,
    check_symplectomorphism, check_momentum_invariance and
    check_field_invariance, so one flow Jacobian and moved point per
    (parameter, point) pair serves all of them.  No points or no group
    parameters would make every check over the table pass vacuously, so
    they raise ValueError."""
    X, prm = as_points(points), _param_rows(action, params)
    (N, n), P = X.shape, len(prm)
    if not P:
        raise ValueError("pushforward table has no group parameters to check")
    rows = _pairs(np.tile(X, (P, 1)), np.repeat(prm, N, axis=0))
    moved, D = _flow(action, rows, np.eye(n + action.group_dim, n))
    return PushforwardTable(action, D.reshape(P, N, n, n), moved.reshape(P, N, n), X, prm)


def generator(action: GroupAction, X) -> np.ndarray:
    """The generators d/dt flow(t e_i, p) at t = 0 of the k algebra basis
    elements e_i at each row p of the (N, n) array X, as the columns of an
    (N, n, k) stack from one derivative batch of the flow in its k group
    parameters."""
    n, k = _stack(X).shape[1], action.group_dim
    _, V = _flow(action, _pairs(X, np.zeros(k)), np.eye(n + k, k, -n))
    if V.shape[1] != n:
        raise ValueError(f"generator length {V.shape[1:-1]} does not match chart dimension {n}")
    return _require_finite(V, "generator")


def momentum_jacobian(mu: MomentumMap, X) -> np.ndarray:
    """d mu at each row of the (N, n) array X, the (N, k, n) stack from one
    derivative batch along the coordinate axes, row i of each matrix the
    gradient of mu's i-th entry."""
    return fd_directional(mu.field, X, np.eye(_stack(X).shape[1]))


def check_action_axioms(table: PushforwardTable,
                        tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    """Identity axiom flow(0, p) = p and additivity flow(s, flow(t, p)) =
    flow(s + t, p) over the table's parameters and points.

    Phi_t(p) is read from ``table.moved``; the identity flows, the two-step
    flows over every (s, t) and the one-step flows Phi_{s+t}(p) are each
    evaluated as one batch of rows.
    """
    action, prm, X = table.action, table.params, table.points
    (N, n), P = X.shape, len(prm)
    identity = _row_norms(apply_flow(action, np.zeros(action.group_dim), X) - X)
    # per point, (s, t) pairs with s outer: s repeated per t, t cycled per s
    outer = np.tile(np.repeat(prm, P, axis=0), (N, 1))
    sums = np.tile((prm[:, np.newaxis] + prm[np.newaxis]).reshape(P * P, -1), (N, 1))
    starts = np.tile(table.moved.swapaxes(0, 1), (1, P, 1)).reshape(-1, n)
    two_step = _flow(action, _pairs(starts, outer))
    one_step = _flow(action, _pairs(np.repeat(X, P * P, axis=0), sums))
    residuals = np.hstack([identity[:, np.newaxis],
                           _row_norms(two_step - one_step).reshape(N, P * P)])
    return _row("action axioms", _row_max_abs(residuals), X, tolerances)


def _invariance_check(name, residual, field_, table: PushforwardTable, tolerances):
    """Shared body of the invariance checks: per point of ``table``, the
    largest entry of residual(D, F(p), F(Phi_a(p))) over all of its
    parameters a, stacked parameter outer, F being the field ``field_``,
    evaluated at the points and at all moved points in one call each."""
    D, moved = table.D, table.moved
    there = eval_field(field_, moved.reshape(-1, moved.shape[2]))
    here = eval_field(field_, table.points)
    diff = residual(D, here, there.reshape(moved.shape[:2] + there.shape[1:]))
    return _row(name, _row_max_abs(diff.swapaxes(0, 1)), table.points, tolerances)


def _pullback_residual(D, here, moved) -> np.ndarray:
    """A bilinear field against its pullback D^T F(Phi_a(p)) D."""
    return _pullback(moved, D) - here


def _endomorphism_residual(D, here, moved) -> np.ndarray:
    """An endomorphism field's D F(p) against F(Phi_a(p)) D."""
    return D @ here - moved @ D


def _mu_residual(D, here, moved) -> np.ndarray:
    """mu(Phi_a(p)) against mu(p)."""
    return moved - here


def _hamiltonian_residual(Om, V, jmu) -> np.ndarray:
    """Largest norm of Omega^T xi - grad mu_xi over the generators xi, the
    columns of V (N, n, k), with d mu (N, k, n), at each point."""
    xis = np.ascontiguousarray(V.swapaxes(1, 2))[..., np.newaxis]
    return _row_max_abs(_row_norms((Om.swapaxes(1, 2)[:, np.newaxis] @ xis)[..., 0] - jmu))


def check_isometry(g: TensorField, table: PushforwardTable,
                   tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    return _invariance_check("isometry", _pullback_residual, g, table, tolerances)


def check_symplectomorphism(w: TensorField, table: PushforwardTable,
                            tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    return _invariance_check("symplectomorphism", _pullback_residual, w, table, tolerances)


def momentum_residual(action: GroupAction, mu: MomentumMap, w: TensorField, points,
                      tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    """Hamiltonian condition omega(xi_M, .) = d mu_xi for every basis element.

    With the row convention u^T Omega v for omega(u, v) the identity in
    components is Omega^T xi_M = grad mu, checked in the Euclidean norm.
    """
    X = as_points(points)
    return _row("hamiltonian condition", _hamiltonian_residual(
        eval_field(w, X), generator(action, X), momentum_jacobian(mu, X)), X, tolerances)


def check_momentum_invariance(mu: MomentumMap, table: PushforwardTable,
                              tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    """Invariance mu o Phi_a = mu; this is equivariance for abelian groups.
    The table's points and moved points are read, not its Jacobians."""
    return _invariance_check("momentum invariance", _mu_residual, mu.field, table, tolerances)


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
        table = pushforward_table(action, params, X)
        D, moved = table.D, table.moved
        G = eval_field(g0, moved.reshape(-1, n)).reshape(D.shape)
        terms = scale * _pullback(G, D)
        # running sum from zero, term by term in rule order
        total = np.cumsum(np.concatenate([np.zeros((1,) + D.shape[1:]), terms]), axis=0)[-1]
        return 0.5 * (total + total.swapaxes(1, 2))

    return TensorField.matrix(RowMap(avg), n, name=f"group average of {g0.name or 'metric'}")


def check_field_invariance(field_: TensorField, table: PushforwardTable,
                           tolerances=DEFAULT_TOLERANCES) -> StructureCheckResult:
    """Invariance of an endomorphism field: D F(p) = F(Phi_a(p)) D."""
    return _invariance_check("endomorphism invariance", _endomorphism_residual, field_, table,
                             tolerances)


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
