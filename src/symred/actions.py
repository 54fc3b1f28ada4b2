"""Lie group actions on charted manifolds: infinitesimal generators,
isometry / symplectomorphism / Hamiltonian checks, invariant-metric
averaging, and invariance of endomorphism fields.

Group elements are addressed by Lie-algebra parameter vectors through a
fixed exponential chart; the built-in groups are circles, tori and
translations, so the chart is globally surjective and quadrature over the
group is plain uniform sampling.  The momentum sign convention is
``omega(xi_M, .) = d mu_xi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedNonabelianError
from .geometry import (
    ChartPoint,
    FDConfig,
    OnDemand,
    TensorField,
    as_coords,
    as_point,
    eval_field,
    fd_gradient,
    fd_jacobian,
    max_abs,
    _central_difference,
    _require_finite,
)
from .structures import StructureCheckResult

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
    "window_quadrature",
    "planar_rotation_action",
]

IDENTITY_ISOMETRY = "g_m(u, v) = g_{Phi_a(m)}(D u, D v)"
IDENTITY_SYMPLECTO = "omega_m(u, v) = omega_{Phi_a(m)}(D u, D v)"
IDENTITY_MOMENTUM = "omega(xi_M, .) = d mu_xi"
IDENTITY_MU_INVARIANT = "mu o Phi_a = mu"
IDENTITY_FIELD_INVARIANT = "D F(m) = F(Phi_a(m)) D"
IDENTITY_AXIOMS = "Phi_0 = id and Phi_s o Phi_t = Phi_{s+t}"


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Parametrized flow of a k-dimensional abelian group on one chart.

    ``flow(params, p)`` is the diffeomorphism for the group element reached
    by the parameter vector in the exponential chart.  ``quadrature`` is a
    tuple of (parameter vector, weight) pairs with weights summing to one,
    used for group averaging.
    """

    group_dim: int
    flow: object  # (params, ChartPoint) -> ChartPoint or array-like
    algebra_basis: tuple[str, ...] = ()
    quadrature: tuple = ()
    abelian: bool = True

    def __post_init__(self):
        if self.group_dim < 1:
            raise ValueError("group dimension must be at least 1")
        basis = self.algebra_basis or tuple(f"xi{i + 1}" for i in range(self.group_dim))
        if len(basis) != self.group_dim:
            raise ValueError("algebra basis size does not match group dimension")
        object.__setattr__(self, "algebra_basis", tuple(basis))
        quad = tuple((np.asarray(a, dtype=float).reshape(self.group_dim), float(w))
                     for a, w in self.quadrature)
        if quad:
            total = sum(w for _, w in quad)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"quadrature weights sum to {total}, expected 1")
        object.__setattr__(self, "quadrature", quad)


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


def apply_flow(action: GroupAction, params, p) -> ChartPoint:
    return as_point(action.flow(np.asarray(params, dtype=float).reshape(action.group_dim),
                                as_point(p)))


def _pushforward(action: GroupAction, params, p, cfg: FDConfig):
    """Jacobian of the flow Phi_a at p, and the moved point Phi_a(p)."""
    D = fd_jacobian(lambda q: apply_flow(action, params, q), p, cfg)
    return D, apply_flow(action, params, p)


def pushforward_table(action: GroupAction, params, points, cfg: FDConfig = FDConfig()) -> OnDemand:
    """``table[i, j]`` is (D, Phi_a(p)) for the i-th point and the j-th group
    parameter, built on first lookup.  Passed as ``pushforwards=`` to
    check_isometry, check_symplectomorphism and check_field_invariance over
    the same params and points, it lets them share one flow Jacobian per
    (point, parameter) instead of each differentiating the flow again."""
    pts = list(points)
    prm = [np.asarray(a, dtype=float).reshape(action.group_dim) for a in params]
    return OnDemand(lambda key: _pushforward(action, prm[key[1]], pts[key[0]], cfg))


def generator_vector(action: GroupAction, xi, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Infinitesimal generator along an arbitrary algebra vector:
    d/dt flow(t * xi, p) at t = 0, as a component vector at p."""
    point = as_point(p)
    direction = np.asarray(xi, dtype=float).reshape(action.group_dim)

    def sample(t: float) -> np.ndarray:
        return apply_flow(action, t * direction, point).coords

    v = _central_difference(sample, cfg)
    if v.shape != (point.dim,):
        raise ValueError(f"generator length {v.shape} does not match chart dimension {point.dim}")
    return _require_finite(v, "generator")


def generator(action: GroupAction, xi_index: int, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Generator of the xi_index-th algebra basis element at p."""
    if not 0 <= xi_index < action.group_dim:
        raise ValueError(f"algebra index {xi_index} out of range for k={action.group_dim}")
    e = np.zeros(action.group_dim)
    e[xi_index] = 1.0
    return generator_vector(action, e, p, cfg)


def momentum_values(mu: MomentumMap, p) -> np.ndarray:
    return np.array([eval_field(c, p) for c in mu.components])


def momentum_jacobian(mu: MomentumMap, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """k x n matrix whose rows are the gradients of the momentum components."""
    return np.vstack([fd_gradient(c, p, cfg) for c in mu.components])


def check_action_axioms(action: GroupAction, params, points, cfg: FDConfig = FDConfig(),
                        tol: float = 1e-9) -> StructureCheckResult:
    """Identity axiom flow(0, p) = p and, for abelian actions, additivity
    flow(s, flow(t, p)) = flow(s + t, p) over the sampled parameters."""
    pts = list(points)
    prm = [np.asarray(a, dtype=float).reshape(action.group_dim) for a in params]
    zero = np.zeros(action.group_dim)
    residuals = []
    for p in pts:
        res = [float(np.linalg.norm(apply_flow(action, zero, p).coords - as_coords(p)))]
        if action.abelian:
            # Phi_t(p) once per t, in the order the loop first needs it
            moved = OnDemand(lambda j, _p=p: apply_flow(action, prm[j], _p))
            for s in prm:
                for j, t in enumerate(prm):
                    two_step = apply_flow(action, s, moved[j])
                    one_step = apply_flow(action, s + t, p)
                    res.append(float(np.linalg.norm(two_step.coords - one_step.coords)))
        residuals.append(max_abs(res))
    return StructureCheckResult.from_samples(
        "action axioms", residuals, pts, tol, IDENTITY_AXIOMS
    )


def _invariance_check(name, identity, residual, action, field_, params, points, cfg, tol,
                      pushforwards):
    """Shared body of the field invariance checks: per point, the worst over
    the group parameters of residual(D, F(p), F(Phi_a(p))).  ``pushforwards``
    is a ``pushforward_table`` of the same params and points, or None."""
    pts = list(points)
    prm = list(params)
    if pushforwards is None:
        pushforwards = pushforward_table(action, prm, pts, cfg)
    residuals = []
    for i, p in enumerate(pts):
        here = eval_field(field_, p)
        per_param = []
        for j in range(len(prm)):
            D, moved = pushforwards[i, j]
            per_param.append(residual(D, here, eval_field(field_, moved)))
        residuals.append(max_abs(per_param))
    return StructureCheckResult.from_samples(name, residuals, pts, tol, identity)


def _pullback_residual(D, here, moved) -> float:
    """A bilinear field against its pullback D^T F(Phi_a(p)) D."""
    return max_abs(D.T @ moved @ D - here)


def check_isometry(action: GroupAction, g: TensorField, params, points,
                   cfg: FDConfig = FDConfig(), tol: float = 1e-6, *,
                   pushforwards=None) -> StructureCheckResult:
    return _invariance_check("isometry", IDENTITY_ISOMETRY, _pullback_residual,
                             action, g, params, points, cfg, tol, pushforwards)


def check_symplectomorphism(action: GroupAction, w: TensorField, params, points,
                            cfg: FDConfig = FDConfig(), tol: float = 1e-6, *,
                            pushforwards=None) -> StructureCheckResult:
    return _invariance_check("symplectomorphism", IDENTITY_SYMPLECTO, _pullback_residual,
                             action, w, params, points, cfg, tol, pushforwards)


def momentum_residual(action: GroupAction, mu: MomentumMap, w: TensorField, points,
                      cfg: FDConfig = FDConfig(), tol: float = 1e-6) -> StructureCheckResult:
    """Hamiltonian condition omega(xi_M, .) = d mu_xi for every basis element.

    With the row convention u^T Omega v for omega(u, v) the identity in
    components is Omega^T xi_M = grad mu, checked in the Euclidean norm.
    """
    pts = list(points)
    residuals = []
    for p in pts:
        Om = eval_field(w, p)
        per_basis = []
        for i in range(action.group_dim):
            xi = generator(action, i, p, cfg)
            grad = fd_gradient(mu.components[i], p, cfg)
            per_basis.append(float(np.linalg.norm(Om.T @ xi - grad)))
        residuals.append(max_abs(per_basis))
    return StructureCheckResult.from_samples(
        "hamiltonian condition", residuals, pts, tol, IDENTITY_MOMENTUM
    )


def check_momentum_invariance(action: GroupAction, mu: MomentumMap, params, points,
                              tol: float = 1e-6) -> StructureCheckResult:
    """Invariance mu o Phi_a = mu; this is equivariance for abelian groups.

    Nonabelian actions are refused: they would need a coadjoint
    representation, which is outside the built-in scope.
    """
    if not action.abelian:
        raise UnsupportedNonabelianError(
            "momentum equivariance for nonabelian groups needs a coadjoint action"
        )
    pts = list(points)
    prm = [np.asarray(a, dtype=float).reshape(action.group_dim) for a in params]
    residuals = []
    for p in pts:
        here = momentum_values(mu, p)
        residuals.append(max_abs([momentum_values(mu, apply_flow(action, a, p)) - here
                                  for a in prm]))
    return StructureCheckResult.from_samples(
        "momentum invariance", residuals, pts, tol, IDENTITY_MU_INVARIANT
    )


def average_metric(g0: TensorField, action: GroupAction, cfg: FDConfig = FDConfig()) -> TensorField:
    """Group average of the pullback metrics over the action's quadrature:
    sum_a w_a D_a^T G0(Phi_a(p)) D_a.

    A convex combination of pullbacks of an SPD field is SPD, and for an
    exact quadrature the average is invariant under the group.
    """
    if not action.quadrature:
        raise ValueError("action has no quadrature rule to average over")
    n = g0.shape[0]

    def avg(p: ChartPoint) -> np.ndarray:
        total = np.zeros((n, n))
        for a, weight in action.quadrature:
            D, moved = _pushforward(action, a, p, cfg)
            total += weight * (D.T @ eval_field(g0, moved) @ D)
        return 0.5 * (total + total.T)

    return TensorField.matrix(avg, n, name=f"group average of {g0.name or 'metric'}")


def check_field_invariance(field_: TensorField, action: GroupAction, params, points,
                           cfg: FDConfig = FDConfig(), tol: float = 1e-6, *,
                           pushforwards=None) -> StructureCheckResult:
    """Invariance of an endomorphism field: D F(p) = F(Phi_a(p)) D."""
    return _invariance_check("endomorphism invariance", IDENTITY_FIELD_INVARIANT,
                             lambda D, here, moved: max_abs(D @ here - moved @ D),
                             action, field_, params, points, cfg, tol, pushforwards)


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


def window_quadrature(k: int, n: int = 16, half_width: float = 1.0) -> tuple:
    """Uniform grid on [-half_width, half_width]^k with equal weights.

    Translations have no invariant probability measure; this bounded window
    stands in so that averaging identities can still be exercised on fields
    that are already invariant.
    """
    axis = np.linspace(-half_width, half_width, n)
    out = [np.zeros(0)]
    for _ in range(k):
        out = [np.concatenate([a, [t]]) for a in out for t in axis]
    weight = 1.0 / len(out)
    return tuple((a, weight) for a in out)


def planar_rotation_action(n_quad: int = 64) -> GroupAction:
    """Counterclockwise rotations of the plane, the basic circle action."""

    def flow(params, p):
        theta = float(params[0])
        x, y = p.coords
        c, s = np.cos(theta), np.sin(theta)
        return ChartPoint([c * x - s * y, s * x + c * y])

    return GroupAction(
        group_dim=1,
        flow=flow,
        algebra_basis=("rotation",),
        quadrature=uniform_circle_quadrature(n_quad),
        abelian=True,
    )
