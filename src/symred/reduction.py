"""Level sets of the momentum map, vertical/horizontal splitting, the
reduced symplectic form and metric through horizontal lifts, the candidate
reduced almost complex structure, and the verification pipelines for the
submersion, the pullback identity and the main equivalence.  A scenario's
chart dimension is omega's, and a point of its section is ``scen.section(x)``.

Every subspace is held as a matrix whose columns span it, and all three
reduced objects at a quotient point come from one lift frame
(``reduced_structures``).  The horizontal frame is the null space of the
g-pairing with the vertical frame inside the level frame, so it lies in
ker d mu and has n - 2k columns by construction.  The verification
pipelines take a ``lift_frames`` table as their input and read the
scenario, the quotient points, the fibre parameters and the frames from
it, so one table built once serves all of them.

Frames are stacks: ``split_tangent`` splits an (N, n) array of points at
once, and ``lift_frames`` builds every frame of a verification, the base
frames and the moved frames of every fibre parameter, in one batch when
the table is made, each map's values riding with its derivatives in one
batch; ``reduced_structures`` reduces an (N, q) array of
quotient points from the base frames of such a table.  One point is a
stack of one (``geometry.takes_points``), whose result is the split or
the reduced structures at that point.  Every frame is the bits of
building it alone.  A batch that raises is built again point by point
(``geometry._replayed``), each point's base frame before its moved
frames, so an error surfaces where, and as, it would frame by frame;
this replay is the only one in the module.  The pipelines read the table's frames as
stacked arrays, with stacked products and no loop over points: a vector
that the per-point formula takes alone (a lift, a generator, a sampled
tangent pair) is its own (n, 1) slice of the product, so each value that
needs no solve is the bits of computing it point by point.

The quotient has no chart of its own other than through the local section, so
the projection differential is never formed globally.  The lifts are
L = H A with A = H^T G d sigma and H g-orthonormal, so with C = H^T G L a
tangent vector u of the level set has d pi(u) = C^-1 H^T G u: every d pi
of a frame, J_red included, is one ``np.linalg.solve`` of C with all its
right-hand sides.  The lifts are pinned by ``d pi(lift_i) = e_i``, which
that solve satisfies to roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .actions import (
    GroupAction,
    MomentumMap,
    generator,
    _pairs,
    _param_rows,
)
from .errors import (
    ActionNotFreeError,
    DegenerateInputError,
    NotOnLevelError,
    NotRegularValueError,
    RankDeficientLiftError,
    VerticalLeakWarning,
)
from .geometry import (
    RANK_TOL,
    ChartPoint,
    RowMap,
    TensorField,
    as_points,
    as_row_map,
    eval_field,
    kernel_basis,
    max_abs,
    orthonormalize,
    takes_points,
    _derivative,
    _field_check,
    _finite,
    _finite_derivative,
    _first,
    _g_norms,
    _replayed,
    _row_max_abs,
    _row_norms,
)
from .report import VerificationReport
from .structures import DEFAULT_TOLERANCES, StructureCheckResult

__all__ = [
    "SampleSpec",
    "ReductionScenario",
    "SplitTangentSpace",
    "ReducedStructures",
    "split_tangent",
    "lift_frames",
    "reduced_structures",
    "verify_submersion",
    "verify_reduction_identity",
    "verify_main_theorem",
]

IDENTITY_FIBER = "h_x independent of the fibre representative"
IDENTITY_VERT_INV = "pushforward of a vertical vector is vertical"
IDENTITY_REDUCTION = "pi* omega_red = i* omega"
IDENTITY_DEGENERACY = "omega(vertical, ker d mu) = 0"
IDENTITY_ACM = "pi_* o J = J_red o pi_*"
IDENTITY_RED_COMPAT = "omega_red(u, J_red v) = h_red(u, v)"
IDENTITY_RED_ACS = "J_red^2 = -I"
IDENTITY_IFF = "reduced compatibility with h_red holds iff pi is almost complex"
IDENTITY_HYPOTHESIS = "ambient compatibility omega(u, J v) = g(u, v)"

# reduced_structures warns when J of a horizontal lift leaves the level
# tangent space by more than this, relative to the lift's g-norm
LEAK_WARNING_TOL = 1e-6
# |mu - beta| below this puts a point on the level set; the generators must
# leave ker d mu by less than this times 1 + |d mu|
LEVEL_TOL = 1e-8
# least generator singular value (and Gram-Schmidt norm) of a free action
FREE_TOL = 1e-8
# level-tangent pairs (u, v) drawn per quotient point for the pullback identity
PAIRS_PER_POINT = 3
# the group parameters that verify moves the section by for the submersion checks
FIBER_PARAMS = (np.pi / 3, np.pi)


@dataclass(frozen=True)
class SampleSpec:
    """Seeded sampling request for quotient chart points, or explicit points."""

    count: int = 20
    seed: int = 0
    radius: float = 2.0
    points: tuple = ()


@dataclass(frozen=True, eq=False)
class ReductionScenario:
    """One reduction instance: ambient structures, group action, momentum map
    with its level, and a local section of the quotient projection, a
    RowMap from quotient chart points to the level set (a per-point callable
    is wrapped on construction).

    The chart dimension n is omega's, and the action is free and abelian,
    so the quotient has dimension ``n - 2 * k``.  ValueError is raised when
    mu has other than k components, omega is not square, or the metric or
    J has another shape than omega."""

    name: str
    omega: TensorField
    metric: TensorField
    acs: TensorField
    action: GroupAction
    mu: MomentumMap
    section: RowMap  # given as a RowMap or as a quotient ChartPoint -> point callable
    tolerances: dict = field(default_factory=dict)
    sample_spec: SampleSpec = SampleSpec()

    def __post_init__(self):
        object.__setattr__(self, "section", as_row_map(self.section))
        k, shape = self.action.group_dim, self.omega.shape
        if self.mu.group_dim != k:
            raise ValueError(f"scenario {self.name!r}: momentum map has {self.mu.group_dim} "
                             f"components for a group of dimension {k}")
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"scenario {self.name!r}: omega has shape {shape}, "
                             "expected a square matrix")
        for key in ("metric", "acs"):
            if getattr(self, key).shape != shape:
                raise ValueError(f"scenario {self.name!r}: {key} has shape "
                                 f"{getattr(self, key).shape}, expected omega's {shape}")

    @property
    def chart_dim(self) -> int:
        return self.omega.shape[0]

    @property
    def quotient_dim(self) -> int:
        return self.chart_dim - 2 * self.action.group_dim


@dataclass(frozen=True, eq=False)
class SplitTangentSpace:
    """The level-set tangent space at a point as column matrices: the kernel
    of d mu, and g-orthonormal vertical and horizontal frames for ``metric``,
    the ambient metric at ``base``; the horizontal columns are combinations
    of the level columns.  The momentum Jacobian and the generators it was
    split with are kept.  Split at an (N, n) array of points, every array
    has a leading axis of length N and ``base`` is that array; split at one
    point, ``base`` is that ChartPoint."""

    base: ChartPoint | np.ndarray
    metric: np.ndarray
    level: np.ndarray       # n x (n-k)
    vertical: np.ndarray    # n x k
    horizontal: np.ndarray  # n x (n-2k)
    jmu: np.ndarray         # k x n, d mu at base
    generators: np.ndarray  # n x k, generator of each algebra basis element


@dataclass(frozen=True, eq=False)
class ReducedStructures:
    """Reduced metric, symplectic form and almost-complex candidate at one
    quotient chart point; at an (N, q) array of them, every array has a
    leading axis of length N and ``point`` is that array."""

    point: ChartPoint | np.ndarray
    h_beta: np.ndarray
    omega_beta: np.ndarray
    j_beta: np.ndarray


@takes_points(1)
def split_tangent(scen: ReductionScenario, M) -> SplitTangentSpace:
    """Split the level-set tangent space at every row of the (N, n) array M
    into vertical and horizontal.

    The level frame is the kernel of d mu, the vertical frame the generators
    orthonormalized for the metric G at the point, and the horizontal frame
    the kernel of ``vertical.T @ G`` inside the level frame, orthonormalized
    for G, so it lies in ker d mu with n - 2k columns by construction.

    All rows are split at once, with one batch of mu and d mu, one of the
    k generators, stacked SVDs and stacked Gram-Schmidt, each row's arrays
    the bits of splitting it alone.  A failing check raises for the first
    row that fails it, and rows whose frames would differ in dimension
    raise ValueError.
    """
    n, k = scen.chart_dim, scen.action.group_dim
    mu = scen.mu.field
    values, Jmu = _derivative(mu.func, M, np.eye(n), _field_check(mu), defer=True)
    gaps = _row_norms(values - scen.mu.beta)
    i = _first(gaps >= LEVEL_TOL)
    if i is not None:
        raise NotOnLevelError(f"{ChartPoint(M[i])} is off the level set: "
                              f"|mu(m) - beta| = {gaps[i]:.3e} exceeds {LEVEL_TOL:.1e}")

    level = kernel_basis(_finite_derivative(mu.func, Jmu, M))
    if level.shape[2] != n - k:
        raise NotRegularValueError(
            f"kernel of d mu has dimension {level.shape[2]}, expected {n - k}"
        )

    V = generator(scen.action, M)
    sv = np.linalg.svd(V, compute_uv=False)
    i = _first(sv[:, -1] <= FREE_TOL)
    if i is not None:
        raise ActionNotFreeError(
            f"generators are degenerate at {ChartPoint(M[i])} "
            f"(smallest singular value {sv[i, -1]:.3e})"
        )
    scale = 1.0 + np.max(np.abs(Jmu), axis=(1, 2))
    tangency = np.max(np.abs(Jmu @ V), axis=(1, 2))
    i = _first(tangency > LEVEL_TOL * scale)
    if i is not None:
        raise DegenerateInputError(
            f"generators leave ker d mu by {tangency[i]:.3e}; "
            "the action is not tangent to the level set"
        )

    G = eval_field(scen.metric, M)
    vertical = orthonormalize(V, G, tol=FREE_TOL)
    if vertical.shape[2] != k:
        raise ActionNotFreeError(f"vertical space degenerates to dimension {vertical.shape[2]}")
    horizontal = orthonormalize(
        level @ kernel_basis(vertical.swapaxes(1, 2) @ G @ level), G)
    if horizontal.shape[2] != n - 2 * k:
        raise DegenerateInputError(
            f"horizontal complement has dimension {horizontal.shape[2]}, expected {n - 2 * k}"
        )

    return SplitTangentSpace(M, G, level, vertical, horizontal, Jmu, V)


@dataclass(frozen=True, eq=False)
class _LiftFrames:
    """The lift frames at N quotient points, every array with a leading N:
    the splitting at the section points (``split.base``), the pinned lifts,
    omega and J there, H^T G, which takes a vector to its horizontal
    coefficients, C = H^T G L, the lifts in those coefficients, and the
    flow Jacobian D Phi_a at sigma(x) that moved the frame's section point
    there (the identity for a frame of the section itself)."""

    split: SplitTangentSpace
    lifts: np.ndarray          # N x n x q with d pi(lift_i) = e_i
    Om: np.ndarray
    J: np.ndarray
    htg: np.ndarray            # N x q x n
    coef: np.ndarray           # N x q x q
    pushforward: np.ndarray    # N x n x n

    def __getitem__(self, rows: slice) -> "_LiftFrames":
        """The frames at the points ``rows``."""
        split = SplitTangentSpace(*(getattr(self.split, f.name)[rows]
                                    for f in fields(SplitTangentSpace)))
        return _LiftFrames(split, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))


def _lift_frames(scen: ReductionScenario, X: np.ndarray,
                 fiber_params=np.zeros((0, 0))) -> _LiftFrames:
    """The lift frames at the rows of the (N, q) array X of quotient points
    through the section, then through Phi_a o sigma for each row a of the
    (P, k) array ``fiber_params``, a block of N frames each, built in one
    batch: one of the section points and Jacobians, one of the moved points
    and flow Jacobians, one ``split_tangent``, which checks the level, the
    Jacobians chained as D(Phi_a o sigma) = D Phi_a(sigma) D sigma, and
    stacked products, SVDs and solves, the derivatives' finiteness checked
    last.  Each frame has the bits of the batch of its point alone, and a
    batch of one raises what that frame raises; ``lift_frames`` replays a
    failing batch point by point.
    """
    n, P, q = scen.chart_dim, len(fiber_params), scen.quotient_dim
    M, dsigma = _derivative(scen.section, X, np.eye(q), _finite("chart point"), defer=True)
    if P:
        rows = _pairs(np.tile(M, (P, 1)), np.repeat(fiber_params, len(X), axis=0))
        moved, D = _derivative(scen.action.flow, rows, np.eye(rows.shape[1], n),
                               _finite("chart point"), defer=True)
        M = np.concatenate([M, moved])
    split = split_tangent(scen, M)
    H = split.horizontal
    htg = H.swapaxes(1, 2) @ split.metric
    Om = eval_field(scen.omega, M)
    J = eval_field(scen.acs, M)

    # horizontal part of the section pushforward; d pi of it is the identity
    # on the quotient chart because pi o section = id and d pi kills the
    # vertical complement
    dsigma = _finite_derivative(scen.section, dsigma, X)
    pushforward = np.broadcast_to(np.eye(n), (len(X), n, n))
    if P:
        D = _finite_derivative(scen.action.flow, D, rows)
        dsigma = np.concatenate([dsigma, D @ np.tile(dsigma, (P, 1, 1))])
        pushforward = np.concatenate([pushforward, D])
    lifts = H @ (htg @ dsigma)
    if q:
        sv = np.linalg.svd(lifts, compute_uv=False)
        i = _first(sv[:, -1] <= RANK_TOL * np.where(sv[:, 0] > 1.0, sv[:, 0], 1.0))
        if i is not None:
            raise RankDeficientLiftError(
                f"projection differential is not invertible on H at {ChartPoint(M[i])} "
                f"(singular values {sv[i]})"
            )
    return _LiftFrames(split, lifts, Om, J, htg, htg @ lifts, pushforward)


@dataclass(frozen=True, eq=False)
class _FrameTable:
    """The lift frames of a run, built from ``scen``, the (N, q) quotient
    ``points`` and the (P, k) ``fiber_params``: ``base``, the N frames
    through the section, and ``moved``, the P * N frames through
    Phi_a o sigma, parameter outer (frame j * N + i is point i moved by
    parameter j)."""

    scen: ReductionScenario
    points: np.ndarray
    fiber_params: np.ndarray
    base: _LiftFrames
    moved: _LiftFrames


def lift_frames(scen: ReductionScenario, points, fiber_params=()) -> _FrameTable:
    """The table of the lift frames at ``points`` through the scenario's own
    section and through Phi_a o sigma for each fibre parameter a, a group
    parameter vector or a scalar t standing for t * (1, ..., 1), all built
    in one ``_lift_frames`` batch.  A failing batch runs again point by
    point (``_replayed``), each point's base frame alone and then its base
    and moved frames as one batch, so the first failing point raises what
    it raises alone, its base frame first.  No points raise ValueError
    (``as_points``).  The table is the one input of the verify_* pipelines,
    so one frame per point serves all of them; ``verify_submersion`` needs
    fibre parameters (``FIBER_PARAMS`` in ``verify``), the other two read
    only the base frames."""
    X, prm = as_points(points), _param_rows(scen.action, fiber_params)

    def build(X, rows):
        if len(prm) and rows != slice(None):  # a replayed point: its base frame alone first
            _lift_frames(scen, X)
        return _lift_frames(scen, X, prm)

    frames = _replayed(build, X)
    return _FrameTable(scen, X, prm, frames[:len(X)], frames[len(X):])


def _reduced_metric(lifts: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """g on the lifts, symmetrized, at every frame."""
    h = lifts.swapaxes(1, 2) @ metric @ lifts
    return 0.5 * (h + h.swapaxes(1, 2))


def _reduced_symplectic(f: _LiftFrames) -> np.ndarray:
    """omega on the lifts, antisymmetrized, at every frame."""
    w = f.lifts.swapaxes(1, 2) @ f.Om @ f.lifts
    return 0.5 * (w - w.swapaxes(1, 2))


def _columns(A: np.ndarray) -> np.ndarray:
    """The columns of every A[i] as an (N, c, n, 1) stack of vectors, so that
    a stacked product takes each column as the per-vector formula does."""
    return A.swapaxes(1, 2)[..., np.newaxis]


def _dpi(f: _LiftFrames, h_coef: np.ndarray) -> np.ndarray:
    """d pi of vectors from their horizontal coefficients, the (N, c, q, 1)
    stack H^T G u: C x = H^T G u solved for the c vectors of a frame with
    one factorization, returned as the columns of (N, q, c)."""
    return np.linalg.solve(f.coef, h_coef[..., 0].swapaxes(1, 2))


def _ratio(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """a / scale, and 0 where the scale is 0."""
    return np.divide(a, scale, out=np.zeros_like(a), where=scale != 0.0)


def _reduced(f: _LiftFrames):
    """Reduced metric, symplectic form and acs candidate at every frame, and
    the leaks of J applied to each lift: the norm of its vertical
    coefficients and the g-norm of its part normal to the level set, both
    relative to the lift's g-norm, as (N, q) arrays.  Column i of J_red
    solves C x = H^T G J lift_i."""
    G, H, V = f.split.metric, f.split.horizontal, f.split.vertical
    L = _columns(f.lifts)
    image = f.J[:, np.newaxis] @ L
    h_coef = f.htg[:, np.newaxis] @ image
    v_coef = (V.swapaxes(1, 2) @ G)[:, np.newaxis] @ image
    normal = image - H[:, np.newaxis] @ h_coef - V[:, np.newaxis] @ v_coef
    scale = _g_norms(L[..., 0], G[:, np.newaxis])
    return (_reduced_metric(f.lifts, G), _reduced_symplectic(f), _dpi(f, h_coef),
            _ratio(_row_norms(v_coef[..., 0]), scale),
            _ratio(_g_norms(normal[..., 0], G[:, np.newaxis]), scale))


@takes_points(1)
def reduced_structures(scen: ReductionScenario, X) -> ReducedStructures:
    """Reduced metric h_x(v, w) = g(lift v, lift w), reduced symplectic form
    omega_red(v, w) = omega(lift v, lift w) and the pushforward candidate for
    the reduced almost complex structure at every row x of the (N, q) array
    X, all from the base frames of ``lift_frames(scen, X)``, so a failing
    batch raises what its first failing point raises alone.

    Column i of the candidate is d pi(J lift_i) in the quotient chart.
    Well-definedness is not assumed: when J applied to a lift leaves the
    level-set tangent space by more than LEAK_WARNING_TOL a
    VerticalLeakWarning records the defect at the first such point, and the
    candidate is still returned so the equivalence check can quantify both
    branches.
    """
    f = lift_frames(scen, X).base
    h, w, j_red, _, normal_leak = _reduced(f)
    leak = _row_max_abs(normal_leak)
    i = _first(leak > LEAK_WARNING_TOL)
    if i is not None:
        warnings.warn(
            f"J applied to a horizontal lift leaves the level tangent space "
            f"by {leak[i]:.3e} at {ChartPoint(f.split.base[i])}",
            VerticalLeakWarning,
            stacklevel=3,  # the caller of the public function, past takes_points
        )
    return ReducedStructures(point=X, h_beta=h, omega_beta=w, j_beta=j_red)


def _vertical_leak(D: np.ndarray, generators: np.ndarray, moved: SplitTangentSpace) -> np.ndarray:
    """At every frame, the largest g-norm of the part of ``D @ xi``
    g-orthogonal to the vertical space of ``moved``, the splitting at the
    moved point, over generators xi."""
    G, V = moved.metric, moved.vertical
    pushed = D @ generators
    leak = pushed - V @ (V.swapaxes(1, 2) @ G @ pushed)
    return _row_max_abs(_g_norms(leak.swapaxes(1, 2), G[:, np.newaxis]))


def verify_submersion(frames: _FrameTable,
                      tol: float = DEFAULT_TOLERANCES["reduction.submersion"],
                      vertical_tol: float = DEFAULT_TOLERANCES["reduction.vertical-invariance"]
                      ) -> VerificationReport:
    """Riemannian-submersion checks at the points of the ``lift_frames``
    table ``frames``: fiber independence of the reduced metric (``tol``)
    and invariance of the vertical distribution (``vertical_tol``) over its
    fibre parameters.  A table of no fibre parameters would pass both
    vacuously, so it raises ValueError.  The flow pushforwards are those the
    moved frames were built with, and the residuals one stack."""
    X, P, base, moved = frames.points, len(frames.fiber_params), frames.base, frames.moved
    if not P:
        raise ValueError("lift frame table has no fibre parameters to check")
    report = VerificationReport("submersion")
    fiber = np.tile(_reduced_metric(base.lifts, base.split.metric), (P, 1, 1)) \
        - _reduced_metric(moved.lifts, moved.split.metric)
    vertical = _vertical_leak(moved.pushforward, np.tile(base.split.generators, (P, 1, 1)),
                              moved.split)
    fiber_res = _row_max_abs(_row_max_abs(fiber).reshape(P, len(X)).T)
    vert_res = _row_max_abs(vertical.reshape(P, len(X)).T)
    report.add(StructureCheckResult.from_samples(
        "fiber independence", fiber_res, X, tol, IDENTITY_FIBER,
        extras={"fiber_params": frames.fiber_params.tolist()}))
    report.add(StructureCheckResult.from_samples(
        "vertical invariance", vert_res, X, vertical_tol, IDENTITY_VERT_INV))
    return report


def verify_reduction_identity(frames: _FrameTable,
                              tol: float = DEFAULT_TOLERANCES["reduction.identity"],
                              degeneracy_tol: float = DEFAULT_TOLERANCES["reduction.degeneracy"],
                              seed: int = 0) -> VerificationReport:
    """Pullback identity of the reduced symplectic form and the degeneracy of
    the vertical directions inside the restricted form.

    For PAIRS_PER_POINT sampled level-tangent pairs (u, v) per point the
    residual is
    |omega(m)(u, v) - omega_red(pi m)(d pi u, d pi v)|; vertical directions
    must pair to zero with the whole kernel of d mu.  The coefficients of u
    and v in the level frame are drawn in one call, point by point and pair
    by pair, u before v.  The points and the scenario are those of the
    ``lift_frames`` table ``frames``.
    """
    report = VerificationReport("reduction identity")
    scen, X, f = frames.scen, frames.points, frames.base
    N, n, q, K = len(X), scen.chart_dim, scen.quotient_dim, f.split.level
    coefs = np.random.default_rng(seed).standard_normal(
        (N, PAIRS_PER_POINT, 2, n - scen.action.group_dim))
    uv = K[:, np.newaxis, np.newaxis] @ coefs[..., np.newaxis]
    u, v = uv[:, :, 0], uv[:, :, 1]
    ambient = (u.swapaxes(2, 3) @ f.Om[:, np.newaxis] @ v)[..., 0, 0]
    d = _dpi(f, f.htg[:, np.newaxis] @ uv.reshape(N, 2 * PAIRS_PER_POINT, n, 1))
    d = d.swapaxes(1, 2).reshape(N, PAIRS_PER_POINT, 2, q)
    reduced = (d[:, :, 0, np.newaxis] @ _reduced_symplectic(f)[:, np.newaxis]
               @ d[:, :, 1, :, np.newaxis])[..., 0, 0]
    vertical = f.split.vertical.swapaxes(1, 2)[:, :, np.newaxis]
    degeneracy = vertical @ f.Om[:, np.newaxis] @ K[:, np.newaxis]
    id_res, deg_res = _row_max_abs(ambient - reduced), _row_max_abs(degeneracy)
    report.add(StructureCheckResult.from_samples(
        "pullback identity", id_res, X, tol, IDENTITY_REDUCTION,
        extras={"pairs_per_point": PAIRS_PER_POINT, "seed": seed}))
    report.add(StructureCheckResult.from_samples(
        "vertical degeneracy", deg_res, X, degeneracy_tol, IDENTITY_DEGENERACY))
    return report


def verify_main_theorem(frames: _FrameTable,
                        tol: float = DEFAULT_TOLERANCES["main-theorem.residuals"],
                        hypothesis_tol: float = DEFAULT_TOLERANCES["main-theorem.hypothesis"]
                        ) -> VerificationReport:
    """Equivalence between reduced compatibility and the almost-complex-mapping
    property of the projection.

    Per sample point three residuals are reported: the almost-complex-mapping
    defect (horizontal component of J applied to vertical vectors, plus the
    level-normal leak of J applied to the lifts), the reduced compatibility
    defect |omega_red J_red - h_red|, and |J_red^2 + I|.  The equivalence
    verdict requires the first two to land on the same side of the tolerance
    at every sample; ambient compatibility is checked alongside because the
    equivalence is only asserted under that hypothesis.  The points and the
    scenario are those of the ``lift_frames`` table ``frames``.
    """
    report = VerificationReport("main theorem")
    X, q, f = frames.points, frames.scen.quotient_dim, frames.base
    h_red, w_red, j_red, vert_leak, normal_leak = _reduced(f)
    j_vertical = _row_norms(
        (f.htg[:, np.newaxis] @ f.J[:, np.newaxis] @ _columns(f.split.vertical))[..., 0])
    vert_leak, normal_leak = _row_max_abs(vert_leak), _row_max_abs(normal_leak)
    acm_res = np.maximum(normal_leak, _row_max_abs(j_vertical))
    compat_res = _row_max_abs(w_red @ j_red - h_red)
    acs_res = _row_norms((j_red @ j_red + np.eye(q)).reshape(len(X), q * q))
    hyp_res = _row_max_abs(f.Om @ f.J - f.split.metric)
    hypothesis_ok = bool((hyp_res <= hypothesis_tol).all())
    iff_res = np.where((acm_res <= tol) == (compat_res <= tol), 0.0, 1.0)
    branch = "positive" if max_abs(acm_res) <= tol and max_abs(compat_res) <= tol else "negative"
    report.add(StructureCheckResult.from_samples(
        "almost complex mapping defect", acm_res, X, tol, IDENTITY_ACM))
    report.add(StructureCheckResult.from_samples(
        "reduced compatibility", compat_res, X, tol, IDENTITY_RED_COMPAT))
    report.add(StructureCheckResult.from_samples(
        "reduced acs identity", acs_res, X, tol, IDENTITY_RED_ACS))
    report.add(StructureCheckResult.from_samples(
        "ambient compatibility hypothesis", hyp_res, X, hypothesis_tol, IDENTITY_HYPOTHESIS))
    report.add(StructureCheckResult.from_samples(
        "main theorem iff", iff_res, X, 0.5, IDENTITY_IFF,
        extras={"hypothesis_ok": hypothesis_ok, "branch": branch,
                "hypothesis_violated": not hypothesis_ok}))
    # the one loop over points: the per-sample rows, in the order of ``points``
    report.meta["samples"] = [{
        "acm_residual": float(acm_res[i]),
        "compat_residual": float(compat_res[i]),
        "acs_residual": float(acs_res[i]),
        "vertical_leak": float(vert_leak[i]),
        "normal_leak": float(normal_leak[i]),
    } for i in range(len(X))]
    return report
