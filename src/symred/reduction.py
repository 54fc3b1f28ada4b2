"""Level sets of the momentum map, vertical/horizontal splitting, the
reduced symplectic form and metric through horizontal lifts, the candidate
reduced almost complex structure, and the verification pipelines for the
submersion, the pullback identity and the main equivalence.

Every subspace is held as a matrix whose columns span it, and all three
reduced objects at a quotient point come from one lift frame
(``reduced_structures``).  The horizontal frame is the null space of the
g-pairing with the vertical frame inside the level frame, so it lies in
ker d mu and has n - 2k columns by construction.  The verification
pipelines read the base frame of each quotient point from a ``lift_frames``
table, which a caller can build once and pass to all of them, and the
vertical-invariance check reads the moved frames of the fibre check.

Frames are built in stacks: ``split_tangent`` splits an (N, n) array of
points at once, and ``lift_frames`` builds every base frame of a
verification in one batch on its first lookup, as ``verify_submersion``
does with the moved frames and flow pushforwards of each fibre parameter;
a single frame is a stack of one.  Every frame is the bits of building it
alone; only the ``lstsq`` solves, which have no stacked form, run per
frame.  A batch that fails is given up, and each frame is then built alone
when it is first read, so an error surfaces where, and as, it would frame
by frame.

The quotient has no chart of its own except through the local section, so
the projection differential is never formed globally: a tangent vector of
the level set is projected onto the horizontal space and expressed in the
lift frame by solving a small linear system.  The lifts are pinned by
``d pi(lift_i) = e_i``, which that solve satisfies to roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .actions import (
    GroupAction,
    MomentumMap,
    generator,
    momentum_jacobian,
    momentum_values,
    _flow_map,
)
from .errors import (
    ActionNotFreeError,
    DegenerateInputError,
    NotOnLevelError,
    NotRegularValueError,
    RankDeficientLiftError,
    SectionNotOnLevelError,
    VerticalLeakWarning,
)
from .geometry import (
    BatchTable,
    ChartPoint,
    FDConfig,
    RowMap,
    TensorField,
    as_point,
    as_row_map,
    eval_field,
    fd_jacobian,
    fro_norm,
    g_norm,
    kernel_basis,
    max_abs,
    orthonormalize,
    _require_finite,
    _stack,
)
from .report import VerificationReport
from .structures import StructureCheckResult

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
# singular values below this times the largest one count as zero
RANK_TOL = 1e-8
# least generator singular value (and Gram-Schmidt norm) of a free action
FREE_TOL = 1e-8


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
    is wrapped on construction; ``section_point`` maps one point)."""

    name: str
    chart_dim: int
    omega: TensorField
    metric: TensorField
    acs: TensorField
    action: GroupAction
    mu: MomentumMap
    quotient_dim: int
    section: RowMap  # given as a RowMap or as a quotient ChartPoint -> point callable
    tolerances: dict = field(default_factory=dict)
    sample_spec: SampleSpec = SampleSpec()

    def __post_init__(self):
        object.__setattr__(self, "section", as_row_map(self.section))
        expected = self.chart_dim - 2 * self.action.group_dim
        if self.quotient_dim != expected:
            # abelian free built-ins always have dim G_beta = dim G, so the
            # bookkeeping n - k - dim G_beta collapses to n - 2k
            warnings.warn(
                f"scenario {self.name!r}: quotient dimension {self.quotient_dim} "
                f"differs from chart_dim - 2 * group_dim = {expected}",
                stacklevel=2,
            )

    def section_point(self, x) -> ChartPoint:
        return as_point(self.section(as_point(x)))


@dataclass(frozen=True, eq=False)
class SplitTangentSpace:
    """The level-set tangent space at a point as column matrices: the kernel
    of d mu, and g-orthonormal vertical and horizontal frames for ``metric``,
    the ambient metric at ``base``; the horizontal columns are combinations
    of the level columns.  The momentum Jacobian and the generators it was
    split with are kept.  Split at an (N, n) array of points, every array
    has a leading axis of length N and ``base`` is that array."""

    base: ChartPoint
    metric: np.ndarray
    level: np.ndarray       # n x (n-k)
    vertical: np.ndarray    # n x k
    horizontal: np.ndarray  # n x (n-2k)
    jmu: np.ndarray         # k x n, d mu at base
    generators: np.ndarray  # n x k, generator of each algebra basis element


def _split_row(split: SplitTangentSpace, i: int, base: ChartPoint) -> SplitTangentSpace:
    """Row i of a split at an array of points, based at ``base``."""
    return SplitTangentSpace(base, split.metric[i], split.level[i], split.vertical[i],
                             split.horizontal[i], split.jmu[i], split.generators[i])


@dataclass(frozen=True, eq=False)
class ReducedStructures:
    """Reduced metric, symplectic form and almost-complex candidate at one
    quotient chart point."""

    point: ChartPoint
    h_beta: np.ndarray
    omega_beta: np.ndarray
    j_beta: np.ndarray


def _level_gaps(scen: ReductionScenario, M: np.ndarray) -> np.ndarray:
    """|mu - beta| at each row of the (N, n) array M: a stacked dot product
    and a square root per row, the bits of ``np.linalg.norm`` of that row."""
    r = momentum_values(scen.mu, M) - scen.mu.beta
    return np.sqrt((r[:, np.newaxis] @ r[:, :, np.newaxis])[:, 0, 0])


def _first(failing: np.ndarray):
    """Index of the first True entry, or None."""
    return int(np.argmax(failing)) if failing.any() else None


def split_tangent(scen: ReductionScenario, m, cfg: FDConfig = FDConfig()) -> SplitTangentSpace:
    """Split the level-set tangent space at ``m`` into vertical and horizontal.

    The level frame is the kernel of d mu, the vertical frame the generators
    orthonormalized for the metric G at ``m``, and the horizontal frame the
    kernel of ``vertical.T @ G`` inside the level frame, orthonormalized for
    G, so it lies in ker d mu with n - 2k columns by construction.

    ``m`` may also be an (N, n) array whose rows are points: then all rows
    are split at once, with one stencil batch per Jacobian, stacked SVDs and
    stacked Gram-Schmidt, each row's arrays the bits of splitting it alone.
    A failing check raises for the first row that fails it, and rows whose
    frames would differ in dimension raise ValueError.
    """
    M, one = _stack(m)
    if one:
        M = as_point(m).coords[np.newaxis]
    n = scen.chart_dim
    k = scen.action.group_dim

    gaps = _level_gaps(scen, M)
    i = _first(gaps >= LEVEL_TOL)
    if i is not None:
        raise NotOnLevelError(f"|mu(m) - beta| = {gaps[i]:.3e} exceeds {LEVEL_TOL:.1e}")

    Jmu = momentum_jacobian(scen.mu, M, cfg)
    level = kernel_basis(Jmu, RANK_TOL)
    if level.shape[2] != n - k:
        raise NotRegularValueError(
            f"kernel of d mu has dimension {level.shape[2]}, expected {n - k}"
        )

    V = np.stack([generator(scen.action, j, M, cfg) for j in range(k)], axis=-1)
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
        level @ kernel_basis(vertical.swapaxes(1, 2) @ G @ level, RANK_TOL), G)
    if horizontal.shape[2] != n - 2 * k:
        raise DegenerateInputError(
            f"horizontal complement has dimension {horizontal.shape[2]}, expected {n - 2 * k}"
        )

    split = SplitTangentSpace(M, G, level, vertical, horizontal, Jmu, V)
    return _split_row(split, 0, as_point(m)) if one else split


def _moved_section(scen: ReductionScenario, a=None) -> RowMap:
    """Phi_a o sigma, or sigma itself without ``a``, as a chart map running
    the section's rows, then the flow's; a section point is checked as
    ``section_point`` checks it."""
    section = scen.section.rows
    flow = (lambda Y: Y) if a is None else _flow_map(scen.action, a).rows
    return RowMap(lambda X: flow(_require_finite(section(X), "chart point")))


@dataclass(frozen=True, eq=False)
class _Frame:
    """Everything needed at one section point: the splitting (with the metric),
    pinned lifts and the other ambient structures evaluated at the point."""

    x: ChartPoint
    m: ChartPoint
    split: SplitTangentSpace
    lifts: np.ndarray    # n x q with d pi(lift_i) = e_i
    Om: np.ndarray
    J: np.ndarray
    lift_residual: float


def _lift_frames(scen: ReductionScenario, points, cfg: FDConfig = FDConfig(),
                 section=None) -> list[_Frame]:
    """The lift frames at the quotient points ``points`` through ``section``
    (a chart map, by default the scenario's own section), built in one
    batch: one section call, one ``split_tangent`` over all section points,
    one stencil batch for the section pushforwards and stacked products and
    SVDs; only the ``lstsq`` of each lift residual runs per frame.  Each
    frame has the bits of the batch of its point alone, and a batch of one
    raises what that point raises.  A batch of several raises if any point
    fails, not necessarily the first point's error.
    """
    xs = [as_point(x) for x in points]
    X = np.array([x.coords for x in xs])
    section = _moved_section(scen) if section is None else as_row_map(section)
    M = _require_finite(section.rows(X), "chart point")
    gaps = _level_gaps(scen, M)
    i = _first(gaps >= LEVEL_TOL)
    if i is not None:
        raise SectionNotOnLevelError(
            f"section lands off the level set: |mu - beta| = {gaps[i]:.3e}"
        )
    split = split_tangent(scen, M, cfg)
    n = scen.chart_dim
    q = scen.quotient_dim
    G, h_onb = split.metric, split.horizontal
    Om = eval_field(scen.omega, M)
    J = eval_field(scen.acs, M)

    dsig = fd_jacobian(section, X, cfg)       # N x n x q section pushforwards
    if q == 0:
        lifts = np.zeros((len(xs), n, 0))
        lift_residuals = [0.0] * len(xs)
    else:
        # horizontal part of the section pushforward; d pi of it is the
        # identity on the quotient chart because pi o section = id and d pi
        # kills the vertical complement
        lifts = h_onb @ (h_onb.swapaxes(1, 2) @ G @ dsig)
        sv = np.linalg.svd(lifts, compute_uv=False)
        i = _first(sv[:, -1] <= RANK_TOL * np.where(sv[:, 0] > 1.0, sv[:, 0], 1.0))
        if i is not None:
            raise RankDeficientLiftError(
                f"projection differential is not invertible on H at {ChartPoint(M[i])} "
                f"(singular values {sv[i]})"
            )
        lift_residuals = [max_abs(np.linalg.lstsq(L, L, rcond=None)[0] - np.eye(q))
                          for L in lifts]
    frames = []
    for i, x in enumerate(xs):
        m = ChartPoint(M[i])
        frames.append(_Frame(x, m, _split_row(split, i, m), lifts[i], Om[i], J[i],
                             lift_residuals[i]))
    return frames


def lift_frames(scen: ReductionScenario, points, cfg: FDConfig = FDConfig()) -> BatchTable:
    """``frames[i]`` is the lift frame of the i-th quotient point through the
    scenario's own section.  The first lookup builds every frame in one
    batch; if the batch fails, each frame is built alone on its lookup, so
    the first failure raises where it would frame by frame.  Passed as
    ``frames=`` to the verify_* pipelines over the same points, one frame
    per point serves all of them."""
    xs = list(points)
    return BatchTable(lambda: dict(enumerate(_lift_frames(scen, xs, cfg))),
                      lambda i: _lift_frames(scen, xs[i:i + 1], cfg)[0])


def _decompose(frame: _Frame, u: np.ndarray):
    """g-orthogonal decomposition of an ambient vector into horizontal and
    vertical coefficients plus the remainder normal to the level set."""
    H, V, G = frame.split.horizontal, frame.split.vertical, frame.split.metric
    h_coef = H.T @ G @ u
    v_coef = V.T @ G @ u
    return h_coef, v_coef, u - H @ h_coef - V @ v_coef


def _dpi(frame: _Frame, u: np.ndarray) -> np.ndarray:
    """Quotient components of d pi(u): project to H, then invert the lifts."""
    q = frame.lifts.shape[1]
    if q == 0:
        return np.zeros(0)
    h_coef, _, _ = _decompose(frame, u)
    h_part = frame.split.horizontal @ h_coef
    return np.linalg.lstsq(frame.lifts, h_part, rcond=None)[0]


def _reduced_metric(frame: _Frame) -> np.ndarray:
    """g on the lifts, symmetrized."""
    L = frame.lifts
    h = L.T @ frame.split.metric @ L
    return 0.5 * (h + h.T)


def _reduced_symplectic(frame: _Frame) -> np.ndarray:
    """omega on the lifts, antisymmetrized."""
    L = frame.lifts
    w = L.T @ frame.Om @ L
    return 0.5 * (w - w.T)


def _reduced_from_frame(frame: _Frame):
    """Reduced metric, symplectic form and acs candidate from one frame,
    with the per-lift leak magnitudes of J applied to the lifts."""
    L = frame.lifts
    G = frame.split.metric
    q = L.shape[1]
    h = _reduced_metric(frame)
    w = _reduced_symplectic(frame)
    j_cols = []
    vert_leak = np.zeros(q)
    normal_leak = np.zeros(q)
    for i in range(q):
        image = frame.J @ L[:, i]
        h_coef, v_coef, rem = _decompose(frame, image)
        scale = g_norm(L[:, i], G)
        vert_leak[i] = float(np.linalg.norm(v_coef)) / scale if scale else 0.0
        normal_leak[i] = g_norm(rem, G) / scale if scale else 0.0
        j_cols.append(np.linalg.lstsq(L, frame.split.horizontal @ h_coef, rcond=None)[0])
    j_red = np.column_stack(j_cols) if j_cols else np.zeros((0, 0))
    return h, w, j_red, vert_leak, normal_leak


def reduced_structures(scen: ReductionScenario, x, cfg: FDConfig = FDConfig()) -> ReducedStructures:
    """Reduced metric h_x(v, w) = g(lift v, lift w), reduced symplectic form
    omega_red(v, w) = omega(lift v, lift w) and the pushforward candidate for
    the reduced almost complex structure, all from one lift frame.

    Column i of the candidate is d pi(J lift_i) in the quotient chart.
    Well-definedness is not assumed: when J applied to a lift leaves the
    level-set tangent space by more than LEAK_WARNING_TOL a
    VerticalLeakWarning records the defect, and the candidate is still
    returned so the equivalence check can quantify both branches.
    """
    frame = _lift_frames(scen, [x], cfg)[0]
    h, w, j_red, _, normal_leak = _reduced_from_frame(frame)
    if max_abs(normal_leak) > LEAK_WARNING_TOL:
        warnings.warn(
            f"J applied to a horizontal lift leaves the level tangent space "
            f"by {max_abs(normal_leak):.3e} at {frame.m}",
            VerticalLeakWarning,
            stacklevel=2,
        )
    return ReducedStructures(point=frame.x, h_beta=h, omega_beta=w, j_beta=j_red)


def _vertical_leak(D: np.ndarray, generators: np.ndarray, moved: SplitTangentSpace) -> float:
    """Largest g-norm of the part of ``D @ xi`` g-orthogonal to the vertical
    space of ``moved``, the splitting at the moved point, over generators xi."""
    G, V = moved.metric, moved.vertical
    pushed = D @ generators
    leak = pushed - V @ (V.T @ G @ pushed)
    return max_abs([g_norm(leak[:, i], G) for i in range(leak.shape[1])])


def verify_submersion(scen: ReductionScenario, points, fiber_params=(np.pi / 3, np.pi),
                      cfg: FDConfig = FDConfig(), tol: float = 1e-5, *,
                      frames=None, vertical_tol: float = 1e-5) -> VerificationReport:
    """Riemannian-submersion checks: fiber independence of the reduced metric
    (``tol``) and invariance of the vertical distribution (``vertical_tol``).
    Each fibre parameter is a group parameter vector, or a scalar t standing
    for t * (1, ..., 1).  ``frames`` is a ``lift_frames`` table of the same
    points, or None to build one.  The frames at the moved section points
    and the flow pushforwards at the section points are built on first use,
    one batch per fibre parameter."""
    report = VerificationReport("submersion")
    xs = list(points)
    k = scen.action.group_dim
    prm = [np.full(k, a, dtype=float) for a in fiber_params]

    if frames is None:
        frames = lift_frames(scen, xs, cfg)

    def fiber_pairs(rows, a):
        """For each i in ``rows``: the frame at Phi_a(sigma(x_i)), the point
        the flow moves frame i to, and the flow pushforward at frame i."""
        M = np.array([frames[i].m.coords for i in rows])
        moved = _lift_frames(scen, [xs[i] for i in rows], cfg, _moved_section(scen, a))
        return list(zip(moved, fd_jacobian(_flow_map(scen.action, a), M, cfg)))

    fiber = BatchTable(
        lambda: {(i, j): pair for j, a in enumerate(prm)
                 for i, pair in enumerate(fiber_pairs(range(len(xs)), a))},
        lambda key: fiber_pairs([key[0]], prm[key[1]])[0])

    fiber_res, vert_res = [], []
    for i in range(len(xs)):
        frame = frames[i]
        h_here = _reduced_metric(frame)
        gaps, leaks = [], []
        for j in range(len(prm)):
            frame_a, D = fiber[i, j]
            gaps.append(max_abs(h_here - _reduced_metric(frame_a)))
            leaks.append(_vertical_leak(D, frame.split.generators, frame_a.split))
        fiber_res.append(max_abs(gaps))
        vert_res.append(max_abs(leaks))

    report.add(StructureCheckResult.from_samples(
        "fiber independence", fiber_res, xs, tol, IDENTITY_FIBER,
        extras={"fiber_params": [list(a) for a in prm]}))
    report.add(StructureCheckResult.from_samples(
        "vertical invariance", vert_res, xs, vertical_tol, IDENTITY_VERT_INV))
    report.meta["points"] = [list(x.coords) for x in xs]
    report.meta["fiber_params"] = [list(a) for a in prm]
    return report


def verify_reduction_identity(scen: ReductionScenario, points, cfg: FDConfig = FDConfig(),
                              tol: float = 1e-5, degeneracy_tol: float = 1e-8,
                              pairs_per_point: int = 3, seed: int = 0, *,
                              frames=None) -> VerificationReport:
    """Pullback identity of the reduced symplectic form and the degeneracy of
    the vertical directions inside the restricted form.

    For sampled level-tangent pairs (u, v) the residual is
    |omega(m)(u, v) - omega_red(pi m)(d pi u, d pi v)|; vertical directions
    must pair to zero with the whole kernel of d mu.  ``frames`` is a
    ``lift_frames`` table of the same points, or None to build one.
    """
    report = VerificationReport("reduction identity")
    xs = list(points)
    if frames is None:
        frames = lift_frames(scen, xs, cfg)
    rng = np.random.default_rng(seed)
    id_res, deg_res = [], []
    for i in range(len(xs)):
        frame = frames[i]
        w_red = _reduced_symplectic(frame)
        K, V = frame.split.level, frame.split.vertical
        gaps = []
        for _ in range(pairs_per_point):
            u = K @ rng.standard_normal(K.shape[1])
            v = K @ rng.standard_normal(K.shape[1])
            ambient = float(u @ frame.Om @ v)
            reduced = float(_dpi(frame, u) @ w_red @ _dpi(frame, v))
            gaps.append(ambient - reduced)
        id_res.append(max_abs(gaps))
        deg_res.append(max_abs([V[:, j] @ frame.Om @ K for j in range(V.shape[1])]))

    report.add(StructureCheckResult.from_samples(
        "pullback identity", id_res, xs, tol, IDENTITY_REDUCTION,
        extras={"pairs_per_point": pairs_per_point, "seed": seed}))
    report.add(StructureCheckResult.from_samples(
        "vertical degeneracy", deg_res, xs, degeneracy_tol, IDENTITY_DEGENERACY))
    report.meta["points"] = [list(x.coords) for x in xs]
    report.meta["seed"] = seed
    return report


def verify_main_theorem(scen: ReductionScenario, points, cfg: FDConfig = FDConfig(),
                        tol: float = 1e-5, hypothesis_tol: float = 1e-6, *,
                        frames=None) -> VerificationReport:
    """Equivalence between reduced compatibility and the almost-complex-mapping
    property of the projection.

    Per sample point three residuals are reported: the almost-complex-mapping
    defect (horizontal component of J applied to vertical vectors, plus the
    level-normal leak of J applied to the lifts), the reduced compatibility
    defect |omega_red J_red - h_red|, and |J_red^2 + I|.  The equivalence
    verdict requires the first two to land on the same side of the tolerance
    at every sample; ambient compatibility is checked alongside because the
    equivalence is only asserted under that hypothesis.  ``frames`` is a
    ``lift_frames`` table of the same points, or None to build one.
    """
    report = VerificationReport("main theorem")
    xs = list(points)
    if frames is None:
        frames = lift_frames(scen, xs, cfg)
    acm_res, compat_res, acs_res, hyp_res = [], [], [], []
    samples_meta = []
    iff_res = []
    hypothesis_ok = True
    eye = np.eye(scen.quotient_dim)
    for i in range(len(xs)):
        frame = frames[i]
        h_red, w_red, j_red, vert_leak, normal_leak = _reduced_from_frame(frame)

        V = frame.split.vertical
        j_vertical = [np.linalg.norm(_decompose(frame, frame.J @ V[:, j])[0])
                      for j in range(V.shape[1])]
        acm = max_abs([*normal_leak, *j_vertical])
        compat = max_abs(w_red @ j_red - h_red)
        acs = fro_norm(j_red @ j_red + eye)
        hyp = max_abs(frame.Om @ frame.J - frame.split.metric)

        acm_res.append(acm)
        compat_res.append(compat)
        acs_res.append(acs)
        hyp_res.append(hyp)
        hypothesis_ok = hypothesis_ok and hyp <= hypothesis_tol
        consistent = (acm <= tol) == (compat <= tol)
        iff_res.append(0.0 if consistent else 1.0)
        samples_meta.append({
            "point": list(frame.x.coords),
            "acm_residual": acm,
            "compat_residual": compat,
            "acs_residual": acs,
            "vertical_leak": max_abs(vert_leak),
            "normal_leak": max_abs(normal_leak),
            "lift_solve_residual": frame.lift_residual,
        })

    branch = "positive" if (acm_res and max_abs(acm_res) <= tol and max_abs(compat_res) <= tol) \
        else "negative"
    report.add(StructureCheckResult.from_samples(
        "almost complex mapping defect", acm_res, xs, tol, IDENTITY_ACM))
    report.add(StructureCheckResult.from_samples(
        "reduced compatibility", compat_res, xs, tol, IDENTITY_RED_COMPAT))
    report.add(StructureCheckResult.from_samples(
        "reduced acs identity", acs_res, xs, tol, IDENTITY_RED_ACS))
    report.add(StructureCheckResult.from_samples(
        "ambient compatibility hypothesis", hyp_res, xs, hypothesis_tol, IDENTITY_HYPOTHESIS))
    report.add(StructureCheckResult.from_samples(
        "main theorem iff", iff_res, xs, 0.5, IDENTITY_IFF,
        extras={"hypothesis_ok": hypothesis_ok, "branch": branch,
                "hypothesis_violated": not hypothesis_ok}))
    report.meta["samples"] = samples_meta
    return report
