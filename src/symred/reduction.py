"""Level sets of the momentum map, vertical/horizontal splitting, the
reduced symplectic form and metric through horizontal lifts, the candidate
reduced almost complex structure, and the verification pipelines for the
submersion, the pullback identity and the main equivalence.  A scenario's
chart dimension is omega's, and the section points of the rows of an (N, q)
array X of quotient points are ``scen.section.rows(X)``.

Every subspace is held as a matrix whose columns span it, and all three
reduced objects at a quotient point come from one lift frame
(``reduced_structures``).  The horizontal frame is the null space of the
g-pairing with the vertical frame inside the level frame, so it lies in
ker d mu and has n - 2k columns by construction.  The verification
pipelines are functions of a ``lift_frames`` table alone: they read the
quotient points, the fibre parameters and the frames from it and draw
nothing, so one table built once serves all of them.

Frames are stacks: ``split_tangent`` splits an (N, n) array of points at
once, and ``lift_frames`` builds every frame of a verification, the base
frames and the moved frames of every fibre parameter, in one batch when
the table is made, each map's values riding with its derivatives in one
batch; ``reduced_structures`` reduces an (N, q) array of
quotient points from the base frames of such a table.  Both take an (N, d)
array and nothing else.  A stack of frames is one flat record, the
splitting's arrays and then the lifts' (``_LiftFrames`` extends
``SplitTangentSpace``), and a slice of its rows slices every array.  Every
frame is the bits of building it alone.  A batch runs once: one that
fails raises the first error it meets, in the order it computes (the
section, the flow, then ``split_tangent``'s checks, omega and J, and the
lifts' rank).  Every refusal of a frame is raised by
``geometry._raise_at_first``, which refuses a map's values too, naming the
first point that fails that step.  The pipelines read the
table's frames as stacked arrays, with stacked products and no loop over
points: a frame (the lifts, the generators, the level frame of a point)
is one slice of each product, J_red = C^-1 H^T G J L included, and the
norms of its columns are the diagonals of whole products, so each frame's
values are the bits of the same products on that frame alone.  Every
pullback is ``geometry._pullback``, and the main theorem's compatibility
and J^2 = -I rows are the residual functions of ``structures``.

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

import numpy as np

from .actions import (
    GroupAction,
    MomentumMap,
    generator,
    pushforward_table,
    _param_rows,
)
from .errors import (
    ActionNotFreeError,
    DegenerateInputError,
    NotOnLevelError,
    NotRegularValueError,
    RankDeficientLiftError,
    Record,
    ValueRecord,
    VerticalLeakWarning,
)
from .geometry import (
    RANK_TOL,
    TensorField,
    as_points,
    as_row_map,
    eval_field,
    kernel_basis,
    max_abs,
    _derivative,
    _first,
    _g_norms,
    _gram_schmidt,
    _null_columns,
    _point_text,
    _pullback,
    _raise_at_first,
    _ranks,
    _row_max_abs,
    _row_norms,
    _stack,
)
from .report import VerificationReport
from .structures import DEFAULT_TOLERANCES, _acs_residual, _compatibility_residual, _row

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

# reduced_structures warns when J of a horizontal lift leaves the level
# tangent space by more than this, relative to the lift's g-norm
LEAK_WARNING_TOL = 1e-6
# |mu - beta| below this puts a point on the level set; the generators must
# leave ker d mu by less than this times 1 + |d mu|
LEVEL_TOL = 1e-8
# least g-norm a Gram-Schmidt pass of split_tangent keeps of a column: of a
# generator of a free action, and of a horizontal direction
FREE_TOL = 1e-8


class SampleSpec(ValueRecord):
    """Seeded sampling request for quotient chart points, or explicit points."""

    __slots__ = ("count", "seed", "radius", "points")

    def __init__(self, count: int = 20, seed: int = 0, radius: float = 2.0, points: tuple = ()):
        super().__init__(count, seed, radius, points)


class ReductionScenario(Record):
    """One reduction instance: ambient structures, group action, momentum map
    with its level, and a local section of the quotient projection, a
    RowMap from quotient chart points to the level set (a per-point callable
    is wrapped on construction).

    The chart dimension n is omega's, and the action is free and abelian,
    so the quotient has dimension ``n - 2 * k``.  ValueError is raised when
    mu has other than k components, omega is not square, or the metric or
    J has another shape than omega."""

    __slots__ = ("name", "omega", "metric", "acs", "action", "mu", "section", "tolerances",
                 "sample_spec")

    def __init__(self, name: str, omega: TensorField, metric: TensorField, acs: TensorField,
                 action: GroupAction, mu: MomentumMap, section, tolerances: dict | None = None,
                 sample_spec: SampleSpec = SampleSpec()):
        super().__init__(name, omega, metric, acs, action, mu, as_row_map(section),
                         {} if tolerances is None else tolerances, sample_spec)
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


class SplitTangentSpace(Record):
    """The level-set tangent space at a point as column matrices: the kernel
    of d mu, and g-orthonormal vertical and horizontal frames for ``metric``,
    the ambient metric at ``base``; the horizontal columns are combinations
    of the level columns.  The momentum Jacobian and the generators it was
    split with are kept.  Split at an (N, n) array of points, every array
    has a leading axis of length N and ``base`` is that array."""

    __slots__ = ("base", "metric", "level", "vertical", "horizontal", "jmu", "generators")
    # level n x (n-k), vertical n x k, horizontal n x (n-2k), jmu k x n (d mu at
    # base), generators n x k (the generator of each algebra basis element)


class ReducedStructures(Record):
    """Reduced metric, symplectic form and almost-complex candidate at an
    (N, q) array of quotient chart points: every array has a leading axis
    of length N."""

    __slots__ = ("h_beta", "omega_beta", "j_beta")


def split_tangent(scen: ReductionScenario, M) -> SplitTangentSpace:
    """Split the level-set tangent space at every row of the (N, n) array M
    into vertical and horizontal.

    The level frame is the kernel of d mu, the vertical frame the generators
    orthonormalized for the metric G at the point, and the horizontal frame
    the kernel of ``vertical.T @ G`` inside the level frame, orthonormalized
    for G, so it lies in ker d mu with n - 2k columns by construction.

    All rows are split at once, with one batch of mu and d mu, one of the
    k generators, stacked SVDs and stacked Gram-Schmidt, each row's arrays
    the bits of splitting it alone.  Each check decides every row before a
    stacked basis is taken and raises for the first row that fails it,
    naming its point: a point off the level set (NotOnLevelError), a
    critical point of mu (NotRegularValueError, decided from the SVD the
    level frame is taken from), generators not tangent to the level set
    (DegenerateInputError), generators degenerate or, for G, dependent
    (ActionNotFreeError, from the vertical Gram-Schmidt), and a horizontal
    complement of another dimension than n - 2k or that its Gram-Schmidt
    makes degenerate (DegenerateInputError).  Both Gram-Schmidt passes keep
    a column of g-norm at least FREE_TOL.
    """
    n, k = scen.chart_dim, scen.action.group_dim
    mu = scen.mu.field
    values, Jmu = _derivative(mu.func, _stack(M), np.eye(n), f"field {mu.name!r}", mu.shape)
    gaps = _row_norms(values - scen.mu.beta)
    _raise_at_first(gaps >= LEVEL_TOL, M, NotOnLevelError, lambda i, at: (
        f"{at} is off the level set: |mu(m) - beta| = {gaps[i]:.3e} exceeds {LEVEL_TOL:.1e}"))

    ranks, vt = _ranks(Jmu)
    _raise_at_first(ranks != k, M, NotRegularValueError, lambda i, at: (
        f"kernel of d mu has dimension {n - ranks[i]} at {at}, expected {n - k}"))
    level = _null_columns(vt, k)

    V = generator(scen.action, M)
    scale = 1.0 + np.max(np.abs(Jmu), axis=(1, 2))
    tangency = np.max(np.abs(Jmu @ V), axis=(1, 2))
    _raise_at_first(tangency > LEVEL_TOL * scale, M, DegenerateInputError, lambda i, at: (
        f"generators leave ker d mu by {tangency[i]:.3e} at {at}; "
        "the action is not tangent to the level set"))

    G = eval_field(scen.metric, M)
    vertical = _gram_schmidt(V, G, FREE_TOL, lambda short: _raise_at_first(
        short, M, ActionNotFreeError,
        lambda i, at: f"vertical space degenerates to dimension below {k} at {at}"))
    pairing = vertical.swapaxes(1, 2) @ G @ level
    try:
        complement = kernel_basis(pairing)  # ValueError for a stack whose ranks differ
    except ValueError:
        complement = None
    if complement is None or complement.shape[2] != n - 2 * k:
        ranks = _ranks(pairing)[0]  # the complement has dimension n - k - rank at each row
        _raise_at_first(ranks != k, M, DegenerateInputError, lambda i, at: (
            f"horizontal complement has dimension {n - k - ranks[i]} at {at}, "
            f"expected {n - 2 * k}"))
    # Gram-Schmidt keeps every column of the complement or refuses
    horizontal = _gram_schmidt(level @ complement, G, FREE_TOL, lambda short: _raise_at_first(
        short, M, DegenerateInputError,
        lambda i, at: f"horizontal complement degenerates to dimension below {n - 2 * k} at {at}"))
    return SplitTangentSpace(M, G, level, vertical, horizontal, Jmu, V)


class _LiftFrames(SplitTangentSpace):
    """The lift frames at N quotient points, every array with a leading N:
    the splitting at the section points (``base``) and, after its arrays,
    the pinned lifts, omega and J there, H^T G, which takes a vector to its
    horizontal coefficients, C = H^T G L, the lifts in those coefficients,
    and the flow Jacobian D Phi_a at sigma(x) that moved the frame's section
    point there (the identity for a frame of the section itself)."""

    __slots__ = ("lifts", "Om", "J", "htg", "coef", "pushforward")
    # lifts N x n x q with d pi(lift_i) = e_i, htg N x q x n, coef N x q x q,
    # pushforward N x n x n

    def __getitem__(self, rows: slice) -> "_LiftFrames":
        """The frames at the points ``rows``."""
        return _LiftFrames(*(value[rows] for value in self._values()))


class _FrameTable(Record):
    """The lift frames of a run at the (N, q) quotient ``points`` and the
    (P, k) ``fiber_params``: ``base``, the N frames through the section, and
    ``moved``, the P * N frames through Phi_a o sigma, parameter outer
    (frame j * N + i is point i moved by parameter j)."""

    __slots__ = ("points", "fiber_params", "base", "moved")


def lift_frames(scen: ReductionScenario, points, fiber_params=()) -> _FrameTable:
    """The table of the lift frames at ``points`` through the scenario's own
    section and through Phi_a o sigma for each fibre parameter a, a group
    parameter vector of k entries.  No points raise ValueError
    (``as_points``).  The table holds no scenario: it is the one input of
    the verify_* pipelines, which draw nothing, so one frame per point
    serves all of them.  ``verify_submersion`` needs fibre parameters
    (``verify`` takes the first two rows of its seeded draw of group
    parameters); the other two read only the base frames.

    All (1 + P) * N frames are one batch: one of the section points and
    Jacobians, one ``pushforward_table`` of the moved points and flow
    Jacobians, one ``split_tangent``, which checks the level, the Jacobians
    chained as D(Phi_a o sigma) = D Phi_a(sigma) D sigma, and stacked
    products, SVDs and solves, ending with the lifts' rank.  Each frame has
    the bits of the batch of its point alone, and a failing batch raises
    the first error it meets."""
    X, prm = as_points(points), _param_rows(scen.action, fiber_params)
    n, q = scen.chart_dim, scen.quotient_dim
    M, dsigma = _derivative(scen.section, X, np.eye(q), "chart point")
    pushforward = np.broadcast_to(np.eye(n), (len(X), n, n))
    if len(prm):
        table = pushforward_table(scen.action, prm, M)
        # the P blocks of N moved frames after the base frames
        M = np.concatenate([M, *table.moved])
        dsigma = np.concatenate([dsigma, *(table.D @ dsigma)])
        pushforward = np.concatenate([pushforward, *table.D])
    split = split_tangent(scen, M)
    htg = split.horizontal.swapaxes(1, 2) @ split.metric
    Om = eval_field(scen.omega, M)
    J = eval_field(scen.acs, M)
    # horizontal part of the section pushforward; d pi of it is the identity
    # on the quotient chart because pi o section = id and d pi kills the
    # vertical complement
    lifts = split.horizontal @ (htg @ dsigma)
    if q:
        sv = np.linalg.svd(lifts, compute_uv=False)
        _raise_at_first(
            sv[:, -1] <= RANK_TOL * np.where(sv[:, 0] > 1.0, sv[:, 0], 1.0), M,
            RankDeficientLiftError, lambda i, at: (
                f"projection differential is not invertible on H at {at} "
                f"(singular values {sv[i]})"))
    frames = _LiftFrames(*split._values(), lifts=lifts, Om=Om, J=J, htg=htg,
                         coef=htg @ lifts, pushforward=pushforward)
    return _FrameTable(X, prm, frames[:len(X)], frames[len(X):])


def _reduced_metric(lifts: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """g on the lifts, symmetrized, at every frame."""
    h = _pullback(metric, lifts)
    return 0.5 * (h + h.swapaxes(1, 2))


def _reduced_symplectic(f: _LiftFrames) -> np.ndarray:
    """omega on the lifts, antisymmetrized, at every frame."""
    w = _pullback(f.Om, f.lifts)
    return 0.5 * (w - w.swapaxes(1, 2))


def _ratio(a: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """a / scale, and 0 where the scale is 0."""
    return np.divide(a, scale, out=np.zeros_like(a), where=scale != 0.0)


def _reduced(f: _LiftFrames):
    """Reduced metric, symplectic form and acs candidate at every frame, and
    the leaks of J applied to each lift: the norm of its vertical
    coefficients and the g-norm of its part normal to the level set, both
    relative to the lift's g-norm, as (N, q) arrays.  J_red solves
    C J_red = H^T G J L."""
    G, H, V = f.metric, f.horizontal, f.vertical
    image = f.J @ f.lifts
    h_coef = f.htg @ image
    v_coef = V.swapaxes(1, 2) @ G @ image
    normal = image - H @ h_coef - V @ v_coef
    scale = _g_norms(f.lifts, G)
    return (_reduced_metric(f.lifts, G), _reduced_symplectic(f), np.linalg.solve(f.coef, h_coef),
            _ratio(_g_norms(v_coef), scale), _ratio(_g_norms(normal, G), scale))


def reduced_structures(scen: ReductionScenario, X) -> ReducedStructures:
    """Reduced metric h_x(v, w) = g(lift v, lift w), reduced symplectic form
    omega_red(v, w) = omega(lift v, lift w) and the pushforward candidate for
    the reduced almost complex structure at every row x of the (N, q) array
    X, all from the base frames of ``lift_frames(scen, X)``, so a failing
    batch raises the first error that table meets.

    Column i of the candidate is d pi(J lift_i) in the quotient chart.
    Well-definedness is not assumed: when J applied to a lift leaves the
    level-set tangent space by more than LEAK_WARNING_TOL a
    VerticalLeakWarning records the defect at the first such point, and the
    candidate is still returned so the equivalence check can quantify both
    branches.
    """
    f = lift_frames(scen, _stack(X)).base
    h, w, j_red, _, normal_leak = _reduced(f)
    leak = _row_max_abs(normal_leak)
    i = _first(leak > LEAK_WARNING_TOL)
    if i is not None:
        warnings.warn(
            f"J applied to a horizontal lift leaves the level tangent space "
            f"by {leak[i]:.3e} at {_point_text(f.base[i])}",
            VerticalLeakWarning,
            stacklevel=2,
        )
    return ReducedStructures(h_beta=h, omega_beta=w, j_beta=j_red)


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

    def blocks(a):
        """The P blocks of N moved frames of ``a``, parameter outer."""
        return a.reshape(P, len(X), *a.shape[1:])

    # every moved frame against its base frame, which broadcasts over the P blocks
    fiber = _reduced_metric(base.lifts, base.metric) \
        - blocks(_reduced_metric(moved.lifts, moved.metric))
    # the part of each pushed generator D xi g-orthogonal to the moved vertical space
    G, V = blocks(moved.metric), blocks(moved.vertical)
    pushed = blocks(moved.pushforward) @ base.generators
    leak = pushed - V @ (V.swapaxes(-1, -2) @ G @ pushed)
    fiber_res = _row_max_abs(fiber.swapaxes(0, 1))
    vert_res = _row_max_abs(_g_norms(leak, G).swapaxes(0, 1))
    return VerificationReport("submersion", [
        _row("fiber independence", fiber_res, X, tol,
             extras={"fiber_params": frames.fiber_params.tolist()}),
        _row("vertical invariance", vert_res, X, vertical_tol),
    ])


def verify_reduction_identity(frames: _FrameTable,
                              tol: float = DEFAULT_TOLERANCES["reduction.identity"],
                              degeneracy_tol: float = DEFAULT_TOLERANCES["reduction.degeneracy"]
                              ) -> VerificationReport:
    """Pullback identity of the reduced symplectic form and the degeneracy of
    the vertical directions inside the restricted form, at the points of the
    ``lift_frames`` table ``frames``.

    With K the orthonormal level frame of a point and d = d pi K, the
    pullback residual is the Frobenius norm of
    E = K^T omega(m) K - d^T omega_red(pi m) d, which does not depend on the
    basis K, and bounds |omega(u, v) - omega_red(d pi u, d pi v)| for every
    pair of unit vectors u, v in ker d mu; vertical directions must pair to
    zero with the whole kernel of d mu.
    """
    X, f, K = frames.points, frames.base, frames.base.level
    d = np.linalg.solve(f.coef, f.htg @ K)
    E = _pullback(f.Om, K) - _pullback(_reduced_symplectic(f), d)
    degeneracy = f.vertical.swapaxes(1, 2) @ f.Om @ K
    id_res, deg_res = _row_norms(E.reshape(len(X), -1)), _row_max_abs(degeneracy)
    return VerificationReport("reduction identity", [
        _row("pullback identity", id_res, X, tol),
        _row("vertical degeneracy", deg_res, X, degeneracy_tol),
    ])


def verify_main_theorem(frames: _FrameTable,
                        tol: float = DEFAULT_TOLERANCES["main-theorem.residuals"],
                        hypothesis_tol: float = DEFAULT_TOLERANCES["main-theorem.hypothesis"]
                        ) -> VerificationReport:
    """Equivalence between reduced compatibility and the almost-complex-mapping
    property of the projection.

    ``meta["samples"]`` holds five float columns, entry i for point i:
    ``acm_residual``, the almost-complex-mapping defect (horizontal component
    of J applied to vertical vectors, plus the level-normal leak of J
    applied to the lifts), ``compat_residual``, the reduced compatibility
    defect |omega_red J_red - h_red|, ``acs_residual``, |J_red^2 + I|, and
    the largest vertical and level-normal parts of J applied to a lift,
    relative to its g-norm, ``vertical_leak`` and ``normal_leak``.  The
    equivalence verdict requires the first two to land on the same side of
    the tolerance at every sample; ambient compatibility is checked
    alongside because the equivalence is only asserted under that
    hypothesis.  The points are those of the ``lift_frames`` table
    ``frames``.
    """
    X, f = frames.points, frames.base
    h_red, w_red, j_red, vert_leak, normal_leak = _reduced(f)
    j_vertical = _g_norms(f.htg @ f.J @ f.vertical)
    vert_leak, normal_leak = _row_max_abs(vert_leak), _row_max_abs(normal_leak)
    acm_res = np.maximum(normal_leak, _row_max_abs(j_vertical))
    compat_res = _compatibility_residual(w_red, h_red, j_red)
    acs_res = _acs_residual(j_red)
    hyp_res = _compatibility_residual(f.Om, f.metric, f.J)
    hypothesis_violated = not (hyp_res <= hypothesis_tol).all()
    iff_res = np.where((acm_res <= tol) == (compat_res <= tol), 0.0, 1.0)
    branch = "positive" if max_abs(acm_res) <= tol and max_abs(compat_res) <= tol else "negative"
    return VerificationReport("main theorem", [
        _row("almost complex mapping defect", acm_res, X, tol),
        _row("reduced compatibility", compat_res, X, tol),
        _row("reduced acs identity", acs_res, X, tol),
        _row("ambient compatibility hypothesis", hyp_res, X, hypothesis_tol),
        _row("main theorem iff", iff_res, X,
             extras={"branch": branch, "hypothesis_violated": hypothesis_violated}),
    ], meta={
        # the per-point residuals as columns, entry i for point i of ``points``
        "samples": {
            "acm_residual": acm_res.tolist(),
            "compat_residual": compat_res.tolist(),
            "acs_residual": acs_res.tolist(),
            "vertical_leak": vert_leak.tolist(),
            "normal_leak": normal_leak.tolist(),
        },
    })
