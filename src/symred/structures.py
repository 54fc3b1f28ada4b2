"""Pointwise validation of metrics, symplectic forms and almost complex
structures, the constructive compatible triple, and ``DEFAULT_TOLERANCES``,
the one place a default tolerance is written: every tolerance parameter of
the package and every verification run start from it.  ``CHECKS`` is the
one place a report row's identity and tolerance key are written, and every
row is built through it (``_row``).

Conventions.  Bilinear forms act on component vectors as ``u^T M v`` and an
almost complex structure acts as a plain matrix, so compatibility
``omega(u, J v) = g(u, v)`` is the matrix identity ``Omega @ J == G``.
Matrix-identity residuals are reported as the largest absolute entry; the
operator property ``J^2 = -I`` is reported in the Frobenius norm.  Each
identity's residual is one private ``_*_residual`` function of stacked
arrays: a check applies it to the batches ``_sampled`` evaluates, and
``reduction``'s main theorem applies two of them to the lift frames.
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType

import numpy as np

from .errors import NotSPDError, OddDimensionError, Record
from .geometry import (
    RowMap,
    TensorField,
    as_points,
    eval_field,
    fd_directional,
    spd_sqrt,
    _first,
    _row_max_abs,
    _row_norms,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "CHECKS",
    "check_tolerance",
    "StructureCheckResult",
    "CompatibleTriple",
    "standard_symplectic_matrix",
    "standard_acs_matrix",
    "standard_symplectic",
    "standard_acs",
    "check_metric",
    "check_symplectic_pointwise",
    "check_closed",
    "check_acs",
    "check_compatibility",
    "build_compatible_triple",
]

# every tolerance a verification run reads; a scenario's ``tol.<name>`` keys
# and the command line's ``--tol name=value`` override these by name
DEFAULT_TOLERANCES = MappingProxyType({
    "structures.metric": 1e-8,
    "structures.symplectic": 1e-8,
    "structures.closed": 1e-5,
    "structures.acs": 1e-8,
    "structures.compatibility": 1e-8,
    "action.axioms": 1e-9,
    "action.isometry": 1e-6,
    "action.symplectomorphism": 1e-6,
    "action.momentum": 1e-6,
    "action.mu-invariance": 1e-6,
    "action.acs-invariance": 1e-6,
    "reduction.submersion": 1e-5,
    "reduction.vertical-invariance": 1e-5,
    "reduction.identity": 1e-5,
    "reduction.degeneracy": 1e-8,
    "main-theorem.residuals": 1e-5,
    "main-theorem.hypothesis": 1e-6,
    "holomorphy.residual": 1e-8,
})

# every row a run can emit, in the order a run of every suite emits them:
# the row's identity and the DEFAULT_TOLERANCES key that judges it, or None
# for a 0/1 indicator row, which ``_row`` judges at 0.5
CHECKS = MappingProxyType({
    "metric field": ("g symmetric positive definite", "structures.metric"),
    "symplectic field": ("omega antisymmetric nondegenerate", "structures.symplectic"),
    "closedness of omega": ("d omega = 0 (cyclic sum of coefficient partials)",
                            "structures.closed"),
    "almost complex structure": ("J^2 = -I", "structures.acs"),
    "compatibility": ("omega(u, J v) = g(u, v)", "structures.compatibility"),
    "action axioms": ("Phi_0 = id and Phi_s o Phi_t = Phi_{s+t}", "action.axioms"),
    "isometry": ("g_m(u, v) = g_{Phi_a(m)}(D u, D v)", "action.isometry"),
    "symplectomorphism": ("omega_m(u, v) = omega_{Phi_a(m)}(D u, D v)", "action.symplectomorphism"),
    "hamiltonian condition": ("omega(xi_M, .) = d mu_xi", "action.momentum"),
    "momentum invariance": ("mu o Phi_a = mu", "action.mu-invariance"),
    "endomorphism invariance": ("D F(m) = F(Phi_a(m)) D", "action.acs-invariance"),
    "fiber independence": ("h_x independent of the fibre representative", "reduction.submersion"),
    "vertical invariance": ("pushforward of a vertical vector is vertical",
                            "reduction.vertical-invariance"),
    "pullback identity": ("pi* omega_red = i* omega", "reduction.identity"),
    "vertical degeneracy": ("omega(vertical, ker d mu) = 0", "reduction.degeneracy"),
    "almost complex mapping defect": ("pi_* o J = J_red o pi_*", "main-theorem.residuals"),
    "reduced compatibility": ("omega_red(u, J_red v) = h_red(u, v)", "main-theorem.residuals"),
    "reduced acs identity": ("J_red^2 = -I", "main-theorem.residuals"),
    "ambient compatibility hypothesis": ("ambient compatibility omega(u, J v) = g(u, v)",
                                         "main-theorem.hypothesis"),
    "main theorem iff": ("reduced compatibility with h_red holds iff pi is almost complex", None),
    "holomorphy of square map": ("phi_* o J1 = J2 o phi_*", "holomorphy.residual"),
    "holomorphy of exponential map": ("phi_* o J1 = J2 o phi_*", "holomorphy.residual"),
    "holomorphy of reciprocal map at offset 2": ("phi_* o J1 = J2 o phi_*", "holomorphy.residual"),
    "conjugation defect equals 2*sqrt(2)": (
        "phi_* o J1 = J2 o phi_* fails by a known amount", "holomorphy.residual"),
    "cauchy-riemann/holomorphy equivalence": (
        "a_x = b_y, a_y = -b_x iff phi_* o J1 = J2 o phi_*", None),
})


def check_tolerance(name: str, value: float) -> float:
    """``value`` as a float if ``name`` is a known tolerance and ``value`` a
    positive finite number (``_positive_finite``); ValueError otherwise."""
    if name not in DEFAULT_TOLERANCES:
        raise ValueError(
            f"unknown tolerance {name!r}; known names: {', '.join(sorted(DEFAULT_TOLERANCES))}"
        )
    return _positive_finite(f"tolerance {name!r}", value)


def _positive_finite(what: str, value: float) -> float:
    """``value`` as a float if it is a positive finite number, else
    ValueError naming ``what``: a non-positive or non-finite tolerance would
    make a check pass or fail whatever its residual, and a bool is no number."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


class StructureCheckResult(Record):
    """Outcome of one sampled check: worst residual against a tolerance,
    passed iff within it, so a NaN residual fails.  A tolerance that is not
    positive and finite raises ValueError (``_positive_finite``), as
    ``check_tolerance`` refuses it."""

    __slots__ = ("name", "max_residual", "tolerance", "worst_point", "identity", "extras")
    # worst_point: the coordinates of the worst point

    def __init__(self, name: str, max_residual: float, tolerance: float,
                 worst_point: tuple[float, ...] | None, identity: str = "",
                 extras: dict | None = None):
        super().__init__(name, max_residual,
                         _positive_finite(f"tolerance of check {name!r}", tolerance),
                         worst_point, identity, {} if extras is None else extras)

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    @staticmethod
    def from_samples(name, residuals, points, tolerance, identity="", extras=None):
        """Aggregate per-point residuals into their max and its point.
        ``points`` is an (N, d) array or a sequence, one point per residual;
        only the worst is made a tuple of floats.  No residuals would pass
        vacuously, and other than one point each would misplace the worst,
        so both raise ValueError naming the check."""
        residuals = np.asarray(residuals, dtype=float).reshape(-1)
        if not len(residuals):
            raise ValueError(f"{name}: no residuals to check")
        if len(points) != len(residuals):
            raise ValueError(f"{name}: {len(residuals)} residuals for {len(points)} points")
        worst = int(np.argmax(residuals))
        return StructureCheckResult(name, float(residuals[worst]), tolerance,
                                    tuple(np.asarray(points[worst], dtype=float).tolist()),
                                    identity, extras)


class CompatibleTriple(Record):
    """Symplectic form, Riemannian metric and almost complex structure with
    omega(u, J v) = g(u, v) at every point."""

    __slots__ = ("omega", "metric", "acs")


def _interleaved_planes(dim: int, what: str) -> int:
    if dim % 2 != 0:
        raise OddDimensionError(f"{what} needs an even chart dimension, got {dim}")
    return dim // 2


def standard_symplectic_matrix(dim: int) -> np.ndarray:
    """Block-diagonal [[0, 1], [-1, 0]] on interleaved (x, y) coordinate planes."""
    planes = _interleaved_planes(dim, "standard symplectic form")
    out = np.zeros((dim, dim))
    for j in range(planes):
        out[2 * j, 2 * j + 1] = 1.0
        out[2 * j + 1, 2 * j] = -1.0
    return out


def standard_acs_matrix(dim: int) -> np.ndarray:
    """Coordinate almost complex structure: J dx = dy, J dy = -dx per plane."""
    planes = _interleaved_planes(dim, "standard almost complex structure")
    out = np.zeros((dim, dim))
    for j in range(planes):
        out[2 * j + 1, 2 * j] = 1.0
        out[2 * j, 2 * j + 1] = -1.0
    return out


def standard_symplectic(dim: int) -> TensorField:
    return TensorField.constant(standard_symplectic_matrix(dim), name="standard omega")


def standard_acs(dim: int) -> TensorField:
    return TensorField.constant(standard_acs_matrix(dim), name="standard J")


def _row(name, residuals, points, tol=None, extras=None) -> StructureCheckResult:
    """The report row ``name`` of ``CHECKS``, with its identity: per-point
    ``residuals`` at ``points`` judged against ``tol``, or against 0.5 for
    an indicator row (``from_samples``)."""
    identity, key = CHECKS[name]
    return StructureCheckResult.from_samples(
        name, residuals, points, 0.5 if key is None else tol, identity, extras)


def _sampled(name, kernel, fields, points, tol) -> StructureCheckResult:
    """One sampled check: ``kernel`` of the batches ``f(X)`` of ``fields`` at
    the (N, n) array X of ``points``, called in order; a failing batch raises."""
    X = as_points(points)
    return _row(name, kernel(*(f(X) for f in fields)), X, tol)


def _metric_residual(G: np.ndarray, tol: float) -> np.ndarray:
    """Max-abs asymmetry of each G, plus at least tol where lambda_min <= tol."""
    GT = G.swapaxes(1, 2)
    lam_min = np.linalg.eigvalsh(0.5 * (G + GT))[:, 0]
    return _row_max_abs(G - GT) + np.where(lam_min > tol, 0.0, 2.0 * tol - lam_min)


def _symplectic_residual(Om: np.ndarray, tol: float) -> np.ndarray:
    """Max-abs symmetric part of each Om, or at least tol where s_min/s_max <= tol."""
    s = np.linalg.svd(Om, compute_uv=False)
    first, last = (s[:, 0], s[:, -1]) if s.shape[1] else (1.0, 1.0)  # 0 x 0: ratio 1
    ratio = np.divide(last, first, out=np.zeros(len(Om)), where=first > 0.0)
    penalty = np.where(ratio > tol, 0.0, 2.0 * tol - ratio)
    return np.maximum(_row_max_abs(Om + Om.swapaxes(1, 2)), penalty)


def _closed_residual(partials: np.ndarray) -> np.ndarray:
    """Max-abs cyclic sum over i < j < k of the partials [p, r, c, a] = d_a omega_rc(p)."""
    r = np.arange(partials.shape[1])
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))  # in order
    return _row_max_abs(partials[:, j, k, i] + partials[:, k, i, j] + partials[:, i, j, k])


def _acs_residual(J: np.ndarray) -> np.ndarray:
    """Frobenius norm of J^2 + I for each matrix of the stack J."""
    return _row_norms((J @ J + np.eye(J.shape[-1])).reshape(len(J), -1))


def _compatibility_residual(Om: np.ndarray, G: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Max-abs entry of Omega J - G for each slice of the stacks."""
    return _row_max_abs(Om @ J - G)


def check_metric(g: TensorField, points,
                 tol: float = DEFAULT_TOLERANCES["structures.metric"]) -> StructureCheckResult:
    """Symmetry plus positive definiteness of a metric field at sample points."""
    return _sampled("metric field", lambda G: _metric_residual(G, tol),
                    [partial(eval_field, g)], points, tol)


def check_symplectic_pointwise(
        w: TensorField, points,
        tol: float = DEFAULT_TOLERANCES["structures.symplectic"]) -> StructureCheckResult:
    """Antisymmetry and nondegeneracy of a 2-form field at sample points.

    Nondegeneracy is scale-free: the ratio of the smallest to the largest
    singular value must exceed ``tol``, so rescaling the form by a constant
    does not change the verdict.  An all-zero form has ratio 0 and fails.
    """
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"symplectic field must be square, got {w.shape}")
    _interleaved_planes(w.shape[0], "symplectic form")
    return _sampled("symplectic field", lambda Om: _symplectic_residual(Om, tol),
                    [partial(eval_field, w)], points, tol)


def check_closed(w: TensorField, points,
                 tol: float = DEFAULT_TOLERANCES["structures.closed"]) -> StructureCheckResult:
    """Closedness of the 2-form: cyclic sum of coefficient partials over all
    index triples, every partial from one derivative batch of omega along
    each coordinate (exact for a compiled field)."""
    return _sampled("closedness of omega", _closed_residual,
                    [lambda X: fd_directional(w, X, np.eye(w.shape[0]))], points, tol)


def check_acs(J: TensorField, points,
              tol: float = DEFAULT_TOLERANCES["structures.acs"]) -> StructureCheckResult:
    """Frobenius norm of J(p)^2 + I at sample points."""
    return _sampled("almost complex structure", _acs_residual, [partial(eval_field, J)],
                    points, tol)


def check_compatibility(
        t: CompatibleTriple, points,
        tol: float = DEFAULT_TOLERANCES["structures.compatibility"]) -> StructureCheckResult:
    """Max-abs residual of the compatibility identity Omega @ J == G."""
    return _sampled("compatibility", _compatibility_residual,
                    [partial(eval_field, f) for f in (t.omega, t.metric, t.acs)], points, tol)


def _compatible(w: TensorField, g0: TensorField, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar-decomposition construction of (J, G) from (Omega, G0) at every
    row of X, as (N, n, n) stacks.

    A = -inv(G0) Omega is g0-skew; P = sqrt(-A^2) in the g0 inner product is
    found by conjugating into a g0-orthonormal frame and taking the symmetric
    eigendecomposition square root; J = inv(P) A and G = Omega J.
    """
    Om = eval_field(w, X)
    G0 = eval_field(g0, X)
    A = -np.linalg.solve(G0, Om)
    M = -(A @ A)
    s_root, s_inv = spd_sqrt(G0)
    B = s_root @ M @ s_inv
    B = 0.5 * (B + B.swapaxes(1, 2))
    w_eig, v = np.linalg.eigh(B)
    i = _first(w_eig[:, 0] <= 0.0)
    if i is not None:
        raise NotSPDError(
            f"-A^2 is not positive definite (eigenvalue {w_eig[i, 0]:.3e}); omega is degenerate"
        )
    b_inv_root = (v / np.sqrt(w_eig)[:, np.newaxis]) @ v.swapaxes(1, 2)
    p_inv = s_inv @ b_inv_root @ s_root
    J = p_inv @ A
    G = Om @ J
    return J, 0.5 * (G + G.swapaxes(1, 2))


def build_compatible_triple(w: TensorField, g0: TensorField) -> CompatibleTriple:
    """Compatible triple from a symplectic form and an auxiliary metric.

    The output satisfies J^2 = -I and Omega @ J = G pointwise; feeding the
    output metric back as g0 reproduces the same J.  Smoothness in the chart
    point follows from smoothness of the polar decomposition on nondegenerate
    input.
    """
    if w.shape != g0.shape:
        raise ValueError(f"omega shape {w.shape} does not match metric shape {g0.shape}")
    n = _interleaved_planes(w.shape[0], "compatible triple") * 2
    return CompatibleTriple(
        omega=w,
        metric=TensorField.matrix(RowMap(lambda X: _compatible(w, g0, X)[1]), n,
                                  name="compatible metric"),
        acs=TensorField.matrix(RowMap(lambda X: _compatible(w, g0, X)[0]), n,
                               name="compatible acs"),
    )
