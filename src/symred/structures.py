"""Pointwise validation of metrics, symplectic forms and almost complex
structures, plus the constructive compatible triple.

Conventions.  Bilinear forms act on component vectors as ``u^T M v`` and an
almost complex structure acts as a plain matrix, so compatibility
``omega(u, J v) = g(u, v)`` is the matrix identity ``Omega @ J == G``.
Matrix-identity residuals are reported as the largest absolute entry; the
operator property ``J^2 = -I`` is reported in the Frobenius norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSPDError, OddDimensionError
from .geometry import (
    ChartPoint,
    FDConfig,
    TensorField,
    eval_field,
    fd_directional,
    fro_norm,
    max_abs,
    spd_sqrt,
)

__all__ = [
    "StructureCheckResult",
    "CompatibleTriple",
    "standard_symplectic_matrix",
    "standard_acs_matrix",
    "standard_symplectic",
    "standard_acs",
    "euclidean_metric",
    "check_metric",
    "check_symplectic_pointwise",
    "check_closed",
    "check_acs",
    "check_compatibility",
    "check_compatibility_second_form",
    "omega_endomorphism",
    "build_compatible_triple",
]

IDENTITY_METRIC = "g symmetric positive definite"
IDENTITY_SYMPLECTIC = "omega antisymmetric nondegenerate"
IDENTITY_CLOSED = "d omega = 0 (cyclic sum of coefficient partials)"
IDENTITY_ACS = "J^2 = -I"
IDENTITY_COMPAT = "omega(u, J v) = g(u, v)"
IDENTITY_COMPAT_ALT = "omega(u, v) = g(J u, v)"


@dataclass(frozen=True, eq=False)
class StructureCheckResult:
    """Outcome of one sampled check: worst residual against a tolerance."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    worst_point: ChartPoint | None
    identity: str = ""
    extras: dict = field(default_factory=dict)

    @staticmethod
    def from_samples(name, residuals, points, tolerance, identity="", extras=None):
        """Aggregate per-point residuals; passed iff the max is within tolerance."""
        residuals = list(residuals)
        if not residuals:
            return StructureCheckResult(name, 0.0, tolerance, True, None, identity, extras or {})
        worst = int(np.argmax(residuals))
        max_res = float(residuals[worst])
        points = list(points)
        worst_point = points[worst] if worst < len(points) else None
        return StructureCheckResult(
            name, max_res, tolerance, max_res <= tolerance, worst_point, identity, extras or {}
        )


@dataclass(frozen=True, eq=False)
class CompatibleTriple:
    """Symplectic form, Riemannian metric and almost complex structure with
    omega(u, J v) = g(u, v) at every point."""

    omega: TensorField
    metric: TensorField
    acs: TensorField


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


def euclidean_metric(dim: int) -> TensorField:
    return TensorField.constant(np.eye(dim), name="euclidean metric")


def check_metric(g: TensorField, points, tol: float = 1e-8) -> StructureCheckResult:
    """Symmetry plus positive definiteness of a metric field at sample points.

    Residual per point: max-abs asymmetry, plus a penalty of at least tol
    whenever the smallest eigenvalue fails to clear tol.
    """
    residuals = []
    pts = list(points)
    for p in pts:
        G = eval_field(g, p)
        asym = max_abs(G - G.T)
        lam_min = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
        penalty = 0.0 if lam_min > tol else (2.0 * tol - lam_min)
        residuals.append(asym + penalty)
    return StructureCheckResult.from_samples(
        "metric field", residuals, pts, tol, IDENTITY_METRIC
    )


def check_symplectic_pointwise(w: TensorField, points, tol: float = 1e-8) -> StructureCheckResult:
    """Antisymmetry and nondegeneracy of a 2-form field at sample points.

    Nondegeneracy is scale-free: the ratio of the smallest to the largest
    singular value must exceed ``tol``, so rescaling the form by a constant
    does not change the verdict.  An all-zero form has ratio 0 and fails.
    """
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"symplectic field must be square, got {w.shape}")
    _interleaved_planes(w.shape[0], "symplectic form")
    residuals = []
    pts = list(points)
    for p in pts:
        Om = eval_field(w, p)
        asym = max_abs(Om + Om.T)
        s = np.linalg.svd(Om, compute_uv=False)
        if s.size == 0:
            ratio = 1.0
        else:
            ratio = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
        penalty = 0.0 if ratio > tol else (2.0 * tol - ratio)
        residuals.append(max(asym, penalty))
    return StructureCheckResult.from_samples(
        "symplectic field", residuals, pts, tol, IDENTITY_SYMPLECTIC
    )


def check_closed(w: TensorField, points, cfg: FDConfig = FDConfig(),
                 tol: float = 1e-5) -> StructureCheckResult:
    """Closedness of the 2-form: cyclic sum of coefficient partials over all
    index triples, with partials taken by central differences."""
    n = w.shape[0]
    residuals = []
    pts = list(points)
    for p in pts:
        partials = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            partials.append(fd_directional(w, p, e, cfg))
        worst = 0.0
        for i, j, k in itertools.combinations(range(n), 3):
            cyc = partials[i][j, k] + partials[j][k, i] + partials[k][i, j]
            worst = max(worst, abs(float(cyc)))
        residuals.append(worst)
    return StructureCheckResult.from_samples(
        "closedness of omega", residuals, pts, tol, IDENTITY_CLOSED
    )


def check_acs(J: TensorField, points, tol: float = 1e-8) -> StructureCheckResult:
    """Frobenius norm of J(p)^2 + I at sample points."""
    n = J.shape[0]
    eye = np.eye(n)
    residuals = []
    pts = list(points)
    for p in pts:
        Jm = eval_field(J, p)
        residuals.append(fro_norm(Jm @ Jm + eye))
    return StructureCheckResult.from_samples(
        "almost complex structure", residuals, pts, tol, IDENTITY_ACS
    )


def check_compatibility(t: CompatibleTriple, points, tol: float = 1e-8) -> StructureCheckResult:
    """Max-abs residual of the compatibility identity Omega @ J == G."""
    residuals = []
    pts = list(points)
    for p in pts:
        Om = eval_field(t.omega, p)
        G = eval_field(t.metric, p)
        Jm = eval_field(t.acs, p)
        residuals.append(max_abs(Om @ Jm - G))
    return StructureCheckResult.from_samples(
        "compatibility", residuals, pts, tol, IDENTITY_COMPAT
    )


def check_compatibility_second_form(t: CompatibleTriple, points,
                                    tol: float = 1e-8) -> StructureCheckResult:
    """Derived form omega(u, v) = g(J u, v), i.e. J^T @ G == Omega.

    Given Omega @ J == G symmetric and J^2 = -I this holds identically, so it
    is exposed as a consistency check rather than an independent axiom.
    """
    residuals = []
    pts = list(points)
    for p in pts:
        Om = eval_field(t.omega, p)
        G = eval_field(t.metric, p)
        Jm = eval_field(t.acs, p)
        residuals.append(max_abs(Jm.T @ G - Om))
    return StructureCheckResult.from_samples(
        "compatibility (second form)", residuals, pts, tol, IDENTITY_COMPAT_ALT
    )


def omega_endomorphism(w: TensorField, g0: TensorField) -> TensorField:
    """The endomorphism field A defined by omega(u, v) = g0(A u, v).

    In components A = -inv(G0) @ Omega; A is skew-adjoint for the g0 inner
    product whenever omega is antisymmetric.
    """
    n = w.shape[0]

    def a_eval(p: ChartPoint) -> np.ndarray:
        Om = eval_field(w, p)
        G0 = eval_field(g0, p)
        return -np.linalg.solve(G0, Om)

    return TensorField.matrix(a_eval, n, name="omega endomorphism")


def _compatible_pointwise(Om: np.ndarray, G0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar-decomposition construction of (J, G) from (Omega, G0) at a point.

    A = -inv(G0) Omega is g0-skew; P = sqrt(-A^2) in the g0 inner product is
    found by conjugating into a g0-orthonormal frame and taking the symmetric
    eigendecomposition square root; J = inv(P) A and G = Omega J.
    """
    A = -np.linalg.solve(G0, Om)
    M = -(A @ A)
    s_root, s_inv = spd_sqrt(G0)
    B = s_root @ M @ s_inv
    B = 0.5 * (B + B.T)
    w_eig, v = np.linalg.eigh(B)
    if w_eig[0] <= 0.0:
        raise NotSPDError(
            f"-A^2 is not positive definite (eigenvalue {w_eig[0]:.3e}); omega is degenerate"
        )
    b_inv_root = (v / np.sqrt(w_eig)) @ v.T
    p_inv = s_inv @ b_inv_root @ s_root
    J = p_inv @ A
    G = Om @ J
    return J, 0.5 * (G + G.T)


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

    def j_eval(p: ChartPoint) -> np.ndarray:
        return _compatible_pointwise(eval_field(w, p), eval_field(g0, p))[0]

    def g_eval(p: ChartPoint) -> np.ndarray:
        return _compatible_pointwise(eval_field(w, p), eval_field(g0, p))[1]

    return CompatibleTriple(
        omega=w,
        metric=TensorField.matrix(g_eval, n, name="compatible metric"),
        acs=TensorField.matrix(j_eval, n, name="compatible acs"),
    )
