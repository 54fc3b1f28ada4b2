"""Pointwise validation of metrics, symplectic forms and almost complex
structures, the constructive compatible triple, and ``DEFAULT_TOLERANCES``,
the one place a default tolerance is written: every tolerance parameter of
the package and every verification run start from it.

Conventions.  Bilinear forms act on component vectors as ``u^T M v`` and an
almost complex structure acts as a plain matrix, so compatibility
``omega(u, J v) = g(u, v)`` is the matrix identity ``Omega @ J == G``.
Matrix-identity residuals are reported as the largest absolute entry; the
operator property ``J^2 = -I`` is reported in the Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import NotSPDError, OddDimensionError
from .geometry import (
    ChartPoint,
    RowMap,
    TensorField,
    as_point,
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
    "check_tolerance",
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
    "build_compatible_triple",
]

IDENTITY_METRIC = "g symmetric positive definite"
IDENTITY_SYMPLECTIC = "omega antisymmetric nondegenerate"
IDENTITY_CLOSED = "d omega = 0 (cyclic sum of coefficient partials)"
IDENTITY_ACS = "J^2 = -I"
IDENTITY_COMPAT = "omega(u, J v) = g(u, v)"

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


@dataclass(frozen=True, eq=False)
class StructureCheckResult:
    """Outcome of one sampled check: worst residual against a tolerance,
    passed iff within it, so a NaN residual fails.  A tolerance that is not
    positive and finite raises ValueError (``_positive_finite``), as
    ``check_tolerance`` refuses it."""

    name: str
    max_residual: float
    tolerance: float
    worst_point: ChartPoint | None
    identity: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tolerance",
                           _positive_finite(f"tolerance of check {self.name!r}", self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    @staticmethod
    def from_samples(name, residuals, points, tolerance, identity="", extras=None):
        """Aggregate per-point residuals into their max and its point.
        ``points`` is an (N, d) array or a sequence; only the worst is made a ChartPoint.
        No residuals would pass vacuously, so they raise ValueError."""
        residuals = np.asarray(residuals, dtype=float).reshape(-1)
        if not len(residuals):
            raise ValueError(f"{name}: no residuals to check")
        worst = int(np.argmax(residuals))
        worst_point = as_point(points[worst]) if worst < len(points) else None
        return StructureCheckResult(
            name, float(residuals[worst]), tolerance, worst_point, identity, extras or {})


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


def _sampled(name, identity, residuals, points, tol) -> StructureCheckResult:
    """One sampled check over ``points`` (``as_points``): ``residuals(X)``
    returns the residual at each row of the (N, n) array X of the points,
    from stacked evaluations, and raises the first error its batch meets."""
    X = as_points(points)
    return StructureCheckResult.from_samples(name, residuals(X), X, tol, identity)


def check_metric(g: TensorField, points,
                 tol: float = DEFAULT_TOLERANCES["structures.metric"]) -> StructureCheckResult:
    """Symmetry plus positive definiteness of a metric field at sample points.

    Residual per point: max-abs asymmetry, plus a penalty of at least tol
    whenever the smallest eigenvalue fails to clear tol.
    """
    def residuals(X):
        G = eval_field(g, X)
        GT = G.swapaxes(1, 2)
        lam_min = np.linalg.eigvalsh(0.5 * (G + GT))[:, 0]
        return _row_max_abs(G - GT) + np.where(lam_min > tol, 0.0, 2.0 * tol - lam_min)

    return _sampled("metric field", IDENTITY_METRIC, residuals, points, tol)


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

    def residuals(X):
        Om = eval_field(w, X)
        s = np.linalg.svd(Om, compute_uv=False)
        first, last = (s[:, 0], s[:, -1]) if s.shape[1] else (1.0, 1.0)  # 0 x 0: ratio 1
        ratio = np.divide(last, first, out=np.zeros(len(X)), where=first > 0.0)
        penalty = np.where(ratio > tol, 0.0, 2.0 * tol - ratio)
        return np.maximum(_row_max_abs(Om + Om.swapaxes(1, 2)), penalty)

    return _sampled("symplectic field", IDENTITY_SYMPLECTIC, residuals, points, tol)


def check_closed(w: TensorField, points,
                 tol: float = DEFAULT_TOLERANCES["structures.closed"]) -> StructureCheckResult:
    """Closedness of the 2-form: cyclic sum of coefficient partials over all
    index triples, every partial from one derivative batch of omega along
    each coordinate (exact for a compiled field)."""
    n = w.shape[0]
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))  # i < j < k, in order

    def residuals(X):
        # entry [p, r, c, a] is the partial of omega_rc along x_a at point p
        partials = fd_directional(w, X, np.eye(n))
        return _row_max_abs(partials[:, j, k, i] + partials[:, k, i, j] + partials[:, i, j, k])

    return _sampled("closedness of omega", IDENTITY_CLOSED, residuals, points, tol)


def check_acs(J: TensorField, points,
              tol: float = DEFAULT_TOLERANCES["structures.acs"]) -> StructureCheckResult:
    """Frobenius norm of J(p)^2 + I at sample points."""
    eye = np.eye(J.shape[0])

    def residuals(X):
        Jm = eval_field(J, X)
        return _row_norms((Jm @ Jm + eye).reshape(len(X), -1))

    return _sampled("almost complex structure", IDENTITY_ACS, residuals, points, tol)


def check_compatibility(
        t: CompatibleTriple, points,
        tol: float = DEFAULT_TOLERANCES["structures.compatibility"]) -> StructureCheckResult:
    """Max-abs residual of the compatibility identity Omega @ J == G."""
    def residuals(X):
        Om, G, Jm = [eval_field(f, X) for f in (t.omega, t.metric, t.acs)]
        return _row_max_abs(Om @ Jm - G)

    return _sampled("compatibility", IDENTITY_COMPAT, residuals, points, tol)


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
