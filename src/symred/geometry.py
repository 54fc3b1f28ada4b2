"""Charts, tangent vectors, evaluable tensor fields, finite differences, and
the small dense linear-algebra kit used by every other module.

Everything here is pure and immutable: evaluating a field or a derivative
never mutates shared state, so concurrent use needs no synchronization.
Derivatives are central finite differences (order 2 or 4, default 4 with
step 1e-5); nothing in the package differentiates symbolically.

The per-point paths stay cheap on success: ``eval_field`` formats the
point into its error message only when a value is non-finite, and
``sample_ball`` draws its rejection-sampling candidates in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, NonFiniteError, NotSPDError

__all__ = [
    "ChartPoint",
    "TangentVector",
    "TensorField",
    "FDConfig",
    "eval_field",
    "fd_jacobian",
    "fd_directional",
    "fd_gradient",
    "kernel_basis",
    "orthonormalize",
    "sqrt_inverse_spd",
    "spd_sqrt",
    "max_abs",
    "fro_norm",
    "g_inner",
    "g_norm",
    "sample_box",
    "sample_ball",
]


def as_coords(obj) -> np.ndarray:
    """Coordinate vector of a ChartPoint, TangentVector or array-like."""
    if isinstance(obj, ChartPoint):
        return obj.coords
    if isinstance(obj, TangentVector):
        return obj.components
    return np.asarray(obj, dtype=float)


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of one fixed coordinate chart, held as a flat real vector."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if c.ndim != 1:
            raise ValueError(f"chart point needs a flat coordinate vector, got shape {c.shape}")
        _require_finite(c, "chart point")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def displaced(self, delta) -> "ChartPoint":
        return ChartPoint(self.coords + as_coords(delta))

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"ChartPoint({np.array2string(self.coords, separator=', ')})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector attached to a chart point, in coordinate components."""

    base: ChartPoint
    components: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.components, dtype=float))
        if v.shape != (self.base.dim,):
            raise ValueError(
                f"tangent vector length {v.shape} does not match base dimension {self.base.dim}"
            )
        _require_finite(v, "tangent vector")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "components", v)

    def __repr__(self) -> str:
        return f"TangentVector({np.array2string(self.components, separator=', ')})"


ARITIES = ("scalar", "vector", "matrix")


@dataclass(frozen=True, eq=False)
class TensorField:
    """Evaluable scalar-, vector- or matrix-valued field over one chart.

    ``func`` must be a pure, deterministic function of the chart point; the
    output shape must be constant over the chart.  Instances hold metric,
    symplectic, almost-complex, endomorphism and momentum-component fields.
    """

    arity: str
    shape: tuple[int, ...]
    func: Callable[[ChartPoint], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.arity not in ARITIES:
            raise ValueError(f"arity must be one of {ARITIES}, got {self.arity!r}")
        expected = {"scalar": 0, "vector": 1, "matrix": 2}[self.arity]
        if len(self.shape) != expected:
            raise ValueError(f"{self.arity} field cannot have shape {self.shape}")

    @staticmethod
    def scalar(func, name: str = "") -> "TensorField":
        return TensorField("scalar", (), func, name)

    @staticmethod
    def vector(func, dim: int, name: str = "") -> "TensorField":
        return TensorField("vector", (dim,), func, name)

    @staticmethod
    def matrix(func, n: int, m: int | None = None, name: str = "") -> "TensorField":
        return TensorField("matrix", (n, m if m is not None else n), func, name)

    @staticmethod
    def constant(value, name: str = "") -> "TensorField":
        arr = np.asarray(value, dtype=float)
        arr.flags.writeable = False
        arity = ARITIES[arr.ndim] if arr.ndim <= 2 else None
        if arity is None:
            raise ValueError(f"constant field must be rank <= 2, got shape {arr.shape}")
        return TensorField(arity, arr.shape, lambda p, _a=arr: _a, name)

    def __call__(self, p):
        return eval_field(self, p)


def eval_field(field: TensorField, p) -> np.ndarray | float:
    """Evaluate ``field`` at ``p``, checking shape and finiteness.

    Scalar fields come back as a plain float, everything else as an ndarray.
    """
    point = p if isinstance(p, ChartPoint) else ChartPoint(as_coords(p))
    raw = field.func(point)
    out = np.asarray(raw, dtype=float)
    if out.shape != field.shape:
        raise ValueError(
            f"field {field.name!r} returned shape {out.shape}, declared {field.shape}"
        )
    if not np.isfinite(out).all():
        # formatting the point costs more than the evaluation: only on failure
        raise NonFiniteError(f"field {field.name!r} at {point} contains non-finite entries")
    if field.arity == "scalar":
        return float(out)
    return out


@dataclass(frozen=True)
class FDConfig:
    """Central-difference configuration: positive step and accuracy order 2 or 4."""

    step: float = 1e-5
    order: int = 4

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.order not in (2, 4):
            raise ValueError(f"order must be 2 or 4, got {self.order}")


def _central_difference(sample: Callable[[float], np.ndarray], cfg: FDConfig) -> np.ndarray:
    h = cfg.step
    if cfg.order == 2:
        return (sample(h) - sample(-h)) / (2.0 * h)
    return (-sample(2 * h) + 8.0 * sample(h) - 8.0 * sample(-h) + sample(-2 * h)) / (12.0 * h)


def fd_jacobian(chart_map, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Jacobian matrix of a chart-to-chart map at ``p`` by central differences.

    Entry (j, i) approximates the partial of output component j with respect
    to input coordinate i; the error is O(step**order) on smooth maps.
    """
    x = as_coords(p)
    n = x.shape[0]

    def value(y: np.ndarray) -> np.ndarray:
        out = as_coords(chart_map(ChartPoint(y)))
        return _require_finite(out, "map value")

    if n == 0:
        return np.zeros((value(x).shape[0], 0))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(_central_difference(lambda t: value(x + t * e), cfg))
    return np.column_stack(cols)


def fd_directional(field: TensorField, p, direction, cfg: FDConfig = FDConfig()) -> np.ndarray | float:
    """Directional derivative of a tensor field along ``direction`` (unnormalized)."""
    x = as_coords(p)
    d = as_coords(direction)
    if not np.linalg.norm(d) > 0:
        raise DegenerateInputError("directional derivative needs a nonzero direction")

    def sample(t: float) -> np.ndarray:
        return np.asarray(eval_field(field, ChartPoint(x + t * d)), dtype=float)

    out = _central_difference(sample, cfg)
    return float(out) if field.arity == "scalar" else out


def fd_gradient(field: TensorField, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Coordinate gradient of a scalar field."""
    if field.arity != "scalar":
        raise ValueError("gradient is defined for scalar fields")
    x = as_coords(p)
    n = x.shape[0]
    grad = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        grad[i] = fd_directional(field, x, e, cfg)
    return grad


def kernel_basis(mat, rank_tol: float = 1e-8, require_positive_rank: bool = False) -> list[np.ndarray]:
    """Orthonormal basis of the null space of ``mat`` via SVD.

    Singular values below rank_tol times the largest one count as zero.  The
    returned vectors are the trailing right-singular vectors, so the ordering
    is deterministic.  An all-zero matrix has full kernel; with
    ``require_positive_rank`` that case raises instead.
    """
    a = _require_finite(np.atleast_2d(np.asarray(mat, dtype=float)), "matrix")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    if smax <= 0.0:
        if require_positive_rank:
            raise DegenerateInputError("matrix is identically zero but positive rank was required")
        rank = 0
    else:
        rank = int(np.sum(s > rank_tol * smax))
    return [vt[i] for i in range(rank, a.shape[1])]


def orthonormalize(vectors, metric, tol: float = 1e-10):
    """Gram-Schmidt with respect to the inner product defined by ``metric``.

    Vectors whose metric norm drops below ``tol`` after projection are
    dropped, so linearly dependent inputs are handled silently.  Accepts and
    returns TangentVector lists or raw component arrays, matching the input.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    tangent = isinstance(vecs[0], TangentVector)
    base = vecs[0].base if tangent else None
    G = np.asarray(metric, dtype=float)
    basis: list[np.ndarray] = []
    for v in vecs:
        w = as_coords(v).astype(float).copy()
        for _ in range(2):  # re-orthogonalize once for 1e-12-level orthogonality
            for b in basis:
                w -= (b @ G @ w) * b
        nrm = g_norm(w, G)
        if nrm < tol:
            continue
        basis.append(w / nrm)
    if tangent:
        return [TangentVector(base, b) for b in basis]
    return basis


def spd_sqrt(mat) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix.

    Raises NotSPDError if the matrix is visibly asymmetric or has a
    nonpositive eigenvalue.
    """
    a = np.asarray(mat, dtype=float)
    _require_finite(a, "matrix")
    scale = max(1.0, max_abs(a))
    if max_abs(a - a.T) > 1e-10 * scale:
        raise NotSPDError("matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] <= 0.0:
        raise NotSPDError(f"matrix has nonpositive eigenvalue {w[0]:.3e}")
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    return root, inv_root


def sqrt_inverse_spd(mat) -> np.ndarray:
    """The SPD matrix S with S @ S == inv(mat), via eigendecomposition."""
    return spd_sqrt(mat)[1]


def max_abs(a) -> float:
    """Largest absolute entry; 0 for empty arrays."""
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def g_inner(u, metric, v) -> float:
    return float(as_coords(u) @ np.asarray(metric, dtype=float) @ as_coords(v))


def g_norm(v, metric) -> float:
    return float(np.sqrt(max(g_inner(v, metric, v), 0.0)))


# doubles per rejection-sampling draw in sample_ball; small, so the batch
# stays a few tens of kilobytes
_BALL_BATCH = 4096


def sample_box(dim: int, count: int, radius: float = 2.0, seed: int = 0,
               center: Sequence[float] | None = None) -> list[ChartPoint]:
    """Deterministic uniform sample of chart points in a coordinate box."""
    rng = np.random.default_rng(seed)
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    pts = rng.uniform(-radius, radius, size=(count, dim)) + c
    return [ChartPoint(row) for row in pts]

def sample_ball(dim: int, count: int, radius: float = 2.0, seed: int = 0) -> list[ChartPoint]:
    """Deterministic uniform sample inside the coordinate ball |x| <= radius.

    Rejection sampling from the cube: candidates are drawn in batches of
    about _BALL_BATCH doubles and accepted in draw order, which yields the
    same points as drawing one candidate of ``dim`` uniforms at a time.
    """
    rng = np.random.default_rng(seed)
    points: list[ChartPoint] = []
    if dim == 0:
        return [ChartPoint(np.zeros(0)) for _ in range(count)]
    rows = max(1, _BALL_BATCH // dim)
    while len(points) < count:
        batch = rng.uniform(-1.0, 1.0, size=(rows, dim))
        # the slack keeps every row the exact norm test below accepts
        near = np.einsum("ij,ij->i", batch, batch) <= 1.0 + 1e-9
        for x in batch[near]:
            if np.linalg.norm(x) <= 1.0:
                points.append(ChartPoint(radius * x))
                if len(points) == count:
                    break
    return points
