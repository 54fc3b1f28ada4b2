"""Charts, evaluable tensor fields, finite differences, and the small dense
linear-algebra kit used by every other module.

A chart point is a ``ChartPoint``; a tangent vector is a plain component
array, and a frame or basis of tangent vectors (``kernel_basis``,
``orthonormalize``) is a matrix whose columns are the vectors.

Everything here is pure and immutable: evaluating a field or a derivative
never mutates shared state, so concurrent use needs no synchronization.
The one exception is ``OnDemand``, a table of values computed on first
lookup that a caller builds for one verification and passes explicitly to
the checks sharing it; nothing is cached at module level.
Derivatives are central finite differences (order 2 or 4, default 4 with
step 1e-5); nothing in the package differentiates symbolically.

``fd_jacobian``, ``fd_directional``, ``fd_gradient`` and the group
generators share one stencil path: every stencil point ``x + t * e`` is a
row of one array, all rows are evaluated in one call, and one vectorised
expression combines them with the operation order of the per-column
formula, so the result is the same bits.  Every map is a ``RowMap``, whose
``rows`` evaluates all rows of an array; a per-point callable is wrapped
into one where it enters the package (``as_row_map``) and called once per
row with a ``ChartPoint``.  A compiled scenario map runs its program once
per batch, on the coordinate columns, with numpy only for ``+ - * /`` and
negation and the ``math`` function or ``**`` per element otherwise: numpy
ufuncs such as ``np.exp`` round differently in the last bit on some inputs
and would change residuals.  A batch that meets an error or a non-finite
value is evaluated again one row at a time, so the first failing row
raises what it raises alone.

The per-point paths stay cheap on success: ``eval_field`` formats the
point into its error message only when a value is non-finite.
``sample_ball`` draws each point directly, a Gaussian direction times a
radius of U^(1/q), so its cost is linear in the dimension q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, NonFiniteError, NotSPDError

__all__ = [
    "ChartPoint",
    "as_point",
    "RowMap",
    "as_row_map",
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
    "OnDemand",
    "g_inner",
    "g_norm",
    "sample_box",
    "sample_ball",
]


def as_coords(obj) -> np.ndarray:
    """Coordinate vector of a ChartPoint or array-like."""
    if isinstance(obj, ChartPoint):
        return obj.coords
    return np.asarray(obj, dtype=float)


def as_point(obj) -> ChartPoint:
    """``obj`` itself if it is a ChartPoint, else a ChartPoint of its coordinates."""
    return obj if isinstance(obj, ChartPoint) else ChartPoint(as_coords(obj))


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of one fixed coordinate chart, held as a flat real vector."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float, ndmin=1)  # always a private copy
        if c.ndim != 1:
            raise ValueError(f"chart point needs a flat coordinate vector, got shape {c.shape}")
        _require_finite(c, "chart point")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"ChartPoint({np.array2string(self.coords, separator=', ')})"


class RowMap:
    """A map evaluated over many points at once.

    ``rows(X)`` takes an (N, d) array whose rows are points and returns the
    (N, *shape) array of their values, doing for each row exactly what a
    call on that one point does.  Calling the map on one point runs ``rows``
    on that one row and returns the row's value array.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray]):
        self.rows = rows

    def __call__(self, p) -> np.ndarray:
        return self.rows(as_coords(p)[np.newaxis])[0]

    @staticmethod
    def per_row(value: Callable[[np.ndarray], object]) -> "RowMap":
        """The RowMap calling ``value`` on each row in order; a non-finite
        value ends the batch, so no later row can raise first."""
        def rows(X: np.ndarray) -> np.ndarray:
            out = []
            for x in X:
                out.append(as_coords(value(x)))
                if not np.isfinite(out[-1]).all():
                    break
            return np.array(out, dtype=float)

        return RowMap(rows)


def as_row_map(f) -> RowMap:
    """``f`` itself if it is a RowMap, else the RowMap calling ``f`` once per
    row with a ChartPoint of the row."""
    return f if isinstance(f, RowMap) else RowMap.per_row(lambda x: f(ChartPoint(x)))


ARITIES = ("scalar", "vector", "matrix")


@dataclass(frozen=True, eq=False)
class TensorField:
    """Evaluable scalar-, vector- or matrix-valued field over one chart.

    ``func`` is a pure, deterministic map of the chart point, held as a
    RowMap (a per-point callable is wrapped on construction); its output
    shape must be constant over the chart.  Instances hold metric,
    symplectic, almost-complex, endomorphism and momentum-component fields.
    """

    arity: str
    shape: tuple[int, ...]
    func: RowMap  # given as a RowMap or as a ChartPoint -> value callable
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "func", as_row_map(self.func))
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
        rows = RowMap(lambda X: arr[np.newaxis].repeat(len(X), axis=0))
        return TensorField(arity, arr.shape, rows, name)

    def __call__(self, p):
        return eval_field(self, p)


def eval_field(field: TensorField, p) -> np.ndarray | float:
    """Evaluate ``field`` at ``p``, checking shape and finiteness.

    Scalar fields come back as a plain float, everything else as an ndarray.
    """
    point = as_point(p)
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


def _stencil(directions: np.ndarray, cfg: FDConfig) -> np.ndarray:
    """The steps ``t * d`` of the central-difference stencil, for each row d
    of ``directions`` (outer) and each offset t (inner, in the order the
    difference formula reads them), one row per step."""
    h = cfg.step
    offsets = np.array([h, -h] if cfg.order == 2 else [2 * h, h, -h, -2 * h])
    steps = offsets[np.newaxis, :, np.newaxis] * directions[:, np.newaxis, :]
    return steps.reshape(-1, directions.shape[1])


def _differences(values: np.ndarray, count: int, cfg: FDConfig) -> np.ndarray:
    """Central differences from the values at the rows of ``_stencil`` over
    ``count`` directions; entry i is the derivative along direction i."""
    h = cfg.step
    s = values.reshape((count, 2 if cfg.order == 2 else 4) + values.shape[1:]).swapaxes(0, 1)
    if cfg.order == 2:
        return (s[0] - s[1]) / (2.0 * h)
    return (-s[0] + 8.0 * s[1] - 8.0 * s[2] + s[3]) / (12.0 * h)


def _evaluate_rows(f: RowMap, points: np.ndarray, sample: Callable, shape=None) -> np.ndarray:
    """The values of a map at every row of ``points``, stacked in row order.

    All rows are evaluated in one ``rows`` call.  A batch that meets a
    non-finite point, an evaluation error, a non-finite value or, when
    ``shape`` is given, values not of shape (N, *shape) goes through
    ``sample`` one row at a time instead: the first failing row then raises
    what ``sample`` raises for it.
    """
    if np.isfinite(points).all():
        try:
            values = f.rows(points)
        except (NonFiniteError, ValueError):
            values = None
        if values is not None and np.isfinite(values).all() \
                and (shape is None or values.shape == (len(points), *shape)):
            return values
    return np.array([sample(y) for y in points], dtype=float)


def fd_jacobian(chart_map, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Jacobian matrix of a chart-to-chart map at ``p`` by central differences.

    Entry (j, i) approximates the partial of output component j with respect
    to input coordinate i; the error is O(step**order) on smooth maps.
    """
    chart_map = as_row_map(chart_map)
    x = as_coords(p)
    n = x.shape[0]

    def value(y: np.ndarray) -> np.ndarray:
        return _require_finite(chart_map(ChartPoint(y)), "map value")

    if n == 0:
        return np.zeros((value(x).shape[0], 0))
    values = _evaluate_rows(chart_map, x + _stencil(np.eye(n), cfg), value)
    return np.ascontiguousarray(_differences(values.reshape(len(values), -1), n, cfg).T)


def fd_directional(field: TensorField, p, direction, cfg: FDConfig = FDConfig()) -> np.ndarray | float:
    """Directional derivative of a tensor field along ``direction`` (unnormalized)."""
    x = as_coords(p)
    d = as_coords(direction)
    if not np.linalg.norm(d) > 0:
        raise DegenerateInputError("directional derivative needs a nonzero direction")
    values = _evaluate_rows(field.func, x + _stencil(d[np.newaxis], cfg),
                            lambda y: eval_field(field, ChartPoint(y)), field.shape)
    out = _differences(values, 1, cfg)[0]
    return float(out) if field.arity == "scalar" else out


def fd_gradient(field: TensorField, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Coordinate gradient of a scalar field."""
    if field.arity != "scalar":
        raise ValueError("gradient is defined for scalar fields")
    x = as_coords(p)
    n = x.shape[0]
    values = _evaluate_rows(field.func, x + _stencil(np.eye(n), cfg),
                            lambda y: eval_field(field, ChartPoint(y)), field.shape)
    return _differences(values, n, cfg)


def kernel_basis(mat, rank_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` via SVD, as the columns
    of an n x (n - rank) matrix.

    Singular values below rank_tol times the largest one count as zero.  The
    columns are the trailing right-singular vectors, so the ordering is
    deterministic.  An all-zero or empty matrix has full kernel.
    """
    a = _require_finite(np.atleast_2d(np.asarray(mat, dtype=float)), "matrix")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rank_tol * smax)) if smax > 0.0 else 0
    return np.ascontiguousarray(vt[rank:].T)


def orthonormalize(frame, metric, tol: float = 1e-10) -> np.ndarray:
    """Gram-Schmidt over the columns of ``frame`` with respect to the inner
    product defined by ``metric``, returned as columns.

    Columns whose metric norm drops below ``tol`` after projection are
    dropped, so linearly dependent inputs are handled silently.  Each kept
    vector b is stored with its row ``b @ G``, computed once; a projection
    coefficient ``(b @ G) @ w`` is the same product as ``b @ G @ w``.
    """
    G = np.asarray(metric, dtype=float)
    cols = np.asarray(frame, dtype=float)
    basis: list[np.ndarray] = []
    rows: list[np.ndarray] = []  # b @ G for each b in basis
    for j in range(cols.shape[1]):
        w = cols[:, j].copy()
        for _ in range(2):  # re-orthogonalize once for 1e-12-level orthogonality
            for b, bG in zip(basis, rows):
                w -= (bG @ w) * b
        nrm = g_norm(w, G)
        if nrm < tol:
            continue
        basis.append(w / nrm)
        rows.append(basis[-1] @ G)
    return np.column_stack(basis) if basis else np.zeros((cols.shape[0], 0))


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


class OnDemand:
    """Lookup table whose value at ``key`` is ``build(key)``, computed on the
    first lookup and returned as is afterwards.

    Values are built in the order they are first asked for, so a build that
    raises does so where the uncached computation would have.  A table is
    meant for one verification run and one thread; it holds no other state.
    """

    def __init__(self, build: Callable):
        self._build = build
        self._values: dict = {}

    def __getitem__(self, key):
        try:
            return self._values[key]
        except KeyError:
            value = self._values[key] = self._build(key)
            return value


def sample_box(dim: int, count: int, radius: float = 2.0, seed: int = 0) -> list[ChartPoint]:
    """Deterministic uniform sample of chart points in the coordinate box
    [-radius, radius]^dim."""
    rng = np.random.default_rng(seed)
    return [ChartPoint(row) for row in rng.uniform(-radius, radius, size=(count, dim))]


def sample_ball(dim: int, count: int, radius: float = 2.0, seed: int = 0) -> list[ChartPoint]:
    """Deterministic uniform sample inside the coordinate ball |x| <= radius.

    Each point is a uniform direction z/|z| from a standard normal z, scaled
    by radius * u^(1/dim) for a uniform u on [0, 1) (Muller, CACM 1959):
    one ``standard_normal((count, dim))`` draw, then one
    ``uniform(size=count)`` draw.
    """
    if dim == 0:
        return [ChartPoint(np.zeros(0)) for _ in range(count)]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, dim))
    u = rng.uniform(size=count)
    scale = radius * u ** (1.0 / dim) / np.linalg.norm(z, axis=1)
    return [ChartPoint(row) for row in z * scale[:, np.newaxis]]
