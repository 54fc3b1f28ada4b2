"""Charts, evaluable tensor fields, finite differences, and the small dense
linear-algebra kit used by every other module.

A chart point is a ``ChartPoint``; a tangent vector is a plain component
array, and a frame or basis of tangent vectors (``kernel_basis``,
``orthonormalize``) is a matrix whose columns are the vectors.

Everything here is pure and immutable: evaluating a field or a derivative
never mutates shared state, so concurrent use needs no synchronization.
The one exception is ``BatchTable``, a table of values built together on
first lookup that a caller builds for one verification and passes
explicitly to the checks sharing it; nothing is cached at module level.
Derivatives are fourth-order central finite differences (default step
1e-5); nothing in the package differentiates symbolically.

The frame layer is stack-aware: ``eval_field``, ``fd_jacobian``,
``fd_directional`` and ``fd_gradient`` take an (N, d) array of points as
well as one point, and
``kernel_basis`` and ``orthonormalize`` a stack of matrices with a leading
batch axis, and one point or matrix is a stack of one.  Stacked results
are the bits of the per-point calls: stacked ``np.linalg.svd`` and ``@``
(products with a transposed operand and dot products as
``(N, 1, n) @ (N, n, 1)`` included) run the same LAPACK or BLAS call on
each slice, while ``einsum``, ``sum(axis=...)`` and
``np.linalg.norm(axis=...)`` would add in another order, so none is used.
A stack whose slices would differ in shape (kernel dimensions, columns
kept by Gram-Schmidt) raises ValueError instead of padding.

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
    "spd_sqrt",
    "max_abs",
    "fro_norm",
    "BatchTable",
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
    call on that one point does.  ``point`` is the per-point callable a
    wrapped map came from, or None.  Calling the map on one point runs
    ``point`` on that point as given (a ChartPoint is passed as is) and
    returns what it returns; a map without one runs ``rows`` on the one row
    and returns the row's value array.
    """

    __slots__ = ("rows", "point")

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray], point: Callable | None = None):
        self.rows = rows
        self.point = point

    def __call__(self, p):
        if self.point is not None:
            return self.point(as_point(p))
        return self.rows(as_coords(p)[np.newaxis])[0]

    @staticmethod
    def per_row(value: Callable[[np.ndarray], object], point: Callable | None = None) -> "RowMap":
        """The RowMap calling ``value`` on each row in order; a non-finite
        value ends the batch, so no later row can raise first."""
        def rows(X: np.ndarray) -> np.ndarray:
            out = []
            for x in X:
                out.append(as_coords(value(x)))
                if not np.isfinite(out[-1]).all():
                    break
            return np.array(out, dtype=float)

        return RowMap(rows, point)


def as_row_map(f) -> RowMap:
    """``f`` itself if it is a RowMap, else the RowMap calling ``f`` once per
    row with a ChartPoint of the row, and on one point with that point."""
    return f if isinstance(f, RowMap) else RowMap.per_row(lambda x: f(ChartPoint(x)), f)


def _stack(p) -> tuple[np.ndarray, bool]:
    """The points of ``p`` as the rows of an (N, d) array, and whether ``p``
    is one point (a ChartPoint or a flat vector, taken as a stack of one)
    rather than an (N, d) array of points."""
    if isinstance(p, np.ndarray) and p.ndim == 2:
        return p, False
    return as_coords(p)[np.newaxis], True


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
    ``p`` may also be an (N, d) array whose rows are points: then the values
    come back as one (N, *shape) array from one ``rows`` call, and a
    non-finite value raises for the first row that has one.
    """
    X, one = _stack(p)
    if one:
        point = as_point(p)
        values = np.asarray(as_coords(field.func(point)), dtype=float)[np.newaxis]
    else:
        values = np.asarray(field.func.rows(X), dtype=float)
    if values.shape[1:] != field.shape:
        raise ValueError(
            f"field {field.name!r} returned shape {values.shape[1:]}, declared {field.shape}"
        )
    finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if not finite.all():
        bad = point if one else ChartPoint(X[int(np.argmin(finite))])
        # formatting the point costs more than the evaluation: only on failure
        raise NonFiniteError(f"field {field.name!r} at {bad} contains non-finite entries")
    if len(values) != len(X):
        raise ValueError(f"field {field.name!r} returned {len(values)} values for {len(X)} points")
    if not one:
        return values
    return float(values[0]) if field.arity == "scalar" else values[0]


@dataclass(frozen=True)
class FDConfig:
    """Central-difference configuration: the positive step of the
    fourth-order stencil."""

    step: float = 1e-5

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")


def _stencil(directions: np.ndarray, cfg: FDConfig) -> np.ndarray:
    """The steps ``t * d`` of the central-difference stencil, for each row d
    of ``directions`` (outer) and each offset t (inner, in the order the
    difference formula reads them), one row per step."""
    h = cfg.step
    offsets = np.array([2 * h, h, -h, -2 * h])
    steps = offsets[np.newaxis, :, np.newaxis] * directions[:, np.newaxis, :]
    return steps.reshape(-1, directions.shape[1])


def _differences(values: np.ndarray, count: int, cfg: FDConfig) -> np.ndarray:
    """Central differences from the values at the rows of ``_stencil`` over
    ``count`` directions; entry i is the derivative along direction i."""
    s = values.reshape((count, 4) + values.shape[1:]).swapaxes(0, 1)
    return (-s[0] + 8.0 * s[1] - 8.0 * s[2] + s[3]) / (12.0 * cfg.step)


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


def _stencil_rows(X: np.ndarray, directions: np.ndarray, cfg: FDConfig) -> np.ndarray:
    """The stencil points ``x + t * d`` of every row x of X (outermost),
    each row d of ``directions`` and each offset t (innermost), one row per
    stencil point: for each x, the rows ``x + _stencil(directions, cfg)``."""
    n = X.shape[1]
    return (X[:, np.newaxis, :] + _stencil(directions, cfg)[np.newaxis]).reshape(-1, n)


def fd_jacobian(chart_map, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Jacobian matrix of a chart-to-chart map at ``p`` by central differences.

    Entry (j, i) approximates the partial of output component j with respect
    to input coordinate i; the error is O(step**4) on smooth maps.
    ``p`` may also be an (N, n) array whose rows are points: then the result
    is the (N, m, n) stack of their Jacobians, all stencil rows evaluated in
    one batch, each Jacobian the bits of the call on its point alone.
    """
    chart_map = as_row_map(chart_map)
    X, one = _stack(p)
    N, n = X.shape

    def value(y: np.ndarray) -> np.ndarray:
        return _require_finite(as_coords(chart_map(ChartPoint(y))), "map value")

    if n == 0:  # no stencil; the values at the points give the row count
        J = np.zeros((N, _evaluate_rows(chart_map, X, value).shape[1], 0))
    else:
        values = _evaluate_rows(chart_map, _stencil_rows(X, np.eye(n), cfg), value)
        D = _differences(values.reshape(len(values), -1), N * n, cfg)
        J = np.ascontiguousarray(D.reshape(N, n, -1).swapaxes(1, 2))
    return J[0] if one else J


def fd_directional(field: TensorField, p, direction, cfg: FDConfig = FDConfig()) -> np.ndarray | float:
    """Directional derivative of a tensor field along ``direction``
    (unnormalized); for an (N, n) array of points, the (N, *shape) stack of
    derivatives from one batch, as ``fd_gradient``."""
    X, one = _stack(p)
    d = as_coords(direction)
    if not np.linalg.norm(d) > 0:
        raise DegenerateInputError("directional derivative needs a nonzero direction")
    values = _evaluate_rows(field.func, _stencil_rows(X, d[np.newaxis], cfg),
                            lambda y: eval_field(field, ChartPoint(y)), field.shape)
    out = _differences(values, len(X), cfg)
    if not one:
        return out
    return float(out[0]) if field.arity == "scalar" else out[0]


def fd_gradient(field: TensorField, p, cfg: FDConfig = FDConfig()) -> np.ndarray:
    """Coordinate gradient of a scalar field; for an (N, n) array of points,
    the (N, n) stack of gradients from one batch, as ``fd_jacobian``."""
    if field.arity != "scalar":
        raise ValueError("gradient is defined for scalar fields")
    X, one = _stack(p)
    N, n = X.shape
    values = _evaluate_rows(field.func, _stencil_rows(X, np.eye(n), cfg),
                            lambda y: eval_field(field, ChartPoint(y)), field.shape)
    grad = _differences(values, N * n, cfg).reshape(N, n)
    return grad[0] if one else grad


def kernel_basis(mat, rank_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` via SVD, as the columns
    of an n x (n - rank) matrix.

    Singular values below rank_tol times the largest one count as zero.  The
    columns are the trailing right-singular vectors, so the ordering is
    deterministic.  An all-zero or empty matrix has full kernel.  A stack
    (N, m, n) of matrices gives the (N, n, n - rank) stack of their bases
    from one stacked SVD, each the bits of the call on its matrix alone; a
    stack whose ranks differ raises ValueError.
    """
    a = _require_finite(np.atleast_2d(np.asarray(mat, dtype=float)), "matrix")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    counts = np.sum(s > (rank_tol * smax)[..., np.newaxis], axis=-1)
    ranks = np.where(smax > 0.0, counts, 0).reshape(-1)
    if (ranks != ranks[0]).any():
        raise ValueError("kernel dimensions differ across the stack")
    return np.ascontiguousarray(vt[..., int(ranks[0]):, :].swapaxes(-1, -2))


def orthonormalize(frame, metric, tol: float = 1e-10) -> np.ndarray:
    """Gram-Schmidt over the columns of ``frame`` with respect to the inner
    product defined by ``metric``, returned as columns.

    Columns whose metric norm drops below ``tol`` after projection are
    dropped, so linearly dependent inputs are handled silently.  Each kept
    vector b is stored with its row ``b @ G``, computed once; a projection
    coefficient ``(b @ G) @ w`` is the same product as ``b @ G @ w``.  A
    stack of frames (N, n, c) with metrics (N, n, n) is orthonormalized in
    one pass of stacked products, each slice the bits of the call on it
    alone; a stack whose slices keep different columns raises ValueError.
    """
    G = np.asarray(metric, dtype=float)
    cols = np.asarray(frame, dtype=float)
    one = cols.ndim == 2
    if one:
        G, cols = G[np.newaxis], cols[np.newaxis]
    basis: list[np.ndarray] = []
    rows: list[np.ndarray] = []  # b @ G for each b in basis, as (N, 1, n)
    for j in range(cols.shape[2]):
        w = cols[:, :, j].copy()
        for _ in range(2):  # re-orthogonalize once for 1e-12-level orthogonality
            for b, bG in zip(basis, rows):
                w -= (bG @ w[:, :, np.newaxis])[:, 0] * b
        nrm = _g_norms(w, G)
        dropped = nrm < tol
        if dropped.any():
            if not dropped.all():
                raise ValueError("orthonormalized frames differ in rank across the stack")
            continue
        basis.append(w / nrm[:, np.newaxis])
        rows.append(basis[-1][:, np.newaxis] @ G)
    out = np.stack(basis, axis=-1) if basis else np.zeros(cols.shape[:2] + (0,))
    return out[0] if one else out


def _g_norms(w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``g_norm(w[i], G[i])`` for every row i, as stacked products."""
    wG = w[:, np.newaxis] @ G
    return np.sqrt(np.maximum((wG @ w[:, :, np.newaxis])[:, 0, 0], 0.0))


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


def max_abs(a) -> float:
    """Largest absolute entry; 0 for empty arrays."""
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _row_max_abs(A: np.ndarray) -> np.ndarray:
    """``max_abs(A[i])`` for every row i of a stack, 0 for empty rows."""
    return np.max(np.abs(A.reshape(len(A), -1)), axis=1, initial=0.0)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of an (N, k) array, each the bits of
    ``np.linalg.norm`` of the row: a ``(1, k) @ (k, 1)`` product per row."""
    return np.sqrt((V[:, np.newaxis] @ V[:, :, np.newaxis])[:, 0, 0])


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


def g_inner(u, metric, v) -> float:
    return float(as_coords(u) @ np.asarray(metric, dtype=float) @ as_coords(v))


def g_norm(v, metric) -> float:
    return float(np.sqrt(max(g_inner(v, metric, v), 0.0)))


class BatchTable:
    """Lookup table of values built together, on the first lookup, by
    ``build_all()``, which returns a dict of every key's value.

    Should that raise, every value is built alone instead, by
    ``build(key)`` on the key's first lookup: a failing build then raises
    where, and what, building that value on its own raises, so a caller
    reading the keys in its own order sees the first failure in that order.
    A table is meant for one verification run and one thread; it holds no
    other state.
    """

    def __init__(self, build_all: Callable[[], dict], build: Callable):
        self._build_all = build_all
        self._build = build
        self._values: dict | None = None

    def __getitem__(self, key):
        if self._values is None:
            try:
                self._values = self._build_all()
            except Exception:  # whatever the batch raised, ``build`` raises again per key
                self._values = {}
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
