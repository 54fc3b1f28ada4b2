"""Charts, evaluable tensor fields, derivatives, and the small dense
linear-algebra kit used by every other module.

A chart point is a row of an (N, d) float array, and a sample of points
(``sample_box``, ``sample_ball``) the rows of one such array; a tangent
vector is a plain component array, and a frame or basis of tangent vectors
(``kernel_basis``, ``_gram_schmidt``) is a matrix whose columns are the
vectors.

Everything here is pure and immutable: evaluating a field or a derivative
never mutates shared state, so concurrent use needs no synchronization, and
nothing is cached at module level.
A map with ``tangents`` (every compiled map: a scenario's and the
holomorphy suite's references, and a constant field) has exact first
derivatives: its program runs once in forward mode (``exprlang``), to
roundoff, and a fully folded map gets a zero derivative without running
anything.  Only an opaque Python callable (a per-point map or a user's
``TensorField``) is differentiated by fourth-order central finite
differences with the one step ``FD_STEP`` (1e-5), which only
``fd_jacobian`` lets a caller change.

Every path works on stacks: ``eval_field``, ``fd_jacobian`` and
``fd_directional`` take an (N, d) array of points, and ``kernel_basis``,
``_gram_schmidt`` and ``spd_sqrt`` a stack of matrices.
A public function takes its points as one (N, d) array of N >= 1 rows and
refuses anything else, a flat vector or no points, with ValueError where
they enter (``_stack``, which ``as_points`` shares): an identity checked at
no point proves nothing.  A non-finite row raises NonFiniteError where the
rows are evaluated.  A map's values pass one check, ``_checked``: a
field's its declared shape, one value per row and finiteness, in that
order, and a flow's, a section's or a chart map's finiteness alone.  Every
refusal that names a point, of a map's values here or of a frame in
``reduction``, is raised by ``_raise_at_first``, naming the first failing
row.  A frame, not a vector, is one slice of
each stacked product: a frame's columns are multiplied as one matrix, and
their pairings and norms are read off the diagonal of one product such as
``W^T G W``.  Stacked results are the bits of the per-frame calls: stacked
``np.linalg.svd``, ``eigh``, ``solve`` and ``@`` (products with a
transposed operand, or with an operand broadcast over the stack, included)
run the same LAPACK or BLAS call on each slice, while ``einsum``,
``sum(axis=...)`` and ``np.linalg.norm(axis=...)`` would add in another
order, so none is used.  A stack whose slices would differ in shape
raises instead of padding: ``kernel_basis`` a ValueError, and Gram-Schmidt
the refusal its caller passes.

Every derivative takes one path, ``_derivative``: a map's values at every
row and its derivatives there along the columns of a seed matrix, which
names the directions (the identity for a Jacobian or a momentum map's
gradients, the k group parameters for the k generators), from one batch,
so the values ride with the derivatives.  A map with ``tangents`` takes
both in one forward-mode batch; any other takes the stencil, where each
point x and its stencil points ``x + t * d`` are rows of one array, all
rows are evaluated in one call, and one vectorised expression combines
them with the operation order of the per-column formula, so the result is
the same bits.  An exact derivative that is not finite raises
NonFiniteError naming the map and its first such row.  Every map is a
``RowMap``, whose ``rows`` evaluates all rows of an array; a user's
per-point callable is wrapped into one where it enters the package
(``as_row_map``) and called once per row with the row, a read-only 1-D
float array of a copy of the batch.  A compiled scenario map runs its program
once per batch, on the coordinate columns, each operation one numpy kernel
(``exprlang``), so each row has the bits of running it on that row alone.
Every stack runs once: a failing stack raises the first error its batch
meets, in the order the batch computes, naming the first row that fails
that step.  Where one row fails, that is the error of the row alone.

Evaluation stays cheap on success: ``eval_field`` formats a point into its
error message (``point [...]``, every coordinate on one line) only when a
value is non-finite.
The samplers read only ``random()`` of a ``random.Random`` (``sample_stream``),
whose sequence Python keeps across versions, so a box point has the same
bits everywhere.  ``sample_ball`` draws each point directly, a Box-Muller
Gaussian direction times a radius of U^(1/q), so its cost is linear in the
dimension q; its log, cos, sin and sqrt may round by an ulp per libm.
"""

from __future__ import annotations

import operator
import random
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, NonFiniteError, NotSPDError

__all__ = [
    "as_points",
    "RowMap",
    "as_row_map",
    "TensorField",
    "FD_STEP",
    "RANK_TOL",
    "eval_field",
    "fd_jacobian",
    "fd_directional",
    "kernel_basis",
    "spd_sqrt",
    "max_abs",
    "sample_stream",
    "sample_box",
    "sample_ball",
]


def as_points(points) -> np.ndarray:
    """The points as the rows of an (N, d) array: an (N, d) array as it is,
    a sequence of coordinate vectors stacked.  Points of another shape, a
    flat array included, and no points, an empty sequence included, raise
    ValueError (``_stack``); a non-finite row raises NonFiniteError."""
    if not isinstance(points, np.ndarray):
        rows = [np.asarray(p, dtype=float) for p in points]
        points = np.array(rows, dtype=float) if rows else np.zeros((0, 0))
    return _require_finite(_stack(points), "chart point")


def _stack(X) -> np.ndarray:
    """X if it is an (N, d) array of N >= 1 rows, the one shape of points a
    public function takes; else ValueError.  No points would make any check
    over them pass vacuously."""
    if not (isinstance(X, np.ndarray) and X.ndim == 2):
        got = f"shape {X.shape}" if isinstance(X, np.ndarray) else f"a {type(X).__name__}"
        raise ValueError(f"points must be an (N, d) array, got {got}")
    if not len(X):
        raise ValueError("points must hold at least one point, got none")
    return X


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} contains non-finite entries")
    return a


def _point_text(x) -> str:
    """``point [...]`` with every coordinate of the point x, on one line,
    for error messages."""
    coords = np.asarray(x, dtype=float)
    return "point " + np.array2string(coords, separator=", ", max_line_width=sys.maxsize)


def _read_only_rows(X: np.ndarray) -> np.ndarray:
    """A read-only float copy of X, whose rows a per-point callable reads:
    the callable can change neither them nor the caller's array."""
    rows = np.array(X, dtype=float)
    rows.flags.writeable = False
    return rows


class RowMap:
    """A map evaluated over many points at once.

    ``rows(X)`` takes an (N, d) array whose rows are points and returns the
    (N, *shape) array of their values, doing for each row exactly what a
    call on that one row does.

    ``tangents``, if the map has one, gives exact derivatives:
    ``tangents(X, seeds)`` is the pair of the values, the bits of
    ``rows(X)``, and the (N, *shape, s) array of the derivatives at the
    rows of X along the s columns of the (d, s) array ``seeds``, each row
    the bits of the call on it alone, a derivative that is not finite left
    for ``_derivative`` to refuse, naming the map ``name``.  A map without
    one is differentiated by the stencil.
    """

    __slots__ = ("rows", "tangents", "name")

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray], tangents: Callable | None = None,
                 name: str = ""):
        self.rows = rows
        self.tangents = tangents
        self.name = name

    @staticmethod
    def per_row(value: Callable[[np.ndarray], object]) -> "RowMap":
        """The RowMap calling ``value`` on each row in order, a read-only
        1-D float array (``_read_only_rows``)."""
        return RowMap(lambda X: np.array(
            [np.asarray(value(x), dtype=float) for x in _read_only_rows(X)], dtype=float))


def as_row_map(f) -> RowMap:
    """``f`` itself if it is a RowMap, else the RowMap calling ``f`` once per
    row with the row, a read-only 1-D float array."""
    return f if isinstance(f, RowMap) else RowMap.per_row(f)


@dataclass(frozen=True, eq=False)
class TensorField:
    """Evaluable scalar-, vector- or matrix-valued field over one chart.

    ``func`` is a pure, deterministic map of the chart point, held as a
    RowMap (a per-point callable is wrapped on construction); its output
    shape must be constant over the chart, and its rank ``len(shape)`` at
    most 2.  Instances hold metric, symplectic, almost-complex,
    endomorphism and momentum-map fields.
    """

    shape: tuple[int, ...]
    func: RowMap  # given as a RowMap or as a per-point callable of a 1-D array
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "func", as_row_map(self.func))
        if len(self.shape) > 2:
            raise ValueError(f"field must be of rank <= 2, got shape {self.shape}")

    @staticmethod
    def scalar(func, name: str = "") -> "TensorField":
        return TensorField((), func, name)

    @staticmethod
    def vector(func, dim: int, name: str = "") -> "TensorField":
        return TensorField((dim,), func, name)

    @staticmethod
    def matrix(func, n: int, m: int | None = None, name: str = "") -> "TensorField":
        return TensorField((n, m if m is not None else n), func, name)

    @staticmethod
    def constant(value, name: str = "") -> "TensorField":
        arr = np.asarray(value, dtype=float)
        arr.flags.writeable = False
        def rows(X):
            return arr[np.newaxis].repeat(len(X), axis=0)

        return TensorField(arr.shape, RowMap(
            rows, lambda X, seeds: (rows(X), np.zeros((len(X), *arr.shape, seeds.shape[1])))),
            name)


def eval_field(field: TensorField, X: np.ndarray) -> np.ndarray:
    """Evaluate ``field`` at the rows of the (N, d) array X, checking shape,
    count and finiteness (``_checked``): the (N, *shape) values from one
    ``rows`` call, a failing batch raising the first error it meets.
    """
    return _evaluate_rows(field.func, _stack(X), f"field {field.name!r}", field.shape)


def _checked(values, rows: np.ndarray, what: str, shape: tuple | None = None) -> np.ndarray:
    """The values ``what`` of a map at ``rows`` as a float array: with a
    declared ``shape``, of that shape (else ValueError), one per row (else
    ValueError) and finite (else NonFiniteError naming the first such row),
    in that order; with none, finite (else NonFiniteError)."""
    values = np.asarray(values, dtype=float)
    if shape is None:
        return _require_finite(values, what)
    if values.shape[1:] != shape:
        raise ValueError(f"{what} returned shape {values.shape[1:]}, declared {shape}")
    if len(values) != len(rows):
        raise ValueError(f"{what} returned {len(values)} values for {len(rows)} points")
    return _finite_rows(values, rows, what)


def _finite_rows(values: np.ndarray, rows: np.ndarray, what: str) -> np.ndarray:
    """``values``, one per row of ``rows``, if all are finite; else
    NonFiniteError naming ``what`` and the first row with a non-finite
    value.  Formatting the point costs more than the values: only on
    failure."""
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        _raise_at_first(~finite, rows, NonFiniteError,
                        lambda i, at: f"{what} at {at} contains non-finite entries")
    return values


def _raise_at_first(failing: np.ndarray, M: np.ndarray, error: type, text) -> None:
    """Raise ``error(text(i, at))`` for the first row i of M that the mask
    ``failing`` marks, ``at`` the text of that point; every refusal that
    names a point, of a map's values or of a frame, is raised here."""
    i = _first(failing)
    if i is not None:
        raise error(text(i, _point_text(M[i])))


# the step of the fourth-order central-difference stencil, which only maps
# without exact derivatives take; only a caller of fd_jacobian can pass another
FD_STEP = 1e-5
# kernel_basis counts singular values below this times the largest one as zero
RANK_TOL = 1e-8


def _stencil(directions: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """The steps ``t * d`` of the central-difference stencil, for each row d
    of ``directions`` (outer) and each offset t (inner, in the order the
    difference formula reads them), one row per step."""
    offsets = np.array([2 * h, h, -h, -2 * h])
    steps = offsets[np.newaxis, :, np.newaxis] * directions[:, np.newaxis, :]
    return steps.reshape(4 * len(directions), directions.shape[1])


def _differences(values: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences from the (N, 4 s, *shape) values at the rows of
    each point's ``_stencil`` over s directions, as the (N, *shape, s) stack."""
    v = values.reshape((len(values), values.shape[1] // 4, 4) + values.shape[2:])
    D = (-v[:, :, 0] + 8.0 * v[:, :, 1] - 8.0 * v[:, :, 2] + v[:, :, 3]) / (12.0 * h)
    return np.ascontiguousarray(np.moveaxis(D, 1, -1))


def _evaluate_rows(f: RowMap, points: np.ndarray, what: str,
                   shape: tuple | None = None) -> np.ndarray:
    """The values ``what`` of a map at every row of ``points`` from one
    ``rows`` call, as ``_checked`` passes them for ``shape``; a non-finite
    row of ``points`` (a stencil row may overflow) raises NonFiniteError."""
    return _checked(f.rows(_require_finite(points, "chart point")), points, what, shape)


def _stencil_rows(X: np.ndarray, directions: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """For every row x of X (outermost), the rows x and then
    ``x + _stencil(directions, h)``, its stencil points."""
    x = X[:, np.newaxis]
    rows = np.concatenate([x, x + _stencil(directions, h)], axis=1)
    return rows.reshape(rows.shape[0] * rows.shape[1], X.shape[1])


def _derivative(f: RowMap, X: np.ndarray, seeds: np.ndarray, what: str,
                shape: tuple | None = None, h: float = FD_STEP) -> tuple[np.ndarray, np.ndarray]:
    """The values ``what`` of ``f`` at the rows of the (N, d) array X, each
    refused as ``_checked`` refuses it for ``shape``, and the (N, *shape, s)
    derivatives there along the s columns of the (d, s) array ``seeds``,
    from one batch, each row the bits of the call on its point alone:
    exact, from one ``tangents`` batch, if the map has one, a derivative
    that is not finite refused first, naming the map and its first such
    row; else central differences of step h."""
    if f.tangents is not None:
        values, D = f.tangents(_require_finite(X, "chart point"), seeds)
        D = _finite_rows(D, X, f"derivative of {f.name}")
        return _checked(values, X, what, shape), D
    values = _evaluate_rows(f, _stencil_rows(X, seeds.T, h), what, shape)
    values = values.reshape(len(X), 1 + 4 * seeds.shape[1], *values.shape[1:])
    return values[:, 0], _differences(values[:, 1:], h)


def fd_jacobian(chart_map, X, *, step: float = FD_STEP) -> np.ndarray:
    """Jacobian matrices of a chart-to-chart map at the rows of the (N, n)
    array X, as the (N, m, n) stack: exact for a map with ``tangents`` (a
    compiled scenario map), else by central differences of ``step``.

    Entry (j, i) of each is the partial of output component j with respect
    to input coordinate i; the stencil's error is O(step**4) on smooth
    maps.  All rows are evaluated in one batch, the map's values at the
    points included, each Jacobian the bits of the call on its point
    alone.  A step that is not positive and finite
    raises ValueError.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    N, n = _stack(X).shape
    values, D = _derivative(as_row_map(chart_map), X, np.eye(n), "map value", h=step)
    return D.reshape(N, int(np.prod(values.shape[1:])), n)


def fd_directional(field: TensorField, X, direction) -> np.ndarray:
    """Directional derivatives of a tensor field (unnormalized) at the rows
    of the (N, n) array X, from one batch, as ``fd_jacobian``: along one
    vector ``direction``, the (N, *shape) stack; along each column of an
    (n, s) matrix of directions, the (N, *shape, s) stack, so the identity
    gives every partial at once.  A zero direction, or a matrix of no
    directions, raises DegenerateInputError."""
    d = np.asarray(direction, dtype=float)
    directions = d[:, np.newaxis] if d.ndim == 1 else d
    if not directions.shape[1] or not (_row_norms(directions.T) > 0).all():
        raise DegenerateInputError("directional derivative needs a nonzero direction")
    _, D = _derivative(field.func, _stack(X), directions, f"field {field.name!r}", field.shape)
    return D[..., 0] if d.ndim == 1 else D


def kernel_basis(mat) -> np.ndarray:
    """Orthonormal basis of the null space of ``mat`` via SVD, as the columns
    of an n x (n - rank) matrix.

    Singular values below ``RANK_TOL`` times the largest one count as zero.
    The columns are the trailing right-singular vectors, so the ordering is
    deterministic.  An all-zero or empty matrix has full kernel.  A stack
    (N, m, n) of matrices gives the (N, n, n - rank) stack of their bases
    from one stacked SVD, each the bits of the call on its matrix alone; a
    stack whose ranks differ raises ValueError, and an empty stack takes
    the rank min(m, n).
    """
    ranks, vt = _ranks(mat)
    flat = ranks.reshape(-1)
    if (flat != flat[:1]).any():
        raise ValueError("kernel dimensions differ across the stack")
    rank = int(flat[0]) if len(flat) else min(np.shape(mat)[-2:])  # no matrix: full rank
    return _null_columns(vt, rank)


def _ranks(mat) -> tuple[np.ndarray, np.ndarray]:
    """The rank of ``mat``, or of every matrix of a stack, as ``kernel_basis``
    counts it, and the right-singular vectors of the one SVD it took, for
    ``_null_columns``: a caller that refuses some ranks decides them per
    matrix before taking any basis."""
    a = _require_finite(np.atleast_2d(np.asarray(mat, dtype=float)), "matrix")
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    counts = np.sum(s > (RANK_TOL * smax)[..., np.newaxis], axis=-1)
    return np.where(smax > 0.0, counts, 0), vt


def _null_columns(vt: np.ndarray, rank: int) -> np.ndarray:
    """The kernel basis, as columns, of matrices of rank ``rank`` from their
    right-singular vectors ``vt``."""
    return np.ascontiguousarray(vt[..., rank:, :].swapaxes(-1, -2))


def _gram_schmidt(frame, metric, tol: float, refuse: Callable) -> np.ndarray:
    """Gram-Schmidt over the columns of ``frame`` in the inner product
    ``metric``, as columns; at the first column whose metric norm after
    projection is below ``tol`` in some slices, it raises
    ``refuse(slices)`` with the mask of those slices.  Each column w is
    projected against the whole basis B so far, w - B (B^T G w), twice:
    classical Gram-Schmidt run twice is as orthogonal as the modified form
    (Giraud, Langou & Rozloznik, Comput. Math. Appl. 2005).  A stack of
    frames (N, n, c) with metrics (N, n, n) takes one pass of stacked
    products, each slice the bits of the call on it alone."""
    G = np.asarray(metric, dtype=float)
    cols = np.asarray(frame, dtype=float)
    B = cols[..., :0]
    for j in range(cols.shape[-1]):
        w = cols[..., j:j + 1].copy()  # contiguous, whatever the frame's layout
        if B.shape[-1]:
            BtG = B.swapaxes(-1, -2) @ G
            for _ in range(2):
                w = w - B @ (BtG @ w)
        nrm = _g_norms(w, G)
        short = nrm[..., 0] < tol
        if short.any():
            raise refuse(short)
        B = np.concatenate([B, w / nrm[..., np.newaxis, :]], axis=-1)
    return B


def _g_norms(W: np.ndarray, G: np.ndarray | None = None) -> np.ndarray:
    """The g-norms sqrt(max(w^T G w, 0)) of the columns w of every frame W
    (..., n, c), as (..., c): the diagonal of the one product W^T G W per
    frame, the leading axes of W and G broadcasting; with no G, the
    Euclidean norms, from W^T W."""
    gram = W.swapaxes(-1, -2) @ W if G is None else _pullback(G, W)
    return np.sqrt(np.maximum(np.diagonal(gram, axis1=-2, axis2=-1), 0.0))


def _pullback(F: np.ndarray, D: np.ndarray) -> np.ndarray:
    """D^T F D at every slice: the form F pulled back along the columns of D."""
    return D.swapaxes(-1, -2) @ F @ D


def spd_sqrt(mat) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root and inverse square root of an SPD matrix, or of
    each matrix of an (N, n, n) stack, each the bits of the call on it
    alone.

    Raises NotSPDError if a matrix is visibly asymmetric or has a
    nonpositive eigenvalue, for the first such matrix of a stack.
    """
    a = _require_finite(np.asarray(mat, dtype=float), "matrix")
    A = a.reshape((-1,) + a.shape[-2:])
    AT = A.swapaxes(1, 2)
    asymmetric = _row_max_abs(A - AT) > 1e-10 * np.maximum(1.0, _row_max_abs(A))
    w, v = np.linalg.eigh(0.5 * (A + AT))
    i = _first(asymmetric | (w[:, 0] <= 0.0))
    if i is not None:
        raise NotSPDError("matrix is not symmetric" if asymmetric[i]
                          else f"matrix has nonpositive eigenvalue {w[i, 0]:.3e}")
    root = (v * np.sqrt(w)[:, np.newaxis]) @ v.swapaxes(1, 2)
    inv_root = (v / np.sqrt(w)[:, np.newaxis]) @ v.swapaxes(1, 2)
    return root.reshape(a.shape), inv_root.reshape(a.shape)


def _first(failing: np.ndarray):
    """Index of the first True entry, or None."""
    return int(np.argmax(failing)) if failing.any() else None


def max_abs(a) -> float:
    """Largest absolute entry; 0 for empty arrays."""
    arr = np.asarray(a, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _row_max_abs(A: np.ndarray) -> np.ndarray:
    """``max_abs(A[i])`` for every row i of a stack, 0 for empty rows."""
    return np.max(np.abs(A), axis=tuple(range(1, A.ndim)), initial=0.0)


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The Euclidean norm along the last axis of an (..., k) array, each the
    bits of ``np.linalg.norm`` of that vector: a ``(1, k) @ (k, 1)`` product
    per vector."""
    return np.sqrt((V[..., np.newaxis, :] @ V[..., np.newaxis])[..., 0, 0])


def sample_stream(seed) -> random.Random:
    """``seed`` if it is a ``random.Random``, else a new one of the seed: a
    non-negative integer (TypeError for another type, ValueError if < 0)."""
    if isinstance(seed, random.Random):
        return seed
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def _uniforms(rng: random.Random, count: int, width: int) -> np.ndarray:
    """A (count, width) array of ``rng.random()`` draws, filled row by row."""
    draw = rng.random
    return np.array([draw() for _ in range(count * width)], dtype=float).reshape(count, width)


def sample_box(dim: int, count: int, radius: float = 2.0, seed=0) -> np.ndarray:
    """Uniform sample of ``count`` points of the coordinate box
    [-radius, radius)^dim, the rows of a (count, dim) array: coordinate j of
    point i is radius * (2u - 1) for uniform i * dim + j of the stream."""
    u = _uniforms(sample_stream(seed), count, dim)
    return _require_finite(radius * (2.0 * u - 1.0), "chart point")


def sample_ball(dim: int, count: int, radius: float = 2.0, seed=0) -> np.ndarray:
    """Uniform sample of ``count`` points inside the coordinate ball
    |x| <= radius, as the rows of a (count, dim) array.

    Each point is a uniform direction z/|z| from a Gaussian z, scaled by
    radius * w^(1/dim) (Muller, CACM 1959): ``count * dim`` normals, each
    point's from ceil(dim / 2) pairs (u, v) of uniforms as
    sqrt(-2 log(1 - u)) * (cos, sin)(2 pi v) (Box & Muller, Ann. Math.
    Statist. 1958), then ``count`` uniforms w.  At ``dim == 0`` every point
    is the empty vector and nothing is drawn.
    """
    rng = sample_stream(seed)
    if dim == 0:
        return np.zeros((count, 0))
    width = 2 * ((dim + 1) // 2)
    u = _uniforms(rng, count, width)
    r, theta = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    z = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=2).reshape(count, width)[:, :dim]
    scale = radius * _uniforms(rng, count, 1)[:, 0] ** (1.0 / dim) / _row_norms(z)
    return _require_finite(z * scale[:, np.newaxis], "chart point")
