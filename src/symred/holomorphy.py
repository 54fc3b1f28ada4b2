"""Almost-complex-mapping and Cauchy-Riemann residuals for maps between
charted almost complex manifolds.

Coordinates are interleaved (x1, y1, ..., xn, yn), matching the standard
identification of complex n-space with real 2n-space.  Residuals are
reported for every row of an (N, 2n) array of points at once, the only
shape of points either residual takes.  A stack that fails raises the
first error its batch meets.
"""

from __future__ import annotations

import numpy as np

from .errors import NotStandardStructureError, OddDimensionError, Record
from .geometry import (
    TensorField,
    as_row_map,
    eval_field,
    fd_jacobian,
    _evaluate_rows,
    _row_max_abs,
    _row_norms,
)
from .structures import standard_acs_matrix

__all__ = ["ChartedMap", "almost_complex_residual", "cauchy_riemann_residual"]

# largest entry by which a chart's structure may differ from the coordinate
# J for the Cauchy-Riemann residual to apply
STANDARD_J_TOL = 1e-10


class ChartedMap(Record):
    """A smooth map between two even-dimensional charts, each carrying an
    almost complex structure field, whose square shape gives the chart's
    dimension.

    ``chart_map`` is held as a RowMap (a per-point callable is wrapped on
    construction): a compiled map's Jacobian is exact, and any other's
    difference stencil is one row batch.
    """

    __slots__ = ("chart_map", "source_acs", "target_acs")

    def __init__(self, chart_map, source_acs: TensorField, target_acs: TensorField):
        super().__init__(as_row_map(chart_map), source_acs, target_acs)
        for label, acs in (("source", source_acs), ("target", target_acs)):
            if len(acs.shape) != 2 or acs.shape[0] != acs.shape[1]:
                raise ValueError(f"{label} acs must be square, got shape {acs.shape}")
            if acs.shape[0] % 2 != 0:
                raise OddDimensionError(f"{label} dimension {acs.shape[0]} is odd")


def _target_acs(cm: ChartedMap, X: np.ndarray) -> np.ndarray:
    """The target structure at the image of every row of X, from one call of
    the map over the rows; a non-finite image fails as a chart point."""
    return eval_field(cm.target_acs, _evaluate_rows(cm.chart_map, X, "chart point"))


def almost_complex_residual(cm: ChartedMap, X) -> np.ndarray:
    """Frobenius norm of D J1(p) - J2(phi(p)) D with D the map differential,
    at every row p of the (N, 2n) array X.

    The (N,) residuals come from one evaluation of each structure, the
    target's at the images read before one stacked Jacobian as in
    ``cauchy_riemann_residual``, each the bits of the call on its point alone.
    """
    J1 = eval_field(cm.source_acs, X)
    J2 = _target_acs(cm, X)
    D = fd_jacobian(cm.chart_map, X)
    return _row_norms((D @ J1 - J2 @ D).reshape(len(X), -1))


def cauchy_riemann_residual(cm: ChartedMap, X) -> np.ndarray:
    """Worst Cauchy-Riemann defect over all coordinate pairs.

    Writing the map components as (a_j, b_j) per target plane and the source
    coordinates as (x_i, y_i), the residual is the max over (i, j) of
    |da_j/dx_i - db_j/dy_i| and |da_j/dy_i + db_j/dx_i|.  Both charts must
    carry the standard coordinate almost complex structure, for which this
    vanishes exactly when the almost-complex-mapping residual does.  X is
    an (N, 2n) array of points, as for ``almost_complex_residual``.
    """
    J1_std = standard_acs_matrix(cm.source_acs.shape[0])
    J2_std = standard_acs_matrix(cm.target_acs.shape[0])

    if (_row_max_abs(eval_field(cm.source_acs, X) - J1_std) > STANDARD_J_TOL).any():
        raise NotStandardStructureError("source structure is not the coordinate J")
    if (_row_max_abs(_target_acs(cm, X) - J2_std) > STANDARD_J_TOL).any():
        raise NotStandardStructureError("target structure is not the coordinate J")
    D = fd_jacobian(cm.chart_map, X)
    # rows 2j, 2j + 1 of D are (a_j, b_j); columns 2i, 2i + 1 are (x_i, y_i)
    a_x, a_y = D[:, 0::2, 0::2], D[:, 0::2, 1::2]
    b_x, b_y = D[:, 1::2, 0::2], D[:, 1::2, 1::2]
    return np.maximum(_row_max_abs(a_x - b_y), _row_max_abs(a_y + b_x))
