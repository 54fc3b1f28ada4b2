"""Almost-complex-mapping and Cauchy-Riemann residuals for maps between
charted almost complex manifolds.

Coordinates are interleaved (x1, y1, ..., xn, yn), matching the standard
identification of complex n-space with real 2n-space; all residuals here use
the Frobenius norm, reported per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotStandardStructureError, OddDimensionError
from .geometry import (
    ChartPoint,
    FDConfig,
    RowMap,
    TensorField,
    as_point,
    as_row_map,
    eval_field,
    fd_jacobian,
    fro_norm,
    max_abs,
)
from .structures import standard_acs_matrix

__all__ = ["ChartedMap", "almost_complex_residual", "cauchy_riemann_residual"]

IDENTITY_ACM_MAP = "phi_* o J1 = J2 o phi_*"
IDENTITY_CR = "a_x = b_y and a_y = -b_x (Cauchy-Riemann)"


@dataclass(frozen=True, eq=False)
class ChartedMap:
    """A smooth map between two even-dimensional charts, each carrying an
    almost complex structure field.

    ``chart_map`` is held as a RowMap (a per-point callable is wrapped on
    construction), so a difference stencil of the map is one row batch.
    """

    source_dim: int
    target_dim: int
    chart_map: RowMap  # given as a RowMap or as a ChartPoint -> point callable
    source_acs: TensorField
    target_acs: TensorField

    def __post_init__(self):
        object.__setattr__(self, "chart_map", as_row_map(self.chart_map))
        for label, dim in (("source", self.source_dim), ("target", self.target_dim)):
            if dim % 2 != 0:
                raise OddDimensionError(f"{label} dimension {dim} is odd")
        if self.source_acs.shape != (self.source_dim, self.source_dim):
            raise ValueError("source acs shape does not match the source dimension")
        if self.target_acs.shape != (self.target_dim, self.target_dim):
            raise ValueError("target acs shape does not match the target dimension")

    def at(self, p) -> ChartPoint:
        return as_point(self.chart_map(as_point(p)))


def almost_complex_residual(cm: ChartedMap, p, cfg: FDConfig = FDConfig()) -> float:
    """Frobenius norm of D J1(p) - J2(phi(p)) D with D the map differential."""
    point = as_point(p)
    D = fd_jacobian(cm.chart_map, point, cfg)
    J1 = eval_field(cm.source_acs, point)
    J2 = eval_field(cm.target_acs, cm.at(point))
    return fro_norm(D @ J1 - J2 @ D)


def cauchy_riemann_residual(cm: ChartedMap, p, cfg: FDConfig = FDConfig()) -> float:
    """Worst Cauchy-Riemann defect over all coordinate pairs.

    Writing the map components as (a_j, b_j) per target plane and the source
    coordinates as (x_i, y_i), the residual is the max over (i, j) of
    |da_j/dx_i - db_j/dy_i| and |da_j/dy_i + db_j/dx_i|.  Both charts must
    carry the standard coordinate almost complex structure, for which this
    vanishes exactly when the almost-complex-mapping residual does.
    """
    point = as_point(p)
    J1_std = standard_acs_matrix(cm.source_dim)
    J2_std = standard_acs_matrix(cm.target_dim)
    if max_abs(eval_field(cm.source_acs, point) - J1_std) > 1e-10:
        raise NotStandardStructureError("source structure is not the coordinate J")
    if max_abs(eval_field(cm.target_acs, cm.at(point)) - J2_std) > 1e-10:
        raise NotStandardStructureError("target structure is not the coordinate J")
    D = fd_jacobian(cm.chart_map, point, cfg)
    defects = []
    for j in range(cm.target_dim // 2):
        for i in range(cm.source_dim // 2):
            a_x = D[2 * j, 2 * i]
            a_y = D[2 * j, 2 * i + 1]
            b_x = D[2 * j + 1, 2 * i]
            b_y = D[2 * j + 1, 2 * i + 1]
            defects += [a_x - b_y, a_y + b_x]
    return max_abs(defects)
