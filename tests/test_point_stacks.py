"""One representation of a point: every public function that takes points
takes them as the rows of an (N, d) array of N >= 1 rows and refuses
anything else where they enter, and a user's per-point callable reads each
row as a read-only 1-D float array."""

import numpy as np
import pytest

from symred.actions import GroupAction, apply_flow, generator, momentum_jacobian
from symred.geometry import RowMap, TensorField, eval_field, fd_directional, fd_jacobian
from symred.holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from symred.reduction import lift_frames, reduced_structures, split_tangent
from symred.scenarios import builtin
from symred.structures import standard_acs

from util import replaced

HOPF = builtin("hopf")
J2 = standard_acs(2)
PLANE_MAP = ChartedMap(RowMap(lambda Y: Y * Y), J2, J2)

# name -> (the call on points X, the chart dimension d of its points)
PUBLIC = {
    "eval_field": (lambda X: eval_field(HOPF.metric, X), 4),
    "fd_jacobian": (lambda X: fd_jacobian(HOPF.section, X), 2),
    "fd_directional": (lambda X: fd_directional(HOPF.metric, X, np.eye(4)), 4),
    "apply_flow": (lambda X: apply_flow(HOPF.action, [0.3], X), 4),
    "generator": (lambda X: generator(HOPF.action, X), 4),
    "momentum_jacobian": (lambda X: momentum_jacobian(HOPF.mu, X), 4),
    "split_tangent": (lambda X: split_tangent(HOPF, X), 4),
    "reduced_structures": (lambda X: reduced_structures(HOPF, X), 2),
    "almost_complex_residual": (lambda X: almost_complex_residual(PLANE_MAP, X), 2),
    "cauchy_riemann_residual": (lambda X: cauchy_riemann_residual(PLANE_MAP, X), 2),
}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_only_a_stack_of_points_is_taken(name):
    call, d = PUBLIC[name]
    point = HOPF.section.rows(np.array([[0.3, -0.2]]))[0] if d == 4 else np.array([0.3, -0.2])
    # a stack of one is taken, and gives one row (a split or reduced
    # structures lead with the points)
    out = call(point[np.newaxis])
    lead = out if isinstance(out, np.ndarray) else out._values()[0]
    assert len(lead) == 1
    # one point as a flat vector is no stack of points, nor is a list
    flat = rf"^points must be an \(N, d\) array, got shape \({d},\)$"
    with pytest.raises(ValueError, match=flat):
        call(point)
    for listed in (point.tolist(), [point.tolist()]):
        with pytest.raises(ValueError, match=r"^points must be an \(N, d\) array, got a list$"):
            call(listed)
    with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
        call(np.zeros((0, d)))


def _read_only_rows_seen(rows, call):
    """``call()`` must hand every row it reads to ``rows``: checks each one
    is a read-only 1-D float array that writing to raises."""
    call()
    assert rows
    for row in rows:
        assert row.ndim == 1 and row.dtype == float and not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 7.0


def test_per_point_callables_read_read_only_rows_of_a_copy():
    X = np.array([[0.3, -0.2, 0.5, 0.1], [1.0, 0.0, -0.4, 0.2]])
    before = X.copy()
    seen = []
    field = TensorField.vector(lambda p: seen.append(p) or p, 4)
    assert eval_field(field, X).tobytes() == X.tobytes()
    _read_only_rows_seen(seen, lambda: fd_directional(field, X, np.eye(4)))
    seen.clear()
    _read_only_rows_seen(seen, lambda: fd_jacobian(lambda p: seen.append(p) or 2 * p, X))
    # a flow's point and parameters alike, whatever the caller's dtype
    params = []
    flow = GroupAction(1, lambda a, p: params.append(a) or seen.append(p) or p + a[0])
    seen.clear()
    _read_only_rows_seen(seen, lambda: apply_flow(flow, [0.5], X))
    _read_only_rows_seen(params, lambda: generator(flow, X))
    seen.clear()
    ints = np.array([[1, 2, 3, 4]])
    _read_only_rows_seen(seen, lambda: apply_flow(flow, [0], ints))
    assert (X == before).all() and ints.tolist() == [[1, 2, 3, 4]]


def test_a_per_point_callable_that_writes_to_its_row_fails_and_leaves_the_caller_alone():
    def scribble(p):
        p[0] = 0.0
        return p

    X = np.array([[0.3, -0.2], [0.5, 0.1]])
    for call in (lambda: eval_field(TensorField.vector(scribble, 2), X),
                 lambda: fd_jacobian(scribble, X),
                 lambda: lift_frames(replaced(HOPF, section=scribble), X)):
        with pytest.raises(ValueError, match="read-only"):
            call()
    assert X.tolist() == [[0.3, -0.2], [0.5, 0.1]]
