"""Each identity's residual is written once, as a private function of
stacked arrays: ``structures._*_residual``, ``actions._*_residual`` and
``geometry._pullback``.  On random stacks, failing ones included, each must
be the bits of the per-point references in util.py, and the main-theorem
and reduction rows must be those functions applied to the arrays of the
lift-frame table, bit for bit."""

import numpy as np
import pytest

from symred.actions import (
    MomentumMap,
    _endomorphism_residual,
    _hamiltonian_residual,
    _mu_residual,
    _pullback_residual,
    generator,
    momentum_jacobian,
    pushforward_table,
)
from symred.geometry import (
    RowMap,
    TensorField,
    _pullback,
    _row_max_abs,
    _row_norms,
    eval_field,
    fd_directional,
    sample_ball,
    sample_box,
)
from symred.reduction import _reduced, lift_frames, verify_main_theorem, verify_reduction_identity
from symred.scenarios import builtin, compile_scenario, parse_scenario
from symred.structures import (
    _acs_residual,
    _closed_residual,
    _compatibility_residual,
    _metric_residual,
    _symplectic_residual,
)

from util import (
    SCALED_MU_T2_TEXT,
    TORUS_T2_TEXT,
    reference_acs_residuals,
    reference_closed_residuals,
    reference_compatibility_residuals,
    reference_invariance_residuals,
    reference_metric_residuals,
    reference_momentum_residuals,
    reference_symplectic_residuals,
    residuals_seen,
)

N = 24
INDEX = np.arange(N, dtype=float)[:, np.newaxis]  # point i of a stack field is row i


def _same(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _stack_field(stack):
    """The matrix field whose value at the point (i,) is ``stack[i]``."""
    return TensorField(stack.shape[1:], RowMap(lambda X: stack[X[:, 0].astype(int)]))


def _stacks(seed):
    """Random (N, 4, 4) stacks of metrics, 2-forms and J's, each with slices
    that fail its identity: an asymmetric and an indefinite metric, a
    degenerate and a non-antisymmetric form, and J's with J^2 != -I."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((N, 4, 4))
    G = b @ b.swapaxes(1, 2) + 0.5 * np.eye(4)
    G[0, 0, 1] += 0.3  # asymmetric
    G[1] = np.diag([1.0, 1.0, 1.0, -0.2])  # indefinite
    a = rng.standard_normal((N, 4, 4))
    Om = a - a.swapaxes(1, 2)
    Om[2, 2:, :] = Om[2, :, 2:] = 0.0  # degenerate
    Om[3, 0, 1] += 0.7  # not antisymmetric
    J = rng.standard_normal((N, 4, 4))  # J^2 != -I
    J[4] = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    return G, Om, J


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tol", [1e-8, 0.5])
def test_structure_residuals_match_the_per_point_references(seed, tol):
    G, Om, J = _stacks(seed)
    fields = [_stack_field(s) for s in (G, Om, J)]
    metric = _metric_residual(G, tol)
    _same(metric, reference_metric_residuals(fields[0], INDEX, tol), "metric")
    assert metric[0] >= 0.3 and metric[1] >= 0.2 + tol
    symplectic = _symplectic_residual(Om, tol)
    _same(symplectic, reference_symplectic_residuals(fields[1], INDEX, tol), "symplectic")
    assert symplectic[2] >= tol and symplectic[3] > 0.6
    acs = _acs_residual(J)
    _same(acs, reference_acs_residuals(fields[2], INDEX), "acs")
    assert acs[4] == 0.0 < acs.min(initial=1.0, where=np.arange(N) != 4)
    _same(_compatibility_residual(Om, G, J),
          reference_compatibility_residuals(fields[1], fields[0], fields[2], INDEX),
          "compatibility")


def test_closed_residual_matches_the_per_point_reference():
    # a 2-form linear in x with random antisymmetric coefficients, whose
    # index triples sum to nonzero cyclic sums, by its stencil partials
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4, 4))
    coef = a - a.swapaxes(1, 2)
    form = TensorField.matrix(lambda p: np.tensordot(p, coef, axes=1), 4)
    X = sample_box(4, N, radius=1.5, seed=3)
    got = _closed_residual(fd_directional(form, X, np.eye(4)))
    _same(got, reference_closed_residuals(form, X), "closed")
    assert got.min() > 0.1


def test_invariance_residuals_match_the_per_point_references():
    # hopf's action moving random fields of no invariance: a metric and a J
    # that depend on the point, and a momentum map that is not hopf's
    hopf = builtin("hopf")
    rng = np.random.default_rng(11)
    b, c = rng.standard_normal((2, 4, 4, 4))
    metric = TensorField.matrix(lambda p: np.eye(4) + 0.1 * np.tensordot(p, b @ b, axes=1), 4)
    acs = TensorField.matrix(lambda p: np.tensordot(p, c, axes=1), 4)
    mu = MomentumMap(TensorField.vector(lambda p: p[:1] * p[2:3], 1), [0.0])
    X = sample_box(4, N, radius=1.0, seed=5)
    params = [[0.4], [-1.7]]
    table = pushforward_table(hopf.action, params, X)
    for kind, residual, field in (("pullback", _pullback_residual, metric),
                                  ("endomorphism", _endomorphism_residual, acs),
                                  ("momentum", _mu_residual, mu)):
        values = mu.field if kind == "momentum" else field
        here = eval_field(values, X)
        for j, a in enumerate(params):
            got = _row_max_abs(residual(table.D[j], here, eval_field(values, table.moved[j])))
            want = reference_invariance_residuals(kind, hopf.action, field, [a], X)
            _same(got, want, f"{kind} parameter {j}")
            assert got.min() > 0.0, kind


def _scenario(text):
    return compile_scenario(parse_scenario(text))


@pytest.mark.parametrize("name", ["hopf", "scaled_mu_t2"])
def test_hamiltonian_residual_matches_the_reference_on_points_and_on_frames(name):
    scen = builtin("hopf") if name == "hopf" else _scenario(SCALED_MU_T2_TEXT)
    X = sample_box(scen.chart_dim, N, radius=1.0, seed=2)
    got = _hamiltonian_residual(eval_field(scen.omega, X), generator(scen.action, X),
                                momentum_jacobian(scen.mu, X))
    want = reference_momentum_residuals(scen.action, scen.mu, scen.omega, X)
    _same(got, want, f"{name} at sample points")
    # the frame table stores the generators (N, n, k) and d mu (N, k, n)
    f = lift_frames(scen, sample_ball(scen.quotient_dim, N, 2.0, seed=4)).base
    got = _hamiltonian_residual(f.Om, f.generators, f.jmu)
    _same(got, reference_momentum_residuals(scen.action, scen.mu, scen.omega, f.base),
          f"{name} at frame points")
    assert (got.min() > 0.1) == (name == "scaled_mu_t2")


@pytest.mark.parametrize("name", ["hopf", "skewed_metric_hopf", "torus_t2"])
def test_frame_rows_are_the_residual_functions_on_the_frame_arrays(name):
    scen = _scenario(TORUS_T2_TEXT) if name == "torus_t2" else builtin(name)
    frames = lift_frames(scen, sample_ball(scen.quotient_dim, N, 2.0, seed=6))
    f = frames.base
    h_red, w_red, j_red, _, _ = _reduced(f)
    K = f.level
    d = np.linalg.solve(f.coef, f.htg @ K)
    with residuals_seen() as seen:
        main = verify_main_theorem(frames)
        identity = verify_reduction_identity(frames)
    rows = dict(zip([c.name for c in main.checks + identity.checks], seen))
    _same(rows["ambient compatibility hypothesis"],
          _compatibility_residual(f.Om, f.metric, f.J), name)
    _same(rows["reduced compatibility"], _compatibility_residual(w_red, h_red, j_red), name)
    _same(rows["reduced acs identity"], _acs_residual(j_red), name)
    _same(rows["pullback identity"],
          _row_norms((_pullback(f.Om, K) - _pullback(w_red, d)).reshape(N, -1)), name)
    if name == "skewed_metric_hopf":
        assert rows["ambient compatibility hypothesis"].min() > 1.0


@pytest.mark.parametrize("shape", [(N, 4, 4), (N, 4, 2), (3, N, 4, 4), (N, 16, 12)])
def test_pullback_is_each_slice_alone(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    n = shape[-2]
    F = rng.standard_normal(shape[:-2] + (n, n))
    D = rng.standard_normal(shape)
    got = _pullback(F, D)
    for index in np.ndindex(*shape[:-2]):
        _same(got[index], D[index].T @ F[index] @ D[index], f"{shape} slice {index}")
        one = tuple(slice(i, i + 1) for i in index)
        _same(_pullback(F[one], D[one])[(0,) * len(index)], got[index],
              f"{shape} batch of one {index}")
