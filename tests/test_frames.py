"""The batched frame layer against the frame-by-frame references in util.py.

Every lift frame and flow pushforward a verify op builds comes out of one
stacked batch; each must be the same bits as building it alone.  A failing
batch runs once and raises the first error it meets in its own order: the
section at every quotient point, the flow at every (fibre parameter,
point) pair, parameter outer, then each check of ``split_tangent`` over
every frame, the base frames before the moved ones.  Where one frame
fails, that is what the frame-by-frame build raises.
"""

import dataclasses

import numpy as np
import pytest

from symred import cli, reduction
from symred.actions import (
    GroupAction,
    apply_flow,
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    generator,
    momentum_jacobian,
    momentum_residual,
    pushforward_table,
)
from symred.cli import main
from symred.errors import (
    ActionNotFreeError,
    DegenerateInputError,
    NonFiniteError,
    NotOnLevelError,
    NotRegularValueError,
)
from symred.geometry import (
    FD_STEP,
    ChartPoint,
    RowMap,
    TensorField,
    eval_field,
    fd_directional,
    fd_jacobian,
    kernel_basis,
    sample_ball,
    spd_sqrt,
)
from symred.holomorphy import ChartedMap, almost_complex_residual, cauchy_riemann_residual
from symred.reduction import (
    SampleSpec,
    lift_frames,
    reduced_structures,
    split_tangent,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario
from symred.structures import check_metric

from util import (
    TORUS_T2_TEXT,
    ColumnRefused,
    gram_schmidt,
    reference_fd_jacobian,
    reference_fd_partials,
    reference_kernel_basis,
    reference_lift_frame,
    reference_orthonormalize,
    reference_orthonormalize_per_vector,
    reference_pushforward,
    reference_split_tangent,
    run_draws,
)

SPLIT_FIELDS = ("level", "vertical", "horizontal", "jmu", "generators", "metric")


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_frame(frames, i, m, ref, what):
    _same(frames.split.base[i], m.coords, f"{what}: section point")
    for name in SPLIT_FIELDS:
        _same(getattr(frames.split, name)[i], ref[name], f"{what}: {name}")
    for name in ("lifts", "Om", "J", "coef"):
        _same(getattr(frames, name)[i], ref[name], f"{what}: {name}")


def _scenario(name):
    if name == "r2n_8":
        return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))
    return compile_scenario(parse_scenario(TORUS_T2_TEXT)) if name == "torus_t2" else builtin(name)


# at the quotient points, ambient points and group parameters of a verify op
_CASES = [(name, seed) for name in builtin_names() for seed in range(4)] \
    + [("r2n_8", 5), ("torus_t2", 2)]


@pytest.mark.parametrize("name,seed", _CASES)
def test_batched_frames_and_pushforwards_match_frame_by_frame(name, seed):
    scen = _scenario(name)
    points, params, xs = run_draws(scen, seed, 20)
    for N in (20, 1):  # and a stack of one
        table = lift_frames(scen, xs[:N], params[:2])
        frames, moved = table.base, table.moved
        assert len(moved.lifts) == 2 * N
        bases = []
        for i, x in enumerate(xs[:N]):
            m, ref = reference_lift_frame(scen, x)
            _assert_frame(frames, i, m, ref, f"{name} seed {seed} base frame {i} of {N}")
            bases.append(m)
        for j, a in enumerate(params[:2]):
            for i, x in enumerate(xs[:N]):
                m, ref = reference_lift_frame(scen, x, a)
                _assert_frame(moved, j * N + i, m, ref,
                              f"{name} seed {seed} fibre frame {i} of {N} at {a}")
                _same(moved.pushforward[j * N + i],
                      reference_pushforward(scen.action, a, bases[i])[0],
                      f"{name} seed {seed} fibre pushforward {i} of {N} at {a}")
        assert (frames.pushforward == np.eye(scen.chart_dim)).all()

    pushed = pushforward_table(scen.action, params, points)
    D, moved = pushed.D, pushed.moved
    assert D.shape[:2] == moved.shape[:2] == (len(params), len(points))
    for j, a in enumerate(params):
        for i, p in enumerate(points):
            want_D, want_moved = reference_pushforward(scen.action, a, p)
            _same(D[j, i], want_D, f"{name} seed {seed} pushforward ({i}, {j})")
            _same(moved[j, i], want_moved.coords, f"{name} seed {seed} moved point ({i}, {j})")


def test_stacked_kernel_basis_matches_each_matrix():
    rng = np.random.default_rng(40)
    for shape in ((64, 1, 4), (64, 2, 6), (32, 3, 16), (16, 5, 5)):
        stack = rng.standard_normal(shape)
        got = kernel_basis(stack)
        for i, mat in enumerate(stack):
            _same(got[i], reference_kernel_basis(mat, 1e-8), f"{shape} slice {i}")
            _same(kernel_basis(mat), got[i], f"{shape} single call {i}")
    mixed = rng.standard_normal((3, 2, 4))
    mixed[1, 1] = mixed[1, 0]  # rank 1 in one slice only
    with pytest.raises(ValueError, match="differ across the stack"):
        kernel_basis(mixed)


def test_stacked_orthonormalize_matches_each_frame():
    rng = np.random.default_rng(41)
    for n, c in ((4, 1), (4, 3), (16, 14), (6, 6)):
        frames = rng.standard_normal((48, n, c))
        b = rng.standard_normal((48, n, n))
        metrics = b @ b.swapaxes(1, 2) + 0.5 * np.eye(n)
        got = gram_schmidt(frames, metrics)
        for i in range(len(frames)):
            _same(got[i], reference_orthonormalize(frames[i], metrics[i]), f"{n}x{c} slice {i}")
            _same(gram_schmidt(frames[i], metrics[i]), got[i], f"{n}x{c} single call {i}")
    dependent = rng.standard_normal((2, 4, 2))
    dependent[0, :, 1] = dependent[0, :, 0]  # a column falls short in one slice only
    with pytest.raises(ColumnRefused) as raised:
        gram_schmidt(dependent, np.repeat(np.eye(4)[np.newaxis], 2, axis=0))
    assert raised.value.slices.tolist() == [True, False]


def _spd(rng, n, cond):
    """A random SPD matrix with eigenvalues log-spaced from 1 to ``cond``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.logspace(0, np.log10(cond), n)
    rng.shuffle(lam)
    return (Q * lam) @ Q.T


# the stress cases below, measured with numpy 2.4 and OpenBLAS: the largest
# |B^T G B - I| of _gram_schmidt is 5.6e-13, 3.2e-12 and 5.6e-12 at n = 4, 9
# and 16, against the per-vector oracle's 5.6e-13, 2.2e-12 and 7.8e-12, so
# at most 1.5 times the oracle's; its columns leave the oracle's span by at
# most 1.6e-9, which the near-dependent column amplifies by up to 1e6
STRESS_ORTHOGONALITY = 1e-10
STRESS_ORACLE_RATIO = 2.0
STRESS_SPAN = 1e-8


@pytest.mark.parametrize("n", [4, 9, 16])
def test_gram_schmidt_stress_against_the_per_vector_oracle(n):
    # metrics of condition number up to 1e6 and frames whose column j is a
    # combination of the columns before it up to 1e-6: kept, and as
    # orthonormal as modified Gram-Schmidt keeps it
    rng = np.random.default_rng(60 + n)
    N, c = 200, n - 2
    metrics = np.array([_spd(rng, n, 10 ** rng.uniform(0, 6)) for _ in range(N)])
    frames = rng.standard_normal((N, n, c))
    for F in frames:
        j = rng.integers(1, c)
        F[:, j] = F[:, :j] @ rng.standard_normal(j) + 1e-6 * rng.standard_normal(n)
    got = gram_schmidt(frames, metrics)
    assert got.shape == (N, n, c)
    errors, oracle_errors = [], []
    for B, F, G in zip(got, frames, metrics):
        oracle = reference_orthonormalize_per_vector(F, G)
        errors.append(np.max(np.abs(B.T @ G @ B - np.eye(c))))
        oracle_errors.append(np.max(np.abs(oracle.T @ G @ oracle - np.eye(c))))
        assert np.max(np.abs(B - oracle @ (oracle.T @ G @ B))) <= STRESS_SPAN
    assert max(errors) <= min(STRESS_ORACLE_RATIO * max(oracle_errors), STRESS_ORTHOGONALITY)

    # a column equal to an earlier one in every slice, or in some slices
    # only, is refused with the mask of exactly those slices
    # (split_tangent's domain errors for such a stack:
    # test_a_frame_that_gram_schmidt_degenerates_is_refused_at_its_point)
    for slices in (np.ones(N, dtype=bool), rng.uniform(size=N) < 0.3):
        some = frames.copy()
        some[slices, :, 1] = some[slices, :, 0]
        with pytest.raises(ColumnRefused) as raised:
            gram_schmidt(some, metrics)
        assert raised.value.slices.shape == (N,) and (raised.value.slices == slices).all()


def test_stacked_fd_matches_each_point():
    hopf = builtin("hopf")
    X = np.random.default_rng(42).uniform(-1.5, 1.5, size=(30, 4))
    flow_rows = hopf.action.flow.rows

    def flow_at_one(p):
        return flow_rows(np.concatenate([p.coords, [0.7]])[np.newaxis])[0]

    # a compiled map's exact Jacobians and partials along the axes are each
    # the bits of the call on its point alone, and within the stencil's
    # error of it
    metric = builtin("noninvariant_metric_hopf").metric
    axes = np.eye(4)
    for chart_map, field in ((metric.func, None), (hopf.mu.field.func, hopf.mu.field)):
        got = fd_jacobian(chart_map, X)
        grads = None if field is None else fd_directional(field, X, axes)
        for i, x in enumerate(X):
            _same(fd_jacobian(chart_map, x), got[i], f"single call {i}")
            want = reference_fd_jacobian(lambda q: np.ravel(chart_map(q)), ChartPoint(x))
            assert np.max(np.abs(got[i] - want)) < 1e-9
            if field is not None:
                _same(fd_directional(field, x, axes), grads[i], f"single gradient {i}")
                _same(grads[i], got[i], f"gradient {i}")
    # a per-point callable called once per stencil row takes the stencil
    got = fd_jacobian(flow_at_one, X)
    for i, x in enumerate(X):
        _same(got[i], reference_fd_jacobian(flow_at_one, ChartPoint(x)), f"row {i}")
        _same(fd_jacobian(flow_at_one, x), got[i], f"single call {i}")
    opaque_mu = TensorField.vector(lambda p: hopf.mu.field(p), 1)
    grads = fd_directional(opaque_mu, X, axes)
    for i, x in enumerate(X):
        _same(grads[i], reference_fd_partials(opaque_mu, x), f"gradient {i}")
    pushed = pushforward_table(hopf.action, [np.array([0.7])], X)
    (D,), (moved,) = pushed.D, pushed.moved
    for i, x in enumerate(X):
        want_D, want_moved = reference_pushforward(hopf.action, np.array([0.7]), x)
        _same(D[i], want_D, f"pushforward {i}")
        _same(moved[i], want_moved.coords, f"moved point {i}")


# --- error parity -----------------------------------------------------------

_POINTS = "sample.points = [[0.6, 0.3], [0.1, -0.7], [0.5, 0.2], [0.7, -0.6], [-0.3, -0.8]]"
_HOPF_SECTION = ("section = [1/sqrt(1 + w1^2 + w2^2), 0,\n"
                 "           w1/sqrt(1 + w1^2 + w2^2), w2/sqrt(1 + w1^2 + w2^2)]")
_HOPF_FLOW = ("flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),\n"
              "        x3*cos(t1) + x4*sin(t1), x4*cos(t1) - x3*sin(t1)]")


def _hopf_variant(tmp_path, name, points=_POINTS, section=None, flow=None):
    text = builtin_text("hopf")
    assert _HOPF_SECTION in text and _HOPF_FLOW in text
    if section is not None:
        text = text.replace(_HOPF_SECTION, section)
    if flow is not None:
        text = text.replace(_HOPF_FLOW, flow)
    path = tmp_path / f"{name}.scn"
    path.write_text(text + "\n" + points + "\n")
    return path, compile_scenario(parse_scenario(text + "\n" + points + "\n"))


def _first_failure(build):
    """The error the frame-by-frame ``build()`` raises first."""
    try:
        build()
    except Exception as exc:  # whatever the reference raises
        return exc
    raise AssertionError("the frame-by-frame build does not fail")


def _reference_base_failure(scen, xs):
    return _first_failure(lambda: [reference_lift_frame(scen, x) for x in xs])


def _fibre(scen):
    """The fibre parameters of a ``verify`` of ``scen`` at its own seed: rows
    0-1 of the run's group parameters."""
    return run_draws(scen)[1][:2]


def _reference_submersion_failure(scen, xs):
    """The first error in the frame-by-frame order of verify_submersion at
    the fibre parameters of ``_fibre``: base frame i, then per fibre
    parameter its moved frame and pushforward."""
    fibre = _fibre(scen)

    def build():
        for x in xs:
            m, _ = reference_lift_frame(scen, x)
            for a in fibre:
                reference_lift_frame(scen, x, a)

    return _first_failure(build)


def _assert_parity(path, scen, capsys):
    xs = [ChartPoint(p) for p in scen.sample_spec.points]
    base_error = _reference_base_failure(scen, xs)
    error = _reference_submersion_failure(scen, xs)

    with pytest.raises(type(base_error)) as raised:
        lift_frames(scen, xs)
    assert str(raised.value) == str(base_error)
    with pytest.raises(type(error)) as raised:
        verify_submersion(lift_frames(scen, xs, _fibre(scen)))
    assert str(raised.value) == str(error)

    assert main(["verify", str(path), "--suites", "reduction,main-theorem"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    return base_error, error


# the section bumped off the level set at the third sample point, (0.5, 0.2)
_OFF_LEVEL_SECTION = _HOPF_SECTION.replace(
    "[1/sqrt(1 + w1^2 + w2^2),",
    "[(1 + 0.01*exp(-1000*((w1 - 0.5)^2 + (w2 - 0.2)^2)))/sqrt(1 + w1^2 + w2^2),")


def test_section_off_level_at_a_middle_sample(tmp_path, capsys):
    path, scen = _hopf_variant(tmp_path, "off_level", section=_OFF_LEVEL_SECTION)
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is NotOnLevelError and str(error) == str(base_error)


def test_generators_degenerate_at_one_sample(tmp_path, capsys):
    # the rotation speed x3^2 + x4^2 is invariant and vanishes only at the
    # section point (1, 0, 0, 0) of w = (0, 0)
    speed = "t1*(x3^2 + x4^2)"
    path, scen = _hopf_variant(
        tmp_path, "degenerate",
        points="sample.points = [[0.6, 0.3], [0.1, -0.7], [0, 0], [0.7, -0.6]]",
        flow=_HOPF_FLOW.replace("t1)", f"{speed})"))
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is ActionNotFreeError
    assert str(error) == str(base_error)
    assert "ChartPoint([1., 0., 0., 0.])" in str(error)


def test_nonfinite_stencil_value(tmp_path, capsys, monkeypatch):
    # 0/(w1 - c) is a signed zero everywhere except at the stencil row
    # w1 = 0.5 + 1e-5 of the middle sample, where it divides by zero; only a
    # per-point section takes the stencil
    assert 0.5 + FD_STEP == 0.50001
    path, compiled = _hopf_variant(tmp_path, "stencil", section=_HOPF_SECTION.replace(
        "[1/sqrt(1 + w1^2 + w2^2),", "[1/sqrt(1 + w1^2 + w2^2) + 0/(w1 - 0.50001),"))
    scen = dataclasses.replace(compiled, section=lambda x: compiled.section(x))
    monkeypatch.setattr(cli, "resolve_scenario", lambda name: scen)
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is NonFiniteError and str(error) == "division by zero"
    # the compiled section's exact derivative evaluates no stencil row
    monkeypatch.undo()
    assert main(["verify", str(path), "--suites", "reduction,main-theorem"]) == 0


def test_nonfinite_tangent_at_a_middle_sample(tmp_path, capsys):
    # 0*sqrt(w1^2) adds a zero to the section's value everywhere, but its
    # tangent at w1 = 0, the middle sample, is 0 * (0/0): the exact Jacobian
    # fails closed there, naming the map and the point, and the batch raises
    # what that point raises alone
    path, scen = _hopf_variant(
        tmp_path, "tangent",
        points="sample.points = [[0.6, 0.3], [0.1, -0.7], [0, 0.2], [0.7, -0.6], [-0.3, -0.8]]",
        section=_HOPF_SECTION.replace("[1/sqrt(1 + w1^2 + w2^2),",
                                      "[1/sqrt(1 + w1^2 + w2^2) + 0*sqrt(w1^2),"))
    hopf = builtin("hopf")
    X = np.array(scen.sample_spec.points)
    assert scen.section(X).tobytes() == hopf.section(X).tobytes()
    base_error, error = _assert_parity(path, scen, capsys)
    want = f"derivative of hopf section at {ChartPoint([0.0, 0.2])} contains non-finite entries"
    assert type(error) is NonFiniteError and str(error) == str(base_error) == want
    with pytest.raises(NonFiniteError) as raised:
        fd_jacobian(scen.section, X)
    assert str(raised.value) == want
    assert main(["verify", str(path), "--suites", "reduction"]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"


def test_a_batch_checks_the_level_of_every_frame_at_once(tmp_path, capsys):
    # the flow scales by 1 + t^2 b, with b a bump at the section point
    # (1, 0, 0, 0) of the second sample: its fibre frames leave the level
    # there, while the section leaves it at the fourth sample.  Frame by
    # frame, the second sample's fibre frame fails first; the batch checks
    # the level of every frame at once, the base frames first, so it
    # raises the fourth sample's base frame error
    bump = "(1 + t1^2*0.01*exp(-100*((x1 - 1)^2 + x2^2 + x3^2 + x4^2)))"
    flow = ("flow = [" + ", ".join(
        f"({e})*{bump}" for e in ("x1*cos(t1) + x2*sin(t1)", "x2*cos(t1) - x1*sin(t1)",
                                 "x3*cos(t1) + x4*sin(t1)", "x4*cos(t1) - x3*sin(t1)")) + "]")
    section_bump = "(1 + 0.05*exp(-200*((w1 - 0.7)^2 + (w2 + 0.6)^2)))"
    path, scen = _hopf_variant(
        tmp_path, "fibre_first",
        points="sample.points = [[0.6, 0.3], [0, 0], [-0.5, 0.4], [0.7, -0.6], [-0.3, -0.8]]",
        flow=flow,
        section=_HOPF_SECTION.replace("[1/sqrt(1 + w1^2 + w2^2),",
                                      f"[{section_bump}/sqrt(1 + w1^2 + w2^2),"))
    xs = np.array(scen.sample_spec.points)
    base_error = _reference_base_failure(scen, xs)
    fibre_error = _reference_submersion_failure(scen, xs)
    assert type(fibre_error) is NotOnLevelError and type(base_error) is NotOnLevelError
    assert str(fibre_error) != str(base_error)
    for fiber_params in ((), _fibre(scen)):
        with pytest.raises(NotOnLevelError) as raised:
            lift_frames(scen, xs, fiber_params)
        assert str(raised.value) == str(base_error)
    assert main(["verify", str(path), "--suites", "reduction,main-theorem"]) == 2
    assert capsys.readouterr().err == f"error: {base_error}\n"
    # without the failing base frame, the fibre frame's error is the batch's
    with pytest.raises(NotOnLevelError) as raised:
        lift_frames(scen, xs[:3], _fibre(scen))
    assert str(raised.value) == str(fibre_error)


def test_a_base_frame_fails_before_its_own_moved_frames(tmp_path, capsys):
    # at (0, 0.2) the section's exact Jacobian is not finite, while the flow
    # scales by 1 + t^2/100 and so moves every section point off the level.
    # The section's derivative is refused where it is computed, before any
    # moved frame is built
    flow = ("flow = [" + ", ".join(
        f"({e})*(1 + t1^2/100)" for e in ("x1*cos(t1) + x2*sin(t1)", "x2*cos(t1) - x1*sin(t1)",
                                          "x3*cos(t1) + x4*sin(t1)", "x4*cos(t1) - x3*sin(t1)"))
            + "]")
    path, scen = _hopf_variant(
        tmp_path, "base_first", points="sample.points = [[0, 0.2], [0.6, 0.3]]", flow=flow,
        section=_HOPF_SECTION.replace("[1/sqrt(1 + w1^2 + w2^2),",
                                      "[1/sqrt(1 + w1^2 + w2^2) + 0*sqrt(w1^2),"))
    with pytest.raises(NonFiniteError, match="^derivative of hopf section at"):
        reduction._lift_frames(scen, np.array([[0.0, 0.2]]), np.array([[np.pi]]))
    with pytest.raises(NotOnLevelError):
        reduction._lift_frames(scen, np.array([[0.6, 0.3]]), np.array([[np.pi]]))
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is NonFiniteError and str(error) == str(base_error)
    assert str(error).startswith("derivative of hopf section at")


def test_identity_and_main_theorem_raise_the_first_base_frame_error(tmp_path, capsys):
    # each variant fails at one point, so each pipeline's table raises what
    # that base frame raises alone, whether it holds the base frames or the
    # fibre frames too, as the CLI shares it
    variants = [
        _hopf_variant(tmp_path, "off_level", section=_OFF_LEVEL_SECTION),
        _hopf_variant(tmp_path, "degenerate",
                      points="sample.points = [[0.6, 0.3], [0.1, -0.7], [0, 0], [0.7, -0.6]]",
                      flow=_HOPF_FLOW.replace("t1)", "t1*(x3^2 + x4^2))")),
    ]
    for path, scen in variants:
        xs = [ChartPoint(p) for p in scen.sample_spec.points]
        base_error = _reference_base_failure(scen, xs)
        for verify in (verify_reduction_identity, verify_main_theorem):
            for fiber_params in ((), _fibre(scen)):
                with pytest.raises(type(base_error)) as raised:
                    verify(lift_frames(scen, xs, fiber_params))
                assert str(raised.value) == str(base_error)
        assert main(["verify", str(path), "--suites", "main-theorem"]) == 2
        assert capsys.readouterr().err == f"error: {base_error}\n"


def test_reduced_structures_raise_the_first_failing_point_error(tmp_path):
    # the two variants above at once: point 0 alone raises ActionNotFreeError
    # and point 1 alone NotOnLevelError.  The batch of both checks the level
    # of every point before the generators, so it raises point 1's error
    _, scen = _hopf_variant(tmp_path, "off_level_degenerate",
                            points="sample.points = [[0, 0], [0.5, 0.2]]",
                            section=_OFF_LEVEL_SECTION,
                            flow=_HOPF_FLOW.replace("t1)", "t1*(x3^2 + x4^2))"))
    xs = np.array(scen.sample_spec.points)
    base_error = _reference_base_failure(scen, xs)
    assert type(base_error) is ActionNotFreeError
    with pytest.raises(ActionNotFreeError) as raised:
        reduced_structures(scen, xs[0])
    assert str(raised.value) == str(base_error)
    off_level = _reference_base_failure(scen, xs[1:])
    assert type(off_level) is NotOnLevelError
    with pytest.raises(NotOnLevelError) as raised:
        reduced_structures(scen, xs)
    assert str(raised.value) == str(off_level)


def test_suites_that_read_no_frames_build_none(tmp_path, monkeypatch):
    # the section leaves the level set, which only the frames see
    path, _ = _hopf_variant(tmp_path, "off_level", section=_OFF_LEVEL_SECTION)
    sizes = []
    build = reduction._lift_frames

    def counted(scen, X, *fiber_params):
        sizes.append(len(X))
        return build(scen, X, *fiber_params)

    monkeypatch.setattr(reduction, "_lift_frames", counted)
    assert main(["verify", str(path), "--suites", "structures,action,holomorphy"]) == 0
    assert sizes == []
    assert main(["verify", str(path), "--suites", "structures,action,main-theorem"]) == 2
    assert sizes == [5]


def test_a_failing_table_builds_its_batch_once(tmp_path, monkeypatch):
    # the batch of all five frames fails at the third, and nothing is built
    # again
    _, scen = _hopf_variant(tmp_path, "off_level", section=_OFF_LEVEL_SECTION)
    points = np.array(scen.sample_spec.points)
    sizes = []
    build = reduction._lift_frames

    def counted(scen, X, *fiber_params):
        sizes.append(len(X))
        return build(scen, X, *fiber_params)

    monkeypatch.setattr(reduction, "_lift_frames", counted)
    with pytest.raises(NotOnLevelError):
        verify_main_theorem(lift_frames(scen, points))
    assert sizes == [5]


def _opaque_flow_hopf(fails):
    """hopf with a per-point flow raising NonFiniteError near the section
    point of quotient point i for fibre parameter j of ``_fibre``, for each
    (i, j, xs) of ``fails``: the moved frame and the flow pushforward of
    that pair fail."""
    hopf = builtin("hopf")
    flow_rows, fibre = hopf.action.flow.rows, _fibre(hopf)

    def flow(a, p):
        for i, j, xs in fails:
            if a[0] == fibre[j, 0] and np.max(np.abs(
                    p.coords - hopf.section(xs[i]))) < 1e-3:
                raise NonFiniteError(f"flow fails near point {i} for fibre parameter {j}")
        return ChartPoint(flow_rows(np.concatenate([p.coords, a])[np.newaxis])[0])

    return dataclasses.replace(hopf, action=GroupAction(1, flow))


def test_fibre_error_comes_from_the_first_failing_point():
    # the flow fails for fibre parameter 1 at point 0 and for parameter 0 at
    # point 1.  The moved frames of all points and parameters are one flow
    # batch, parameter outer, so it raises the failure of parameter 0 at
    # point 1, where the frame-by-frame order (point outer, then parameter)
    # meets point 0's first.  Either failure alone is raised as frame by frame
    xs = sample_ball(2, 4, radius=2.0, seed=6)
    scen = _opaque_flow_hopf([(0, 1, xs), (1, 0, xs)])
    assert str(_reference_submersion_failure(scen, xs)) == \
        "flow fails near point 0 for fibre parameter 1"
    with pytest.raises(NonFiniteError) as raised:
        verify_submersion(lift_frames(scen, xs, _fibre(scen)))
    assert str(raised.value) == "flow fails near point 1 for fibre parameter 0"
    for fails in ([(0, 1, xs)], [(1, 0, xs)]):
        scen = _opaque_flow_hopf(fails)
        error = _reference_submersion_failure(scen, xs)
        with pytest.raises(NonFiniteError) as raised:
            verify_submersion(lift_frames(scen, xs, _fibre(scen)))
        assert str(raised.value) == str(error)


# hopf with mu = (x1^2 + x2^2)/2 - (x3^2 + x4^2)^2/2, which the circle
# preserves, at the level 0, and a section onto that level through the
# origin, where d mu = 0: a stack of its two section points mixes a regular
# point of mu with a critical one
_MIXED_RANK = (
    ("mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]", "mu = [0.5*(x1^2 + x2^2) - 0.5*(x3^2 + x4^2)^2]"),
    ("beta = [0.5]", "beta = [0]"),
    (_HOPF_SECTION, "section = [w1^2 + w2^2, 0, w1, w2]"),
)


@pytest.mark.parametrize("scale, error, message", [
    # the generator's g-norm falls below FREE_TOL though its singular value does not
    ((1e-20, 1e-20), ActionNotFreeError, "vertical space degenerates to dimension below 1"),
    # the horizontal directions e3, e4 at (1, 0, 0, 0) have g-norm 1e-11
    ((1.0, 1e-22), DegenerateInputError, "horizontal complement degenerates to dimension below 2"),
])
def test_a_frame_that_gram_schmidt_degenerates_is_refused_at_its_point(scale, error, message):
    # hopf's metric scaled by diag(a, a, b, b) at the section point
    # (1, 0, 0, 0) of w = 0 only, the second of three points
    hopf = builtin("hopf")
    here = np.array([1.0, 0.0, 0.0, 0.0])

    def rows(X):
        G = np.repeat(np.eye(4)[np.newaxis], len(X), axis=0)
        G[(X == here).all(axis=1)] = np.diag(np.repeat(scale, 2))
        return G

    scen = dataclasses.replace(hopf, metric=TensorField.matrix(RowMap(rows), 4, name="metric"))
    M = hopf.section(np.array([[0.6, 0.3], [0.0, 0.0], [0.5, 0.2]]))
    want = f"{message} at {ChartPoint(here)}"
    with pytest.raises(error) as raised:
        reference_split_tangent(scen, M[1])
    assert str(raised.value) == want
    with pytest.raises(error) as raised:
        split_tangent(scen, M)
    assert str(raised.value) == want


def test_a_stack_mixing_a_critical_point_of_mu_is_not_a_regular_value(tmp_path, capsys):
    text = builtin_text("hopf")
    for old, new in _MIXED_RANK:
        assert old in text
        text = text.replace(old, new)
    text += "\nsample.points = [[0.5, 0.5], [0, 0]]\n"
    path = tmp_path / "mixed_rank.scn"
    path.write_text(text)
    scen = compile_scenario(parse_scenario(text))
    xs = np.array(scen.sample_spec.points)
    M = scen.section(xs)
    assert np.abs(eval_field(scen.mu.field, M) - scen.mu.beta).max() == 0.0
    want = (r"^kernel of d mu has dimension 4 at ChartPoint\(\[0\., 0\., 0\., 0\.\]\), "
            r"expected 3$")
    with pytest.raises(NotRegularValueError, match=want):
        split_tangent(scen, M)
    split_tangent(scen, M[:1])  # the regular point alone splits
    for fiber_params in ((), _fibre(scen)):
        with pytest.raises(NotRegularValueError, match=want):
            lift_frames(scen, xs, fiber_params)
    for suites in ("reduction", "main-theorem"):
        assert main(["verify", str(path), "--suites", suites]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: kernel of d mu has dimension 4 at ChartPoint(")
        assert len(err.splitlines()) == 1


def test_nonfinite_omega_at_one_moved_point_fails_closed(monkeypatch, capsys):
    # omega and J are read at every frame of the batch, the moved ones
    # included, so omega non-finite only at Phi_a(sigma(0, 0)), for a the
    # second fibre parameter of a verify at seed 0, fails the fibre check,
    # and verify, with the frame-by-frame error
    hopf = dataclasses.replace(builtin("hopf"),
                               sample_spec=SampleSpec(points=((0.6, 0.3), (0.0, 0.0), (0.5, 0.2))))
    omega_rows = hopf.omega.func.rows
    xs = np.array(hopf.sample_spec.points)
    moved = apply_flow(hopf.action, _fibre(hopf)[1], hopf.section(xs[1]))

    def rows(X):
        values = omega_rows(X).copy()
        values[np.max(np.abs(X - moved.coords), axis=1) < 1e-12] = np.inf
        return values

    scen = dataclasses.replace(hopf, omega=TensorField.matrix(RowMap(rows), 4, name="omega"))
    error = _reference_submersion_failure(scen, xs)
    assert type(error) is NonFiniteError
    assert str(error).startswith(f"field 'omega' at {moved}")
    with pytest.raises(NonFiniteError) as raised:
        verify_submersion(lift_frames(scen, xs, _fibre(scen)))
    assert str(raised.value) == str(error)
    # the main theorem reads only the base frames, which do not fail
    assert verify_main_theorem(lift_frames(scen, xs)).passed
    # but a run builds one table, its fibre frames included, whichever
    # suites it asks for, so the main-theorem suite alone fails as well
    monkeypatch.setattr(cli, "resolve_scenario", lambda name: scen)
    for suites in ("structures,action,reduction,main-theorem", "main-theorem"):
        assert main(["verify", "hopf", "--suites", suites]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


# --- no points ----------------------------------------------------------------

NO_POINTS = "points must hold at least one point, got none"


def _on_no_points():
    """Each public function that takes points, called on a stack of no points."""
    hopf = builtin("hopf")
    X, Q = np.zeros((0, 4)), np.zeros((0, 2))
    j2 = TensorField.constant(np.array([[0.0, -1.0], [1.0, 0.0]]))
    plane_map = ChartedMap(RowMap(lambda Y: Y * Y), j2, j2)
    shift = GroupAction(1, lambda a, p: p.coords + a[0])

    def table(points=X):
        return pushforward_table(hopf.action, [0.3, 1.0], points)

    return {
        "eval_field": lambda: eval_field(hopf.metric, X),
        "RowMap": lambda: hopf.section(Q),
        "fd_jacobian": lambda: fd_jacobian(hopf.section, Q),
        "fd_jacobian per-point": lambda: fd_jacobian(lambda p: p.coords, np.zeros((0, 3))),
        "fd_directional": lambda: fd_directional(hopf.metric, X, np.ones(4)),
        "apply_flow": lambda: apply_flow(hopf.action, [0.3], X),
        "generator": lambda: generator(hopf.action, X),
        "eval_field of mu": lambda: eval_field(hopf.mu.field, X),
        "momentum_jacobian": lambda: momentum_jacobian(hopf.mu, X),
        "pushforward_table": table,
        "pushforward_table per-point": lambda: pushforward_table(shift, [0.3], np.zeros((0, 2))),
        "pushforward_table of a list": lambda: table([]),
        "check_action_axioms": lambda: check_action_axioms(table()),
        "check_isometry": lambda: check_isometry(hopf.metric, table()),
        "check_symplectomorphism": lambda: check_symplectomorphism(hopf.omega, table()),
        "check_momentum_invariance": lambda: check_momentum_invariance(hopf.mu, table()),
        "check_field_invariance": lambda: check_field_invariance(hopf.acs, table()),
        "check_metric": lambda: check_metric(hopf.metric, X),
        "momentum_residual": lambda: momentum_residual(hopf.action, hopf.mu, hopf.omega, X),
        "split_tangent": lambda: split_tangent(hopf, X),
        "lift_frames": lambda: lift_frames(hopf, Q),
        "lift_frames moved": lambda: lift_frames(hopf, Q, _fibre(hopf)),
        "lift_frames of a list": lambda: lift_frames(hopf, [], _fibre(hopf)),
        "reduced_structures": lambda: reduced_structures(hopf, Q),
        "almost_complex_residual": lambda: almost_complex_residual(plane_map, Q),
        "cauchy_riemann_residual": lambda: cauchy_riemann_residual(plane_map, Q),
    }


@pytest.mark.parametrize("name", sorted(_on_no_points()))
def test_a_stack_of_no_points_is_refused(name):
    # an identity checked at no point proves nothing: every door for points
    # refuses none, with one text, before any evaluation
    with pytest.raises(ValueError) as raised:
        _on_no_points()[name]()
    assert str(raised.value) == NO_POINTS


def _empty_results():
    """(call, shapes): each matrix helper on a stack of no matrices, and the
    shapes of the arrays it must return."""
    return {
        "kernel_basis": (lambda: [kernel_basis(np.zeros((0, 1, 4)))], [(0, 4, 3)]),
        "_gram_schmidt": (lambda: [gram_schmidt(np.zeros((0, 4, 1)), np.zeros((0, 4, 4)))],
                          [(0, 4, 1)]),
        "spd_sqrt": (lambda: list(spd_sqrt(np.zeros((0, 4, 4)))), [(0, 4, 4), (0, 4, 4)]),
    }


@pytest.mark.parametrize("name", sorted(_empty_results()))
def test_a_stack_of_no_points_gives_empty_results(name):
    call, shapes = _empty_results()[name]
    assert [np.shape(a) for a in call()] == shapes
