"""The batched frame layer against the frame-by-frame references in util.py.

Every lift frame and flow pushforward a verify op builds comes out of one
stacked batch; each must be the same bits as building it alone, and a
failing batch must raise what the frame-by-frame build raises first, in
its order: base frame i, then the moved frame and flow pushforward of each
fibre parameter.
"""

import numpy as np
import pytest

from symred.actions import _flow_map, pushforward_table
from symred.cli import main
from symred.errors import ActionNotFreeError, NonFiniteError, SectionNotOnLevelError
from symred.geometry import (
    ChartPoint,
    FDConfig,
    fd_gradient,
    fd_jacobian,
    kernel_basis,
    orthonormalize,
    sample_ball,
    sample_box,
)
from symred.reduction import _lift_frames, _moved_section, lift_frames, verify_submersion
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario

from util import (
    reference_fd_gradient,
    reference_fd_jacobian,
    reference_kernel_basis,
    reference_lift_frame,
    reference_moved_section,
    reference_orthonormalize,
    reference_pushforward,
)

CFG = FDConfig()
FIBER_PARAMS = (np.pi / 3.0, np.pi)  # as verify moves the section
SPLIT_FIELDS = ("level", "vertical", "horizontal", "jmu", "generators", "metric")


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _assert_frame(frame, m, ref, what):
    _same(frame.m.coords, m.coords, f"{what}: section point")
    for name in SPLIT_FIELDS:
        _same(getattr(frame.split, name), ref[name], f"{what}: {name}")
    for name in ("lifts", "Om", "J"):
        _same(getattr(frame, name), ref[name], f"{what}: {name}")
    _same(np.float64(frame.lift_residual), np.float64(ref["lift_residual"]),
          f"{what}: lift_residual")


def _r2n_8():
    return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))


# the quotient points, ambient points and group parameters a verify op
# draws, as cli.run draws them
_CASES = [(name, seed) for name in builtin_names() for seed in range(4)] + [("r2n_8", 5)]


@pytest.mark.parametrize("name,seed", _CASES)
def test_batched_frames_and_pushforwards_match_frame_by_frame(name, seed):
    scen = _r2n_8() if name == "r2n_8" else builtin(name)
    k = scen.action.group_dim
    xs = sample_ball(scen.quotient_dim, 20, radius=scen.sample_spec.radius, seed=seed)
    frames = lift_frames(scen, xs, CFG)
    bases = []
    for i, x in enumerate(xs):
        m, ref = reference_lift_frame(scen, x, CFG)
        _assert_frame(frames[i], m, ref, f"{name} seed {seed} base frame {i}")
        bases.append(m)
    M = np.array([m.coords for m in bases])
    for a in FIBER_PARAMS:
        a = np.full(k, a)
        moved = _lift_frames(scen, xs, CFG, _moved_section(scen, a))
        D = fd_jacobian(_flow_map(scen.action, a), M, CFG)
        for i, x in enumerate(xs):
            m, ref = reference_lift_frame(scen, x, CFG, reference_moved_section(scen, a))
            _assert_frame(moved[i], m, ref, f"{name} seed {seed} fibre frame {i} at {a}")
            _same(D[i], reference_pushforward(scen.action, a, bases[i], CFG)[0],
                  f"{name} seed {seed} fibre pushforward {i} at {a}")

    points = sample_box(scen.chart_dim, 20, radius=2.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    params = [rng.uniform(-np.pi, np.pi, k) for _ in range(5)]
    table = pushforward_table(scen.action, params, points, CFG)
    for j, a in enumerate(params):
        D, moved = table[j]
        for i, p in enumerate(points):
            want_D, want_moved = reference_pushforward(scen.action, a, p, CFG)
            _same(D[i], want_D, f"{name} seed {seed} pushforward ({i}, {j})")
            _same(moved[i], want_moved.coords, f"{name} seed {seed} moved point ({i}, {j})")


def test_stacked_kernel_basis_matches_each_matrix():
    rng = np.random.default_rng(40)
    for shape in ((64, 1, 4), (64, 2, 6), (32, 3, 16), (16, 5, 5)):
        stack = rng.standard_normal(shape)
        got = kernel_basis(stack, 1e-8)
        for i, mat in enumerate(stack):
            _same(got[i], reference_kernel_basis(mat, 1e-8), f"{shape} slice {i}")
            _same(kernel_basis(mat, 1e-8), got[i], f"{shape} single call {i}")
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
        got = orthonormalize(frames, metrics)
        for i in range(len(frames)):
            _same(got[i], reference_orthonormalize(frames[i], metrics[i]), f"{n}x{c} slice {i}")
            _same(orthonormalize(frames[i], metrics[i]), got[i], f"{n}x{c} single call {i}")
    dependent = rng.standard_normal((2, 4, 2))
    dependent[0, :, 1] = dependent[0, :, 0]  # drops a column in one slice only
    with pytest.raises(ValueError, match="differ in rank across the stack"):
        orthonormalize(dependent, np.repeat(np.eye(4)[np.newaxis], 2, axis=0))


def test_stacked_fd_matches_each_point():
    hopf = builtin("hopf")
    X = np.random.default_rng(42).uniform(-1.5, 1.5, size=(30, 4))
    flow_rows = hopf.action.flow.rows

    def flow_at_one(p):
        return flow_rows(np.concatenate([p.coords, [0.7]])[np.newaxis])[0]

    # a compiled RowMap, and a per-point callable called once per stencil row
    for chart_map in (_flow_map(hopf.action, np.array([0.7])), flow_at_one):
        got = fd_jacobian(chart_map, X, CFG)
        for i, x in enumerate(X):
            _same(got[i], reference_fd_jacobian(chart_map, ChartPoint(x), CFG), f"row {i}")
            _same(fd_jacobian(chart_map, x, CFG), got[i], f"single call {i}")
    grads = fd_gradient(hopf.mu.components[0], X, CFG)
    for i, x in enumerate(X):
        _same(grads[i], reference_fd_gradient(hopf.mu.components[0], x, CFG), f"gradient {i}")
    (D, moved), = pushforward_table(hopf.action, [np.array([0.7])], X, CFG)
    for i, x in enumerate(X):
        want_D, want_moved = reference_pushforward(hopf.action, np.array([0.7]), x, CFG)
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
    return _first_failure(lambda: [reference_lift_frame(scen, x, CFG) for x in xs])


def _reference_submersion_failure(scen, xs):
    """The first error in the frame-by-frame order of verify_submersion:
    base frame i, then per fibre parameter its moved frame and pushforward."""
    def build():
        for x in xs:
            m, _ = reference_lift_frame(scen, x, CFG)
            for a in FIBER_PARAMS:
                a = np.full(scen.action.group_dim, a)
                reference_lift_frame(scen, x, CFG, reference_moved_section(scen, a))
                reference_pushforward(scen.action, a, m, CFG)

    return _first_failure(build)


def _assert_parity(path, scen, capsys):
    xs = [ChartPoint(p) for p in scen.sample_spec.points]
    base_error = _reference_base_failure(scen, xs)
    error = _reference_submersion_failure(scen, xs)

    frames = lift_frames(scen, xs, CFG)
    with pytest.raises(type(base_error)) as raised:
        for i in range(len(xs)):
            frames[i]
    assert str(raised.value) == str(base_error)
    with pytest.raises(type(error)) as raised:
        verify_submersion(scen, xs, FIBER_PARAMS, CFG)
    assert str(raised.value) == str(error)

    assert main(["verify", str(path), "--suites", "reduction,main-theorem"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    return base_error, error


def test_section_off_level_at_a_middle_sample(tmp_path, capsys):
    bump = "(1 + 0.01*exp(-1000*((w1 - 0.5)^2 + (w2 - 0.2)^2)))"
    path, scen = _hopf_variant(tmp_path, "off_level", section=_HOPF_SECTION.replace(
        "[1/sqrt(1 + w1^2 + w2^2),", f"[{bump}/sqrt(1 + w1^2 + w2^2),"))
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is SectionNotOnLevelError and str(error) == str(base_error)


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


def test_nonfinite_stencil_value(tmp_path, capsys):
    # 0/(w1 - c) is a signed zero everywhere except at the stencil row
    # w1 = 0.5 + 1e-5 of the middle sample, where it divides by zero
    assert 0.5 + CFG.step == 0.50001
    path, scen = _hopf_variant(tmp_path, "stencil", section=_HOPF_SECTION.replace(
        "[1/sqrt(1 + w1^2 + w2^2),", "[1/sqrt(1 + w1^2 + w2^2) + 0/(w1 - 0.50001),"))
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is NonFiniteError and str(error) == "division by zero"


def test_fibre_frame_fails_before_a_later_base_frame(tmp_path, capsys):
    # the flow scales by 1 + t^2 b, with b a bump at the section point
    # (1, 0, 0, 0) of the second sample: the fibre at pi/3 leaves the level
    # there, while the section leaves it at the fourth sample
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
    base_error, error = _assert_parity(path, scen, capsys)
    assert type(error) is SectionNotOnLevelError and type(base_error) is SectionNotOnLevelError
    assert str(error) != str(base_error)
