"""The stacked reduction side against the point-by-point pipelines in util.py.

Every residual of the submersion, reduction-identity and main-theorem
checks comes from stacked products over all frames of an op and, where d pi
is inverted, one ``np.linalg.solve`` per frame.  Values that need no solve
must be the bits of the point-by-point pipeline; values that do must be the
bits of that pipeline with one 2-D solve per frame, and stay within 1e-12
(relative to the entry, and absolute below 1) of the per-vector ``lstsq``
the library used before.
"""

import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from symred import reduction
from symred.cli import RunConfig, run
from symred.errors import VerticalLeakWarning
from symred.geometry import sample_ball
from symred.reduction import (
    FIBER_PARAMS,
    lift_frames,
    reduced_structures,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario

from util import (
    reference_lift_frame,
    reference_main_theorem,
    reference_reduced_from_frame,
    reference_reduction_identity,
    reference_submersion,
    residuals_seen,
)

LSTSQ_BOUND = 1e-12


def _double_speed():
    """hopf with the second plane turned at double speed: not Hamiltonian for
    mu, so the pullback identity and the main-theorem residuals fail."""
    text = builtin_text("hopf")
    flow = ("flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1), "
            "x3*cos(2*t1) + x4*sin(2*t1), x4*cos(2*t1) - x3*sin(2*t1)]")
    return compile_scenario(parse_scenario(
        text[:text.index("flow = ")] + flow + "\n" + text[text.index("mu = "):]))


def _scenario(name):
    if name == "r2n_8":
        return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))
    return _double_speed() if name == "double_speed" else builtin(name)


_CASES = [(name, seed) for name in builtin_names() for seed in range(3)] \
    + [("r2n_8", 5), ("double_speed", 0)]


def _stacked(scen, xs, seed):
    """Every per-point value the three pipelines report, keyed as the
    references key them.  The table is built with the fibre parameters, as
    ``cli.run`` builds it, in one ``split_tangent`` call over every base and
    moved frame, and the three pipelines split nothing more."""
    with residuals_seen() as seen, mock.patch.object(
            reduction, "split_tangent", wraps=reduction.split_tangent) as split:
        frames = lift_frames(scen, xs, FIBER_PARAMS)
        verify_submersion(frames)
        verify_reduction_identity(frames, seed=seed)
        main = verify_main_theorem(frames)
    assert split.call_count == 1
    assert split.call_args.args[1].shape == ((1 + len(FIBER_PARAMS)) * len(xs), scen.chart_dim)
    keys = ("fiber", "vertical", "identity", "degeneracy", "acm_residual", "compat_residual",
            "acs_residual", "hypothesis")
    out = dict(zip(keys, seen))
    for key in ("vertical_leak", "normal_leak"):
        out[key] = np.array([row[key] for row in main.meta["samples"]])
    for key in ("acm_residual", "compat_residual", "acs_residual"):
        assert np.array([row[key] for row in main.meta["samples"]]).tobytes() \
            == out[key].tobytes(), key
    return out


def _references(scen, xs, seed, solver):
    fiber, vertical = reference_submersion(scen, xs, FIBER_PARAMS)
    identity, degeneracy = reference_reduction_identity(scen, xs, seed=seed, solver=solver)
    out = {"fiber": fiber, "vertical": vertical, "identity": identity,
           "degeneracy": degeneracy, **reference_main_theorem(scen, xs, solver)}
    return {key: np.array(values, dtype=float) for key, values in out.items()}


NO_SOLVE = ("fiber", "vertical", "degeneracy", "acm_residual", "hypothesis",
            "vertical_leak", "normal_leak")
SOLVED = ("identity", "compat_residual", "acs_residual")


@pytest.mark.parametrize("name,seed", _CASES)
def test_stacked_reduction_matches_point_by_point(name, seed):
    scen = _scenario(name)
    xs = sample_ball(scen.quotient_dim, 12, radius=scen.sample_spec.radius, seed=seed)
    got = _stacked(scen, xs, seed)
    want = _references(scen, xs, seed, "solve")
    for key in NO_SOLVE + SOLVED:
        assert got[key].tobytes() == want[key].tobytes(), f"{name} seed {seed}: {key}"

    old = {"identity": np.array(reference_reduction_identity(
        scen, xs, seed=seed, solver="lstsq")[0]),
        **{key: np.array(values) for key, values
           in reference_main_theorem(scen, xs, "lstsq").items()}}
    for key in SOLVED:
        bound = LSTSQ_BOUND * np.maximum(1.0, np.abs(old[key]))
        assert (np.abs(got[key] - old[key]) <= bound).all(), f"{name} seed {seed}: {key}"


@pytest.mark.parametrize("name", ["hopf", "skewed_metric_hopf", "double_speed"])
def test_stack_of_one_and_no_points(name):
    scen = _scenario(name)
    x = sample_ball(scen.quotient_dim, 1, radius=scen.sample_spec.radius, seed=3)
    got, want = _stacked(scen, x, 3), _references(scen, x, 3, "solve")
    for key in NO_SOLVE + SOLVED:
        assert got[key].tobytes() == want[key].tobytes(), f"{name}: {key}"

    # no points would pass every pipeline vacuously, so no table of them is built
    for fiber_params in (FIBER_PARAMS, ()):
        with pytest.raises(ValueError, match="^points must hold at least one point, got none$"):
            lift_frames(scen, [], fiber_params)


@pytest.mark.parametrize("name", ["hopf", "skewed_metric_hopf", "euclidean_r2n"])
def test_reduced_structures_match_the_frame_reference(name):
    scen = _scenario(name)
    for x in sample_ball(scen.quotient_dim, 4, radius=scen.sample_spec.radius, seed=9):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            red = reduced_structures(scen, x)
        # J of a lift leaves the level tangent space only where J is not g-compatible
        assert [w.category for w in caught] \
            == [VerticalLeakWarning] * (name == "skewed_metric_hopf")
        _, frame = reference_lift_frame(scen, x)
        h, w, j_red, _, _ = reference_reduced_from_frame(frame, "solve")
        assert red.h_beta.tobytes() == h.tobytes()
        assert red.omega_beta.tobytes() == w.tobytes()
        assert red.j_beta.tobytes() == j_red.tobytes()
        old = reference_reduced_from_frame(frame, "lstsq")[2]
        assert (np.abs(red.j_beta - old) <= LSTSQ_BOUND * np.maximum(1.0, np.abs(old))).all()


def test_pair_coefficients_are_the_per_point_draws():
    # one shaped draw hands out the stream the per-point draws took: point
    # by point, pair by pair, u before v
    N, P, d = 7, 3, 3
    shaped = np.random.default_rng(5).standard_normal((N, P, 2, d))
    rng = np.random.default_rng(5)
    per_point = [rng.standard_normal(d) for _ in range(N * P * 2)]
    assert np.array_equal(shaped.reshape(-1, d), np.array(per_point))


@pytest.mark.parametrize("samples", [20, 80])
def test_verify_op_solves_without_lstsq_and_per_frame_stacks(samples, monkeypatch):
    calls = Counter()
    for name in ("lstsq", "solve"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    report, code = run(RunConfig("hopf", samples=samples, seed=51))
    assert code == 0
    assert calls["lstsq"] == 0
    # the d pi of the reduction identity and J_red: one stacked solve each,
    # whatever the sample count
    assert calls["solve"] == 2



@pytest.mark.parametrize("name", ["skewed_metric_hopf", "double_speed"])
def test_normal_leak_is_the_level_normal_part_of_j_lift(name):
    # an independent route to the level-normal part of J lift_i: the
    # g-orthogonal projector onto ker d mu from the level basis alone, with
    # no horizontal or vertical frame; J lift_i has a vertical part here,
    # which the remainder must take out with the right sign
    scen = _scenario(name)
    xs = sample_ball(scen.quotient_dim, 6, radius=scen.sample_spec.radius, seed=4)
    rows = verify_main_theorem(lift_frames(scen, xs)).meta["samples"]
    assert max(row["vertical_leak"] for row in rows) > 1e-2
    for x, row in zip(xs, rows):
        _, frame = reference_lift_frame(scen, x)
        K, G, L = frame["level"], frame["metric"], frame["lifts"]
        project = K @ np.linalg.solve(K.T @ G @ K, K.T @ G)
        leaks = []
        for u, lift in zip((frame["J"] @ L).T, L.T):
            r = u - project @ u
            leaks.append(np.sqrt(r @ G @ r) / np.sqrt(lift @ G @ lift))
        assert abs(row["normal_leak"] - max(leaks)) <= 1e-9 * max(1.0, max(leaks)), name
