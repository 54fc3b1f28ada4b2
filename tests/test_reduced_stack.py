"""The stacked reduction side against the point-by-point pipelines in util.py.

Every residual of the submersion, reduction-identity and main-theorem
checks comes from stacked products over all frames of an op, each frame one
slice, and, where d pi is inverted, one ``np.linalg.solve`` per frame.
Every value must be the bits of the frame-by-frame pipeline, which takes
each frame as one 2-D matrix in the same products.  It must also stay
within PER_VECTOR_BOUND of the per-vector oracle, which takes each vector
alone in 1-D products from modified Gram-Schmidt frames, and within
LSTSQ_BOUND of that oracle with the per-vector ``lstsq`` the library used
before (both relative to the entry, and absolute below 1).
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
    lift_frames,
    reduced_structures,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario

from util import (
    DOUBLE_SPEED_HOPF_TEXT,
    TORUS_T2_TEXT,
    reference_lift_frame,
    reference_main_theorem,
    reference_main_theorem_per_vector,
    reference_reduced_from_frame,
    reference_reduced_per_vector,
    reference_reduction_identity,
    reference_reduction_identity_per_vector,
    reference_submersion,
    residuals_seen,
    run_group_params,
)

# the largest relative gap to the per-vector oracle over _CASES, measured
# with numpy 2.4 and OpenBLAS: 1.1e-15 with its solve, 3.0e-14 with lstsq
PER_VECTOR_BOUND = 2e-14
LSTSQ_BOUND = 1e-12


_TEXTS = {"torus_t2": TORUS_T2_TEXT, "double_speed": DOUBLE_SPEED_HOPF_TEXT}


def _scenario(name):
    if name == "r2n_8":
        return compile_scenario(parse_scenario(builtin_text("euclidean_r2n", 8)))
    if name in _TEXTS:
        return compile_scenario(parse_scenario(_TEXTS[name]))
    return builtin(name)


_NAMES = [*builtin_names(), "r2n_8", "torus_t2", "double_speed"]
_CASES = [(name, seed) for name in builtin_names() for seed in range(3)] \
    + [("r2n_8", 5), ("torus_t2", 2), ("double_speed", 0)]


def _fibre(scen, seed):
    """The fibre parameters of a ``verify`` at ``seed``."""
    return run_group_params(seed, scen.action.group_dim)[:2]


def _stacked(scen, xs, seed):
    """Every per-point value the three pipelines report, keyed as the
    references key them.  The table is built with the fibre parameters, as
    ``cli.run`` builds it, in one ``split_tangent`` call over every base and
    moved frame, and the three pipelines split nothing more."""
    with residuals_seen() as seen, mock.patch.object(
            reduction, "split_tangent", wraps=reduction.split_tangent) as split:
        frames = lift_frames(scen, xs, _fibre(scen, seed))
        verify_submersion(frames)
        verify_reduction_identity(frames)
        main = verify_main_theorem(frames)
    assert split.call_count == 1
    assert split.call_args.args[1].shape == (3 * len(xs), scen.chart_dim)
    keys = ("fiber", "vertical", "identity", "degeneracy", "acm_residual", "compat_residual",
            "acs_residual", "hypothesis")
    out = dict(zip(keys, seen))
    for key in ("vertical_leak", "normal_leak"):
        out[key] = np.array(main.meta["samples"][key])
    for key in ("acm_residual", "compat_residual", "acs_residual"):
        assert np.array(main.meta["samples"][key]).tobytes() == out[key].tobytes(), key
    return out


def _references(scen, xs, seed):
    fiber, vertical = reference_submersion(scen, xs, _fibre(scen, seed))
    identity, degeneracy = reference_reduction_identity(scen, xs)
    out = {"fiber": fiber, "vertical": vertical, "identity": identity,
           "degeneracy": degeneracy, **reference_main_theorem(scen, xs)}
    return {key: np.array(values, dtype=float) for key, values in out.items()}


def _per_vector(scen, xs, seed, solver):
    fiber, vertical = reference_submersion(scen, xs, _fibre(scen, seed), per_vector=True)
    identity, degeneracy = reference_reduction_identity_per_vector(scen, xs, solver)
    out = {"fiber": fiber, "vertical": vertical, "identity": identity,
           "degeneracy": degeneracy, **reference_main_theorem_per_vector(scen, xs, solver)}
    return {key: np.array(values, dtype=float) for key, values in out.items()}


def _within(got, want, bound):
    return (np.abs(got - want) <= bound * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("name,seed", _CASES)
def test_stacked_reduction_matches_point_by_point(name, seed):
    scen = _scenario(name)
    xs = sample_ball(scen.quotient_dim, 20, radius=scen.sample_spec.radius, seed=seed)
    got = _stacked(scen, xs, seed)
    want = _references(scen, xs, seed)
    for key, value in want.items():
        assert got[key].tobytes() == value.tobytes(), f"{name} seed {seed}: {key}"
    for solver, bound in (("solve", PER_VECTOR_BOUND), ("lstsq", LSTSQ_BOUND)):
        for key, value in _per_vector(scen, xs, seed, solver).items():
            assert _within(got[key], value, bound), f"{name} seed {seed} {solver}: {key}"


@pytest.mark.parametrize("name", _NAMES)
def test_stack_of_one_and_no_points(name):
    scen = _scenario(name)
    x = sample_ball(scen.quotient_dim, 1, radius=scen.sample_spec.radius, seed=3)
    got, want = _stacked(scen, x, 3), _references(scen, x, 3)
    for key, value in want.items():
        assert got[key].tobytes() == value.tobytes(), f"{name}: {key}"

    # no points would pass every pipeline vacuously, so no table of them is built
    for fiber_params in (_fibre(scen, 3), ()):
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
        h, w, j_red, _, _ = reference_reduced_from_frame(frame)
        assert red.h_beta.tobytes() == h.tobytes()
        assert red.omega_beta.tobytes() == w.tobytes()
        assert red.j_beta.tobytes() == j_red.tobytes()
        _, oracle = reference_lift_frame(scen, x, per_vector=True)
        for solver, bound in (("solve", PER_VECTOR_BOUND), ("lstsq", LSTSQ_BOUND)):
            want = reference_reduced_per_vector(oracle, solver)
            for got, value in zip((red.h_beta, red.omega_beta, red.j_beta), want):
                assert _within(got, value, bound), solver


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
    samples = verify_main_theorem(lift_frames(scen, xs)).meta["samples"]
    assert max(samples["vertical_leak"]) > 1e-2
    for x, normal_leak in zip(xs, samples["normal_leak"], strict=True):
        _, frame = reference_lift_frame(scen, x)
        K, G, L = frame["level"], frame["metric"], frame["lifts"]
        project = K @ np.linalg.solve(K.T @ G @ K, K.T @ G)
        leaks = []
        for u, lift in zip((frame["J"] @ L).T, L.T):
            r = u - project @ u
            leaks.append(np.sqrt(r @ G @ r) / np.sqrt(lift @ G @ lift))
        assert abs(normal_leak - max(leaks)) <= 1e-9 * max(1.0, max(leaks)), name
