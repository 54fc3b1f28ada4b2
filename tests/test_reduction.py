"""Level sets, splittings, reduced structures and the verification pipelines."""

import warnings

import numpy as np
import pytest

from symred.actions import GroupAction, MomentumMap, apply_flow, pushforward_table
from symred.cli import RunConfig, run
from symred.errors import (
    ActionNotFreeError,
    NonFiniteError,
    NotOnLevelError,
    NotRegularValueError,
    RankDeficientLiftError,
    VerticalLeakWarning,
)
from symred.geometry import RowMap, TensorField, fd_jacobian, sample_ball
from symred.reduction import (
    ReductionScenario,
    lift_frames,
    reduced_structures,
    split_tangent,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.scenarios import builtin, builtin_names, builtin_text, compile_scenario, parse_scenario
from symred.structures import (
    DEFAULT_TOLERANCES,
    check_metric,
    standard_acs,
    standard_acs_matrix,
    standard_symplectic,
)

from util import (
    DOUBLE_SPEED_HOPF_TEXT,
    HOPF_METRIC_LINE,
    SIXFOLD_METRIC_HOPF_TEXT,
    horizontal_projector_oracle,
    one,
    projective_plane_oracle,
    reference_submersion,
    residuals_seen,
    round_sphere_metric,
    replaced,
    round_sphere_symplectic,
    row0,
)

HOPF = builtin("hopf")
LINEAR = builtin("linear_translation")
# two fibre parameters of a circle action, away from the identity and from
# each other
FIBRE = np.array([[1.3], [-2.4]])


def span_projector(M):
    """Projector onto the column span of M."""
    return M @ np.linalg.lstsq(M, np.eye(M.shape[0]), rcond=None)[0]


def quotient_points(scen, count, seed, radius=2.0):
    return sample_ball(scen.quotient_dim, count, radius, seed)


def test_split_tangent_hopf_pole():
    split = row0(split_tangent(HOPF, one([1.0, 0.0, 0.0, 0.0])))
    assert split.level.shape == (4, 3)
    np.testing.assert_allclose(split.vertical[:, 0], [0.0, -1.0, 0.0, 0.0], atol=1e-10)
    H = span_projector(split.horizontal)
    expected = span_projector(np.eye(4)[:, 2:])
    np.testing.assert_allclose(H, expected, atol=1e-9)


def test_split_tangent_linear_scenario():
    split = row0(split_tangent(LINEAR, one([0.0, 0.0, 0.0, 0.0])))
    np.testing.assert_allclose(split.vertical[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-10)
    H = span_projector(split.horizontal)
    expected = span_projector(np.eye(4)[:, 2:])
    np.testing.assert_allclose(H, expected, atol=1e-10)


def test_split_tangent_rejects_off_level():
    with pytest.raises(NotOnLevelError):
        split_tangent(HOPF, one([1.1, 0.0, 0.0, 0.0]))


def test_split_tangent_rejects_critical_level():
    # mu = 0 only at the origin, where d mu vanishes
    zero_level = replaced(HOPF, mu=MomentumMap(HOPF.mu.field, [0.0]))
    with pytest.raises(NotRegularValueError, match=r"^kernel of d mu has dimension 4 at "
                                                   r"point \[0\., 0\., 0\., 0\.\], "
                                                   r"expected 3$"):
        split_tangent(zero_level, one([0.0, 0.0, 0.0, 0.0]))


def test_split_tangent_rejects_frozen_action():
    frozen = ReductionScenario(
        name="frozen",
        omega=standard_symplectic(4),
        metric=TensorField.constant(np.eye(4)),
        acs=standard_acs(4),
        action=GroupAction(group_dim=1, flow=lambda a, p: p),
        mu=MomentumMap(TensorField.vector(lambda p: p[1:2], 1), [0.0]),
        section=lambda w: [0.0, 0.0, w[0], w[1]],
    )
    with pytest.raises(ActionNotFreeError):
        split_tangent(frozen, one([0.0, 0.0, 0.0, 0.0]))


def assert_split_matches_oracle(scen, m):
    split = row0(split_tangent(scen, one(m)))
    n, k = scen.chart_dim, scen.action.group_dim
    G, H, V = split.metric, split.horizontal, split.vertical
    assert H.shape == (n, n - 2 * k)
    oracle = horizontal_projector_oracle(split.jmu, split.generators, G, n - 2 * k)
    np.testing.assert_allclose(H @ H.T @ G, oracle, atol=1e-12)
    assert np.max(np.abs(split.jmu @ H)) < 1e-14
    assert np.max(np.abs(H.T @ G @ V)) < 1e-14
    np.testing.assert_allclose(H.T @ G @ H, np.eye(n - 2 * k), atol=1e-13)


def test_split_tangent_at_former_hopf_crash_point():
    # quotient point 76 of `verify hopf --samples 80 --seed 0` as the former
    # cube-rejection sampler drew it: Gram-Schmidt over the projected level
    # vectors once left a third residual of 8.2e-8 above an absolute 1e-8
    # cut, giving a 3-dimensional horizontal space
    x = one([-0.00010870536552598509, 0.976389917130593])
    m = HOPF.section.rows(x)
    for a in (None, 0.0, np.pi):
        p = m if a is None else apply_flow(HOPF.action, np.array([a]), m)
        assert_split_matches_oracle(HOPF, p)


def test_split_tangent_matches_oracle_for_nonflat_metric():
    # G is not the identity here, so g-orthogonality is really exercised
    scen = builtin("noninvariant_metric_hopf")
    for m in scen.section.rows(quotient_points(scen, 6, seed=3)):
        assert_split_matches_oracle(scen, m)


def test_split_tangent_matches_oracle_in_dimension_16():
    scen = builtin("euclidean_r2n", planes=8)
    for m in scen.section.rows(quotient_points(scen, 3, seed=44)):
        assert_split_matches_oracle(scen, m)


def test_vertical_ad_invariance():
    # quotient point (0, 0) of hopf is (1, 0, 0, 0); (1, -2) of the
    # translation scenario is (0, 0, 1, -2)
    report = verify_submersion(lift_frames(HOPF, one([0.0, 0.0]), (np.pi / 3.0,)))
    assert report.find("vertical invariance").max_residual < 1e-8
    report = verify_submersion(lift_frames(LINEAR, one([1.0, -2.0]), (0.7,)))
    assert report.find("vertical invariance").max_residual < 1e-10


def _hopf_text_with_flow(flow):
    """hopf's scenario text with its flow replaced by the text ``flow``."""
    text = builtin_text("hopf")
    return text[:text.index("flow = ")] + flow + "\n" + text[text.index("mu = "):]


def test_vertical_ad_invariance_negative_control():
    # the second plane's phase t1 + t1^2 * x4 is no group action, but it
    # keeps mu; the pushforward of the generator then leaves the vertical
    # space of the moved point (by about 3.6).  A phase in x1*x1 would pass:
    # its gradient meets the generator's x1 component, x2, which is 0 on the
    # section.
    s = "(t1 + t1^2*x4)"
    scen = compile_scenario(parse_scenario(_hopf_text_with_flow(
        f"flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1), "
        f"x3*cos{s} + x4*sin{s}, x4*cos{s} - x3*sin{s}]")))
    report = verify_submersion(lift_frames(scen, quotient_points(scen, 20, seed=0),
                                           FIBRE))
    check = report.find("vertical invariance")
    assert not check.passed
    assert check.max_residual > 1.0


def _run_text(tmp_path, text, suites=None, seed=0):
    """``verify`` of the scenario ``text`` at 20 samples: the report, the
    exit code and the names of its failing checks."""
    path = tmp_path / "scenario.scn"
    path.write_text(text)
    config = RunConfig(str(path), samples=20, seed=seed,
                       **({} if suites is None else {"suites": suites}))
    report, code = run(config)
    return report, code, {c.name for _, c in report.all_checks() if not c.passed}


@pytest.mark.parametrize("seed", range(4))
def test_vertical_invariance_fails_alone_inside_its_suites(tmp_path, seed):
    # phases t1 + 0.3 t1^2 on (x1, x2) and t1 + 0.3 t1^2 x2 on (x3, x4) are
    # no action: a full run fails the action suite's checks too, but inside
    # the reduction suites vertical invariance is the only row that fails,
    # so within its own suite the check is no tautology.  Its residual is
    # the frame-by-frame reference's at the run's fibre parameters, rows 0-1
    # of its group parameters, and far above the tolerance
    a, b = "(t1 + 0.3*t1^2)", "(t1 + 0.3*t1^2*x2)"
    text = _hopf_text_with_flow(
        f"flow = [x1*cos{a} + x2*sin{a}, x2*cos{a} - x1*sin{a}, "
        f"x3*cos{b} + x4*sin{b}, x4*cos{b} - x3*sin{b}]")
    scen = compile_scenario(parse_scenario(text))
    for suites in (("reduction",), ("reduction", "main-theorem")):
        report, code, failing = _run_text(tmp_path, text, suites, seed)
        assert code == 1 and failing == {"vertical invariance"}, suites
        _, want = reference_submersion(scen, report.meta["quotient_points"],
                                       np.array(report.meta["group_params"][:2]))
        residual = report.find("vertical invariance").max_residual
        assert residual == max(want) and residual > 0.2
    _, code, failing = _run_text(tmp_path, text, seed=seed)
    assert code == 1 and failing == {"action axioms", "isometry", "symplectomorphism",
                                     "endomorphism invariance", "vertical invariance"}


@pytest.mark.parametrize("seed", range(20))
def test_a_sixfold_harmonic_of_the_metric_fails_fibre_independence(tmp_path, seed):
    # phi = 1 + 0.001 Re((x1 + i x2)^6) changes along every circle, but takes
    # one value at the fibre angles 0, pi/3 and pi; the seeded fibre
    # parameters see it, and fibre independence is the reduction suite's only
    # failing row
    report, code, failing = _run_text(tmp_path, SIXFOLD_METRIC_HOPF_TEXT, ("reduction",), seed)
    assert code == 1 and failing == {"fiber independence"}
    check = report.find("fiber independence")
    assert check.extras["fiber_params"] == report.meta["group_params"][:2]
    assert check.max_residual > 3 * check.tolerance


def test_main_theorem_iff_fails_where_one_defect_vanishes_and_the_other_does_not():
    # doubling omega in hopf's base frames leaves J's lifts alone, so the
    # almost-complex-mapping defect stays roundoff while the reduced
    # compatibility defect 2 omega_red J_red - h_red is h_red itself, whose
    # largest entry is the round sphere's 1/(1 + |w|^2)^2: the two land on
    # opposite sides of the tolerance at every point, and the iff row must
    # fail there
    points = sample_ball(2, 20, 2.0, seed=0)
    frames = lift_frames(HOPF, points)
    assert verify_main_theorem(frames).find("main theorem iff").passed
    doubled = replaced(frames, base=replaced(frames.base, Om=2.0 * frames.base.Om))
    report = verify_main_theorem(doubled)
    assert report.find("almost complex mapping defect").max_residual < 1e-15
    compat = report.find("reduced compatibility")
    want = np.array([np.max(round_sphere_metric(w)) for w in points])
    got = np.array(report.meta["samples"]["compat_residual"])
    assert np.abs(got - want).max() < 1e-12
    assert not compat.passed and (got > compat.tolerance).all()
    iff = report.find("main theorem iff")
    assert not iff.passed and iff.max_residual == 1.0


def test_reduced_metric_matches_round_sphere():
    for w in ([0.0, 0.0], [1.0, 0.0], [-0.4, 1.3]):
        h = reduced_structures(HOPF, one(w)).h_beta[0]
        np.testing.assert_allclose(h, round_sphere_metric(np.array(w)), atol=1e-6)


def test_reduced_metric_linear_scenario_flat():
    for w in ([0.0, 0.0], [1.5, -0.7]):
        np.testing.assert_allclose(reduced_structures(LINEAR, one(w)).h_beta[0], np.eye(2),
                                   atol=1e-10)


def test_reduced_symplectic_matches_area_form():
    np.testing.assert_allclose(reduced_structures(HOPF, one([0.0, 0.0])).omega_beta[0],
                               [[0.0, 1.0], [-1.0, 0.0]], atol=1e-6)
    np.testing.assert_allclose(reduced_structures(HOPF, one([1.0, 0.0])).omega_beta[0],
                               0.25 * np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-5)
    np.testing.assert_allclose(reduced_structures(LINEAR, one([0.3, 0.9])).omega_beta[0],
                               [[0.0, 1.0], [-1.0, 0.0]], atol=1e-10)


def test_reduced_acs_standard_on_quotient():
    np.testing.assert_allclose(reduced_structures(HOPF, one([0.0, 0.0])).j_beta[0],
                               standard_acs_matrix(2), atol=1e-6)
    np.testing.assert_allclose(reduced_structures(LINEAR, one([1.0, 2.0])).j_beta[0],
                               standard_acs_matrix(2), atol=1e-10)
    # broken compatibility leaves the pushforward candidate untouched
    skewed = builtin("skewed_metric_hopf")
    np.testing.assert_allclose(reduced_structures(skewed, one([0.0, 0.0])).j_beta[0],
                               standard_acs_matrix(2), atol=1e-6)


def test_reduced_structures_invariants_on_samples():
    for x in quotient_points(HOPF, 10, seed=2):
        red = row0(reduced_structures(HOPF, one(x)))
        assert np.max(np.abs(red.h_beta - red.h_beta.T)) < 1e-9
        assert np.linalg.eigvalsh(red.h_beta)[0] > 0
        assert np.max(np.abs(red.omega_beta + red.omega_beta.T)) < 1e-9
        assert abs(np.linalg.det(red.omega_beta)) > 1e-4
        np.testing.assert_allclose(red.h_beta, round_sphere_metric(x), atol=1e-5)
        np.testing.assert_allclose(red.omega_beta, round_sphere_symplectic(x), atol=1e-5)


def test_section_must_land_on_level():
    broken = ReductionScenario(
        name="off-level",
        omega=HOPF.omega,
        metric=HOPF.metric,
        acs=HOPF.acs,
        action=HOPF.action,
        mu=HOPF.mu,
        section=lambda w: [1.1, 0.0, w[0], w[1]],
    )
    with pytest.raises(NotOnLevelError, match=r"^point \[1\.1, 0\. , 0\. , 0\. \] "
                       "is off the level set"):
        reduced_structures(broken, one([0.0, 0.0]))


def test_rank_deficient_lift_detected():
    # this "section" lands on the level but its pushforward is vertical in
    # one direction, so the lift frame cannot invert d pi on H
    degenerate = ReductionScenario(
        name="degenerate-section",
        omega=LINEAR.omega,
        metric=LINEAR.metric,
        acs=LINEAR.acs,
        action=LINEAR.action,
        mu=LINEAR.mu,
        section=lambda w: [w[0], 0.0, w[1], 0.0],
    )
    with pytest.raises(RankDeficientLiftError):
        reduced_structures(degenerate, one([0.4, 0.2]))


def test_vertical_leak_warning_for_tilted_acs():
    # rotate the acs into the level-normal direction so J(H) leaves the level
    alpha = 0.4
    c, s = np.cos(alpha), np.sin(alpha)
    R = np.eye(4)
    R[0, 0], R[0, 2], R[2, 0], R[2, 2] = c, -s, s, c
    tilted = TensorField.constant(R @ standard_acs_matrix(4) @ R.T)
    scen = ReductionScenario(
        name="tilted",
        omega=LINEAR.omega,
        metric=LINEAR.metric,
        acs=tilted,
        action=LINEAR.action,
        mu=LINEAR.mu,
        section=LINEAR.section,
    )
    with pytest.warns(VerticalLeakWarning):
        reduced_structures(scen, one([0.2, -0.3]))


def test_verify_submersion_hopf():
    points = quotient_points(HOPF, 8, seed=20)
    report = verify_submersion(lift_frames(HOPF, points, FIBRE))
    assert report.passed
    assert report.find("fiber independence").max_residual < 1e-6


def test_all_reduced_objects_fiber_independent():
    # move the section along the fibre and recompute everything, not just h
    from symred.actions import apply_flow

    for x in quotient_points(HOPF, 5, seed=22):
        base = reduced_structures(HOPF, one(x))
        for a in FIBRE:
            moved = reduced_structures(replaced(
                HOPF, section=lambda q, _a=a: apply_flow(HOPF.action, _a,
                                                         HOPF.section.rows(one(q)))[0]), one(x))
            for name in ("h_beta", "omega_beta", "j_beta"):
                assert np.max(np.abs(getattr(base, name) - getattr(moved, name))) < 1e-6


def test_verify_submersion_linear_exact():
    points = quotient_points(LINEAR, 8, seed=21)
    report = verify_submersion(lift_frames(LINEAR, points, FIBRE))
    assert report.passed
    assert report.find("fiber independence").max_residual < 1e-10


def test_verify_submersion_noninvariant_metric_fails():
    scen = builtin("noninvariant_metric_hopf")
    points = quotient_points(scen, 10, seed=7)
    report = verify_submersion(lift_frames(scen, points, FIBRE))
    check = report.find("fiber independence")
    assert not check.passed
    assert check.max_residual > 1e-3


def test_a_submersion_table_of_no_fibre_parameters_is_refused():
    # a check over no fibre representative used to pass both checks with
    # residual 0.0 where the fibre parameters fail
    scen = builtin("noninvariant_metric_hopf")
    points = sample_ball(2, 5, 2.0, 0)
    assert not verify_submersion(lift_frames(scen, points, FIBRE)).passed
    with pytest.raises(ValueError, match="^lift frame table has no fibre parameters"):
        verify_submersion(lift_frames(scen, points))


def test_verify_reduction_identity_hopf_and_linear():
    report = verify_reduction_identity(lift_frames(HOPF, quotient_points(HOPF, 10, seed=3)))
    assert report.passed
    assert report.find("pullback identity").max_residual < 1e-6
    assert report.find("vertical degeneracy").max_residual < 1e-8

    report = verify_reduction_identity(lift_frames(LINEAR, quotient_points(LINEAR, 10, seed=4)))
    assert report.find("pullback identity").max_residual < 1e-10


@pytest.mark.parametrize("name", [*builtin_names(), "double_speed"])
def test_pullback_residual_bounds_every_pair_of_unit_level_vectors(name):
    # the residual at a point is the Frobenius norm of
    # K^T omega K - d^T omega_red d on the orthonormal level frame K, so it
    # bounds the defect of the identity at every pair of unit vectors of
    # ker d mu: here 50 pairs per point, drawn in ker d mu through its own
    # projector and taken to the quotient chart as their coefficients on
    # the lifts, beside the vertical frame (d pi lift_i = e_i, d pi V = 0)
    scen = compile_scenario(parse_scenario(DOUBLE_SPEED_HOPF_TEXT)) \
        if name == "double_speed" else builtin(name)
    q, pairs = scen.quotient_dim, 50
    frames = lift_frames(scen, quotient_points(scen, 20, seed=0))
    with residuals_seen() as seen:
        verify_reduction_identity(frames)
    rng = np.random.default_rng(0)
    f = frames.base
    for i, residual in enumerate(seen[0]):
        jmu, Om, L = f.jmu[i], f.Om[i], f.lifts[i]
        w = rng.standard_normal((scen.chart_dim, 2 * pairs))
        u = w - jmu.T @ np.linalg.solve(jmu @ jmu.T, jmu @ w)
        u /= np.linalg.norm(u, axis=0)
        dpi = np.linalg.lstsq(np.hstack([L, f.vertical[i]]), u, rcond=None)[0][:q]
        w_red = L.T @ Om @ L
        w_red = 0.5 * (w_red - w_red.T)
        ambient = np.sum(u[:, :pairs] * (Om @ u[:, pairs:]), axis=0)
        reduced = np.sum(dpi[:, :pairs] * (w_red @ dpi[:, pairs:]), axis=0)
        assert np.abs(ambient - reduced).max() <= residual + 1e-14, (name, i)
    if name == "double_speed":
        # the witness is no Hamiltonian action for mu: the row fails at every seed
        tol = DEFAULT_TOLERANCES["reduction.identity"]
        for seed in range(20):
            report = verify_reduction_identity(lift_frames(scen, quotient_points(scen, 20, seed)))
            assert report.find("pullback identity").max_residual >= 1e4 * tol, seed


def _gaussian_curvature(scen, x, plane=(0, 1), step=1e-3):
    """Gaussian curvature of the reduced metric on the coordinate 2-plane
    ``plane`` of the quotient chart (every other coordinate 0) at its point
    x, by Brioschi's formula from nested central differences of
    ``reduced_structures``: the curvature of a surface quotient, and on a
    totally geodesic surface the sectional curvature of the quotient."""
    axes = np.eye(scen.quotient_dim)[list(plane)]

    def d(f, i):
        e = step * axes[i]
        return lambda X: (f(X + e) - f(X - e)) / (2 * step)

    def entry(a, b):
        return lambda X: reduced_structures(scen, X).h_beta[:, plane[a], plane[b]]

    E, F, G = entry(0, 0), entry(0, 1), entry(1, 1)
    X = (np.asarray(x, dtype=float) @ axes)[np.newaxis]
    e, f, g = (h(X)[0] for h in (E, F, G))
    Eu, Ev, Fu, Fv, Gu, Gv = (d(h, i)(X)[0] for h in (E, F, G) for i in (0, 1))
    Evv, Fuv, Guu = d(d(E, 1), 1)(X)[0], d(d(F, 1), 0)(X)[0], d(d(G, 0), 0)(X)[0]
    A = np.array([[-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2],
                  [Fv - Gu / 2, e, f],
                  [Gv / 2, f, g]])
    B = np.array([[0.0, Ev / 2, Gu / 2],
                  [Ev / 2, e, f],
                  [Gu / 2, f, g]])
    return (np.linalg.det(A) - np.linalg.det(B)) / (e * g - f * f) ** 2


# hopf with the conformal metric (1 + |x|^2 / 10) I, which is 1.1 I on the
# unit sphere that mu^-1(beta) is
_CONFORMAL = "1 + 0.1*(x1^2 + x2^2 + x3^2 + x4^2)"
CONFORMAL_METRIC_HOPF_TEXT = builtin_text("hopf").replace(HOPF_METRIC_LINE, (
    f"metric = [[{_CONFORMAL}, 0, 0, 0], [0, {_CONFORMAL}, 0, 0], "
    f"[0, 0, {_CONFORMAL}, 0], [0, 0, 0, {_CONFORMAL}]]"))


def _text_scenario(text):
    return compile_scenario(parse_scenario(text))


@pytest.mark.parametrize("name, curvature", [("hopf", 4.0), ("linear_translation", 0.0),
                                             ("conformal_metric_hopf", 4.0 / 1.1)])
def test_reduced_metric_has_the_quotients_gaussian_curvature(name, curvature):
    # hopf's quotient is the round sphere of radius 1/2 (curvature 4) and
    # linear_translation's the flat plane; the curvature is an intrinsic
    # invariant, so this oracle holds in any quotient chart.  A metric
    # 1.1 g on the level set scales the reduced metric by 1.1 and so the
    # curvature by 1/1.1
    assert HOPF_METRIC_LINE in builtin_text("hopf")
    scen = _text_scenario(CONFORMAL_METRIC_HOPF_TEXT) if name == "conformal_metric_hopf" \
        else builtin(name)
    for x in quotient_points(scen, 5, seed=0):
        assert abs(_gaussian_curvature(scen, x) - curvature) <= 1e-3, (name, x)


@pytest.mark.parametrize("scen", [
    builtin("skewed_metric_hopf"), builtin("noninvariant_metric_hopf"),
    _text_scenario(SIXFOLD_METRIC_HOPF_TEXT), _text_scenario(CONFORMAL_METRIC_HOPF_TEXT)],
    ids=["skewed", "noninvariant", "sixfold", "conformal"])
def test_reduced_symplectic_form_does_not_depend_on_the_metric(scen):
    # omega_red(v, w) = omega(lift v, lift w) needs no metric: lifts for two
    # metrics differ by vertical vectors, which omega pairs to zero with
    # ker d mu.  So each of these scenarios, hopf with another metric, has
    # hopf's reduced form, while its reduced metric is another one (J of a
    # lift leaves the level set where J is not g-compatible, which warns)
    X = quotient_points(HOPF, 20, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", VerticalLeakWarning)
        want, got = reduced_structures(HOPF, X), reduced_structures(scen, X)
    assert np.max(np.abs(got.omega_beta - want.omega_beta)) <= 1e-12
    assert np.max(np.abs(got.h_beta - want.h_beta)) > 1e-4


def _hopf_at_level(beta):
    """hopf at the level beta: mu = beta on the sphere of radius sqrt(2 beta),
    with the section scaled onto it."""
    text = builtin_text("hopf").replace("beta = [0.5]", f"beta = [{beta!r}]")
    scale = repr(float(np.sqrt(2.0 * beta)))
    for numerator in ("[1", "w1", "w2"):
        old = f"{numerator}/sqrt(1 + w1^2 + w2^2)"
        assert old in text
        text = text.replace(old, f"{numerator}*{scale}/sqrt(1 + w1^2 + w2^2)")
    return _text_scenario(text)


@pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 7.5])
def test_reduced_volume_is_duistermaat_heckman(beta):
    # Duistermaat-Heckman (Invent. Math. 69, 1982): the symplectic volume of
    # the reduced space of the circle acting on C^2 at the level beta is
    # 2 pi beta.  Over hopf's affine chart, with s = r^2/(1 + r^2) in [0, 1)
    # and dA = r dr dtheta = 1/2 ds/(1 - s)^2 dtheta, 200 Gauss-Legendre
    # nodes in s and 64 angles integrate |omega_red[0, 1]| = 2 beta (1 - s)^2,
    # so the integrand in (s, theta) is the constant beta and the rule is
    # exact to roundoff (measured within 3.1e-16 relative).  A
    # substitution r = tan u instead reaches r ~ 3.5e4 at its outer nodes,
    # where the lifts' singular values fall below RANK_TOL and the frames
    # are refused
    nodes, weights = np.polynomial.legendre.leggauss(200)
    s, ds = (nodes + 1.0) / 2.0, weights / 2.0
    theta = 2.0 * np.pi * np.arange(64) / 64
    r = np.sqrt(s / (1.0 - s))
    X = np.stack([np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()], axis=1)
    w = reduced_structures(_hopf_at_level(beta), X).omega_beta[:, 0, 1].reshape(len(s), -1)
    volume = np.sum(np.abs(w) * (0.5 * ds / (1.0 - s) ** 2)[:, np.newaxis]) * (2.0 * np.pi / 64)
    assert abs(volume - 2.0 * np.pi * beta) <= 1e-12 * 2.0 * np.pi * beta


def _sheared_hopf_text(a):
    """hopf conjugated by the nonlinear symplectomorphism
    S(x) = (x1, x2 + a sin x1, x3, x4): g = DS^T DS, J = DS^-1 J0 DS, whose
    first block is [[-c, -1], [1 + c^2, c]] with c = a cos x1, omega
    unchanged, the flow S^-1 o Phi_t o S, mu o S and the section S^-1 o
    sigma."""
    c, y2 = f"{a!r}*cos(x1)", f"(x2 + {a!r}*sin(x1))"
    z1, z2 = f"(x1*cos(t1) + {y2}*sin(t1))", f"({y2}*cos(t1) - x1*sin(t1))"
    text = builtin_text("hopf")
    for old, new in (
            ("metric = [[1, 0, 0, 0], [0, 1, 0, 0],",
             f"metric = [[1 + ({c})^2, {c}, 0, 0], [{c}, 1, 0, 0],"),
            ("acs = [[0, -1, 0, 0], [1, 0, 0, 0],",
             f"acs = [[-{c}, -1, 0, 0], [1 + ({c})^2, {c}, 0, 0],"),
            ("flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1),",
             f"flow = [{z1}, {z2} - {a!r}*sin({z1}),"),
            ("mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]", f"mu = [0.5*(x1^2 + {y2}^2 + x3^2 + x4^2)]"),
            ("section = [1/sqrt(1 + w1^2 + w2^2), 0,",
             f"section = [1/sqrt(1 + w1^2 + w2^2), -{a!r}*sin(1/sqrt(1 + w1^2 + w2^2)),")):
        assert old in text
        text = text.replace(old, new)
    return text


def test_a_nonlinear_symplectic_shear_keeps_the_reduction(tmp_path):
    # S keeps omega and maps the sheared level set, orbits and section onto
    # hopf's, so pi o S^-1 is hopf's projection and the quotient chart is
    # hopf's: h_red, omega_red and J_red match hopf's to roundoff (measured
    # 1.5e-15), though g and J are not constant and the flow is not linear
    # in x, and verify passes with every residual at roundoff (measured
    # 1.9e-15)
    text = _sheared_hopf_text(0.7)
    sheared = _text_scenario(text)
    for seed in range(20):
        X = sample_ball(2, 20, 2.0, seed)
        got, want = reduced_structures(sheared, X), reduced_structures(HOPF, X)
        for key in ("h_beta", "omega_beta", "j_beta"):
            assert np.max(np.abs(getattr(got, key) - getattr(want, key))) <= 1e-12, (seed, key)
    path = tmp_path / "sheared_hopf.scn"
    path.write_text(text)
    for seed in (0, 1, 2, 3, 7, 13):
        report, code = run(RunConfig(str(path), seed=seed))
        assert code == 0, (seed, report.format_text())
        assert max(c.max_residual for _, c in report.all_checks()) <= 1e-12, seed


@pytest.mark.parametrize("plane, curvature", [((0, 1), 4.0), ((0, 2), 1.0), ((1, 3), 1.0)],
                         ids=["complex-line", "real-w1-w3", "real-w2-w4"])
def test_reduced_metric_of_cp2_has_its_sectional_curvatures(plane, curvature):
    # euclidean_r2n at 3 planes reduces the unit sphere of C^3 by the
    # diagonal circle: its quotient is CP^2 with the Fubini-Study metric of
    # holomorphic sectional curvature 4, not a flat space, in the affine
    # chart (w1 + i w2, w3 + i w4).  The complex line w3 = w4 = 0 (a CP^1)
    # and the real planes w2 = w4 = 0 and w1 = w3 = 0 (each an RP^2, the
    # second the first's image under the isometry diag(1, i, i)) are
    # totally geodesic, so their Gaussian curvatures are the sectional
    # curvatures 4 and 1 there
    scen = builtin("euclidean_r2n", planes=3)
    for x in sample_ball(2, 5, 2.0, seed=0):
        assert abs(_gaussian_curvature(scen, x, plane) - curvature) <= 1e-3, (plane, x)


def test_verify_main_theorem_positive_branch():
    xs = quotient_points(HOPF, 10, seed=5)
    report = verify_main_theorem(lift_frames(HOPF, xs))
    assert report.passed
    iff = report.find("main theorem iff")
    assert iff.extras["branch"] == "positive"
    assert iff.extras["hypothesis_violated"] is False
    samples = report.meta["samples"]
    for key in ("acm_residual", "compat_residual", "acs_residual"):
        assert all(value < 1e-5 for value in samples[key]), key

    # the lifts invert d pi: the closed-form projection (Re, Im) of z2/z1,
    # differentiated at sigma(x) and applied to the lifts, gives I
    def projection(X):
        z = (X[:, 2] + 1j * X[:, 3]) / (X[:, 0] + 1j * X[:, 1])
        return np.stack([z.real, z.imag], axis=1)

    frames = lift_frames(HOPF, xs).base
    dpi = fd_jacobian(RowMap(projection), frames.base)
    np.testing.assert_allclose(dpi @ frames.lifts, np.broadcast_to(np.eye(2), (10, 2, 2)),
                               atol=1e-8)


def test_verify_main_theorem_skewed_control():
    scen = builtin("skewed_metric_hopf")
    points = np.vstack([[0.0, 0.0], quotient_points(scen, 6, seed=6)])
    report = verify_main_theorem(lift_frames(scen, points))
    compat = report.find("reduced compatibility")
    assert abs(compat.max_residual - 3.0) < 1e-6
    assert compat.worst_point == (0.0, 0.0)
    iff = report.find("main theorem iff")
    assert iff.extras["hypothesis_violated"] is True
    assert not report.passed
    assert abs(report.meta["samples"]["compat_residual"][0] - 3.0) < 1e-6


def test_verify_main_theorem_linear_exact():
    report = verify_main_theorem(lift_frames(LINEAR, quotient_points(LINEAR, 8, seed=8)))
    assert report.passed
    samples = report.meta["samples"]
    for key in ("acm_residual", "compat_residual", "acs_residual"):
        assert all(value < 1e-10 for value in samples[key]), key


@pytest.mark.parametrize("name", ["hopf", "skewed_metric_hopf"])
def test_main_theorem_samples_are_columns_in_points_order(name):
    scen = builtin(name)
    xs = quotient_points(scen, 7, seed=3)
    frames = lift_frames(scen, xs)
    report = verify_main_theorem(frames)
    samples = report.meta["samples"]
    assert sorted(samples) == ["acm_residual", "acs_residual", "compat_residual",
                               "normal_leak", "vertical_leak"]
    for key, column in samples.items():
        assert type(column) is tuple and len(column) == len(frames.points), key
        assert all(type(value) is float for value in column), key
    # entry i is point i: the worst entry of a column is at the check's worst point
    for key, check in (("acm_residual", "almost complex mapping defect"),
                       ("compat_residual", "reduced compatibility"),
                       ("acs_residual", "reduced acs identity")):
        row = report.find(check)
        worst = int(np.argmax(samples[key]))
        assert samples[key][worst] == row.max_residual, key
        assert row.worst_point == tuple(frames.points[worst]), key
    # and the table of the points reversed has every column reversed, bit for bit
    backwards = verify_main_theorem(lift_frames(scen, xs[::-1])).meta["samples"]
    for key, column in samples.items():
        assert np.array(backwards[key][::-1]).tobytes() == np.array(column).tobytes(), key


def test_three_plane_reduction_matches_complex_oracle():
    # six-dimensional chart, four-dimensional curved quotient; the oracle
    # uses exact complex arithmetic, the pipeline uses FD + lifts
    scen = builtin("euclidean_r2n", planes=3)
    assert scen.chart_dim == 6 and scen.quotient_dim == 4
    for w in ([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.3, -0.7, 1.1, 0.4]):
        h_oracle, w_oracle = projective_plane_oracle(np.asarray(w))
        red = row0(reduced_structures(scen, one(w)))
        np.testing.assert_allclose(red.h_beta, h_oracle, atol=1e-8)
        np.testing.assert_allclose(red.omega_beta, w_oracle, atol=1e-8)
        np.testing.assert_allclose(red.j_beta, standard_acs_matrix(4), atol=1e-8)


def test_three_plane_reduction_pipelines_pass():
    scen = builtin("euclidean_r2n", planes=3)
    points = quotient_points(scen, 5, seed=19, radius=1.5)
    assert verify_submersion(lift_frames(scen, points, FIBRE)).passed
    assert verify_reduction_identity(lift_frames(scen, points)).passed
    report = verify_main_theorem(lift_frames(scen, points))
    assert report.passed
    assert report.find("main theorem iff").extras["branch"] == "positive"


@pytest.mark.parametrize("points", [np.array([0.3, 0.4]), np.zeros((2, 2, 2)), np.array(0.3)])
def test_point_arrays_not_of_shape_n_by_d_raise(points):
    # a flat array is not read as points of one coordinate each, nor as one point
    message = f"points must be an (N, d) array, got shape {points.shape}"
    for verify in (lambda: lift_frames(HOPF, points),
                   lambda: lift_frames(HOPF, points, FIBRE),
                   lambda: pushforward_table(HOPF.action, [0.3], points),
                   lambda: check_metric(HOPF.metric, points)):
        with pytest.raises(ValueError) as info:
            verify()
        assert str(info.value) == message


def test_quotient_dim_is_derived():
    assert HOPF.quotient_dim == HOPF.chart_dim - 2 * HOPF.action.group_dim == 2
    with pytest.raises(TypeError, match="quotient_dim"):
        ReductionScenario(
            name="odd-counting",
            omega=HOPF.omega,
            metric=HOPF.metric,
            acs=HOPF.acs,
            action=HOPF.action,
            mu=HOPF.mu,
            quotient_dim=3,
            section=HOPF.section,
        )


def test_chart_dim_is_omegas():
    # the chart dimension is read off omega, so it cannot be stated beside it
    assert HOPF.chart_dim == HOPF.omega.shape[0] == 4
    with pytest.raises(TypeError, match="chart_dim"):
        ReductionScenario(
            name="restated",
            chart_dim=4,
            omega=HOPF.omega,
            metric=HOPF.metric,
            acs=HOPF.acs,
            action=HOPF.action,
            mu=HOPF.mu,
            section=HOPF.section,
        )


@pytest.mark.parametrize("change, message", [
    ({"mu": MomentumMap(TensorField.vector(lambda p: np.repeat(p[:1], 2), 2),
                        [0.5, 0.5])},
     "momentum map has 2 components for a group of dimension 1"),
    ({"omega": standard_symplectic(2)}, r"metric has shape \(4, 4\), expected omega's \(2, 2\)"),
    ({"metric": TensorField.constant(np.eye(6))}, r"metric has shape \(6, 6\), expected omega's \(4, 4\)"),
    ({"acs": standard_acs(2)}, r"acs has shape \(2, 2\), expected omega's \(4, 4\)"),
    ({"omega": TensorField.matrix(lambda p: np.zeros((4, 2)), 4, 2)},
     r"omega has shape \(4, 2\), expected a square matrix"),
    ({"omega": TensorField.vector(lambda p: p, 4)},
     r"omega has shape \(4,\), expected a square matrix"),
], ids=["mu", "omega", "metric", "acs", "non-square omega", "vector omega"])
def test_scenario_rejects_mismatched_dimensions(change, message):
    # a second momentum component once passed unread: only component 0 was
    # checked against the one generator
    with pytest.raises(ValueError, match=message):
        replaced(HOPF, **change)


_OVERFLOWING_SECTION = """
name = overflowing_section
dim = 4
omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
metric = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
acs = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
flow = [exp(-x1^2) + t1, x2, x3, x4]
mu = [x2]
beta = [0]
section = [1e308*w1, 0, w1, w2]
"""


def test_moved_section_matches_flow_after_section_point():
    # the flow maps a non-finite section point to a finite one, so the moved
    # frames must check the section point on its own, before the flow
    scen = compile_scenario(parse_scenario(_OVERFLOWING_SECTION))
    a = np.array([0.5])
    for w in ([2.0, 0.0], [-3.0, 0.4]):
        sigma = scen.section.rows(np.array([w]))
        assert not np.isfinite(sigma).all()
        assert np.isfinite(scen.action.flow.rows(np.hstack([sigma, [a]]))).all()
        for fiber_params in ([a], ()):
            with pytest.raises(NonFiniteError, match="^chart point contains non-finite entries$"):
                lift_frames(scen, [w], fiber_params)


def test_double_speed_hopf_is_not_hamiltonian(tmp_path):
    # turning the second plane at double speed keeps omega, g and J invariant
    # and compatible and keeps the sphere as the level set, but mu is no
    # longer the momentum map of the action
    report, code, failing = _run_text(tmp_path, DOUBLE_SPEED_HOPF_TEXT)
    assert code == 1
    assert failing == {"hamiltonian condition", "pullback identity", "vertical degeneracy",
                       "almost complex mapping defect", "reduced compatibility",
                       "reduced acs identity"}
    for name in ("action axioms", "isometry", "fiber independence", "vertical invariance"):
        assert report.find(name).passed, name
