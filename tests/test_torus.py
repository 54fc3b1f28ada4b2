"""Reduction by a 2-torus end to end: the k = 2 paths (several generators,
their Gram-Schmidt in g, the (k, n) kernel of d mu) on the T^2 fixture of
``util.TORUS_T2_TEXT``, whose quotient is CP^1 x CP^1 with hopf's reduced
structures on each block; the program passes of a verify, on it and on
hopf; and ``util.SCALED_MU_T2_TEXT``, its witness that fails the
hamiltonian condition alone."""

from collections import Counter

import numpy as np
import pytest

from symred import cli
from symred.actions import momentum_jacobian
from symred.cli import RunConfig, run
from symred.exprlang import Program
from symred.geometry import eval_field, sample_ball
from symred.reduction import reduced_structures
from symred.scenarios import builtin_text, compile_scenario, parse_scenario
from symred.structures import standard_acs_matrix

from util import SCALED_MU_T2_TEXT, TORUS_T2_TEXT, round_sphere_metric, round_sphere_symplectic

SF = parse_scenario(TORUS_T2_TEXT)
TORUS = compile_scenario(SF)


@pytest.mark.parametrize("seed", range(4))
def test_torus_verify_passes_every_row(tmp_path, seed):
    path = tmp_path / "torus_t2.scen"
    path.write_text(TORUS_T2_TEXT)
    report, code = run(RunConfig(str(path), samples=20, seed=seed))
    assert code == 0, report.format_text()
    checks = [c for _, c in report.all_checks()]
    assert checks and all(c.passed for c in checks)
    assert TORUS.action.group_dim == 2 and TORUS.quotient_dim == 4


def test_a_scaled_momentum_map_fails_the_hamiltonian_condition_alone(tmp_path):
    # 0.6 mu_2 at the level 0.6 beta_2 cuts torus_t2's level set, so its
    # frames and quotient are torus_t2's, but Omega^T xi_2 = grad mu_2 breaks
    # (residual 1.09 to 1.39 over these seeds): of every row of the default
    # suites, only the hamiltonian condition fails
    path = tmp_path / "scaled_mu_t2.scen"
    path.write_text(SCALED_MU_T2_TEXT)
    for seed in range(20):
        report, code = run(RunConfig(str(path), samples=20, seed=seed))
        failing = {c.name for _, c in report.all_checks() if not c.passed}
        assert (code, failing) == (1, {"hamiltonian condition"}), seed
        hamiltonian = report.find("hamiltonian condition")
        assert hamiltonian.max_residual >= 1e4 * hamiltonian.tolerance, seed


def test_torus_reduced_structures_are_hopf_on_each_block():
    # criterion 01's closed form on each CP^1 factor, zero between them
    W = sample_ball(4, 20, 2.0, 7)
    red = reduced_structures(TORUS, W)
    blocks = (slice(0, 2), slice(2, 4))
    for i, w in enumerate(W):
        for b, block in enumerate(blocks):
            np.testing.assert_allclose(red.h_beta[i][block, block],
                                       round_sphere_metric(w[block]), atol=1e-12)
            np.testing.assert_allclose(red.omega_beta[i][block, block],
                                       round_sphere_symplectic(w[block]), atol=1e-12)
            np.testing.assert_allclose(red.j_beta[i][block, block],
                                       standard_acs_matrix(2), atol=1e-12)
            other = blocks[1 - b]
            for arr in (red.h_beta, red.omega_beta, red.j_beta):
                np.testing.assert_allclose(arr[i][block, other], 0.0, atol=1e-12)


def test_reduced_volume_is_duistermaat_heckman():
    # Duistermaat-Heckman (Invent. Math. 69, 1982) on each factor: the
    # reduced space is CP^1 x CP^1 with volume 2 pi beta_j per factor, so the
    # symplectic volume, the integral of |Pf omega_red|, is pi^2 at
    # beta = (1/2, 1/2).  Each factor's chart takes the substitution of
    # test_reduction's hopf case, s = r^2/(1 + r^2) with
    # dA = 1/2 ds/(1 - s)^2 dtheta, where its block of omega_red is
    # 2 beta_j (1 - s)^2: the integrand in (s, theta) per factor is the
    # constant beta_j, so 6 Gauss-Legendre nodes and 4 angles per factor
    # are exact to roundoff (measured within 3.6e-16 relative).  The
    # Pfaffian reads every entry, the blocks between the factors included
    nodes, weights = np.polynomial.legendre.leggauss(6)
    s, ds = (nodes + 1.0) / 2.0, weights / 2.0
    theta = 2.0 * np.pi * np.arange(4) / 4
    r = np.sqrt(s / (1.0 - s))
    plane = np.stack([np.outer(r, np.cos(theta)).ravel(), np.outer(r, np.sin(theta)).ravel()],
                     axis=1)
    area = np.repeat(0.5 * ds / (1.0 - s) ** 2, len(theta)) * (2.0 * np.pi / len(theta))
    first, second = np.divmod(np.arange(len(plane) ** 2), len(plane))  # every pair of points
    X = np.hstack([plane[first], plane[second]])
    w = reduced_structures(TORUS, X).omega_beta
    pfaffian = w[:, 0, 1] * w[:, 2, 3] - w[:, 0, 2] * w[:, 1, 3] + w[:, 0, 3] * w[:, 1, 2]
    volume = np.sum(np.abs(pfaffian) * area[first] * area[second])
    assert len(X) == 576 and abs(volume - np.pi ** 2) <= 1e-12 * np.pi ** 2, volume


def test_momentum_map_runs_its_one_program_once_per_batch(monkeypatch):
    # mu is one program over its k = 2 entries: its values and its Jacobian
    # at a stack of points each take one run of it
    runs = []
    original = Program.run

    def counted(self, values):
        if self is SF.programs["mu"]:
            runs.append(len(values[0]))
        return original(self, values)

    monkeypatch.setattr(Program, "run", counted)
    M = TORUS.section.rows(sample_ball(4, 6, 2.0, 3))
    values = eval_field(TORUS.mu.field, M)
    assert runs == [6] and values.shape == (6, 2)
    np.testing.assert_allclose(values, 0.5, atol=1e-15)
    runs.clear()
    jacobian = momentum_jacobian(TORUS.mu, M)
    assert runs == [6] and jacobian.shape == (6, 2, 8)
    want = np.zeros((6, 2, 8))
    want[:, 0, :4], want[:, 1, 4:] = M[:, :4], M[:, 4:]
    assert np.array_equal(jacobian, want)


# the program passes of a verify at 20 samples of every suite but
# holomorphy, per map and kind: a run computes values, a tangent pass
# values and derivatives at once.  The action suite runs the flow for the
# axioms (the identity, each s after t, each s + t) and mu for its
# invariance (at the points and the moved points), and takes the tangents
# of the flow for its pushforward table and its generators and of mu for
# the Hamiltonian condition; the frames take one tangent pass of the
# section, of the flow at the moved section points, of mu and of the
# generators at every frame point.  Omega, g and J are fully folded and
# run nothing.
PASSES = {("flow", "run"): 3, ("flow", "tangents"): 4, ("mu", "run"): 2,
          ("mu", "tangents"): 2, ("section", "tangents"): 1}


@pytest.mark.parametrize("text", [builtin_text("hopf"), TORUS_T2_TEXT], ids=["hopf", "torus_t2"])
def test_verify_reads_each_stack_of_a_map_in_one_pass(text, monkeypatch):
    sf = parse_scenario(text)
    scen = compile_scenario(sf)
    names = {id(program): key for key, program in sf.programs.items()}
    passes = []  # (map, kind, the rows it ran on)
    program_run, program_tangents = Program.run, Program.tangents
    inside = []  # a tangent pass runs the program itself

    def counted_run(self, values):
        if not inside:
            passes.append((names[id(self)], "run", np.column_stack(values)))
        return program_run(self, values)

    def counted_tangents(self, columns, seeds):
        passes.append((names[id(self)], "tangents", np.column_stack(columns)))
        inside.append(self)
        try:
            return program_tangents(self, columns, seeds)
        finally:
            inside.pop()

    monkeypatch.setattr(Program, "run", counted_run)
    monkeypatch.setattr(Program, "tangents", counted_tangents)
    monkeypatch.setattr(cli, "resolve_scenario", lambda name: scen)
    report, code = run(RunConfig(sf.name, samples=20, seed=0,
                                 suites=("structures", "action", "reduction", "main-theorem")))
    assert code == 0, report.format_text()
    assert Counter((name, kind) for name, kind, _ in passes) == PASSES
    # no map takes two passes of one kind over the same rows, and the only
    # rows a map reads in both kinds are those two checks of the action
    # suite share, at its sample points X: the flow at (x, 0), run by the
    # axioms' identity check, whose tangents are the momentum residual's
    # generators, and mu at x, run for its invariance, whose tangents are
    # the Hamiltonian condition's gradients
    seen = Counter((name, rows.tobytes()) for name, _, rows in passes)
    assert len(set((name, kind, rows.tobytes()) for name, kind, rows in passes)) == len(passes)
    shared = {name: rows for name, _, rows in passes if seen[name, rows.tobytes()] > 1}
    assert sorted((name, kind) for name, kind, rows in passes
                  if seen[name, rows.tobytes()] > 1) == [
        ("flow", "run"), ("flow", "tangents"), ("mu", "run"), ("mu", "tangents")]
    n = scen.chart_dim
    assert not shared["flow"][:, n:].any()
    assert shared["flow"][:, :n].tobytes() == shared["mu"].tobytes()
