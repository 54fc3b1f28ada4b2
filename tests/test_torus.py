"""Reduction by a 2-torus end to end: the k = 2 paths (several generators,
their Gram-Schmidt in g, the (k, n) kernel of d mu) on the T^2 fixture of
``util.TORUS_T2_TEXT``, whose quotient is CP^1 x CP^1 with hopf's reduced
structures on each block."""

import numpy as np
import pytest

from symred.actions import momentum_jacobian, momentum_values
from symred.cli import RunConfig, run
from symred.exprlang import Program
from symred.geometry import sample_ball
from symred.reduction import reduced_structures
from symred.scenarios import compile_scenario, parse_scenario
from symred.structures import standard_acs_matrix

from util import TORUS_T2_TEXT, round_sphere_metric, round_sphere_symplectic

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
    values = momentum_values(TORUS.mu, M)
    assert runs == [6] and values.shape == (6, 2)
    np.testing.assert_allclose(values, 0.5, atol=1e-15)
    runs.clear()
    jacobian = momentum_jacobian(TORUS.mu, M)
    assert runs == [6] and jacobian.shape == (6, 2, 8)
    want = np.zeros((6, 2, 8))
    want[:, 0, :4], want[:, 1, 4:] = M[:, :4], M[:, 4:]
    assert np.array_equal(jacobian, want)
