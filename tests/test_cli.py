"""CLI contract: suites, exit codes, report formats, determinism."""

import inspect
import json
import pathlib
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import symred
from symred import cli, scenarios, structures
from symred.actions import (
    GroupAction,
    apply_flow,
    check_action_axioms,
    check_field_invariance,
    check_isometry,
    check_momentum_invariance,
    check_symplectomorphism,
    momentum_residual,
    planar_rotation_action,
    pushforward_table,
)
from symred.cli import DEFAULT_TOLERANCES, RunConfig, main, run
from symred.errors import ScenarioFormatError, UnknownScenarioError, ValidationError
from symred.geometry import RowMap, TensorField, _point_text, eval_field, sample_ball
from symred.reduction import (
    lift_frames,
    reduced_structures,
    verify_main_theorem,
    verify_reduction_identity,
    verify_submersion,
)
from symred.report import VerificationReport, check_to_dict
from symred.scenarios import (builtin, builtin_names, builtin_text, load_scenario_file,
                              parse_scenario)
from symred.structures import (
    check_acs,
    check_closed,
    check_compatibility,
    check_metric,
    check_symplectic_pointwise,
)

from util import one, opaque_scenario, reference_invariance_residuals, replaced, round_sphere_metric


@pytest.fixture(scope="module")
def hopf_report():
    return run(RunConfig("hopf", suites=cli.SUITE_ORDER, samples=6, seed=1))


def test_run_hopf_all_suites_passes(hopf_report):
    report, code = hopf_report
    assert code == 0
    assert report.passed
    suites = [child.name for child in report.children]
    assert suites == ["structures", "action", "reduction", "main-theorem", "holomorphy"]
    assert report.meta["suites"] == suites


def test_default_run_checks_the_scenario_and_leaves_out_the_battery(hopf_report, capsys):
    # the default suites are every suite but the fixed holomorphy battery,
    # from the library and from the command line; the rows they share with
    # a run of every suite are the same rows
    report, code = run(RunConfig("hopf", samples=6, seed=1))
    suites = ["structures", "action", "reduction", "main-theorem"]
    assert list(cli.DEFAULT_SUITES) == suites
    assert (code, [child.name for child in report.children], report.meta["suites"]) == (
        0, suites, suites)
    every = hopf_report[0].to_dict()
    every["children"] = every["children"][:-1]
    every["meta"]["suites"] = suites
    got = report.to_dict()
    assert got["meta"].pop("timestamp") and every["meta"].pop("timestamp")
    assert got == every
    assert main(["verify", "hopf", "--samples", "6", "--seed", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["suites"] == suites


def test_run_skewed_structures_fails():
    report, code = run(RunConfig("skewed_metric_hopf", suites=("structures",), samples=5, seed=1))
    assert code == 1
    compat = report.find("compatibility")
    assert not compat.passed
    assert abs(compat.max_residual - 3.0) < 1e-9


def test_run_raises_what_loading_the_scenario_raises(tmp_path):
    # no report stands for a scenario that did not load: one with no checks
    # would read as passed
    with pytest.raises(UnknownScenarioError, match="'missing_scenario' is neither"):
        run(RunConfig("missing_scenario"))
    with pytest.raises(OSError):
        run(RunConfig(str(tmp_path)))
    bad = tmp_path / "broken.scn"
    bad.write_text("name = broken\ndim = 4\nomega = [[1,2],[3")
    with pytest.raises(ScenarioFormatError, match="line 3"):
        run(RunConfig(str(bad)))


def test_main_exits_2_with_one_error_line_when_a_scenario_does_not_load(tmp_path, capsys):
    for scenario in ("no_such_scenario", str(tmp_path)):
        assert main(["verify", scenario, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_a_malformed_tolerance_option_or_missing_scenario_is_a_usage_error(capsys):
    assert main(["verify", "hopf", "--tol", "x"]) == 2
    assert capsys.readouterr().err == "error: --tol expects name=value, got 'x'\n"
    assert main(["verify"]) == 2  # argparse's usage error
    assert "the following arguments are required: scenario" in capsys.readouterr().err


def test_a_main_theorem_run_builds_the_frames_of_a_default_run(monkeypatch):
    # one lift-frame table per run, whichever suites are asked for: the
    # main-theorem suite alone reads the table a default run builds
    built = []

    def recording(scen, points, fiber_params=()):
        built.append((points.tolist(), np.asarray(fiber_params).tolist()))
        return lift_frames(scen, points, fiber_params)

    monkeypatch.setattr(cli, "lift_frames", recording)
    for name in builtin_names():
        for seed in range(4):
            alone, _ = run(RunConfig(name, suites=("main-theorem",), seed=seed))
            default, _ = run(RunConfig(name, seed=seed))
            assert len(built) == 2 and built[0] == built[1], (name, seed)
            assert built[0][1] == default.meta["group_params"][:2]
            built.clear()
            assert [ch.name for ch in alone.children] == ["main-theorem"]
            assert alone.children[0].to_json() == default.children[3].to_json(), (name, seed)


def test_failing_checks_carry_identity_strings(hopf_report):
    report, _ = run(RunConfig("skewed_metric_hopf", suites=("structures",), samples=4, seed=0))
    compat = report.find("compatibility")
    assert compat.identity == "omega(u, J v) = g(u, v)"
    data = json.loads(report.to_json())
    names = {c["name"]: c["identity"] for c in data["children"][0]["checks"]}
    assert names["compatibility"] == "omega(u, J v) = g(u, v)"


def test_json_determinism_modulo_timestamp():
    cfg = dict(suites=("structures", "action"), samples=4, seed=9)
    first, _ = run(RunConfig("hopf", **cfg))
    second, _ = run(RunConfig("hopf", **cfg))
    a, b = first.to_dict(), second.to_dict()
    assert a["meta"].pop("timestamp") != ""
    assert b["meta"].pop("timestamp") != ""
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_suite_subset_and_order():
    report, code = run(RunConfig("hopf", suites=("holomorphy", "structures"), samples=4, seed=2))
    assert code == 0
    assert [child.name for child in report.children] == ["structures", "holomorphy"]


def _isometry_flips():
    """(tolerance, exit code) pairs just below and just above the isometry
    residual of noninvariant_metric_hopf's action suite at 4 samples, seed 3,
    which is the frame-by-frame reference's at the run's own ambient points
    and group parameters; its other action rows pass."""
    scen = builtin("noninvariant_metric_hopf")
    report, code = run(RunConfig(scen.name, suites=("action",), samples=4, seed=3))
    residual = max(reference_invariance_residuals(
        "pullback", scen.action, scen.metric, np.array(report.meta["group_params"]),
        np.array(report.meta["ambient_points"])))
    assert code == 1 and report.find("isometry").max_residual == residual
    return [(residual * (1.0 - 1e-6), 1), (residual * (1.0 + 1e-6), 0)]


def _assert_isometry_verdict(report, code, tol, want_code):
    check = report.find("isometry")
    assert (code, check.tolerance, check.passed) == (want_code, tol, want_code == 0)


def test_tolerance_override_flips_verdict():
    for tol, want_code in _isometry_flips():
        report, code = run(RunConfig("noninvariant_metric_hopf", suites=("action",), samples=4,
                                     seed=3, tolerances={"action.isometry": tol}))
        _assert_isometry_verdict(report, code, tol, want_code)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig("hopf", suites=())
    with pytest.raises(ValueError):
        RunConfig("hopf", suites=("nonsense",))
    with pytest.raises(ValueError):
        RunConfig("hopf", format="xml")
    with pytest.raises(ValueError, match="samples must be at least 1"):
        RunConfig("hopf", samples=0)


@pytest.mark.parametrize("scenario", [pathlib.Path("hopf.scn"), 0, None],
                         ids=["path", "file-descriptor", "none"])
def test_a_scenario_that_is_not_a_str_is_refused(scenario):
    # a Path once ran every suite and then failed to write its JSON; 0, an
    # open file descriptor, read the scenario from stdin; None raised from os.stat
    with pytest.raises(ValueError, match=r"^scenario must be a str naming a built-in or a "
                                         rf"file, got {re.escape(repr(scenario))}$"):
        RunConfig(scenario)


def test_main_verify_text_and_json(tmp_path, capsys):
    code = main(["verify", "hopf", "--suites", "structures", "--samples", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out

    out_file = tmp_path / "report.json"
    code = main(["verify", "hopf", "--suites", "structures", "--samples", "4",
                 "--seed", "1", "--format", "json", "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["passed"] is True
    assert data["meta"]["seed"] == 1


def test_main_exit_codes(tmp_path, capsys):
    assert main(["verify", "skewed_metric_hopf", "--suites", "structures",
                 "--samples", "4"]) == 1
    capsys.readouterr()

    bad = tmp_path / "broken.scn"
    bad.write_text("name = broken\ndim = 4\nomega = [[1,2],[3")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err

    assert main(["verify", "no_such_thing"]) == 2
    capsys.readouterr()

    assert main(["verify", "hopf", "--tol", "bogus=1"]) == 2
    capsys.readouterr()


def test_an_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "r.json"
    code = main(["verify", "hopf", "--samples", "2", "--suites", "structures",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out_file) in captured.err
    assert "Traceback" not in captured.err
    assert not out_file.exists()


def test_main_parse_check(tmp_path, capsys):
    good = tmp_path / "hopf.scn"
    good.write_text(builtin_text("hopf"))
    assert main(["parse-check", str(good)]) == 0
    assert "OK hopf" in capsys.readouterr().out

    bad = tmp_path / "bad.scn"
    bad.write_text("dim = [[")
    assert main(["parse-check", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "parse-check"])
def test_a_file_that_is_not_utf8_text_is_a_usage_error(command, tmp_path, capsys):
    # a file in UTF-16, which starts with the bytes ff fe, used to escape as
    # a UnicodeDecodeError traceback with exit 1, the code of a failed check
    path = tmp_path / "utf16.scn"
    path.write_bytes(builtin_text("hopf").encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text (invalid start byte)\n"


def test_main_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "hopf" in out and "linear_translation" in out


def test_scenario_file_tolerance_used(tmp_path):
    for tol, want_code in _isometry_flips():
        text = builtin_text("noninvariant_metric_hopf") + f"\ntol.action.isometry = {tol}\n"
        path = tmp_path / "tight.scn"
        path.write_text(text)
        report, code = run(RunConfig(str(path), suites=("action",), samples=4, seed=3))
        _assert_isometry_verdict(report, code, tol, want_code)


def test_default_tolerances_complete():
    prefixes = {"structures", "action", "reduction", "main-theorem", "holomorphy"}
    assert {k.split(".")[0] for k in DEFAULT_TOLERANCES} == prefixes


def test_every_tolerance_reaches_a_check(tmp_path, capsys):
    # a distinct value per name; each must come back as some row's tolerance
    values = {name: (i + 2) * 1e-7 for i, name in enumerate(sorted(DEFAULT_TOLERANCES))}
    report, _ = run(RunConfig("hopf", suites=cli.SUITE_ORDER, samples=3, seed=1,
                              tolerances=values))
    used = {c.tolerance for _, c in report.all_checks()}
    assert [name for name, value in values.items() if value not in used] == []
    # names of checks that no longer exist are unknown, on the command line
    # and in a scenario file
    assert main(["verify", "hopf", "--samples", "3",
                 "--tol", "reduction.orthogonality=1e-9"]) == 2
    assert "unknown tolerance 'reduction.orthogonality'" in capsys.readouterr().err
    path = tmp_path / "tangency.scn"
    path.write_text(builtin_text("hopf") + "\ntol.reduction.tangency = 1e-8\n")
    assert main(["verify", str(path), "--samples", "3"]) == 2
    assert "unknown tolerance 'reduction.tangency'" in capsys.readouterr().err


# the library function and parameter whose default tolerance judges each
# row of the table of checks that has a tolerance key, but for the
# holomorphy battery, which no library function judges
_CHECK_PARAMETERS = {
    "metric field": (check_metric, "tol"),
    "symplectic field": (check_symplectic_pointwise, "tol"),
    "closedness of omega": (check_closed, "tol"),
    "almost complex structure": (check_acs, "tol"),
    "compatibility": (check_compatibility, "tol"),
    "action axioms": (check_action_axioms, "tol"),
    "isometry": (check_isometry, "tol"),
    "symplectomorphism": (check_symplectomorphism, "tol"),
    "hamiltonian condition": (momentum_residual, "tol"),
    "momentum invariance": (check_momentum_invariance, "tol"),
    "endomorphism invariance": (check_field_invariance, "tol"),
    "fiber independence": (verify_submersion, "tol"),
    "vertical invariance": (verify_submersion, "vertical_tol"),
    "pullback identity": (verify_reduction_identity, "tol"),
    "vertical degeneracy": (verify_reduction_identity, "degeneracy_tol"),
    "almost complex mapping defect": (verify_main_theorem, "tol"),
    "reduced compatibility": (verify_main_theorem, "tol"),
    "reduced acs identity": (verify_main_theorem, "tol"),
    "ambient compatibility hypothesis": (verify_main_theorem, "hypothesis_tol"),
}


def test_every_judged_row_of_the_table_has_a_library_parameter():
    assert list(_CHECK_PARAMETERS) == [
        name for name, (_, key) in structures.CHECKS.items()
        if key is not None and not key.startswith("holomorphy.")]


@pytest.mark.parametrize("name", builtin_names())
def test_a_run_judges_each_check_by_its_library_default(name):
    report, _ = run(RunConfig(name, samples=3, seed=1))
    judged = set()
    for _, check in report.all_checks():
        if check.name not in _CHECK_PARAMETERS:  # the iff row, judged at 0.5
            assert structures.CHECKS[check.name][1] is None and check.tolerance == 0.5
            continue
        fn, param = _CHECK_PARAMETERS[check.name]
        default = inspect.signature(fn).parameters[param].default
        assert check.tolerance == default, check.name
        judged.add((fn.__name__, param))
    # every tolerance parameter of the library, each judging some check
    params = {(fn.__name__, p) for fn, _ in _CHECK_PARAMETERS.values()
              for p in inspect.signature(fn).parameters if p.endswith("tol")}
    assert judged == params and len(params) == 17


@pytest.mark.parametrize("value, reported", [("1e-3", 0.001), (1, 1.0)])
def test_a_configured_tolerance_is_read_as_a_float(value, reported):
    cfg = RunConfig("hopf", suites=("structures",), samples=3, seed=1,
                    tolerances={"structures.metric": value})
    tol = run(cfg)[0].find("metric field").tolerance
    assert tol == reported and type(tol) is float


def test_the_default_table_is_read_only():
    with pytest.raises(TypeError):
        DEFAULT_TOLERANCES["structures.metric"] = 1.0
    assert DEFAULT_TOLERANCES is structures.DEFAULT_TOLERANCES is scenarios.DEFAULT_TOLERANCES


def test_other_builtins_verify_clean():
    for name in ("linear_translation", "euclidean_r2n"):
        report, code = run(RunConfig(name, samples=4, seed=2))
        assert code == 0, f"{name}: {[c.name for _, c in report.all_checks() if not c.passed]}"


def test_console_script_entry_point():
    import shutil
    import subprocess
    import sys

    exe = shutil.which("symred")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "list-scenarios"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "hopf" in proc.stdout

    proc = subprocess.run(
        [exe, "verify", "hopf", "--suites", "structures", "--samples", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_runtime_imports_only_numpy():
    # sympy and hypothesis are installed for the tests; the package must not
    # pull them or anything else third-party in
    import os
    import subprocess
    import sys

    code = ("import sys; before = set(sys.modules); import symred, symred.cli; "
            "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(' '.join(sorted(added - set(sys.stdlib_module_names))))")
    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["numpy", "symred"]


def test_verify_imports_no_random_module_beyond_numpy():
    # a run draws from Python's random module, which numpy already imports;
    # numpy.random, and the secrets and hmac it pulls in, are numpy's to
    # import or not (numpy 1.24 imports numpy.random with numpy, 2.x lazily)
    import os
    import subprocess
    import sys

    code = ("import sys, numpy; before = set(sys.modules); from symred.cli import main; "
            "code = main(['verify', 'hopf', '--samples', '4']); "
            "added = set(sys.modules) - before; "
            "print(code, *sorted(m for m in added if m in ('secrets', 'hmac') "
            "or m.split('.')[:2] == ['numpy', 'random']), file=sys.stderr)")
    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert proc.stderr.split() == ["0"]


def test_module_entry_point_runs_under_a_runtime_warning_gate():
    # the package used to import symred.cli, so ``python -m symred.cli`` ran
    # a module already imported, and runpy warned before every command
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(symred.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "symred.cli", "list-scenarios"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stderr == ""
    assert "hopf" in proc.stdout.split()


_HOPF_MU = "mu = [0.5*(x1^2 + x2^2 + x3^2 + x4^2)]"


def _long_mu(tmp_path, terms):
    """hopf with ``terms`` terms ``+ 0*x1`` appended to mu, which makes mu
    6 + terms levels deep."""
    path = tmp_path / f"long_mu_{terms}.scn"
    path.write_text(builtin_text("hopf").replace(_HOPF_MU, _HOPF_MU[:-1] + " + 0*x1" * terms + "]"))
    return str(path)


@pytest.mark.parametrize("terms", [600, 1500])
@pytest.mark.parametrize("command", ["parse-check", "verify"])
def test_long_sums_are_parse_errors(command, terms, tmp_path, capsys):
    # the tree walks recurse once per level, and a sum is as deep as it is long
    assert main([command, _long_mu(tmp_path, terms)]) == 2
    assert f"nests too deeply ({terms + 6} levels, at most 200)" in capsys.readouterr().err


def test_longest_accepted_sum_verifies(tmp_path, capsys):
    assert main(["parse-check", _long_mu(tmp_path, 195)]) == 2
    path = _long_mu(tmp_path, 194)
    assert main(["parse-check", path]) == 0
    assert main(["verify", path, "--samples", "3"]) == 0
    capsys.readouterr()


def test_text_report_shows_worst_point_on_failure():
    report, _ = run(RunConfig("skewed_metric_hopf", suites=("structures",),
                              samples=4, seed=0))
    text = report.format_text()
    assert "FAIL" in text and "worst point" in text


def _refused_at_load(path, message, capsys):
    """parse-check and verify under every suite selection exit 2 with the
    load error, before any suite runs."""
    for suites in ("structures,reduction,main-theorem", "action", ",".join(cli.SUITE_ORDER)):
        assert main(["verify", str(path), "--suites", suites, "--samples", "3"]) == 2, suites
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", suites
    assert main(["parse-check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_nonabelian_scenario_is_a_usage_error(tmp_path, capsys):
    # the reduction suites once passed such a file on the abelian assumption
    # it denies; only the action suite refused it
    text = builtin_text("hopf").replace("abelian = true", "abelian = false")
    path = tmp_path / "nonabelian.scn"
    path.write_text(text)
    _refused_at_load(path, "abelian must be true, got 'false': only abelian actions are reduced",
                     capsys)


def test_misdeclared_quotient_dim_is_a_usage_error(tmp_path, capsys):
    text = builtin_text("hopf").replace("quotient_dim = 2", "quotient_dim = 3")
    path = tmp_path / "quotient3.scn"
    path.write_text(text)
    _refused_at_load(path, "quotient_dim = 3 but dim - 2*group_dim = 2", capsys)


@pytest.mark.parametrize("old, new, message", [
    ("dim = 4", "dim = exp(1000)", "value of 'dim' cannot be evaluated: exp overflows"),
    ("dim = 4", "dim = 1e308*10", "value of 'dim' is not finite: inf"),
    ("beta = [0.5]", "beta = [1e308*10]", "value of 'beta' is not finite: inf"),
    ("beta = [0.5]", "beta = [cos(1e308*10)]",
     "value of 'beta' cannot be evaluated: math domain error"),
], ids=["exp-overflow", "infinite-dim", "infinite-beta", "cosine-of-infinity"])
def test_failing_scenario_constants_are_usage_errors(old, new, message, tmp_path, capsys):
    # these once ended in a NonFiniteError, OverflowError or ValueError
    # traceback, or, for beta, passed parse-check and failed verify on
    # |mu - beta| = inf
    path = tmp_path / "constant.scn"
    path.write_text(builtin_text("hopf").replace(old, new))
    _refused_at_load(path, message, capsys)


def test_a_field_that_takes_the_sine_of_an_infinity_is_a_usage_error(tmp_path, capsys):
    # sin of an infinity raises ValueError, as the language's own math does;
    # verify once ended in its traceback with exit 1, the code of a failed check
    text = builtin_text("hopf")
    assert text.count("metric = [[1,") == 1
    path = tmp_path / "sine.scn"
    path.write_text(text.replace("metric = [[1,", "metric = [[1 + 0*sin(x1*1e308*10),"))
    assert main(["parse-check", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: math domain error\n")


def test_sample_points_of_a_point_quotient_are_refused(tmp_path, capsys):
    # a one-plane r2n reduces to a point: a one-coordinate sample point once
    # passed the load and crashed verify on a reshape
    path = tmp_path / "point_quotient.scn"
    path.write_text(builtin_text("euclidean_r2n", 1) + "\nsample.points = [[0.3]]\n")
    _refused_at_load(path, "sample points must have 0 coordinates, got 1", capsys)


@pytest.mark.parametrize("old, new, message", [
    ("sample.seed = 7", "sample.seed = -1", "sample.seed must be a non-negative integer, got -1"),
    ("sample.radius = 2", "sample.radius = 0", "sample.radius must be positive, got 0.0"),
    ("sample.radius = 2", "sample.radius = -1", "sample.radius must be positive, got -1.0"),
], ids=["negative-seed", "zero-radius", "negative-radius"])
def test_bad_sample_keys_are_usage_errors(old, new, message, tmp_path, capsys):
    # a negative seed once passed parse-check and ended verify in numpy's
    # ValueError traceback; a zero radius passed the reduction suite over
    # one quotient point sampled N times
    path = tmp_path / "sample.scn"
    path.write_text(builtin_text("hopf").replace(old, new))
    _refused_at_load(path, message, capsys)


def test_negative_command_line_seed_is_a_usage_error(capsys):
    assert main(["verify", "hopf", "--seed", "-1", "--samples", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be a non-negative integer, got -1\n"
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        RunConfig("hopf", seed=-1)


@pytest.mark.parametrize("field, value, message", [
    # a bool is an int to Python: seed=True once ran and wrote "seed": true
    ("seed", True, "seed must be an integer, got True"),
    ("samples", True, "samples must be an integer, got True"),
    # these once died inside numpy with a TypeError
    ("samples", 2.5, "samples must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    # a str is a sequence of letters: this was refused as the unknown suites
    # ['a', 'c', 'i', 'n', 'o', 't']
    ("suites", "action", "suites must be a sequence of suite names, got 'action'"),
    # these were read as 1.0, a tolerance 1e8 times the default
    ("tolerances", {"structures.metric": True},
     "tolerance 'structures.metric' must be a number, got True"),
    ("tolerances", {"structures.metric": np.True_},
     f"tolerance 'structures.metric' must be a number, got {np.True_!r}"),
], ids=["bool-seed", "bool-samples", "float-samples", "float-seed", "str-suites",
        "bool-tolerance", "numpy-bool-tolerance"])
def test_a_seed_or_sample_count_that_is_not_an_integer_is_refused(field, value, message):
    # and the other options of a library caller that no command line can give
    with pytest.raises(ValueError) as raised:
        RunConfig("hopf", **{field: value})
    assert str(raised.value) == message


def test_suites_named_by_a_one_shot_iterable_all_run():
    # the name check once used up a generator of suite names, so the run
    # made no check and passed with exit 0
    want = run(RunConfig("hopf", suites=("structures", "action"), samples=3))[0]
    got, code = run(RunConfig("hopf", suites=(s for s in ("structures", "action")), samples=3))
    assert code == 0 and got.meta["suites"] == ["structures", "action"]
    assert [c.name for _, c in got.all_checks()] == [c.name for _, c in want.all_checks()] != []


def test_numpy_integers_are_a_seed_and_a_sample_count():
    reports = [json.loads(run(RunConfig("hopf", suites=("structures",), samples=samples,
                                        seed=seed))[0].to_json())
               for samples, seed in ((np.int64(3), np.int64(2)), (3, 2))]
    for report in reports:
        report["meta"].pop("timestamp")
    assert reports[0] == reports[1]


def _recorded_draws(monkeypatch, cfg):
    """The run of ``cfg`` and its draws, in order: (sampler, dim, count) and
    the stream each read."""
    draws = []
    for name in ("sample_box", "sample_ball"):
        sampler = getattr(cli, name)

        def recorded(dim, count, radius=2.0, seed=0, _name=name, _sampler=sampler):
            draws.append(((_name, dim, count), seed))
            return _sampler(dim, count, radius, seed)

        monkeypatch.setattr(cli, name, recorded)
    report, code = run(cfg)
    monkeypatch.undo()
    return report, code, draws


def test_a_run_draws_everything_from_one_stream_in_a_fixed_order(monkeypatch, tmp_path):
    # ambient points, group parameters, quotient points, then the holomorphy
    # points only when asked for, so the default suites' draws and rows are
    # the same with and without the battery
    runs = [_recorded_draws(monkeypatch, RunConfig("hopf", suites=suites, seed=5, samples=6))
            for suites in (cli.DEFAULT_SUITES, cli.SUITE_ORDER)]
    order = [("sample_box", 4, 6), ("sample_box", 1, 5), ("sample_ball", 2, 6)]
    for (_, code, draws), want in zip(runs, (order, order + [("sample_box", 2, 6)])):
        assert code == 0 and [call for call, _ in draws] == want
        streams = {id(stream) for _, stream in draws}
        assert len(streams) == 1 and isinstance(draws[0][1], random.Random)
    (default, _, _), (full, _, _) = runs
    for key in ("ambient_points", "group_params", "quotient_points"):
        assert default.meta[key] == full.meta[key], key
    assert default.to_dict()["children"] == full.to_dict()["children"][:len(cli.DEFAULT_SUITES)]
    # a scenario's explicit quotient points stand, and no ball is drawn
    path = tmp_path / "points.scn"
    path.write_text(builtin_text("hopf") + "\nsample.points = [[0.1, 0.2], [0.3, -0.4]]\n")
    report, code, draws = _recorded_draws(monkeypatch, RunConfig(str(path)))
    assert code == 0 and [call for call, _ in draws] == [("sample_box", 4, 20), order[1]]
    assert report.meta["quotient_points"] == [[0.1, 0.2], [0.3, -0.4]]


def test_group_parameters_are_not_the_next_seeds_ambient_coordinates():
    # the parameters once came from seed + 1's stream, so they were the first
    # ambient coordinates of a run at seed + 1 times pi/2, bit for bit
    for seed in range(4):
        params = np.array(run(RunConfig("hopf", suites=("structures",), seed=seed,
                                        samples=4))[0].meta["group_params"])
        following = np.array(run(RunConfig("hopf", suites=("structures",), seed=seed + 1,
                                           samples=4))[0].meta["ambient_points"])
        assert not np.allclose(params.ravel(), following.ravel()[:5] * (np.pi / 2))


@pytest.mark.parametrize("old, new, message", [
    ("mu = [0.5*(x1^2", "mu = [0.5*(x9^2 + q7 + x1^2",
     "mu: unknown identifier(s) ['q7', 'x9']; allowed coordinates are ['x1', 'x2', 'x3', 'x4']"),
    ("flow = [x1*cos(t1)", "flow = [x1*cos(t2)",
     "flow: unknown identifier(s) ['t2']; allowed coordinates are ['t1', 'x1', 'x2', 'x3', 'x4']"),
    ("section = [1/sqrt(", "section = [1/sqrt(x1 + ",
     "section: unknown identifier(s) ['x1']; allowed coordinates are ['w1', 'w2']"),
    ("metric = [[1,", "metric = [[tan(x1) + sinh(x2) + cos(x3),",
     "metric: unknown function(s) ['sinh', 'tan']; "
     "available functions are ['cos', 'exp', 'sin', 'sqrt']"),
    ("beta = [0.5]", "beta = [x1]", "value of 'beta' must be constant"),
    ("beta = [0.5]", "beta = [tan(1)]",
     "beta: unknown function(s) ['tan']; available functions are ['cos', 'exp', 'sin', 'sqrt']"),
], ids=["identifiers", "group-parameter", "section", "functions", "constant",
        "constant-function"])
def test_unknown_names_are_usage_errors_with_their_context(old, new, message, tmp_path, capsys):
    text = builtin_text("hopf")
    assert text.count(old) == 1
    path = tmp_path / "names.scn"
    path.write_text(text.replace(old, new))
    _refused_at_load(path, message, capsys)


def test_explicit_sample_points_reach_report(tmp_path):
    text = builtin_text("hopf") + "\nsample.points = [[0, 0], [1, 0], [0, 1]]\n"
    path = tmp_path / "pinned.scn"
    path.write_text(text)
    report, code = run(RunConfig(str(path), suites=("reduction",)))
    assert code == 0
    assert report.meta["quotient_points"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


def test_json_is_strict_for_nonfinite_residuals(tmp_path, capsys, monkeypatch):
    # omega[0][1] = 1e308 + x1, a per-point field, overflows the closedness
    # differences to NaN (the compiled field's exact partials are finite)
    text = builtin_text("linear_translation").replace(
        "omega = [[0, 1, 0, 0]", "omega = [[0, 1e308 + x1, 0, 0]")
    path = tmp_path / "overflow.scn"
    path.write_text(text)
    resolve = cli.resolve_scenario
    monkeypatch.setattr(cli, "resolve_scenario", lambda ref: opaque_scenario(resolve(ref)))
    with pytest.warns(RuntimeWarning):
        code = main(["verify", str(path), "--suites", "structures", "--samples", "3",
                     "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1

    def refuse(constant):
        raise AssertionError(f"bare {constant} in the JSON report")

    data = json.loads(out, parse_constant=refuse)
    closed = next(c for c in data["children"][0]["checks"] if c["name"] == "closedness of omega")
    assert closed["max_residual"] == "NaN" and closed["passed"] is False


def test_sample_count_zero_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no_samples.scn"
    path.write_text(builtin_text("hopf").replace("sample.count = 20", "sample.count = 0"))
    assert main(["verify", str(path)]) == 2
    assert "sample.count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("door", ["--samples", "sample.count", "parse-check"])
def test_a_sample_count_above_the_bound_is_a_usage_error_at_bounded_cost(door, tmp_path, capsys):
    # a count of 10^12 would have sample_box draw a (10^12, 4) array; it is
    # refused before anything is drawn, naming the key and its value
    huge = 10**12
    path = tmp_path / "huge.scn"
    path.write_text(builtin_text("hopf").replace("sample.count = 20", f"sample.count = {huge}"))
    argv = {"--samples": ["verify", "hopf", "--samples", str(huge)],
            "sample.count": ["verify", str(path)],
            "parse-check": ["parse-check", str(path)]}[door]
    key = "samples" if door == "--samples" else "sample.count"
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10 * 2**20
    assert capsys.readouterr().err == \
        f"error: {key} must be at most {scenarios.MAX_SAMPLES}, got {huge}\n"
    # the bound itself is a count a run may ask for, above every count in use
    assert RunConfig("hopf", samples=scenarios.MAX_SAMPLES).samples == scenarios.MAX_SAMPLES > 320


def _standalone_reports(name, report):
    """The action checks and the reduction and main-theorem pipelines run
    through their public functions, each reading a table of its own, at the
    points and parameters of ``report``: the fibre parameters are the first
    two group parameters."""
    scen = builtin(name)
    meta = report.meta

    def tol(key):
        return scen.tolerances.get(key, DEFAULT_TOLERANCES[key])

    points = np.array(meta["ambient_points"])
    qpoints = np.array(meta["quotient_points"])
    params = [np.array(a) for a in meta["group_params"]]

    def moves():
        return pushforward_table(scen.action, params, points)

    action = [
        check_action_axioms(moves(), tol("action.axioms")),
        check_isometry(scen.metric, moves(), tol("action.isometry")),
        check_symplectomorphism(scen.omega, moves(), tol("action.symplectomorphism")),
        check_momentum_invariance(scen.mu, moves(), tol("action.mu-invariance")),
        check_field_invariance(scen.acs, moves(), tol("action.acs-invariance")),
    ]
    pipelines = [
        verify_submersion(lift_frames(scen, qpoints, params[:2]), tol("reduction.submersion")),
        verify_reduction_identity(lift_frames(scen, qpoints), tol("reduction.identity"),
                                  tol("reduction.degeneracy")),
        verify_main_theorem(lift_frames(scen, qpoints), tol("main-theorem.residuals"),
                            tol("main-theorem.hypothesis")),
    ]
    return action, pipelines


@pytest.mark.parametrize("name", ["hopf", "noninvariant_metric_hopf"])
def test_shared_frames_and_pushforwards_match_standalone_checks(name):
    report, _ = run(RunConfig(name, samples=3, seed=4))
    action, pipelines = _standalone_reports(name, report)
    suites = {child.name: child for child in report.children}
    for expected in action:
        got = next(c for c in suites["action"].checks if c.name == expected.name)
        assert check_to_dict(got) == check_to_dict(expected)
        assert got.max_residual == expected.max_residual
    got_pipelines = suites["reduction"].children + suites["main-theorem"].children
    assert [r.name for r in got_pipelines] == [r.name for r in pipelines]
    for got, expected in zip(got_pipelines, pipelines):
        assert got.to_dict() == expected.to_dict()
        for got_check, expected_check in zip(got.checks, expected.checks):
            assert got_check.max_residual == expected_check.max_residual
            assert got_check.passed == expected_check.passed


def test_verify_builds_each_frame_and_pushforward_once(monkeypatch):
    calls, points = Counter(), Counter()

    def count(module, attr, at):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            stack = args[at]
            points[attr] += len(stack) if isinstance(stack, np.ndarray) and stack.ndim == 2 else 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    count(symred.reduction, "split_tangent", 1)
    count(symred.reduction, "generator", 1)
    count(symred.reduction, "_derivative", 1)  # the frames' batches of the section and mu
    count(symred.actions, "_flow", 1)  # every flow batch, the frames' included
    samples = 2
    report, code = run(RunConfig("hopf", samples=samples, seed=1))
    assert code == 0
    fiber_params = report.find("fiber independence").extras["fiber_params"]
    group_params = report.meta["group_params"]
    # one base frame per quotient point for all pipelines, plus one moved
    # frame per fibre parameter, all split in one batch
    assert points["split_tangent"] == (1 + len(fiber_params)) * samples
    assert calls["split_tangent"] == 1
    # the vertical-invariance check reads the generators of those frames,
    # all k of them from one batch
    assert (calls["generator"], points["generator"]) == (1, points["split_tangent"])
    # in the frames, one batch of the section point and Jacobian per
    # quotient point and one of mu and d mu per frame (in split_tangent)
    frames = points["split_tangent"]
    assert calls["_derivative"] == 2
    assert points["_derivative"] == samples + frames
    # one batch of the moved point and flow Jacobian per (point, parameter)
    # for the axioms and the four invariance checks; the axioms' three
    # batches (the identity, each s after t and each s + t); the generators
    # of the momentum residual and those of the frames; and the frames' one
    # pushforward table, a moved point and flow Jacobian per moved frame,
    # chained through the section Jacobian
    P = len(group_params)
    assert calls["_flow"] == 1 + 3 + 2 + 1
    assert points["_flow"] == P * samples + (1 + 2 * P * P) * samples + samples + frames \
        + len(fiber_params) * samples


@pytest.mark.parametrize("samples", [20, 80])
def test_frame_batches_per_op_do_not_grow_with_samples(samples, monkeypatch):
    calls = Counter()
    split_tangent = symred.reduction.split_tangent

    def counted(*args, **kwargs):
        calls["split_tangent"] += 1
        return split_tangent(*args, **kwargs)

    monkeypatch.setattr(symred.reduction, "split_tangent", counted)
    report, code = run(RunConfig("hopf", samples=samples, seed=3))
    assert code == 0
    # the base and moved frames of every fibre parameter in one batch, at
    # any sample count, with or without the reduction suite
    assert calls["split_tangent"] == 1
    report, code = run(RunConfig("hopf", suites=("main-theorem",), samples=samples, seed=3))
    assert code == 0 and calls["split_tangent"] == 2


def test_action_suite_moves_all_points_in_one_flow_batch(monkeypatch):
    # the moved points of every (parameter, point) pair and their flow
    # Jacobians are one derivative batch, whatever the number of group
    # parameters: one tangent pass of a compiled flow, which gives the
    # moved points with the Jacobians, one batch of each point and its
    # stencil for a flow without exact derivatives
    hopf = builtin("hopf")
    flow = hopf.action.flow
    batches = []

    def rows(Z):
        batches.append(("rows", len(Z)))
        return flow.rows(Z)

    def tangents(Z, seeds):
        batches.append(("tangents", len(Z)))
        return flow.tangents(Z, seeds)

    X = np.random.default_rng(5).uniform(-1.5, 1.5, (20, 4))
    for count in (5, 9):
        params = np.random.default_rng(count).uniform(-np.pi, np.pi, (count, 1))
        stencil = (1 + 4 * 4) * count * 20  # the point, four offsets along each coordinate
        for counted, want in ((RowMap(rows, tangents), [("tangents", count * 20)]),
                              (RowMap(rows), [("rows", stencil)])):
            action = replaced(hopf.action, flow=counted)
            batches.clear()
            table = pushforward_table(action, params, X)
            assert table.D.shape == (count, 20, 4, 4) and table.moved.shape == (count, 20, 4)
            assert batches == want


# exit code and failing checks of every built-in at 20 samples, seed 4, but
# noninvariant_metric_hopf's "main theorem iff": that row is judged where
# the ambient compatibility hypothesis fails, so its verdict follows the
# sampled points, and it is checked against its definition instead
_VERDICTS_SEED_4 = {
    "hopf": (0, set()),
    "linear_translation": (0, set()),
    "euclidean_r2n": (0, set()),
    "skewed_metric_hopf": (1, {
        "compatibility", "almost complex mapping defect", "reduced compatibility",
        "reduced acs identity", "ambient compatibility hypothesis"}),
    "noninvariant_metric_hopf": (1, {
        "compatibility", "isometry", "fiber independence", "almost complex mapping defect",
        "reduced compatibility", "ambient compatibility hypothesis"}),
}


def _failing(report):
    return {check.name for _, check in report.all_checks() if not check.passed}


@pytest.mark.parametrize("name", sorted(_VERDICTS_SEED_4))
def test_builtin_verdicts_at_seed_4(name):
    # under the former cube-rejection sampler, seed 4 drew quotient points
    # where the horizontal space of hopf's geometry was miscounted as
    # 3-dimensional; the verdicts stay pinned at the seed
    report, code = run(RunConfig(name, samples=20, seed=4))
    failing = _failing(report)
    if name == "noninvariant_metric_hopf":
        iff = report.find("main theorem iff")
        assert iff.extras["hypothesis_violated"]
        main_theorem = report.children[-1].children[0]
        tol = report.find("reduced compatibility").tolerance
        defects = [np.array(main_theorem.meta["samples"][key]) <= tol
                   for key in ("acm_residual", "compat_residual")]
        assert iff.passed == bool((defects[0] == defects[1]).all())
        failing.discard("main theorem iff")
    assert (code, failing) == _VERDICTS_SEED_4[name]
    # the fibre parameters are the first two group parameters of the run
    assert report.find("fiber independence").extras["fiber_params"] \
        == report.meta["group_params"][:2]


def test_hopf_80_samples_seed_0_passes():
    report, code = run(RunConfig("hopf", samples=80, seed=0))
    assert code == 0, report.format_text()


def test_euclidean_r2n_8_planes_seed_44_passes(tmp_path):
    path = tmp_path / "euclidean_r2n_8.scen"
    path.write_text(builtin_text("euclidean_r2n", 8))
    report, code = run(RunConfig(str(path), samples=20, seed=44))
    assert code == 0, report.format_text()


def _torus_text(planes_per_circle):
    """A scenario in which circle i rotates its own block of coordinate
    planes clockwise, as hopf does, at the level |z|^2 / 2 = 1/2, with
    hopf's normalized graph section over that block's quotient chart."""
    dim, k = 2 * sum(planes_per_circle), len(planes_per_circle)

    def matrix(entry):
        return "[" + ", ".join(
            "[" + ", ".join(entry(r, c) for c in range(dim)) + "]" for r in range(dim)) + "]"

    plane_form = {(0, 1): "1", (1, 0): "-1"}
    flow, mu, section = [], [], []
    x = w = 0
    for i, planes in enumerate(planes_per_circle):
        t = f"t{i + 1}"
        for a, b in ((f"x{x + 2 * j + 1}", f"x{x + 2 * j + 2}") for j in range(planes)):
            flow += [f"{a}*cos({t}) + {b}*sin({t})", f"{b}*cos({t}) - {a}*sin({t})"]
        mu.append("0.5*(" + " + ".join(f"x{x + j + 1}^2" for j in range(2 * planes)) + ")")
        x += 2 * planes
        ws = [f"w{w + j + 1}" for j in range(2 * planes - 2)]
        w += len(ws)
        denom = "sqrt(1 + " + " + ".join(f"{v}^2" for v in ws) + ")"
        section += [f"1/{denom}", "0"] + [f"{v}/{denom}" for v in ws] if ws else ["1", "0"]
    return "\n".join([
        "name = torus", f"dim = {dim}", f"group_dim = {k}", f"quotient_dim = {dim - 2 * k}",
        "omega = " + matrix(lambda r, c: plane_form.get((r % 2, c % 2), "0")
                            if r // 2 == c // 2 else "0"),
        "metric = " + matrix(lambda r, c: "1" if r == c else "0"),
        "acs = " + matrix(lambda r, c: plane_form.get((c % 2, r % 2), "0")
                          if r // 2 == c // 2 else "0"),
        f"flow = [{', '.join(flow)}]", f"mu = [{', '.join(mu)}]",
        f"beta = [{', '.join(['0.5'] * k)}]", f"section = [{', '.join(section)}]", ""])


def test_two_torus_scenario_verifies(tmp_path, capsys):
    # T^2 acting on C^2 x C^2, one Hopf circle per factor: the quotient is
    # CP^1 x CP^1 with the product of two round-sphere metrics
    path = tmp_path / "hopf_pair.scn"
    path.write_text(_torus_text((2, 2)))
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--samples", "5", "--format", "json",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    submersion = next(child for suite in data["children"] for child in suite["children"]
                      if child["name"] == "submersion")
    assert submersion["checks"][0]["name"] == "fiber independence"
    assert submersion["checks"][0]["extras"]["fiber_params"] == data["meta"]["group_params"][:2]
    scen = load_scenario_file(path)
    assert (scen.chart_dim, scen.action.group_dim, scen.quotient_dim) == (8, 2, 4)
    for w in sample_ball(4, 5, 2.0, 3):
        want = np.zeros((4, 4))
        want[:2, :2] = round_sphere_metric(w[:2])
        want[2:, 2:] = round_sphere_metric(w[2:])
        np.testing.assert_allclose(reduced_structures(scen, one(w)).h_beta[0], want, atol=1e-6)


def test_six_torus_scenario_loads_and_verifies(tmp_path, capsys):
    # loading builds nothing per group element, so a 6-torus costs what a
    # circle does
    path = tmp_path / "six_circles.scn"
    path.write_text(_torus_text((1,) * 6))
    assert main(["verify", str(path), "--samples", "2"]) == 0


# the checks whose residuals read no derivative of a scenario map
_VALUE_CHECKS = {"metric field", "symplectic field", "almost complex structure",
                 "compatibility", "action axioms", "momentum invariance"}


def _assert_same_up_to_derivatives(compiled, per_point):
    """The two reports have the same verdicts and tolerances; a check that
    reads no derivative has the same bits, and one that does the same
    residual up to the stencil's error (1e-8), at the same worst point
    where the residual is more than that error."""
    assert compiled.name == per_point.name and compiled.meta.keys() == per_point.meta.keys()
    for key in compiled.meta.keys() - {"timestamp"}:
        got, want = compiled.meta[key], per_point.meta[key]
        if key == "samples" and isinstance(got, dict):  # the main theorem's residual columns
            assert got.keys() == want.keys()
            for name in got:
                for got_entry, want_entry in zip(got[name], want[name], strict=True):
                    assert abs(got_entry - want_entry) <= 1e-8, name
        else:
            assert got == want, key
    assert [c.name for c in compiled.checks] == [c.name for c in per_point.checks]
    for got, want in zip(compiled.checks, per_point.checks):
        if got.name in _VALUE_CHECKS or got.name.startswith(("holomorphy", "conjugation",
                                                             "cauchy-riemann")):
            assert check_to_dict(got) == check_to_dict(want)
            continue
        assert (got.passed, got.tolerance, got.extras) == (want.passed, want.tolerance,
                                                          want.extras), got.name
        assert abs(got.max_residual - want.max_residual) <= 1e-8, got.name
        if want.max_residual > 1e-8:
            assert np.array(got.worst_point).tobytes() == np.array(want.worst_point).tobytes()
    assert len(compiled.children) == len(per_point.children)
    for got, want in zip(compiled.children, per_point.children):
        _assert_same_up_to_derivatives(got, want)


@pytest.mark.parametrize("name", sorted(set(symred.builtin_names()) | {"r2n_8_planes"}))
def test_compiled_maps_report_like_per_point_maps(name, tmp_path, monkeypatch):
    # the row evaluators and the per-point path give the same report, but
    # for the derivatives: exact on compiled maps, the stencil on per-point
    # ones
    if name == "r2n_8_planes":
        path = tmp_path / "euclidean_r2n_8.scen"
        path.write_text(builtin_text("euclidean_r2n", 8))
        name = str(path)
    cfg = RunConfig(name, samples=20, seed=3)
    compiled, code = run(cfg)
    resolve = cli.resolve_scenario
    monkeypatch.setattr(cli, "resolve_scenario", lambda ref: opaque_scenario(resolve(ref)))
    per_point, per_point_code = run(cfg)
    assert code == per_point_code
    _assert_same_up_to_derivatives(compiled, per_point)


@pytest.mark.parametrize("line, message", [
    ("tol.reduction.submersoin = 1", "unknown tolerance 'reduction.submersoin'"),
    ("tol.structures.metric = -1", "'structures.metric' must be positive and finite"),
    ("tol.structures.metric = 0", "'structures.metric' must be positive and finite"),
])
def test_scenario_tolerances_are_validated(line, message, tmp_path, capsys):
    text = builtin_text("hopf") + "\n" + line + "\n"
    with pytest.raises(ValidationError, match=message):
        parse_scenario(text)
    path = tmp_path / "tol.scn"
    path.write_text(text)
    assert main(["verify", str(path), "--samples", "2"]) == 2
    assert message in capsys.readouterr().err
    assert main(["parse-check", str(path)]) == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1e-8"])
def test_command_line_tolerances_are_validated(value, capsys):
    # an infinite compatibility tolerance once passed a residual of 3.0
    assert main(["verify", "skewed_metric_hopf", "--suites", "structures", "--samples", "2",
                 "--tol", f"structures.compatibility={value}"]) == 2
    assert "'structures.compatibility' must be positive and finite" in capsys.readouterr().err
    with pytest.raises(ValueError, match="must be positive and finite"):
        RunConfig("hopf", tolerances={"structures.compatibility": float(value)})
    with pytest.raises(ValueError, match="unknown tolerance"):
        RunConfig("hopf", tolerances={"structures.compatibilty": 1e-8})


def _count_per_point_rows(monkeypatch):
    """Counts the batches a per-point callable reads (``"batches"``) and
    their rows (``"points"``): each batch is copied once, read-only."""
    built = Counter()
    read_only_rows = symred.geometry._read_only_rows

    def counted(X):
        built["batches"] += 1
        built["points"] += len(X)
        return read_only_rows(X)

    monkeypatch.setattr(symred.geometry, "_read_only_rows", counted)
    return built


def test_hopf_op_builds_few_chart_points(monkeypatch):
    # sample points are arrays, every map (the holomorphy reference maps
    # among them) is compiled and evaluated on row batches, and frames,
    # pushforwards, every check and the holomorphy residuals work on
    # stacks: no point is handed to a per-point callable, at any sample
    # count, in a default run (20 rows) and in one of every suite (25), and
    # the worst point of each check is a tuple of floats
    built = _count_per_point_rows(monkeypatch)
    for suites, rows in ((cli.DEFAULT_SUITES, 20), (cli.SUITE_ORDER, 25)):
        for samples in (20, 80):
            built.clear()
            report, code = run(RunConfig("hopf", suites=suites, samples=samples, seed=51))
            assert code == 0
            assert built["points"] == 0 and len(list(report.all_checks())) == rows
            for _, check in report.all_checks():
                worst = check.worst_point
                assert worst is None or {*map(type, worst)} == {float}


@pytest.mark.parametrize("samples", [20, 80])
def test_holomorphy_suite_takes_two_jacobians_per_reference_map(samples, monkeypatch):
    # each residual is one stacked Jacobian over all samples, whatever their
    # count; the patched name is the holomorphy module's, so only the
    # holomorphy suite's calls are counted
    calls = Counter()
    fd_jacobian = symred.holomorphy.fd_jacobian

    def counted(*args, **kwargs):
        calls["fd_jacobian"] += 1
        return fd_jacobian(*args, **kwargs)

    monkeypatch.setattr(symred.holomorphy, "fd_jacobian", counted)
    report, code = run(RunConfig("hopf", suites=("holomorphy",), samples=samples, seed=51))
    assert code == 0
    assert calls["fd_jacobian"] == 2 * len(cli._reference_maps()) == 8


@pytest.mark.parametrize("name", [*builtin_names(), "r2n_8_planes"])
def test_verify_of_compiled_maps_takes_no_stencil(name, tmp_path, monkeypatch):
    # every map of a built-in, of a scenario file and of the holomorphy
    # suite is compiled, so each derivative of an op is exact
    if name == "r2n_8_planes":
        path = tmp_path / "euclidean_r2n_8.scen"
        path.write_text(builtin_text("euclidean_r2n", 8))
        name = str(path)
    calls = Counter()
    stencil_rows = symred.geometry._stencil_rows

    def counted(*args, **kwargs):
        calls["stencil"] += 1
        return stencil_rows(*args, **kwargs)

    monkeypatch.setattr(symred.geometry, "_stencil_rows", counted)
    run(RunConfig(name, suites=cli.SUITE_ORDER, samples=20, seed=3))
    assert calls["stencil"] == 0


def test_per_point_maps_get_a_chart_point_of_each_row(monkeypatch):
    # a user's per-point callable is called once per row, in row order, with
    # that row as a read-only 1-D float array, from one copy of the batch,
    # so the caller's array is not the one it reads
    hopf = builtin("hopf")
    seen = []
    field = TensorField.matrix(lambda p: seen.append(p) or np.eye(4), 4)
    rotation = planar_rotation_action()
    flow = GroupAction(1, lambda a, p: seen.append(p) or apply_flow(rotation, a, one(p))[0])
    scen = replaced(
        hopf, section=lambda x: seen.append(x) or hopf.section.rows(one(x))[0])
    point, plane = one([0.3, -0.2, 0.5, 0.1]), one([0.3, -0.2])
    X = np.array([[0.3, -0.2, 0.5, 0.1], [1.0, 0.0, -0.4, 0.2], [0.0, 0.7, 0.1, -0.3]])
    built = _count_per_point_rows(monkeypatch)

    def rows_seen(call, *args):
        seen.clear()
        built.clear()
        out = call(*args)
        assert all(p.ndim == 1 and not p.flags.writeable for p in seen)
        assert built["batches"] == 1
        return out, [p.tobytes() for p in seen]

    assert rows_seen(eval_field, field, point)[1] == [point[0].tobytes()]
    assert built["points"] == 1
    assert rows_seen(eval_field, field, X)[1] == [x.tobytes() for x in X]
    assert built["points"] == len(X)
    assert not any(np.shares_memory(p, X) for p in seen)
    moved, coords = rows_seen(apply_flow, flow, [0.4], plane)
    assert coords == [plane[0].tobytes()]
    assert moved.tobytes() == apply_flow(rotation, [0.4], plane).tobytes()
    moved, coords = rows_seen(scen.section.rows, plane)
    assert coords == [plane[0].tobytes()]
    assert moved.tobytes() == hopf.section.rows(plane).tobytes()


def test_per_point_acs_costs_one_chart_point_per_stacked_frame(tmp_path, monkeypatch):
    # a user's per-point acs is called once per row of every stacked
    # evaluation of it: at the section points of the frames (one base and
    # one per fibre parameter per sample), and at the ambient points in
    # check_acs, check_compatibility and the acs invariance check (once at
    # the points and once per group parameter at the moved points)
    hopf = builtin("hopf")
    per_point = replaced(
        hopf, acs=TensorField.matrix(lambda p: eval_field(hopf.acs, one(p))[0], 4,
                                     name="per-point acs"))
    resolve = cli.resolve_scenario
    monkeypatch.setattr(cli, "resolve_scenario",
                        lambda ref: per_point if ref == "per-point acs" else resolve(ref))
    # hopf without its acs line gets build_compatible_triple's stacked fields
    path = tmp_path / "hopf_no_acs.scn"
    path.write_text("\n".join(line for line in builtin_text("hopf").splitlines()
                               if not line.startswith("acs")))
    built = _count_per_point_rows(monkeypatch)
    for samples in (20, 80):
        counts = {}
        for name in ("per-point acs", str(path), "hopf"):
            built.clear()
            report, code = run(RunConfig(name, samples=samples, seed=3))
            assert code == 0
            counts[name] = built["points"]
        fiber_params = report.find("fiber independence").extras["fiber_params"]
        group_params = report.meta["group_params"]
        frames = (1 + len(fiber_params)) * samples
        ambient = (2 + 1 + len(group_params)) * samples
        assert counts["per-point acs"] - counts["hopf"] == frames + ambient
        # compiled and built fields read no point alone
        assert counts[str(path)] == counts["hopf"] == 0


def test_points_print_on_one_line(tmp_path, capsys):
    # numpy's 75-column default once split the 8 coordinates of a torus
    # point in an error, and any point of more than about six in a report
    from report_sweep import write_scenarios

    *_, failing = write_scenarios(str(tmp_path))
    torus = next(path for path in failing if path.endswith("torus_degenerate.scen"))
    assert main(["verify", torus, "--suites", "reduction"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(
        "error: vertical space degenerates to dimension below 2 at ")
    assert len(err[err.index("point ["):err.index("]")].split(",")) == 8
    wide = np.linspace(-1.0, 1.0, 16) + 1e-3
    assert "\n" not in _point_text(wide) and len(_point_text(wide).split(",")) == 16
    failing_check = structures.StructureCheckResult("wide", 1.0, 1e-8, tuple(wide))
    text = VerificationReport("r", checks=[failing_check]).format_text()
    worst = [line for line in text.splitlines() if "worst point:" in line]
    assert len(worst) == 1 and len(worst[0].split(":")[1].strip(" []").split()) == 16
    # four coordinates print as they always did
    four = (-1.2345678912345, 0.5, 3.0e-5, 2.0)
    assert _point_text(four) == ("point [-1.23456789e+00,  5.00000000e-01,  "
                                 "3.00000000e-05,  2.00000000e+00]")
    assert _point_text([0.1, -0.7, 0.4, 0.5]) == "point [ 0.1, -0.7,  0.4,  0.5]"
    text = VerificationReport("r", checks=[
        structures.StructureCheckResult("four", 1.0, 1e-8, four)]).format_text()
    assert "    worst point: [-1.234568e+00  5.000000e-01  3.000000e-05  2.000000e+00]\n" in text
