"""The benchmark's per-layer tracer (perfbench/tracing.py) rebinds symred
functions by name; every name it looks up must exist, and installing it
must count calls, so a refactor cannot silently zero a per-layer metric."""

import importlib.util
from pathlib import Path

import symred
from symred import cli

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("symred_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def test_every_traced_name_resolves():
    for key, home, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(getattr(symred, home), attr, None)), key
    for suite, attr in tracing.SUITES:
        assert callable(getattr(cli, attr, None)), suite
    for attr in ("sample_box", "sample_ball"):
        assert callable(getattr(cli, attr, None)), attr
    for key, attr in tracing.RENDERERS:
        assert callable(getattr(symred.report.VerificationReport, attr, None)), key


def test_tracer_counts_layers_and_restores():
    originals = {attr: getattr(cli, attr) for attr in ("sample_box", "sample_ball")}
    split_tangent = symred.reduction.split_tangent
    tracer = tracing.Tracer().install()
    try:
        report, code = cli.run(cli.RunConfig("hopf", suites=cli.SUITE_ORDER, seed=1, samples=2))
    finally:
        tracer.restore()
    assert code == 0, report.format_text()
    assert tracer.calls["reduction.split_tangent"] > 0
    assert tracer.calls["cli.sampling"] > 0
    # every layer a run of every suite passes through is seen, each suite
    # included
    keys = [key for key, _, _, _ in tracing.FUNCTIONS]
    keys += [f"cli.suite.{suite}" for suite, _ in tracing.SUITES]
    missed = [key for key in keys if tracer.calls[key] == 0]
    assert missed == []
    assert symred.reduction.split_tangent is split_tangent
    for attr, original in originals.items():
        assert getattr(cli, attr) is original


def test_a_default_run_leaves_the_holomorphy_layers_alone():
    # the holomorphy battery is verify's only caller of these, and a default
    # run leaves it out
    tracer = tracing.Tracer().install()
    try:
        report, code = cli.run(cli.RunConfig("hopf", seed=1, samples=2))
    finally:
        tracer.restore()
    assert code == 0, report.format_text()
    keys = ("holomorphy.almost_complex_residual", "holomorphy.cauchy_riemann_residual",
            "geometry.fd_jacobian", "cli.suite.holomorphy")
    assert {key: tracer.calls[key] for key in keys} == dict.fromkeys(keys, 0)
    assert tracer.calls["cli.suite.main-theorem"] == 1
