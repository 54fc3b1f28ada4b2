"""The benchmark's verdict gate (``verdict`` in perfbench/run.py) holds for
every op of every workload at the workload's own scenarios, sample count
and format, seeds 0-9: the gate reads the main theorem's ``branch`` and
``hypothesis_violated`` extras, and perfbench/selftest.py checks it at
small sizes only."""

import importlib.util
import sys
from pathlib import Path

import pytest

import symred
from symred import cli

RUN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("symred_bench_run", RUN_PATH)
    module = importlib.util.module_from_spec(spec)
    path = sys.path[:]  # run.py puts its own directory first, to import its helpers
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


bench = load_run()


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_op_of_a_workload_gets_its_expected_verdict(tmp_path, name):
    workload = bench.WORKLOADS[name]
    refs = []
    for scenario in workload.scenarios or symred.builtin_names():
        if scenario == "euclidean_r2n" and workload.r2n_planes:
            # as scenario_refs writes it, but not into the benchmark's directory
            path = tmp_path / f"euclidean_r2n_{workload.r2n_planes}.scen"
            path.write_text(symred.builtin_text(scenario, workload.r2n_planes), encoding="utf-8")
            scenario = str(path)
        refs.append(scenario)
    for seed in range(10):
        for ref in refs:
            report, code = cli.run(cli.RunConfig(ref, seed=seed, samples=workload.samples,
                                                 format=workload.fmt))
            ok, failing = bench.verdict(report, code)
            assert ok, (ref, seed, code, failing)
