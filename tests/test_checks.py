"""The table of checks, ``structures.CHECKS``: every row a run emits is an
entry of it, in table order, with the entry's identity and judged by the
run's value of the entry's tolerance key (0.5 for an indicator row); every
entry is emitted by some run, every tolerance judges a row, and README's
"Checks" table is the table."""

from pathlib import Path

import pytest

import util
from report_sweep import FIXTURES
from symred.cli import DEFAULT_SUITES, SUITE_ORDER, RunConfig, run
from symred.scenarios import builtin_names
from symred.structures import CHECKS, DEFAULT_TOLERANCES

README = Path(__file__).resolve().parent.parent / "README.md"

# a distinct value per tolerance, so each row's tolerance names its key
TOLERANCES = {key: DEFAULT_TOLERANCES[key] * (1 + i / 64)
              for i, key in enumerate(sorted(DEFAULT_TOLERANCES))}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every built-in under all five suites and every FIXTURES witness of
    the report sweep under the default suites, by scenario."""
    configs = [RunConfig(name, SUITE_ORDER, 1, 3, TOLERANCES) for name in builtin_names()]
    tmp = tmp_path_factory.mktemp("witnesses")
    for stem, text in FIXTURES.items():
        path = tmp / f"{stem}.scen"
        path.write_text(getattr(util, text))
        configs.append(RunConfig(str(path), DEFAULT_SUITES, 1, 3, TOLERANCES))
    return {cfg.scenario: run(cfg)[0] for cfg in configs}


def test_every_row_of_a_run_is_an_entry_of_the_table_in_its_order(reports):
    order = list(CHECKS)
    for scenario, report in reports.items():
        names = [check.name for _, check in report.all_checks()]
        assert set(names) <= set(CHECKS), scenario
        assert names == sorted(names, key=order.index), scenario
        for _, check in report.all_checks():
            identity, key = CHECKS[check.name]
            assert check.identity == identity, check.name
            assert check.tolerance == (0.5 if key is None else TOLERANCES[key]), check.name
    # a run of every suite emits every row, in table order
    assert [check.name for _, check in reports["hopf"].all_checks()] == order


def test_every_entry_is_emitted_and_every_tolerance_judges_a_row(reports):
    emitted = {check.name for report in reports.values() for _, check in report.all_checks()}
    assert emitted == set(CHECKS)
    keys = [key for _, key in CHECKS.values()]
    assert set(keys) - {None} == set(DEFAULT_TOLERANCES)
    assert [name for name, (_, key) in CHECKS.items() if key is None] == [
        "main theorem iff", "cauchy-riemann/holomorphy equivalence"]


def _readme_checks():
    """The rows of README's "Checks" table below its header, each a tuple
    of its cells with the backticks of code cells taken off."""
    lines = README.read_text(encoding="utf-8").split("\n## Checks\n", 1)[1].splitlines()
    table = [line for line in lines[:next(i for i, line in enumerate(lines)
                                          if line.startswith("## "))]
             if line.startswith("| ")]
    assert table[:2] == ["| row | suite | identity | tolerance key or 0.5 |",
                         "| --- | --- | --- | --- |"]
    return [tuple(cell.strip().strip("`") for cell in line.strip("|").split(" | "))
            for line in table[2:]]


def test_the_readme_lists_the_table(reports):
    suite = {check.name: path.split("/")[1] for path, check in reports["hopf"].all_checks()}
    assert _readme_checks() == [
        (name, suite[name], identity, "0.5" if key is None else key)
        for name, (identity, key) in CHECKS.items()]
