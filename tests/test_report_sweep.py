"""The report sweep (tests/report_sweep.py) judges verdicts on the rows both
reports have: a suite left out of a run removes its rows, it changes no
verdict, and a row that flips is still a changed verdict."""

import contextlib
import io
import json

from symred.cli import SUITE_ORDER, main

from report_sweep import changed_values, print_changes, report_rows, verdict_changed

BATTERY = ["holomorphy: holomorphy of square map", "holomorphy: holomorphy of exponential map",
           "holomorphy: holomorphy of reciprocal map at offset 2",
           "holomorphy: conjugation defect equals 2*sqrt(2)",
           "holomorphy: cauchy-riemann/holomorphy equivalence"]


def _verify(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv])
    return {"code": code, "stdout": out.getvalue(), "stderr": ""}


def _both_formats(*argv):
    return {fmt: ([*argv, "--format", fmt], _verify([*argv, "--format", fmt]))
            for fmt in ("text", "json")}


def test_a_text_and_a_json_report_have_the_same_rows():
    runs = _both_formats("noninvariant_metric_hopf", "--samples", "3", "--seed", "7",
                         "--suites", ",".join(SUITE_ORDER))
    text, data = (report_rows(argv, result["stdout"]) for argv, result in
                  (runs["text"], runs["json"]))
    assert text.pop("overall") is False
    assert text == data
    assert len(text) == 25 and not text["action: isometry"]
    assert text["reduction/submersion: fiber independence"] is False
    assert text["main-theorem/main theorem: reduced compatibility"] is False
    assert [key for key in text if key.startswith("holomorphy: ")] == BATTERY


def test_removed_rows_change_no_verdict_and_a_flipped_row_does():
    every = _both_formats("hopf", "--samples", "3", "--suites", ",".join(SUITE_ORDER))
    default = _both_formats("hopf", "--samples", "3")
    for fmt in ("text", "json"):
        (argv, old), (_, new) = every[fmt], default[fmt]
        before, after = report_rows(argv, old["stdout"]), report_rows(argv, new["stdout"])
        assert [key for key in before if key not in after] == BATTERY
        assert [key for key in after if key not in before] == []
        assert not verdict_changed(argv, old, new)
        # one shared row flipped
        if fmt == "text":
            flipped = new["stdout"].replace("  PASS   [J^2 = -I]", "  FAIL   [J^2 = -I]")
        else:
            report = json.loads(new["stdout"])
            report["children"][0]["checks"][3]["passed"] = False
            flipped = json.dumps(report)
        assert flipped != new["stdout"]
        assert verdict_changed(argv, old, {**new, "stdout": flipped})
        assert verdict_changed(argv, old, {**new, "code": 1})


def test_named_entries_are_compared_by_the_names_both_lists_have():
    old = [{"name": "a", "passed": True}, {"name": "b", "passed": True}]
    new = [{"name": "b", "passed": False}]
    assert list(changed_values(old, new)) == [("[b].passed", True, False)]
    assert list(changed_values([1, 2], [1, 3])) == [("[1]", 2, 3)]
    assert list(changed_values([1, 2], [1])) == [("", [1, 2], [1])]


def test_a_value_that_changed_container_type_is_printed_by_its_size():
    rows = [{"acm_residual": 0.5, "normal_leak": 0.0}] * 80
    columns = {"acm_residual": [0.5] * 80, "normal_leak": [0.0] * 80}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print_changes(json.dumps({"meta": {"samples": rows, "seed": 1}}),
                      json.dumps({"meta": {"samples": columns, "seed": 2}}), set())
    assert out.getvalue().splitlines() == [
        "    .meta.samples: list of 80 -> object of 2 keys",
        "    .meta.seed: 1 -> 2",
        "    largest |delta| 1.000e+00 at .meta.seed"]
