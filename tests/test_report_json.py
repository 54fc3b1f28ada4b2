"""VerificationReport.to_json against its oracle, json.dumps(report.to_dict(),
indent=2, sort_keys=True, allow_nan=False): the same text, or the same
error, on verify reports and on a synthetic report of every awkward value
(test_report_json_property.py adds random trees)."""

import json
import math

import numpy as np
import pytest
from symred.cli import RunConfig, run
from symred.geometry import ChartPoint
from symred.report import VerificationReport
from symred.scenarios import builtin_names, builtin_text
from symred.structures import StructureCheckResult


def oracle(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def outcome(write, report):
    """The text written, or the type and message of the error raised."""
    try:
        return write(report)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(report: VerificationReport) -> None:
    assert outcome(VerificationReport.to_json, report) == outcome(oracle, report)


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("seed", range(4))
def test_builtin_reports_match_the_oracle(name, seed):
    report, _ = run(RunConfig(name, samples=20, seed=seed, format="json"))
    assert_matches_oracle(report)


def test_dense_and_file_reports_match_the_oracle(tmp_path):
    r2n = tmp_path / "euclidean_r2n_8.scn"
    r2n.write_text(builtin_text("euclidean_r2n", 8))
    double_speed = tmp_path / "double_speed.scn"
    hopf = builtin_text("hopf")  # with the second plane turned at double speed
    double_speed.write_text(
        hopf[:hopf.index("flow = ")]
        + "flow = [x1*cos(t1) + x2*sin(t1), x2*cos(t1) - x1*sin(t1), "
          "x3*cos(2*t1) + x4*sin(2*t1), x4*cos(2*t1) - x3*sin(2*t1)]\n"
        + hopf[hopf.index("mu = "):])
    for cfg in (RunConfig("hopf", samples=80, seed=0), RunConfig(str(r2n), samples=20, seed=5),
                RunConfig(str(double_speed), samples=20, seed=0)):
        report, _ = run(cfg)
        assert_matches_oracle(report)
    assert not report.passed  # the double-speed witness fails checks


def _tamper(node: dict, name: str) -> bool:
    """Mark the check ``name`` and every node above it passed, in place;
    whether the check is in ``node``."""
    found = any(c["name"] == name for c in node["checks"]) or \
        any([_tamper(child, name) for child in node["children"]])
    if found:
        node["passed"] = True
        for c in node["checks"]:
            c["passed"] = c["passed"] or c["name"] == name
    return found


def test_a_tampered_pass_is_judged_again_on_reading():
    # a pullback identity residual of 2.7e-15 fails a tolerance of 1e-16; a
    # report edited to say that check passed reads back as FAIL at the
    # check, at its suite and at the root, and writes "passed": false again
    report, code = run(RunConfig("hopf", samples=20, seed=0, format="json",
                                 tolerances={"reduction.identity": 1e-16}))
    assert code == 1
    data = json.loads(report.to_json())
    assert _tamper(data, "pullback identity")
    tampered = json.dumps(data, indent=2, sort_keys=True)
    assert '"passed": false' not in tampered
    back = VerificationReport.from_json(tampered)
    check = back.find("pullback identity")
    assert check.max_residual > check.tolerance == 1e-16 and not check.passed
    assert [c.name for _, c in back.all_checks() if not c.passed] == ["pullback identity"]
    suite = next(child for child in back.children if child.name == "reduction")
    assert not suite.passed and not back.passed
    assert back.format_text().endswith("overall: FAIL")
    assert back.to_json() == report.to_json()


def _check(name, residual, tolerance=1e-8, **kwargs):
    return StructureCheckResult(name=name, max_residual=residual, tolerance=tolerance,
                                worst_point=kwargs.pop("point", None), **kwargs)


def test_synthetic_report_matches_the_oracle():
    point = ChartPoint([0.1, -2.5e-300, 1e300])
    report = VerificationReport(
        name='résumé "quoted" \\ back\tslash ☃',
        checks=[
            _check("nan", math.nan, point=point, identity="ω(u, J v) = g(u, v)"),
            _check("inf", math.inf, tolerance=math.inf, extras={"down": -math.inf}),
            _check("numpy", np.float64(3e-9), tolerance=np.float32(1e-8), extras={
                "f32": np.float32(0.1), "i64": np.int64(-7), "u8": np.uint8(200),
                "vector": np.array([1.0, np.nan, -np.inf]), "matrix": np.eye(2),
                "ints": np.arange(3), "empty": np.zeros((0, 3)), "objects": np.array(
                    [1, "a", None], dtype=object),
                "point": ChartPoint([1.0, 2.0]), "tuple": (1, 2.5, "x"),
                3: "int key", "3.5": [[], {}, [[]]], "nested": {"b": {}, "a": [{}]},
                "flags": [True, False, None], "big": 10 ** 30, "neg0": -0.0,
            }),
            _check("empty extras", 0.0, identity=""),
        ],
        children=[VerificationReport("leaf"),
                  VerificationReport("meta", meta={"samples": [{"r": 1e-17, "s": math.nan}],
                                                   "seeds": np.array([[1.5, 2.0]]),
                                                   "ü\"\\": "\x00\x1f "})],
        meta={"timestamp": "2026-01-01T00:00:00+00:00", "list": [], "dict": {},
              "np": np.float64(math.inf), "plain": [1e-300, 2.0, 3.5e10]},
    )
    assert_matches_oracle(report)
    assert_matches_oracle(VerificationReport("empty"))


def test_non_finite_worst_point_raises_as_json_does():
    # ChartPoint refuses a non-finite point, so only a point changed after
    # construction gets here; to_dict does not turn it into a string
    point = ChartPoint([0.0, 1.0])
    object.__setattr__(point, "coords", np.array([np.nan, 1.0]))
    report = VerificationReport("bad", checks=[_check("c", 0.0, point=point)])
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        report.to_json()
    assert_matches_oracle(report)


def test_unserializable_values_raise_as_json_does():
    for extras in ({"flag": np.bool_(True)}, {"c": 1j}, {"s": {1, 2}},
                   {"ld": np.longdouble(0.5)}):  # its item() is itself
        assert_matches_oracle(VerificationReport("x", checks=[_check("c", 0.0, extras=extras)]))
