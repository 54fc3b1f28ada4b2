"""VerificationReport.to_json against its oracle, json.dumps of the report's
layout normalized value by value (``reference_jsonable``), indent=2,
sort_keys=True, allow_nan=False: the same text, or the same error, on
verify reports and on a synthetic report of every awkward value
(test_report_json_property.py adds random trees).  ``to_dict`` is the text
read back, so it raises what ``to_json`` raises."""

import enum
import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from symred.cli import RunConfig, run
from symred.report import VerificationReport, check_to_dict
from symred.scenarios import builtin_names, builtin_text
from symred.structures import StructureCheckResult

from util import DOUBLE_SPEED_HOPF_TEXT


def reference_jsonable(value):
    """A report's layout as plain JSON values, one value at a time: a numpy
    scalar its ``item()``, an array or a tuple a list, a read-only mapping
    (a report's meta and the dicts in it) a dict, a key its ``str``, a
    non-finite float the string json's strict form needs; any other value
    is left for json to write or refuse."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, np.ndarray):
        return reference_jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, (dict, MappingProxyType)):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    return value


def oracle(report: VerificationReport) -> str:
    return json.dumps(reference_jsonable(report._layout()), indent=2, sort_keys=True,
                      allow_nan=False)


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


def test_find_raises_key_error_for_a_check_not_in_the_report():
    with pytest.raises(KeyError, match="no check named 'x' in report 'r'"):
        VerificationReport("r").find("x")


def test_dense_and_file_reports_match_the_oracle(tmp_path):
    r2n = tmp_path / "euclidean_r2n_8.scn"
    r2n.write_text(builtin_text("euclidean_r2n", 8))
    double_speed = tmp_path / "double_speed.scn"
    double_speed.write_text(DOUBLE_SPEED_HOPF_TEXT)
    for cfg in (RunConfig("hopf", samples=80, seed=0), RunConfig(str(r2n), samples=20, seed=5),
                RunConfig(str(double_speed), samples=20, seed=0)):
        report, _ = run(cfg)
        assert_matches_oracle(report)
    assert not report.passed  # the double-speed witness fails checks


def _check(name, residual, tolerance=1e-8, **kwargs):
    return StructureCheckResult(name=name, max_residual=residual, tolerance=tolerance,
                                worst_point=kwargs.pop("point", None), **kwargs)


def test_synthetic_report_matches_the_oracle():
    point = (0.1, -2.5e-300, 1e300)
    report = VerificationReport(
        name='résumé "quoted" \\ back\tslash ☃',
        checks=[
            _check("nan", math.nan, point=point, identity="ω(u, J v) = g(u, v)"),
            _check("inf", math.inf, tolerance=1.0, extras={"down": -math.inf}),
            _check("numpy", np.float64(3e-9), tolerance=np.float32(1e-8), extras={
                "f32": np.float32(0.1), "i64": np.int64(-7), "u8": np.uint8(200),
                "vector": np.array([1.0, np.nan, -np.inf]), "matrix": np.eye(2),
                "ints": np.arange(3), "empty": np.zeros((0, 3)), "objects": np.array(
                    [1, "a", None], dtype=object),
                "point": (1.0, 2.0), "tuple": (1, 2.5, "x"),
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


class _Float(float):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Level(enum.IntEnum):
    LOW = 1


def test_subclasses_and_other_json_values_match_the_oracle():
    # a float, list or dict subclass is written as its base, non-finite
    # floats included, and a value of another type json can hold (an
    # IntEnum) through json itself, at the indent of its nesting
    extras = {"float": _Float(0.25), "nan": _Float(math.nan), "inf": _Float(-math.inf),
              "list": _List([1.0, _Float(2.5), "a"]), "dict": _Dict(b=_Level.LOW, a=[]),
              "nested": [{"level": _Level.LOW}, [_Level.LOW]]}
    assert_matches_oracle(VerificationReport("x", checks=[_check("c", 0.0, extras=extras)]))


def test_non_finite_worst_point_is_written_as_every_float_is():
    # a worst point is a tuple of floats, so a non-finite coordinate is
    # written as the string json's oracle writes
    report = VerificationReport("bad", checks=[_check("c", 0.0, point=(math.nan, 1.0))])
    assert json.loads(report.to_json())["checks"][0]["worst_point"] == ["NaN", 1.0]
    assert_matches_oracle(report)


def test_unserializable_values_raise_as_json_does():
    for extras in ({"flag": np.bool_(True)}, {"c": 1j}, {"s": {1, 2}},
                   {"ld": np.longdouble(0.5)}):  # its item() is itself
        check = _check("c", 0.0, extras=extras)
        report = VerificationReport("x", checks=[check])
        assert_matches_oracle(report)
        # the dict forms are the JSON text read back, so they raise as it does
        for write in (VerificationReport.to_dict, lambda _: check_to_dict(check)):
            assert outcome(write, report) == outcome(VerificationReport.to_json, report)


def _checks(node: dict):
    """The check dicts of a report dict, depth first, as ``all_checks``."""
    yield from node["checks"]
    for child in node["children"]:
        yield from _checks(child)


def test_the_dict_forms_are_the_json_text_read_back():
    report, _ = run(RunConfig("noninvariant_metric_hopf", samples=20, seed=0))
    data = report.to_dict()
    assert data == json.loads(report.to_json()) == reference_jsonable(report._layout())
    assert [check_to_dict(c) for _, c in report.all_checks()] == list(_checks(data))
