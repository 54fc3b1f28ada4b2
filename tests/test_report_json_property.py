"""VerificationReport.to_json against json.dumps(report.to_dict(), indent=2,
sort_keys=True, allow_nan=False) on random trees of the values a report may
hold (hypothesis is a test-only dependency; the module is skipped without
it)."""

import json
import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from symred.geometry import ChartPoint, TensorField  # noqa: E402
from symred.report import (  # noqa: E402
    VerificationReport,
    _rows_text,
    check_from_dict,
    check_to_dict,
)
from symred.structures import StructureCheckResult, check_metric, check_tolerance  # noqa: E402

from test_report_json import _check, assert_matches_oracle  # noqa: E402

_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20), st.floats(), st.text(max_size=8),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.lists(st.floats(), max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=3).map(ChartPoint),
)
_tree = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)), inner, max_size=4),
    ),
    max_leaves=20,
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(meta=_tree, extras=st.dictionaries(st.text(max_size=4), _tree, max_size=3),
       name=st.text(max_size=6), residual=st.floats())
def test_random_trees_match_the_oracle(meta, extras, name, residual):
    report = VerificationReport(
        name, checks=[_check(name, residual, extras=extras)],
        children=[VerificationReport(name, meta={"m": meta})], meta={"m": meta})
    assert_matches_oracle(report)


# blocks of float rows, as a report's point lists and columns hold them:
# blocks of finite rows, which are written in one pass, and blocks of
# ragged and empty rows, of every float (NaN, +-inf, -0.0 and subnormals
# included) and of rows with ints, bools or np.float64 mixed in
_row = st.one_of(
    st.lists(st.floats(), max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.booleans(),
                       st.floats().map(np.float64)), max_size=4),
)
_block = st.one_of(
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
             min_size=1, max_size=5),
    st.lists(_row, max_size=5),
)

_BLOCK_EXAMPLES = {
    "ragged": [[1.0], [0.5, -2.0, 3.25], []],
    "non-finite": [[0.1, 0.2], [math.nan, math.inf, -math.inf]],
    "tiny": [[-0.0, 5e-324], [1.0]],
    "overflowing sum": [[1e308], [1e308]],
    "mixed": [[1.0, 2], [True, 0.5], [np.float64(0.25), 1.0]],
    "three deep": [[[1.0, 2.0], [3.0]], [[4.0]], [[]]],
}


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(block=_block, deep=st.lists(_block, max_size=3))
@hypothesis.example(block=_BLOCK_EXAMPLES["ragged"], deep=[])
@hypothesis.example(block=_BLOCK_EXAMPLES["non-finite"], deep=[])
@hypothesis.example(block=_BLOCK_EXAMPLES["tiny"], deep=[])
@hypothesis.example(block=_BLOCK_EXAMPLES["overflowing sum"], deep=[[[1e308, 1e308]]])
@hypothesis.example(block=_BLOCK_EXAMPLES["mixed"], deep=[])
@hypothesis.example(block=[[0.5]], deep=_BLOCK_EXAMPLES["three deep"])
def test_float_blocks_match_the_oracle(block, deep):
    report = VerificationReport(
        "r", checks=[_check("c", 0.0, extras={"block": block})],
        meta={"block": block, "deep": deep, "column": {"a": [r[0] for r in block if r]}})
    assert_matches_oracle(report)


def test_only_a_block_of_finite_float_rows_is_written_in_one_pass():
    for block in ([[1.0], [0.5, -2.0, 3.25]], _BLOCK_EXAMPLES["tiny"]):
        assert _rows_text(block, "  ") == json.dumps(block, indent=2).replace("\n", "\n  ")
    for name in sorted(set(_BLOCK_EXAMPLES) - {"tiny"}):
        assert _rows_text(_BLOCK_EXAMPLES[name], "") is None, name
    # the per-entry path writes NaN and +-inf as strings
    report = VerificationReport("r", meta={"block": _BLOCK_EXAMPLES["non-finite"]})
    assert json.loads(report.to_json())["meta"]["block"][1] == ["NaN", "Infinity", "-Infinity"]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(residuals=st.lists(st.floats(), min_size=1, max_size=5),
                  tolerance=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                  claimed=st.booleans())
@hypothesis.example(residuals=[0.0, math.nan], tolerance=1.0, claimed=True)
@hypothesis.example(residuals=[math.inf], tolerance=sys.float_info.max, claimed=True)
@hypothesis.example(residuals=[-math.inf], tolerance=5e-324, claimed=False)
@hypothesis.example(residuals=[5e-324], tolerance=5e-324, claimed=False)
def test_a_check_passes_iff_its_residual_is_within_its_tolerance(residuals, tolerance, claimed):
    # the oracle: every residual within the tolerance, a NaN in neither; a
    # check read back from its dict is judged again, whatever "passed" says
    want = all(r <= tolerance for r in residuals)
    check = StructureCheckResult.from_samples("c", residuals, np.zeros((len(residuals), 2)),
                                              tolerance)
    assert check.passed == (check.max_residual <= check.tolerance) == want
    d = check_to_dict(check)
    d["passed"] = claimed
    back = check_from_dict(d)
    assert back.passed == (back.max_residual <= back.tolerance) == want


@pytest.mark.parametrize("tolerance", [0.0, -0.0, -1e-8, math.inf, -math.inf, math.nan])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(tolerance):
    # such a tolerance would pass or fail a check whatever its residual:
    # with +inf a metric that is not positive definite would pass
    message = rf"^tolerance of check 'c' must be positive and finite, got {tolerance}$"
    with pytest.raises(ValueError, match=message):
        StructureCheckResult.from_samples("c", [0.0], np.zeros((1, 2)), tolerance)
    d = check_to_dict(StructureCheckResult.from_samples("c", [0.0], np.zeros((1, 2)), 1.0))
    with pytest.raises(ValueError, match=message):
        check_from_dict({**d, "tolerance": tolerance})
    indefinite = TensorField.constant(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="must be positive and finite"):
        check_metric(indefinite, np.zeros((1, 2)), tol=tolerance)
    with pytest.raises(ValueError, match=r"^tolerance 'structures.metric' must be positive "):
        check_tolerance("structures.metric", tolerance)
