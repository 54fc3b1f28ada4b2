"""VerificationReport.to_json against json.dumps(report.to_dict(), indent=2,
sort_keys=True, allow_nan=False) on random trees of the values a report may
hold (hypothesis is a test-only dependency; the module is skipped without
it)."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from symred.geometry import ChartPoint  # noqa: E402
from symred.report import VerificationReport, check_from_dict, check_to_dict  # noqa: E402
from symred.structures import StructureCheckResult  # noqa: E402

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


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(residuals=st.lists(st.floats(), min_size=1, max_size=5),
                  tolerance=st.floats(), claimed=st.booleans())
@hypothesis.example(residuals=[0.0, math.nan], tolerance=1.0, claimed=True)
@hypothesis.example(residuals=[math.inf], tolerance=math.inf, claimed=False)
@hypothesis.example(residuals=[-math.inf], tolerance=-math.inf, claimed=False)
@hypothesis.example(residuals=[1.0], tolerance=math.nan, claimed=True)
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
