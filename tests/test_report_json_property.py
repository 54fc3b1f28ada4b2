"""VerificationReport.to_json against json.dumps(report.to_dict(), indent=2,
sort_keys=True, allow_nan=False) on random trees of the values a report may
hold (hypothesis is a test-only dependency; the module is skipped without
it)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from symred.geometry import ChartPoint  # noqa: E402
from symred.report import VerificationReport  # noqa: E402

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
