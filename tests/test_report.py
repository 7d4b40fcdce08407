"""The stable JSON encoder against the standard library's, on arbitrary trees."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migrent.report import dumps_stable

from conftest import ODD_FLOATS, ODD_TEXT
from oracles import dumps_stable_ref

TEXTS = st.one_of(st.sampled_from(ODD_TEXT), st.text(max_size=8))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**30)]),
    st.sampled_from([*ODD_FLOATS, -0.0, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXTS,
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXTS, children, max_size=4),
    ),
    max_leaves=24,
)


class TestDumpsStable:
    @settings(max_examples=300, deadline=None)
    @given(tree=TREES)
    @example(tree={})
    @example(tree=[[], {}, ()])
    @example(tree={"a": {"b": []}})
    def test_matches_reference(self, tree):
        assert dumps_stable(tree) == dumps_stable_ref(tree)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1, x], lambda x: {"a": {"b": (x,)}}])
    def test_refuses_non_finite_floats(self, bad, wrap):
        for dumps in (dumps_stable, dumps_stable_ref):
            with pytest.raises(ValueError, match="not JSON compliant"):
                dumps(wrap(bad))
