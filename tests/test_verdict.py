"""Verdict construction, rendering, and JSON conversion."""

import json
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from zerodim.verdict import (Status, Verdict, _plain, fails, holds,
                             inconclusive)


class TestStatus:
    def test_exactly_one_flag_set(self):
        for v in (holds("a", {}, {}), fails("a", {}, {}),
                  inconclusive("a", {}, {})):
            assert [v.holds, v.fails, v.inconclusive].count(True) == 1

    def test_constructors_copy_inputs(self):
        params = {"h": 4}
        v = holds("a", params, {})
        params["h"] = 99
        assert v.params["h"] == 4


class TestSerialization:
    def test_to_json_is_serializable(self):
        v = fails("probe", {"depth": 3},
                  {"gap": Fraction(3, 8), "items": frozenset({2, 1}),
                   "nested": {"d": Fraction(1, 2)}})
        data = v.to_json()
        text = json.dumps(data, sort_keys=True)
        assert '"3/8"' in text and '"1/2"' in text
        assert data["status"] == "fails"
        assert data["certificate"]["items"] == [1, 2]

    def test_render_line(self):
        v = holds("window-probe", {"k": 2}, {"max_gap": 4})
        line = v.render()
        assert line.startswith("window-probe: HOLDS ")
        assert json.loads(line.split(" ", 2)[2]) == {"max_gap": 4}

    def test_render_sorts_keys(self):
        v = holds("a", {}, {"zz": 1, "aa": 2})
        body = v.render().split(" ", 2)[2]
        assert body.index("aa") < body.index("zz")

    def test_nested_verdict_in_certificate(self):
        inner = holds("inner", {}, {"n": 1})
        outer = fails("outer", {}, {"because": inner})
        data = outer.to_json()
        assert data["certificate"]["because"]["analyzer"] == "inner"
        json.dumps(data)

    def test_frozen(self):
        v = holds("a", {}, {})
        try:
            v.analyzer = "b"
            raised = False
        except AttributeError:
            raised = True
        assert raised


def plain_oracle(value):
    """``_plain`` as first written, one ``isinstance`` test after
    another, with ``Verdict.to_json`` inlined so that a nested verdict
    is converted by the oracle too.  Kept as the reference for the
    fast paths."""
    if isinstance(value, Verdict):
        return {"analyzer": value.analyzer, "status": value.status.value,
                "params": plain_oracle(value.params),
                "certificate": plain_oracle(value.certificate)}
    if isinstance(value, Status):
        return value.value
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, Mapping):
        return {str(k): plain_oracle(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((plain_oracle(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [plain_oracle(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Label(str):
    """A ``str`` subclass: not an exact leaf, so it takes the chain."""


HASHABLE = st.one_of(st.integers(), st.booleans(), st.text(max_size=4),
                     st.none(), st.fractions(), st.sampled_from(Status),
                     st.text(max_size=4).map(Label))
VERDICTS = st.builds(
    holds, st.just("inner"),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.fractions(), max_size=2))
LEAVES = st.one_of(HASHABLE, st.floats(allow_nan=False), VERDICTS,
                   st.builds(object))
VALUES = st.recursive(LEAVES, lambda inner: st.one_of(
    st.dictionaries(HASHABLE, inner, max_size=4),
    st.dictionaries(HASHABLE, inner, max_size=4).map(MappingProxyType),
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.sets(HASHABLE, max_size=4),
    st.frozensets(HASHABLE, max_size=4)), max_leaves=20)


class TestPlainAgainstOracle:
    @given(VALUES)
    @settings(max_examples=300)
    def test_matches_oracle(self, value):
        got, want = _plain(value), plain_oracle(value)
        assert got == want
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(want, sort_keys=True)
