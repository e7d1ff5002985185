import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopechar.jsondoc import dumps

# keys and strings: any text, and the characters json escapes
TEXT = st.text() | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "😀", 'a"b\\c'])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 300, 10 ** 300) | st.floats() | TEXT
           | st.sampled_from([-0.0, 0.0, 1e-7, 1e+300, -1e+300, 0.1, float("inf")]))
INTS = st.lists(st.integers() | st.integers(-10 ** 60, 10 ** 60))
DOCS = st.recursive(
    SCALARS | INTS,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=30)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=DOCS)
@example(doc={"b": [], "a": {}, "c": [1, -2, 10 ** 40], "d": [1, "1", 1.0, True, None]})
@example(doc=[[1, 2], [True, False], [], {}, -0.0, 1e-7, 1e+300])
def test_dumps_is_json_dumps_sorted(doc):
    # the writer's text is json.dumps's, byte for byte, indented and on one
    # line
    assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert dumps(doc, None) == json.dumps(doc, sort_keys=True)
