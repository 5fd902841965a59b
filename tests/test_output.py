"""`json_text` read back by `json.loads`, and what it refuses.

A document reads back as its own values: floats rounded by `round_sig` (NaN
and the infinities included), numpy scalars as the Python scalars they hold,
and tuples and arrays as lists.
"""

import collections
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from shimony.output import json_text, round_sig

SPECIAL_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1e308,
    1.7976931348623157e308,
    0.1,
    123456789.987654321,
]
SPECIAL_STRINGS = ["", "é", "Ω≤∞", "\U0001f600", "\x00\x1f\x7f", '"\\/\n\t', "\ud800", "a\udfffb"]

python_floats = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
floats = st.one_of(
    python_floats,
    python_floats.map(np.float64),
    st.floats(width=32, allow_subnormal=True).map(np.float32),
)
ints = st.one_of(
    st.integers(-(2**80), 2**80),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
flags = st.booleans() | st.booleans().map(np.bool_)
texts = st.text(st.characters(exclude_categories=())) | st.sampled_from(SPECIAL_STRINGS)
array_values = st.one_of(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
           elements=st.floats(allow_subnormal=True)),
    arrays(np.int64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
    arrays(np.bool_, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
)
leaves = st.one_of(floats, ints, flags, st.none(), texts, array_values)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


def reads_back(loaded, value) -> bool:
    """Whether `json.loads` gave loaded for value: floats compared by repr, so NaN and -0.0 too."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return (
            type(loaded) is list
            and len(loaded) == len(value)
            and all(map(reads_back, loaded, value))
        )
    if isinstance(value, dict):
        return (
            type(loaded) is dict
            and list(loaded) == list(value)
            and all(map(reads_back, loaded.values(), value.values()))
        )
    if isinstance(value, (float, np.floating)):
        return type(loaded) is float and repr(loaded) == repr(round_sig(value))
    if isinstance(value, (bool, np.bool_)):
        return loaded is bool(value)
    if isinstance(value, (int, np.integer)):
        return type(loaded) is int and loaded == int(value)
    return type(loaded) is type(value) and loaded == value


@settings(max_examples=400, deadline=None)
@given(documents)
def test_documents_read_back_as_their_rounded_values(document):
    assert reads_back(json.loads(json_text(document)), document)


@pytest.mark.parametrize("value", SPECIAL_FLOATS + SPECIAL_STRINGS + [[], {}, (), [[]], {"": {}}])
def test_writer_matches_the_reference_on_edge_values(value):
    document = {"value": value, "row": [value, value]}
    text = json_text(document)
    assert reads_back(json.loads(text), document)
    assert text == json.dumps(json.loads(text), indent=2)


class _Text(str):
    pass


class _Real(float):
    pass


class _Level(enum.IntEnum):
    ONE = 1


class _View(np.ndarray):
    pass


# The writer dispatches on exact types, so a subclass of a type it writes is
# refused too: a namedtuple, an OrderedDict, a str, float or int subclass, an array view.
@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        object(),
        {1: 2.0},
        {"rows": [[0.5, {3}]]},
        {"nested": {None: 1}},
        collections.namedtuple("Pair", "a b")(1, 2),
        collections.OrderedDict(a=1),
        _Text("a"),
        _Real(0.5),
        _Level.ONE,
        np.arange(3.0).view(_View),
    ],
    ids=[
        "set",
        "object",
        "int key",
        "nested set",
        "None key",
        "namedtuple",
        "OrderedDict",
        "str subclass",
        "float subclass",
        "IntEnum member",
        "ndarray subclass view",
    ],
)
def test_writer_refuses_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        json_text(value)
