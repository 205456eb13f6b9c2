"""``jsontext.dumps`` writes the bytes of the standard library's indented dump.

The standard library stays the oracle: every comparison below is against
``json.dumps(x, sort_keys=True, indent=1)``, which shares no code with the
writer beyond the C string escaper.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdeg import jsontext

SRC = Path(__file__).resolve().parents[1] / "src" / "commdeg"

_ODD_STRINGS = st.sampled_from(
    ["", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r\b\f", "é", " ",
     "\U0001f600", "\ud800", "a/b"]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) + 2),
    st.floats(),
    st.floats().map(np.float64),
    st.text(),
    _ODD_STRINGS,
)
_INT_LISTS = st.lists(st.one_of(st.integers(), st.booleans()), min_size=1)
_KEYS = st.one_of(st.text(), _ODD_STRINGS)
_TREES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(_KEYS, children),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
@example(math.nan)
@example([math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
@example({"a": [2**64, -(2**64)], "b": [1, True, 2], "c": [False, 0]})
@example(((), [], {}, [[]], {"x": {}}, ([1, 2], (3,))))
@example({"z": np.float64(0.1), "y": [np.float64(-0.0), np.float64(np.nan)]})
@example({"é": "\ud800", '"': "\\", "\x00": "\x1f"})
def test_matches_stdlib_indented_dump(x):
    assert jsontext.dumps(x) == json.dumps(x, sort_keys=True, indent=1)


@pytest.mark.parametrize(
    "bad",
    [
        {1: "a"},
        {"a": {2: []}},
        np.int64(3),
        [1, np.int64(3)],
        {"a": np.int64(1)},
        {"a": {1, 2}},
        object(),
    ],
)
def test_rejects_what_it_does_not_write(bad):
    with pytest.raises(TypeError):
        jsontext.dumps(bad)


def test_no_other_indented_json_writer_in_src():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dumps"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
