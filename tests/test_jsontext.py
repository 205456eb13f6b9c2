"""``jsontext`` writes the bytes of the standard library's sorted-key dumps.

The standard library stays the oracle: the comparisons below are against
``json.dumps(x, sort_keys=True, indent=1)``, which shares no code with the
writer beyond the C string escaper, and against the compact
``json.dumps(x, sort_keys=True)``.
"""

import ast
import gc
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdeg import jsontext

SRC = Path(__file__).resolve().parents[1] / "src" / "commdeg"


def _modules():
    """The package's source files, for the guards that read them; with
    none found, every guard would pass."""
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "jsontext.py" in paths
    return paths


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
    for path in _modules():
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


def _entry(d):
    return (tuple(d), *d.values())


def _dicts(x):
    """Every dict in the tree ``x``, outermost first."""
    if isinstance(x, dict):
        yield x
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        for v in x:
            yield from _dicts(v)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({})
@example({"é": "\ud800", '"': "\\", "\x00": "\x1f", "b": [1, True], "a": ()})
@example({"z": np.float64(0.1), "y": [np.float64(-0.0), math.nan], "x": {"w": {}}})
def test_items_writer_matches_both_stdlib_forms(x):
    for d in _dicts(x):
        assert jsontext.items_writer(None)(_entry(d)) == json.dumps(d, sort_keys=True)
        for nl in ("\n", "\n ", "\n   ", "\n     "):
            assert jsontext.items_writer(nl)(_entry(d)) == jsontext.encode(d, nl)


def test_items_writer_keeps_each_key_order_apart():
    # Equal key sets in two orders are two layouts, each read by position.
    write = jsontext.items_writer(None)
    for keys in (("b", "a"), ("a", "b"), ("b", "a")):
        for value in (1, [2], "x"):
            d = {k: f"{k}{value}" for k in keys}
            assert write(_entry(d)) == json.dumps(d, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_KEYS, _TREES, max_size=5),
    _KEYS,
    st.lists(_TREES, max_size=4),
)
# No items; the list's key sorting first, in the middle (next to a deeper
# key of the same name) and last; its item's text inside a string; and
# keys that need escapes.
@example({}, "list", [])
@example({"b": 1, "c": [2, {"d": None}]}, "a", [1])
@example({"a": {"m": []}, "z": "m"}, "m", [{"m": []}, [True, "m"], 2.5])
@example({"a": 1.5, "b": ["x"]}, "z", [])
@example({"a": 'x\n "m": []', "n": 1}, "m", [1])
@example({"a\"\\é": 1, "\x00": "\ud800"}, 'k"\\∂\n', [[]])
def test_document_is_the_dump_of_the_whole_object(fields, key, items):
    texts = (jsontext.encode(i, "\n  ") for i in items)
    pieces = list(jsontext.document(fields, key, texts))
    expected = json.dumps({**fields, key: items}, sort_keys=True, indent=1)
    assert "".join(pieces) == expected
    assert len(pieces) == len(items) + 2


@pytest.mark.parametrize(
    "write",
    [
        lambda d: jsontext.items_writer(None)(_entry(d)),
        lambda d: jsontext.items_writer("\n ")(_entry(d)),
        lambda d: "".join(jsontext.document(d, "list", [])),
    ],
)
@pytest.mark.parametrize("bad", [{1: "a"}, {"a": 1, 2: "b"}, {None: 1}])
def test_object_writers_reject_non_str_keys(write, bad):
    with pytest.raises(TypeError):
        write(bad)


def test_dumps_keeps_no_layout_between_calls():
    # A layout lives as long as its writer: the sorted key orders of 200
    # documents of distinct 500-key objects are gone once they are written.
    objects = [{f"k{i}.{j}": j for j in range(500)} for i in range(200)]
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for obj in objects:
            jsontext.dumps(obj)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2**20


def test_document_rejects_a_non_str_list_key():
    with pytest.raises(TypeError):
        "".join(jsontext.document({"a": 1}, 2, []))


def test_only_jsontext_sorts_keys_for_output():
    offenders = []
    for path in _modules():
        if path.name == "jsontext.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = (
                isinstance(node, ast.Call)
                and any(kw.arg == "sort_keys" for kw in node.keywords)
            ) or (
                isinstance(node, (ast.Name, ast.Attribute, ast.alias))
                and "JSONEncoder" in (
                    getattr(node, "id", None),
                    getattr(node, "attr", None),
                    getattr(node, "name", None),
                )
            )
            if named:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _punch(x, data, count):
    """``(holed, filled)``: the tree ``x`` with ``HOLE`` at the value
    positions ``data`` draws, and ``x`` with each hole's number in text
    order instead, which is sorted key order."""
    if data.draw(st.booleans()):
        return jsontext.HOLE, next(count)
    if isinstance(x, dict):
        pairs = [(k, *_punch(x[k], data, count)) for k in sorted(x)]
        return {k: h for k, h, _ in pairs}, {k: f for k, _, f in pairs}
    if isinstance(x, (list, tuple)):
        pairs = [_punch(v, data, count) for v in x]
        return [h for h, _ in pairs], [f for _, f in pairs]
    return x, x


@settings(max_examples=300, deadline=None)
@given(_TREES, st.data())
def test_template_pieces_are_the_text_around_each_hole(x, data):
    # The strings and keys of the trees hold raw NULs, which must not cut.
    holed, filled = _punch(x, data, itertools.count())
    for nl in ("\n", "\n ", "\n   ", "\n     "):
        first, *rest = jsontext.template(holed, nl)
        numbered = first + "".join(f"{i}{piece}" for i, piece in enumerate(rest))
        assert numbered == jsontext.encode(filled, nl)


# A key separator, a newline next to a bracket or after a comma, or the
# marker's text.
_LAYOUT = re.compile(r'": |[\[{,]\n|\n *[\]}]|\x00')


def test_only_jsontext_writes_layout_fragments():
    offenders = []
    for path in _modules():
        if path.name == "jsontext.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and _LAYOUT.search(node.value)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
