"""The one JSON writer: every JSON output, report and CSV JSON cell.

``dumps(obj)`` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=1)``: ASCII only, keys sorted, one
space of indent per level, and ``NaN``/``Infinity``/``-Infinity`` for
non-finite floats.  ``compact`` is ``json.dumps(obj, sort_keys=True)``,
the form of the audit CSV's instance and witness cells and of the text
the report's findings are sorted by.  Two places still splice depth-2
fragments of the indented form by hand around texts made here:
``audit._finding_texts`` (a finding's keys around its instance and
witness) and ``chartab``'s ``_ROW_HEAD``/``_ROW_PAIR``/``_ROW_TAIL`` (one
irreducible of a character table).

The standard library writes indented JSON with its pure-Python encoder (its
C encoder runs only when ``indent is None``), yields one small chunk per
token, and joins all of a document's chunks at the end.  Here each container
becomes one string, joined from the strings of its items, so the largest
transient list has one entry per item of the biggest container, not one
per token.  Scalars are written by C
functions without a Python call (``encode_basestring_ascii`` for strings,
``int.__repr__`` for ints), and a list of plain ``int`` -- the subgroup
member lists that fill an audit report -- takes a single ``join``.
An object's items are written by ``items_writer``, in either form, from
a layout of its sorted keys made once per distinct key tuple.  A layout
lives as long as its writer: ``encode`` keeps none between calls, and the
audit report keeps its writers for as long as its findings.

``document`` is the one writer of a document's envelope: the pieces of
``dumps`` of an object one of whose values is a long list, given as its
items' texts one at a time.  The audit report (``audit.AuditReport``,
one finding at a time), ``chartab.table_to_json`` (one irreducible at a
time) and ``commdeg info -o json`` (one element at a time) go through it,
and every other ``-o json`` output through ``dumps``.

Accepted values: ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
``int``, ``float``, ``bool`` and ``None``, subclasses included, as in the
standard library.  Anything else, a non-``str`` dict key included, raises
``TypeError``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from json.encoder import JSONEncoder
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

__all__ = ["dumps", "encode", "compact", "document", "items_writer", "SCALARS"]

_INF = float("inf")
_ONLY_INT = {int}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# Writers for values of exactly these types; subclasses take the
# isinstance route at the end of ``encode``.
SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


# The text of ``json.dumps(obj, sort_keys=True)``.
compact = JSONEncoder(sort_keys=True).encode


def dumps(obj: object) -> str:
    """Serialize ``obj`` exactly as ``json.dumps(obj, sort_keys=True, indent=1)``."""
    return encode(obj, "\n")


def document(fields: dict, key: str, item_texts: Iterable[str]) -> Iterator[str]:
    """The pieces of ``dumps({**fields, key: items})``, one per item.

    ``item_texts`` are the texts of the items at depth 2, as
    ``encode(item, "\\n  ")`` writes them; they are read one at a time.
    The list is written ``[]`` when there is none.
    """
    quoted = "\n " + _quote(key) + ": "
    # In the text with an empty list, the list's item is the one line that
    # opens with one space and its key: a string holds no raw newline,
    # and a deeper line opens with more spaces.
    head, _, tail = encode({**fields, key: []}, "\n").partition(quoted + "[]")
    yield head + quoted
    sep = "[\n  "
    for text in item_texts:
        yield sep + text
        sep = ",\n  "
    yield ("[]" if sep == "[\n  " else "\n ]") + tail


def items_writer(
    nl: Optional[str], container: Optional[Callable[[object], str]] = None
) -> Callable[[tuple], str]:
    """A writer of the text of ``dict(zip(keys, values))`` from an entry
    ``(keys, *values)`` whose keys are ``str``.

    With ``nl`` None the text is ``compact``'s; otherwise it is
    ``encode``'s at ``nl``.  Scalar values go through ``SCALARS``, which
    both forms write alike; any other value through ``container``, by
    default ``compact`` or ``encode`` at the items' depth.  The sorted
    key order is worked out once per distinct key tuple, and each value
    is then read by its position.
    """
    if nl is None:
        indent, item_sep, close = "", ", ", "}"
        container = container or compact
    else:
        indent = nl + " "
        item_sep, close = ",", nl + "}"
        container = container or (lambda v: encode(v, indent))
    layouts: dict[tuple, list[tuple[int, str]]] = {}

    def text(entry: tuple) -> str:
        keys = entry[0]
        if not keys:
            return "{}"
        layout = layouts.get(keys)
        if layout is None:
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
            order = sorted(range(len(keys)), key=keys.__getitem__)
            layout = layouts[keys] = [
                (i + 1, indent + _quote(keys[i]) + ": ") for i in order
            ]
        parts = []
        for i, prefix in layout:
            v = entry[i]
            w = SCALARS.get(type(v))
            parts.append(prefix + (w(v) if w is not None else container(v)))
        return "{" + item_sep.join(parts) + close

    return text


def encode(o: object, nl: str) -> str:
    """The text of ``o`` as a value nested in a document ``dumps`` writes.

    ``nl`` is a newline plus the indent of the line ``o`` closes on (one
    space per level of depth); the items of a container sit one space
    deeper.
    """
    scalar = SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + " "
        if set(map(type, o)) == _ONLY_INT:
            body = ("," + inner).join(map(int.__repr__, o))
        else:
            body = ("," + inner).join(
                [
                    w(v) if (w := SCALARS.get(type(v))) else encode(v, inner)
                    for v in o
                ]
            )
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        return items_writer(nl)((tuple(o), *o.values()))
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
