"""The one JSON writer behind every indented output: reports and ``-o json``.

``dumps(obj)`` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=1)``: ASCII only, keys sorted, one
space of indent per level, and ``NaN``/``Infinity``/``-Infinity`` for
non-finite floats.

The standard library writes indented JSON with its pure-Python encoder (its
C encoder runs only when ``indent is None``), yields one small chunk per
token, and joins all of a document's chunks at the end.  Here each container
becomes one string, joined from the strings of its items, so the largest
transient list has one entry per item of the biggest container, not one
per token.  Scalars are written by C
functions without a Python call (``encode_basestring_ascii`` for strings,
``int.__repr__`` for ints), and a list of plain ``int`` -- the subgroup
member lists that fill an audit report -- takes a single ``join``.

``dumps`` writes every ``-o json`` output but ``chartab``'s and ``info``'s.
The audit report goes through ``audit.AuditReport.write``, which streams
the document one finding at a time: it writes the values inside each
finding with ``encode`` and the ``SCALARS`` writers, at the depth a
finding sits in the report, so its text is the one ``dumps`` gives for
the whole document.
``chartab.table_to_json`` writes a character table the same way, one
irreducible at a time, with its class list through ``encode``, and
``commdeg info -o json`` writes each element object with ``encode`` as it
is made.

Accepted values: ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
``int``, ``float``, ``bool`` and ``None``, subclasses included, as in the
standard library.  Anything else, a non-``str`` dict key included, raises
``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

__all__ = ["dumps", "encode", "SCALARS"]

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


def dumps(obj: object) -> str:
    """Serialize ``obj`` exactly as ``json.dumps(obj, sort_keys=True, indent=1)``."""
    return encode(obj, "\n")


def encode(o: object, nl: str) -> str:
    """The text of ``o`` as a value nested in a document ``dumps`` writes.

    ``nl`` is a newline plus the indent of the line ``o`` closes on (one
    space per level of depth); the items of a container sit one space
    deeper.
    """
    scalar = SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    inner = nl + " "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
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
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = ("," + inner).join(
            [
                _quote(k)
                + ": "
                + (w(v) if (w := SCALARS.get(type(v))) else encode(v, inner))
                for k, v in sorted(o.items())
            ]
        )
        return "{" + inner + body + nl + "}"
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
