"""The one JSON writer behind every indented output: reports and ``-o json``.

``dumps(obj)`` returns exactly the text of
``json.dumps(obj, sort_keys=True, indent=1)``: ASCII only, keys sorted, one
space of indent per level, and ``NaN``/``Infinity``/``-Infinity`` for
non-finite floats.

The standard library writes indented JSON with its pure-Python encoder (its
C encoder runs only when ``indent is None``), yields one small chunk per
token, and joins all of a document's chunks at the end.  Here each container
becomes one string, joined from the strings of its items, so the largest
transient list has one entry per item of the biggest container (one per
finding of an audit report), not one per token.  Scalars are written by C
functions without a Python call (``encode_basestring_ascii`` for strings,
``int.__repr__`` for ints), and a list of plain ``int`` -- the subgroup
member lists that fill an audit report -- takes a single ``join``.

Accepted values: ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``,
``int``, ``float``, ``bool`` and ``None``, subclasses included, as in the
standard library.  Anything else, a non-``str`` dict key included, raises
``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

__all__ = ["dumps"]

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
# isinstance route at the end of ``_encode``.
_SCALAR = {
    str: _quote,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dumps(obj: object) -> str:
    """Serialize ``obj`` exactly as ``json.dumps(obj, sort_keys=True, indent=1)``."""
    return _encode(obj, "\n")


def _encode(o: object, nl: str) -> str:
    # ``nl`` is a newline plus the indent of the line ``o`` closes on; the
    # items of a container sit one space deeper.
    scalar = _SCALAR.get(type(o))
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
                    w(v) if (w := _SCALAR.get(type(v))) else _encode(v, inner)
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
                + (w(v) if (w := _SCALAR.get(type(v))) else _encode(v, inner))
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
