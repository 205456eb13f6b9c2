"""Named groups before any table: families, orders, limits and labels.

Everything a command needs to name a group, to refuse it, or to write an
element's label is here, in plain Python, so that a command that builds
no table (``prob -G S<N>`` on the character route, see ``symmetric``)
never imports numpy.  ``groups``, ``groupspec`` and ``engine`` import
these names back.  The named families are one table, ``_FAMILIES``, of
orders and generators; every table holds int16 ids (``groups._ID_DTYPE``),
so an order-N table takes N*N*2 bytes, and orders past the int16 range,
or tables past TABLE_BYTES_MAX, are refused before anything is built.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    ClosureTooLarge,
    InvalidPermutation,
    ResourceLimit,
    UnknownFamily,
    UsageError,
)

DEFAULT_MAX_ORDER = 10080
# Largest multiplication table (N * N * 2 bytes of int16) that any group
# table will hold: 1 GiB, so N <= 23170.  Larger orders raise
# ResourceLimit before anything is allocated.
TABLE_BYTES_MAX = 1 << 30
# Largest tuple space that brute-force enumeration walks.
BRUTE_CAP_DEFAULT = 10**8
# Bytes of one id in a table: ids are int16.
_ID_BYTES = 2
# Largest order a table holds, the int16 maximum: N itself must be an
# id, so that no id arithmetic or bound N can wrap, whatever
# TABLE_BYTES_MAX is.
_ORDER_MAX = 32767
# Family orders are worked out exactly up to this bound (or the cap, if
# larger) and abandoned past it, so a refusal never computes or prints n!.
_ORDER_BOUND = 10**18

_ATOM_RE = re.compile(r"^([A-Z])([0-9]+)$")

__all__ = [
    "DEFAULT_MAX_ORDER",
    "TABLE_BYTES_MAX",
    "BRUTE_CAP_DEFAULT",
    "PermList",
    "cycle_label",
    "family_order",
    "named_order",
    "named_group_names",
    "symmetric_degree",
]


def _as_perm(images: Sequence[int], degree: int) -> tuple[int, ...]:
    perm = tuple(int(i) for i in images)
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise InvalidPermutation(
            f"not a permutation of 0..{degree - 1}: {images!r}"
        )
    return perm


class _PermFields(NamedTuple):
    degree: int
    perms: tuple[tuple[int, ...], ...]


class PermList(_PermFields):
    """Permutation generators on ``{0..degree-1}``, each as its image tuple.

    An immutable value, compared and hashed by its fields; a named tuple
    rather than a dataclass, so that a command that only names a group
    does not import ``dataclasses`` (and with it ``inspect``).
    """

    __slots__ = ()

    def __new__(cls, degree: int, perms: Iterable[Sequence[int]]) -> PermList:
        if degree < 1:
            raise InvalidPermutation("degree must be >= 1")
        return super().__new__(cls, degree, tuple(_as_perm(p, degree) for p in perms))


@lru_cache(maxsize=8)
def _label_tokens(degree: int) -> list[str]:
    """The text of each point in a label: ``" 1"``, ... for a point inside
    a cycle, then ``")(1"``, ... for the point that opens one."""
    return [f" {i + 1}" for i in range(degree)] + [
        f")({i + 1}" for i in range(degree)
    ]


def cycle_label(perm: Sequence[int]) -> str:
    """1-based cycle notation; the identity renders as ``()``.

    ``perm`` is a sequence of images, or an array row with ``tolist``.
    Each cycle is written from its least point, in order of that point.
    The label is one join of the texts ``_label_tokens`` keeps for the
    degree, one per moved point, so the walk makes no string of its own;
    the next cycle's least point is found by a search of ``seen``, which
    marks the points of the cycles already written, and a fixed point is
    passed over.
    """
    images = perm.tolist() if hasattr(perm, "tolist") else list(perm)
    d = len(images)
    tokens = _label_tokens(d)
    seen = [False] * (d + 1)  # the last entry ends the last search at d
    text: list[str] = []
    add = text.append
    start = 0
    while start < d:
        x = images[start]
        if x != start:
            add(tokens[d + start])
            while x != start:
                add(tokens[x])
                seen[x] = True
                x = images[x]
        start = seen.index(False, start + 1)
    return "(" + "".join(text)[2:] + ")"


def _refuse_bytes(size: int, what: str) -> None:
    """Raise ResourceLimit if ``what`` needs ``size`` > TABLE_BYTES_MAX bytes."""
    if size > TABLE_BYTES_MAX:
        raise ResourceLimit(
            f"{what} needs {size} bytes, over the {TABLE_BYTES_MAX}-byte limit"
        )


def _refuse_order(n: int) -> None:
    """Raise ResourceLimit unless an order-n table fits TABLE_BYTES_MAX and int16."""
    _refuse_bytes(n * n * _ID_BYTES, f"the table of a group of order {n}")
    if n > _ORDER_MAX:
        raise ResourceLimit(
            f"a group of order {n} is past the {_ORDER_MAX} elements a table holds"
        )


def _cycle(n: int) -> tuple[int, ...]:
    """The n-cycle (1 2 ... n) as an image tuple."""
    return tuple((i + 1) % n for i in range(n))


def _dihedral(n: int) -> tuple[tuple[int, ...], ...]:
    if n <= 2:  # D1 on 2 points, D2 (the Klein group) on 4
        return (((1, 0),), ((1, 0, 2, 3), (0, 1, 3, 2)))[n - 1]
    return (_cycle(n), tuple((n - i) % n for i in range(n)))


def _symmetric(n: int) -> tuple[tuple[int, ...], ...]:
    if n <= 2:
        return ((1, 0),) if n == 2 else ()
    return (_cycle(n), (1, 0) + tuple(range(2, n)))


def _alternating(n: int) -> tuple[tuple[int, ...], ...]:
    if n <= 3:
        return ((1, 2, 0),) if n == 3 else ()
    big = _cycle(n) if n % 2 else (0,) + tuple(range(2, n)) + (1,)
    return ((1, 2, 0) + tuple(range(3, n)), big)


class _Family(NamedTuple):
    """Members n = first..last, of order ``prod(factors(n))`` (never falling in n)."""

    first: int
    last: float
    factors: Callable[[int], Iterable[int]]
    gens: Callable[[int], tuple[tuple[int, ...], ...]]  # on n points if empty


_QUATERNION = ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3))
# Family letter -> family, in the order named_group_names lists them.
_FAMILIES = {
    "C": _Family(1, math.inf, lambda n: (n,), lambda n: (_cycle(n),) if n > 1 else ()),
    "D": _Family(1, math.inf, lambda n: (2, n), _dihedral),
    "S": _Family(1, math.inf, lambda n: range(2, n + 1), _symmetric),
    "A": _Family(1, math.inf, lambda n: range(3, n + 1), _alternating),
    "Q": _Family(8, 8, lambda n: (8,), lambda n: _QUATERNION),
}


def _bounded_product(factors: Iterable[int], bound: int) -> Optional[int]:
    """The product of ``factors``, or None once it passes ``bound``."""
    out = 1
    for f in factors:
        out *= f
        if out > bound:
            return None
    return out


def family_order(family: str, param: int, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """The order of a named family member, from the family table alone.

    Raises UnknownFamily for a letter or member the table lacks, and
    ClosureTooLarge for an order over ``max_order``; the order is worked
    out exactly only up to max(max_order, 10**18).
    """
    letter = family.upper()
    name = f"{letter}{param}"
    fam = _FAMILIES.get(letter)
    if fam is None or not fam.first <= param <= fam.last:
        raise UnknownFamily(f"unrecognized group spec {name!r}")
    bound = max(max_order, _ORDER_BOUND)
    order = _bounded_product(fam.factors(param), bound)
    if order is None or order > max_order:
        shown = f"over {bound}" if order is None else order
        raise ClosureTooLarge(f"order {shown} exceeds the cap {max_order}")
    return order


def named_order(family: str, param: int, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """The order of a named family member whose table ``named_group`` builds.

    Raises what ``named_group`` raises before any closure: the refusals of
    ``family_order``, then ResourceLimit for a table that would not fit.
    """
    order = family_order(family, param, max_order)
    _refuse_order(order)
    return order


def _named_gens(family: str, param: int) -> PermList:
    perms = _FAMILIES[family.upper()].gens(param)
    return PermList(len(perms[0]) if perms else param, perms)


def _check_order(name: str, got: int, order: int) -> None:
    if got != order:
        raise AssertionError(f"{name}: closed to order {got}, expected {order}")


def named_group_names(max_order: int = DEFAULT_MAX_ORDER) -> tuple[str, ...]:
    """Names of the named-family members of order at most ``max_order``."""
    names = []
    for letter, fam in _FAMILIES.items():
        n = fam.first
        while n <= fam.last and _bounded_product(fam.factors(n), max_order):
            names.append(f"{letter}{n}")
            n += 1
    return tuple(names)


def _int(text: str, what: str) -> int:
    """``int(text)``, with a UsageError for text ``int`` cannot read."""
    try:
        return int(text)
    except ValueError:
        shown = f"{text[:20]}... ({len(text)} chars)" if len(text) > 40 else text
        raise UsageError(f"{what} must be a readable integer, got {shown!r}") from None


def _parse_atom(atom: str) -> tuple[str, int]:
    """The family letter and parameter of a named atom such as ``S4``."""
    m = _ATOM_RE.match(atom.upper())
    if m is None:
        raise UnknownFamily(f"unrecognized group spec {atom!r}")
    return m.group(1), _int(m.group(2), "a family parameter")


def symmetric_degree(text: str) -> Optional[int]:
    """N when ``text`` is the one atom ``S<N>``, read as ``parse_group_spec``
    reads it; otherwise None, leaving any refusal to ``parse_group_spec``."""
    spec = text.strip().replace(" ", "")
    if spec.startswith("perm") or "x" in spec:
        return None
    try:
        letter, n = _parse_atom(spec)
    except (UnknownFamily, UsageError):
        return None
    return n if letter == "S" else None
