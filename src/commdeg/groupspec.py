"""Parsers for the group and subgroup spec mini-grammar used by the CLI.

Group specs name a family member (``S4``, ``A5``, ``D6``, ``C12``, ``Q8``),
combine named atoms with infix ``x`` (``S3xC2``), or give raw generators:

    perm(<degree>): (<cycle>)(<cycle>); (<cycle>)

Named atoms are a letter and a number, read by ``families._parse_atom``
and built by ``groups.named_group``.  Cycles use 1-based entries
separated by spaces or commas; several cycles inside one generator are
applied left to right.  Raw ``perm`` specs stand alone (no ``x``
products).  Subgroup specs are ``triv``, ``full``, ``center``, or
``gen[<id>,<id>,...]`` with element ids of the parent.  A number ``int``
cannot read is a UsageError, and a degree too large to parse within
``families.TABLE_BYTES_MAX`` a ResourceLimit.
"""

from __future__ import annotations

import re

from . import groups
from .errors import ClosureTooLarge, InvalidPermutation, UsageError
from .families import (
    DEFAULT_MAX_ORDER,
    PermList,
    _int,
    _parse_atom,
    _refuse_bytes,
    family_order,
    symmetric_degree,
)

__all__ = ["parse_group_spec", "parse_subgroup_spec", "symmetric_degree"]

_PERM_RE = re.compile(r"^perm\((\d+)\)\s*:\s*(.+)$", re.DOTALL)
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_GEN_RE = re.compile(r"^gen\[([0-9,\s]*)\]$")
# Parse memory per point of each generator, and of one more in flight
# (one generator of degree 10**6 peaks at about 96 MB under tracemalloc).
_PARSE_POINT_BYTES = 64


def _parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """One generator: a product of 1-based cycles, applied left to right."""
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise UsageError(f"stray text in generator spec: {text!r}")
    img = list(range(degree))
    # inv[p] is the point img sends to p, so a cycle moves only its own
    # points: img becomes cycle o img.
    inv = img.copy()
    for cyc in _CYCLE_RE.findall(text):
        entries = [e for e in re.split(r"[,\s]+", cyc.strip()) if e]
        if not entries:
            continue
        pts = [_int(e, "a cycle entry") - 1 for e in entries]
        if len(set(pts)) != len(pts):
            raise InvalidPermutation(f"repeated point in cycle ({cyc})")
        for p in pts:
            if not 0 <= p < degree:
                raise InvalidPermutation(
                    f"point {p + 1} outside degree {degree} in ({cyc})"
                )
        sources = [inv[p] for p in pts]
        for x, q in zip(sources, pts[1:] + pts[:1]):
            img[x] = q
            inv[q] = x
    return tuple(img)


def _parse_perm_spec(spec: str, max_order: int) -> groups.GroupTable:
    m = _PERM_RE.match(spec)
    if m is None:
        raise UsageError(
            "raw generator specs look like 'perm(<degree>): (1 2 3); (1 2)'"
        )
    degree = _int(m.group(1), "perm degree")
    if degree < 1:
        raise UsageError("perm degree must be >= 1")
    chunks = [chunk for chunk in m.group(2).split(";") if chunk.strip()]
    need = (len(chunks) + 1) * degree * _PARSE_POINT_BYTES
    _refuse_bytes(need, f"parsing perm({degree})")
    perms = [_parse_cycles(chunk, degree) for chunk in chunks]
    gens = PermList(degree, tuple(perms))
    return groups.close_group(gens, max_order=max_order, name=spec.strip())


def parse_group_spec(
    text: str, max_order: int = DEFAULT_MAX_ORDER
) -> groups.GroupTable:
    """Build the group a spec string describes."""
    spec = text.strip()
    if not spec:
        raise UsageError("empty group spec")
    if spec.startswith("perm"):
        return _parse_perm_spec(spec, max_order)
    parts = spec.replace(" ", "").split("x")
    if any(not p for p in parts):
        raise UsageError(f"malformed product spec {text!r}")
    # Refuse an order over the cap, as direct_product would, before any
    # atom is built.
    atoms = []
    order = 1
    for part in parts:
        letter, n = _parse_atom(part)
        order *= family_order(letter, n, max_order)
        if order > max_order:
            raise ClosureTooLarge(f"order {order} exceeds the cap {max_order}")
        atoms.append((letter, n))
    g = groups.named_group(*atoms[0], max_order=max_order)
    for letter, n in atoms[1:]:
        atom = groups.named_group(letter, n, max_order=max_order)
        g = groups.direct_product(g, atom, max_order)
    return g


def parse_subgroup_spec(G: groups.GroupTable, text: str) -> groups.SubgroupRef:
    """Resolve a subgroup spec against an already-built parent group."""
    spec = text.strip()
    low = spec.lower()
    if low == "triv":
        return groups.trivial_subgroup(G)
    if low == "full":
        return groups.full_subgroup(G)
    if low == "center":
        return groups.center(G)
    m = _GEN_RE.match(low)
    if m is not None:
        body = m.group(1).strip()
        ids = [_int(e, "a generator id") for e in re.split(r"[,\s]+", body) if e]
        for x in ids:
            if not 0 <= x < G.order:
                raise UsageError(
                    f"generator id {x} out of range for {G.name} (order {G.order})"
                )
        return groups.subgroup_closure(G, ids)
    raise UsageError(
        f"unrecognized subgroup spec {text!r} "
        "(expected triv, full, center, or gen[...])"
    )
