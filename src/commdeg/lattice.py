"""Exhaustive subgroup enumeration for small groups, one conjugacy class at a time.

``_class`` gives every conjugate of a subgroup from one gather of
``t^-1 h t`` over every t and member h.  ``all_subgroups`` enters a
subgroup's whole class the first time it meets the subgroup, and joins
one member per class with each cyclic subgroup.  That reaches every
subgroup: ``<U^t, C> = <U, C^(t^-1)>^t`` and C runs over every cyclic
subgroup.  The walk makes a closure per (class, cyclic subgroup) pair, so
it is only meant for small orders: A6's 501 subgroups take seconds, S6's
1,455 over a minute.
"""

from __future__ import annotations

import numpy as np

from . import groups
from .errors import ClosureTooLarge
from .groups import GroupTable, SubgroupRef

__all__ = ["all_subgroups", "subgroup_conjugacy_representatives"]

DEFAULT_ENUM_CAP = 24


def _class(G: GroupTable, members: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sorted member tuple of every conjugate of a subgroup, least first.

    The trivial group and G are their own class and skip the gather.
    """
    if len(members) in (1, G.order):
        return [members]
    ts = np.arange(G.order)[:, None]
    conj = G.mul[G.mul[G.inv[ts], members], ts]
    conj.sort(axis=1)
    # Sorted, so the least member tuple comes first.
    return sorted(set(map(tuple, conj.tolist())))


def all_subgroups(G: GroupTable, cap: int = DEFAULT_ENUM_CAP) -> list[SubgroupRef]:
    """Every subgroup of G, sorted by (order, member tuple)."""
    if G.order > cap:
        raise ClosureTooLarge(
            f"subgroup enumeration capped at order {cap}, {G.name} has {G.order}"
        )
    seen: dict[tuple[int, ...], SubgroupRef] = {}
    frontier: list[tuple[int, ...]] = []

    def add(members: tuple[int, ...]) -> None:
        if members not in seen:
            for conj in _class(G, members):
                seen[conj] = SubgroupRef(G, conj, _checked=True)
            frontier.append(members)

    for x in range(G.order):
        add(groups.subgroup_closure(G, [x]).members)
    cyclic = [set(c) for c in seen]
    while frontier:
        current = set(frontier.pop())
        for base in cyclic:
            if not base <= current:
                add(groups.subgroup_closure(G, base | current).members)
    return sorted(seen.values(), key=lambda h: (h.order, h.members))


def subgroup_conjugacy_representatives(
    G: GroupTable, subs: list[SubgroupRef]
) -> list[SubgroupRef]:
    """One representative per conjugacy class of subgroups.

    The representative is the class member with the lexicographically
    least member tuple; output order follows the input order of first
    appearance of each class.
    """
    by_members = {h.members: h for h in subs}
    assigned: set[tuple[int, ...]] = set()
    reps = []
    for h in subs:
        if h.members not in assigned:
            orbit = _class(G, h.members)
            assigned.update(orbit)
            rep = orbit[0]
            reps.append(by_members.get(rep) or SubgroupRef(G, rep, _checked=True))
    return reps
