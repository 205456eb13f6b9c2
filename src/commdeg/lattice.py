"""Exhaustive subgroup enumeration for small groups.

Subgroups are found as joins of cyclic subgroups: the cyclic ones are
collected first, then pairwise joins are added until nothing new appears.
This is exponential in the worst case and is only intended for the orders
the audit battery walks (a couple dozen elements).
"""

from __future__ import annotations

import numpy as np

from . import groups
from .errors import ClosureTooLarge
from .groups import GroupTable, SubgroupRef

__all__ = ["all_subgroups", "subgroup_conjugacy_representatives"]

DEFAULT_ENUM_CAP = 24


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
            seen[members] = SubgroupRef(G, members, _checked=True)
            frontier.append(members)

    add((0,))
    for x in range(1, G.order):
        add(groups.subgroup_closure(G, [x]).members)
    cyclic = list(seen.keys())
    while frontier:
        current = frontier.pop()
        for base in cyclic:
            if set(base) <= set(current):
                continue
            joined = groups.subgroup_closure(G, set(base) | set(current))
            add(joined.members)
    return sorted(seen.values(), key=lambda h: (h.order, h.members))


def subgroup_conjugacy_representatives(
    G: GroupTable, subs: list[SubgroupRef]
) -> list[SubgroupRef]:
    """One representative per conjugacy class of subgroups.

    The representative is the class member with the lexicographically
    least member tuple; output order follows the input order of first
    appearance of each class.  The class of a subgroup is one gather of
    ``t^-1 h t`` over every t and member h, its rows sorted and made
    unique; the trivial group and G are their own class.
    """
    by_members = {h.members: h for h in subs}
    assigned: set[tuple[int, ...]] = set()
    reps = []
    ts = np.arange(G.order)[:, None]
    for h in subs:
        if h.members in assigned:
            continue
        if h.order in (1, G.order):
            orbit = [h.members]
        else:
            conj = G.mul[G.mul[G.inv[ts], h.members], ts]
            conj.sort(axis=1)
            orbit = [tuple(row) for row in np.unique(conj, axis=0).tolist()]
        # np.unique sorts the rows, so the least member tuple comes first.
        rep_members = orbit[0]
        assigned.update(orbit)
        if rep_members in by_members:
            reps.append(by_members[rep_members])
        else:
            reps.append(SubgroupRef(G, rep_members, _checked=True))
    return reps
