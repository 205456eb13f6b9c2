"""Finite groups as dense multiplication tables.

Elements are integers ``0..N-1`` with the identity fixed at id 0.  Groups
are closed from permutation generators in breadth-first discovery order,
so ids are reproducible across runs; named families, direct products and
quotients all reduce to the same table representation, which keeps every
higher-level computation a matter of integer array lookups.  Every
table, and every id array cached from one, holds its ids as int16, so an
order-N table takes N*N*2 bytes; orders past the int16 range, or tables
past TABLE_BYTES_MAX, are refused before anything is allocated.  Element
labels are written on demand, from the permutations closure keeps.  The
named families are one table, ``_FAMILIES``, of orders and generators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    ForeignSubgroup,
    InvalidPermutation,
    NotNormal,
    ResourceLimit,
    TrivialGroup,
    UnknownFamily,
)

DEFAULT_MAX_ORDER = 10080
# Element ids in every table.  Signed, so that differences of ids (see
# direct_product) stay exact.
_ID_DTYPE = np.dtype(np.int16)
# Largest order a table holds: N itself must be an int16, so that no id
# arithmetic or bound N can wrap, whatever TABLE_BYTES_MAX is.
_ORDER_MAX = int(np.iinfo(_ID_DTYPE).max)
# Largest multiplication table (N * N * 2 bytes of int16) that any group
# table will hold: 1 GiB, so N <= 23170.  Larger orders raise
# ResourceLimit before anything is allocated.
TABLE_BYTES_MAX = 1 << 30
# Rows (or columns) per block when validating a table: validation holds
# O(_CHECK_BLOCK * N) scratch, never a second copy of the table.
_CHECK_BLOCK = 128
# Family orders are worked out exactly up to this bound (or the cap, if
# larger) and abandoned past it, so a refusal never computes or prints n!.
_ORDER_BOUND = 10**18

__all__ = [
    "DEFAULT_MAX_ORDER",
    "TABLE_BYTES_MAX",
    "PermList",
    "GroupTable",
    "SubgroupRef",
    "ConjugacyInfo",
    "cycle_label",
    "close_group",
    "family_order",
    "named_group",
    "named_group_names",
    "direct_product",
    "subgroup_closure",
    "trivial_subgroup",
    "full_subgroup",
    "is_normal",
    "centralizer_of_element",
    "centralizer_of_subgroup",
    "conjugacy",
    "center",
    "quotient_group",
    "smallest_prime_divisor",
]


def _as_perm(images: Sequence[int], degree: int) -> tuple[int, ...]:
    perm = tuple(int(i) for i in images)
    if len(perm) != degree or sorted(perm) != list(range(degree)):
        raise InvalidPermutation(
            f"not a permutation of 0..{degree - 1}: {images!r}"
        )
    return perm


@dataclass(frozen=True)
class PermList:
    """Permutation generators on ``{0..degree-1}``, each as its image tuple."""

    degree: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidPermutation("degree must be >= 1")
        object.__setattr__(
            self, "perms", tuple(_as_perm(p, self.degree) for p in self.perms)
        )


def cycle_label(perm: Sequence[int]) -> str:
    """1-based cycle notation; the identity renders as ``()``."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) or "()"


class _LazyLabels(Sequence[str]):
    """Element labels, each written by ``label_of(id)`` on first use."""

    def __init__(self, n: int, label_of: Callable[[int], str]) -> None:
        self._n = n
        self._label_of = label_of
        self._done: dict[int, str] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, a):  # type: ignore[override]
        a = operator.index(a)
        if not 0 <= a < self._n:
            raise IndexError("element id out of range")
        text = self._done.get(a)
        if text is None:
            text = self._done[a] = self._label_of(a)
        return text


def _label_of(G: "GroupTable") -> Callable[[int], str]:
    """G.label without holding on to G's table."""
    return str if G.labels is None else G.labels.__getitem__


def _refuse_bytes(size: int, what: str) -> None:
    """Raise ResourceLimit if ``what`` needs ``size`` > TABLE_BYTES_MAX bytes."""
    if size > TABLE_BYTES_MAX:
        raise ResourceLimit(
            f"{what} needs {size} bytes, over the {TABLE_BYTES_MAX}-byte limit"
        )


def _refuse_order(n: int) -> None:
    """Raise ResourceLimit unless an order-n table fits TABLE_BYTES_MAX and int16."""
    _refuse_bytes(n * n * _ID_DTYPE.itemsize, f"the table of a group of order {n}")
    if n > _ORDER_MAX:
        raise ResourceLimit(
            f"a group of order {n} is past the {_ORDER_MAX} elements a table holds"
        )


def _as_ids(a, n: int, message: str) -> np.ndarray:
    """``a`` as a contiguous int16 array, once its ids are checked to fit.

    A table of another integer dtype is checked to lie in 0..n-1 before
    it is narrowed, so that no entry can wrap onto a valid id; an int16
    table is left to the checks that follow.  ValueError(message) if not.
    """
    a = np.asarray(a)
    if a.dtype != _ID_DTYPE:
        if a.dtype.kind not in "iu":
            raise ValueError(f"{message}: ids must be integers, not {a.dtype}")
        if a.size and not (a.min() >= 0 and a.max() < n):
            raise ValueError(f"{message}: an id lies outside 0..{n - 1}")
    return np.ascontiguousarray(a, dtype=_ID_DTYPE)


def _column_blocks(
    mul: np.ndarray, buf: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, mul[:, lo : lo + _CHECK_BLOCK].T)``, each copied into ``buf``."""
    n = mul.shape[0]
    step = _CHECK_BLOCK
    for lo in range(0, n, step):
        block = buf[: min(step, n - lo)]
        for r in range(0, n, step):
            block[:, r : r + step] = mul[r : r + step, lo : lo + step].T
        yield lo, block


def _check_latin(mul: np.ndarray) -> np.ndarray:
    """Check that every row and column of ``mul`` permutes 0..N-1.

    Each block of _CHECK_BLOCK rows, and each block of as many columns
    (see ``_column_blocks``), is sorted in one scratch buffer and compared
    with 0..N-1, so the scratch is O(_CHECK_BLOCK * N).  Returns, for each
    row, the column where 0 sits: the right inverse of each element.
    """
    n = mul.shape[0]
    step = _CHECK_BLOCK
    ids = np.arange(n, dtype=mul.dtype)
    right_inv = np.empty(n, dtype=mul.dtype)
    buf = np.empty((min(step, n), n), dtype=mul.dtype)
    for lo in range(0, n, step):
        rows = mul[lo : lo + step]
        block = buf[: rows.shape[0]]
        block[...] = rows
        block.sort(axis=1)
        if not (block == ids).all():
            raise ValueError("each row must permute 0..N-1")
        right_inv[lo : lo + step] = np.argmax(rows == 0, axis=1)
    for _, block in _column_blocks(mul, buf):
        block.sort(axis=1)
        if not (block == ids).all():
            raise ValueError("each column must permute 0..N-1")
    return right_inv


class GroupTable:
    """A finite group materialized as an N x N multiplication table.

    ``mul[a, b]`` is the id of the product a*b and ``inv[a]`` the id of
    the inverse; both arrays are int16 and read-only after construction.
    A table of another integer dtype is range-checked before it is
    narrowed, and an order past the int16 range raises ResourceLimit.
    Every construction validates that each row and each column permutes
    0..N-1, that the identity sits at id 0, and that ``inv`` is a two-sided
    inverse.  The check runs over blocks of rows and blocks of columns,
    so its scratch memory is O(block * N) on top of the table itself;
    ``inv``, when not given, is read off where 0 sits in each row.
    Associativity is the closure algorithm's guarantee (and is
    spot-checked exhaustively in the test suite).
    """

    identity = 0

    def __init__(
        self,
        mul: np.ndarray,
        inv: Optional[np.ndarray] = None,
        name: str = "G",
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        mul = np.asarray(mul)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mul.shape[0]
        _refuse_order(n)
        mul = _as_ids(mul, n, "each row must permute 0..N-1")
        right_inv = _check_latin(mul)
        ids = np.arange(n, dtype=mul.dtype)
        if not (np.array_equal(mul[0], ids) and np.array_equal(mul[:, 0], ids)):
            raise ValueError("identity must sit at id 0")
        if inv is None:
            inv = right_inv
        else:
            inv = _as_ids(inv, n, "inverse table inconsistent with multiplication")
        # A row holds 0 exactly once, so inv is a right inverse iff it
        # equals right_inv; the gather then checks the left side.
        if not (np.array_equal(inv, right_inv) and not mul[inv, ids].any()):
            raise ValueError("inverse table inconsistent with multiplication")
        mul.setflags(write=False)
        inv.setflags(write=False)
        self.mul = mul
        self.inv = inv
        self.order = n
        self.name = name
        if labels is not None and not isinstance(labels, _LazyLabels):
            labels = list(labels)
        self.labels = labels

    def product(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conjugate(self, a: int, b: int) -> int:
        """b^-1 * a * b."""
        return int(self.mul[self.mul[self.inv[b], a], b])

    def label(self, a: int) -> str:
        if self.labels is None:
            return str(a)
        return self.labels[a]

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 0:
            acc = int(self.mul[acc, a])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        """The order of every element, indexed by id.

        All powers advance together: round k gathers ``x^k = mul[x^(k-1), x]``
        for every x whose power has not yet reached the identity, then
        retires those that have.
        """
        orders = np.zeros(self.order, dtype=np.int64)
        live = np.arange(self.order)
        power = live
        k = 1
        while live.size:
            done = power == 0
            orders[live[done]] = k
            live, power = live[~done], power[~done]
            power = self.mul[power, live]
            k += 1
        return orders

    def __repr__(self) -> str:
        return f"<GroupTable {self.name} order {self.order}>"


def close_group(
    gens: PermList,
    max_order: int = DEFAULT_MAX_ORDER,
    name: Optional[str] = None,
) -> GroupTable:
    """Close permutation generators into a full multiplication table.

    Elements are discovered breadth-first from the identity by right
    multiplication with the generators in the order given, which pins the
    id assignment and makes runs reproducible.  The search runs one BFS
    level at a time on an array of permutations: every element of the
    level times every generator is one gather, and each candidate is
    looked up once by its packed bytes.  Each new element e_j is found as
    e_i * g_k for an earlier e_i, so the table is filled row by row along
    that tree: row j is row i gathered through left multiplication by
    g_k, one contiguous O(N) pass per row.  The elements are kept as one
    ``(N, degree)`` array, from which the cycle labels are written on
    demand.  ResourceLimit is raised as soon as that array passes
    TABLE_BYTES_MAX, and for a table over it before it is allocated.
    """
    d = gens.degree
    dtype = np.int16 if d <= np.iinfo(np.int16).max else np.int32
    gen_idx = np.asarray(gens.perms, dtype=np.intp).reshape(-1, d)
    ngens = len(gen_idx)
    row = np.dtype((np.void, d * np.dtype(dtype).itemsize))
    level = np.arange(d, dtype=dtype)[None, :]
    index = {level.tobytes(): 0}
    levels = [level]
    # found[i * ngens + k] = id(e_i * g_k); edges[j] = (i, k) for the first
    # of these products to reach e_j, with a placeholder for the identity.
    found: list[int] = []
    edges = [(0, 0)]
    while len(level):
        cand = level[:, gen_idx].reshape(-1, d)
        base = len(found)
        fresh = []
        for c, key in enumerate(cand.view(row).ravel().tolist()):
            j = index.get(key)
            if j is None:
                j = index[key] = len(index)
                fresh.append(c)
                edges.append(divmod(base + c, ngens))
            found.append(j)
        if len(index) > max_order:
            raise ClosureTooLarge(f"closure exceeds the order cap {max_order}")
        _refuse_bytes(len(index) * row.itemsize, f"a closure of degree {d}")
        level = cand[fresh]
        levels.append(level)
    del index
    perms = np.concatenate(levels)
    perms.setflags(write=False)
    n = len(perms)
    _refuse_order(n)
    right = np.array(found, dtype=np.intp).reshape(n, ngens).T
    parents, vias = np.array(edges, dtype=np.intp).T
    # left[k, b] = id(g_k * e_b), walked down the same tree one level at a
    # time: g_k * e_j = (g_k * e_i) * g_l when e_j = e_i * g_l.
    left = np.empty((ngens, n), dtype=np.intp)
    left[:, 0] = right[:, 0]
    lo = 1
    for lvl in levels[1:]:
        js = slice(lo, lo + len(lvl))
        left[:, js] = right[vias[js], left[:, parents[js]]]
        lo += len(lvl)
    mul = np.empty((n, n), dtype=_ID_DTYPE)
    mul[0] = np.arange(n, dtype=_ID_DTYPE)
    for j, (i, k) in enumerate(edges[1:], start=1):
        mul[i].take(left[k], out=mul[j])
    labels = _LazyLabels(n, lambda a: cycle_label(perms[a].tolist()))
    return GroupTable(mul, name=name or f"perm{d}", labels=labels)


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


def named_group(
    family: str, param: int, max_order: int = DEFAULT_MAX_ORDER
) -> GroupTable:
    """Build a member of a named family: C n, D n (order 2n), S n, A n, Q8.

    An order whose table would not fit is refused before any closure.
    """
    order = family_order(family, param, max_order)
    _refuse_order(order)
    letter = family.upper()
    name = f"{letter}{param}"
    fam = _FAMILIES[letter]
    perms = fam.gens(param)
    gens = PermList(len(perms[0]) if perms else param, perms)
    g = close_group(gens, max_order=max_order, name=name)
    if g.order != order:
        raise AssertionError(f"{name}: closed to order {g.order}, expected {order}")
    return g


def named_group_names(max_order: int = DEFAULT_MAX_ORDER) -> tuple[str, ...]:
    """Names of the named-family members of order at most ``max_order``."""
    names = []
    for letter, fam in _FAMILIES.items():
        n = fam.first
        while n <= fam.last and _bounded_product(fam.factors(n), max_order):
            names.append(f"{letter}{n}")
            n += 1
    return tuple(names)


def direct_product(
    g1: GroupTable, g2: GroupTable, max_order: int = DEFAULT_MAX_ORDER
) -> GroupTable:
    """Componentwise product; the pair (a, b) gets id a*|G2| + b.

    The table is written into one int16 array, |G2| rows at a time, so no
    temporary larger than one row exists.  Every value formed on the way,
    a*|G2| and the shifts (c - c')*|G2| below, lies within -N..N-1, so
    int16 arithmetic is exact for every order a table holds.  A table
    over TABLE_BYTES_MAX or past the int16 range raises ResourceLimit
    before it is allocated.
    """
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    if n > max_order:
        raise ClosureTooLarge(f"order {n} exceeds the cap {max_order}")
    _refuse_order(n)
    mul = np.empty((n, n), dtype=_ID_DTYPE)
    top = mul[:n2]
    # row (a, b), column (c, d) holds g1[a, c]*n2 + g2[b, d]; write a = 0
    np.add(
        (g1.mul[0] * n2)[None, :, None],
        g2.mul[:, None, :],
        out=top.reshape(n2, n1, n2),
    )
    # rows (a, *) are rows (0, *) shifted by (g1[a, c] - g1[0, c])*n2 in
    # column (c, d): one long add per block, however small n2 is
    for a in range(1, n1):
        shift = np.repeat((g1.mul[a] - g1.mul[0]) * n2, n2)
        np.add(top, shift, out=mul[a * n2 : (a + 1) * n2])
    inv = np.add.outer(g1.inv * n2, g2.inv).reshape(-1)
    first, second = _label_of(g1), _label_of(g2)
    labels = _LazyLabels(n, lambda a: f"({first(a // n2)},{second(a % n2)})")
    return GroupTable(mul, inv, name=f"{g1.name}x{g2.name}", labels=labels)


class SubgroupRef:
    """A subgroup of ``parent`` stored as its sorted member ids.

    Closure under multiplication and inversion is validated unless the
    construction guarantees it; normality is computed lazily and cached.
    """

    __slots__ = ("parent", "members", "_member_set", "_normal", "_hash")

    def __init__(
        self, parent: GroupTable, members: Iterable[int], _checked: bool = False
    ) -> None:
        mem = tuple(sorted({int(x) for x in members}))
        if not mem:
            mem = (0,)
        if mem[0] < 0 or mem[-1] >= parent.order:
            raise ValueError("member id out of range")
        if 0 not in mem:
            raise ValueError("a subgroup must contain the identity (id 0)")
        if not _checked:
            arr = np.asarray(mem, dtype=np.int32)
            block = parent.mul[np.ix_(arr, arr)]
            if not np.isin(block, arr).all():
                raise ValueError("member set is not closed under multiplication")
            if not np.isin(parent.inv[arr], arr).all():
                raise ValueError("member set is not closed under inversion")
        self.parent = parent
        self.members = mem
        self._member_set = frozenset(mem)
        self._normal: Optional[bool] = None
        # Hashed once: a SubgroupRef keys the engine's caches on every call.
        self._hash = hash((id(parent), mem))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_full(self) -> bool:
        return len(self.members) == self.parent.order

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<SubgroupRef order {self.order} of {self.parent.name}>"


def subgroup_closure(G: GroupTable, seed: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup of G containing all ids in ``seed``."""
    gens = sorted({int(x) for x in seed})
    for x in gens:
        if not 0 <= x < G.order:
            raise ValueError(f"element id {x} out of range for {G.name}")
    mul = G.mul
    members = {0}
    frontier = [0]
    while frontier:
        fresh = []
        for w in frontier:
            for s in gens:
                t = int(mul[w, s])
                if t not in members:
                    members.add(t)
                    fresh.append(t)
        frontier = fresh
    return SubgroupRef(G, members, _checked=True)


def trivial_subgroup(G: GroupTable) -> SubgroupRef:
    return SubgroupRef(G, (0,), _checked=True)


def full_subgroup(G: GroupTable) -> SubgroupRef:
    return SubgroupRef(G, range(G.order), _checked=True)


def _require_same_parent(G: GroupTable, H: SubgroupRef) -> None:
    if H.parent is not G:
        raise ForeignSubgroup(
            f"subgroup of {H.parent.name} used with group {G.name}"
        )


def is_normal(G: GroupTable, H: SubgroupRef) -> bool:
    """Whether g*h*g^-1 stays in H for every g in G; cached on H."""
    _require_same_parent(G, H)
    if H._normal is None:
        arr = np.asarray(H.members, dtype=np.int32)
        ok = True
        for h in H.members:
            conj = G.mul[G.mul[:, h], G.inv]
            if not np.isin(conj, arr, assume_unique=False).all():
                ok = False
                break
        H._normal = ok
    return H._normal


def centralizer_of_element(G: GroupTable, K: SubgroupRef, w: int) -> SubgroupRef:
    """C_K(w): the members of K commuting with w."""
    _require_same_parent(G, K)
    if not 0 <= w < G.order:
        raise ValueError(f"element id {w} out of range")
    karr = np.asarray(K.members, dtype=np.int32)
    mask = G.mul[karr, w] == G.mul[w, karr]
    return SubgroupRef(G, karr[mask], _checked=True)


def centralizer_of_subgroup(H: SubgroupRef, K: SubgroupRef) -> SubgroupRef:
    """C_H(K): the members of H commuting with every member of K."""
    if H.parent is not K.parent:
        raise ForeignSubgroup("H and K must share a parent group")
    G = H.parent
    harr = np.asarray(H.members, dtype=np.int32)
    karr = np.asarray(K.members, dtype=np.int32)
    block = G.mul[np.ix_(harr, karr)] == G.mul[np.ix_(karr, harr)].T
    return SubgroupRef(G, harr[block.all(axis=1)], _checked=True)


@dataclass(frozen=True)
class ConjugacyInfo:
    """Orbits of a group under conjugation by a subgroup K.

    ``classes`` are sorted member tuples in order of least member;
    ``class_of[x]`` indexes into ``classes``; ``centralizer_order[x]``
    is |C_K(x)| = |K| / |x^K| (orbit-stabilizer).
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    centralizer_order: np.ndarray


def conjugacy(G: GroupTable, K: SubgroupRef) -> ConjugacyInfo:
    """Partition G into K-conjugacy orbits."""
    _require_same_parent(G, K)
    n = G.order
    karr = np.asarray(K.members, dtype=np.int32)
    kinv = G.inv[karr]
    class_of = np.full(n, -1, dtype=np.int32)
    classes: list[tuple[int, ...]] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(G.mul[G.mul[kinv, x], karr])
        idx = len(classes)
        class_of[orbit] = idx
        classes.append(tuple(int(v) for v in orbit))
    orbit_sizes = np.array([len(c) for c in classes], dtype=np.int64)
    cent = K.order // orbit_sizes[class_of]
    class_of.setflags(write=False)
    cent.setflags(write=False)
    return ConjugacyInfo(tuple(classes), class_of, cent)


def center(G: GroupTable) -> SubgroupRef:
    """Z(G): the elements whose row of ``mul`` equals their column.

    Each block of columns (see ``_column_blocks``) is compared with the
    same block of rows, so the scratch is O(_CHECK_BLOCK * N).
    """
    mul = G.mul
    n = G.order
    central = np.empty(n, dtype=bool)
    buf = np.empty((min(_CHECK_BLOCK, n), n), dtype=mul.dtype)
    for lo, block in _column_blocks(mul, buf):
        central[lo : lo + len(block)] = (block == mul[lo : lo + len(block)]).all(axis=1)
    return SubgroupRef(G, np.flatnonzero(central), _checked=True)


def quotient_group(
    G: GroupTable, N: SubgroupRef
) -> tuple[GroupTable, np.ndarray]:
    """G/N for normal N, with the projection array element -> coset id.

    Cosets are ordered by their least member id, which puts N itself
    (the quotient identity) at id 0.
    """
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    narr = np.asarray(N.members, dtype=np.int32)
    cosmin = G.mul[:, narr].min(axis=1)
    reps = np.unique(cosmin)
    rank = {int(r): i for i, r in enumerate(reps)}
    proj = np.asarray([rank[int(v)] for v in cosmin], dtype=_ID_DTYPE)
    mulq = proj[G.mul[np.ix_(reps, reps)]]
    label = _label_of(G)
    labels = _LazyLabels(len(reps), lambda q: f"{label(int(reps[q]))}N")
    table = GroupTable(mulq, name=f"{G.name}/N{N.order}", labels=labels)
    proj.setflags(write=False)
    return table, proj


def smallest_prime_divisor(G: GroupTable) -> int:
    if G.order == 1:
        raise TrivialGroup("the trivial group has no prime divisors")
    n = G.order
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n
