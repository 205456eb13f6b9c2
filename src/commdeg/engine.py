"""Exact engine for left-normed commutator statistics.

Every result is a count vector: entry g counts the tuples of H^n x K^m
whose left-normed commutator [x1..xn, y1..ym] equals g, and
``space_size(H, K, n, m) = |H|^n |K|^m`` is the denominator that turns an
entry into the exact probability p_g.  Every count but the brute-force
one comes from a single primitive, the orbit step over the conjugation
orbits of a subgroup P, weighted by a power of |C_P(w)|.  The step has
two routes with the same counts: the pair route walks every orbit pair,
sum_w |w^P| <= |G| * |P| updates regardless of how many tuples it
accounts for, and the class route, for a vector constant on the k
orbits, multiplies one value per orbit by a k x k class-algebra matrix
when k^2 is at most the pair count (with H = K = G every vector is a
class function, and S7 has k = 15 against 2,675,724 pairs).  The
histogram recurrence (`final_counts`, the production path) chains such
steps at weight 1; the conjugacy-class formula (`class_formula_counts`),
whose one solvability test keeps w*g in the K-class of w, is one step at
weight m.  Literal tuple enumeration (`brute_counts`) shares nothing with
the step and is the independent oracle that audits it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import groups
from .errors import BruteCapExceeded, EmptyTuple, ForeignSubgroup
from .families import BRUTE_CAP_DEFAULT
from .groups import GroupTable, SubgroupRef

_INT64_SAFE = 2**62
_CHUNK = 1 << 22

__all__ = [
    "BRUTE_CAP_DEFAULT",
    "commutator",
    "space_size",
    "comm_distribution",
    "extend_by_conjugators",
    "final_counts",
    "brute_counts",
    "prob_fast",
    "class_formula_counts",
    "prob_class_formula",
    "nested_commutator_subgroup",
    "y_set_size",
    "conjugacy_info",
    "clear_caches",
]


def commutator(G: GroupTable, x: int, y: int) -> int:
    """x^-1 * y^-1 * x * y."""
    mul, inv = G.mul, G.inv
    return int(mul[mul[mul[inv[x], inv[y]], x], y])


def _comm_block(G: GroupTable, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """commutator(r, c) for every row element r and column element c."""
    mul, inv = G.mul, G.inv
    r = rows[:, None]
    c = cols[None, :]
    return mul[mul[mul[inv[r], inv[c]], r], c]


@lru_cache(maxsize=32)
def _orbit_pairs(P: SubgroupRef) -> tuple[np.ndarray, np.ndarray]:
    """Pair list (w, w^-1 * u) over every P-conjugacy orbit and w, u in it.

    As y runs over P, [w, y] = w^-1 * w^y meets each w^-1 * u with
    u in w^P exactly |C_P(w)| times, so these sum_w |w^P| pairs carry the
    whole counting step.  Orbits of one size are handled as one array.
    Both arrays hold ids in the table's own dtype (int16).
    """
    G = P.parent
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for orbit in conjugacy_info(P).classes:
        by_size.setdefault(len(orbit), []).append(orbit)
    srcs, dsts = [], []
    for size, orbits in by_size.items():
        block = np.asarray(orbits, dtype=G.mul.dtype)
        w = np.repeat(block, size, axis=1)
        u = np.tile(block, (1, size))
        srcs.append(w.ravel())
        dsts.append(G.mul[G.inv[w], u].ravel())
    return np.concatenate(srcs), np.concatenate(dsts)


def _orbit_steps(
    counts: Sequence[int], P: SubgroupRef, steps: int, power: int = 1
) -> list[int]:
    """Apply `steps` rounds of new[w^-1 * u] += old[w] * |C_P(w)|^power.

    Here w runs over G and u over its P-orbit w^P.  At power 1 a round is
    new[v] = sum(old[w] for [w, y] = v, y in P); at power m it is the
    conjugacy-class formula.  A round maps a vector constant on the
    P-orbits to another one, so such a vector takes the class route
    (`_class_steps`, O(k^2) per round for k orbits) whenever k^2 is at
    most the orbit-pair count; any other vector takes the pair route
    (`_pair_steps`).  Both give the same exact counts.
    """
    if steps == 0:
        return [int(c) for c in counts]
    if _class_route_fits(counts, P):
        return _class_steps(counts, P, steps, power)
    return _pair_steps(counts, P, steps, power)


def _step_dtype(counts: Sequence[int], P: SubgroupRef, steps: int, power: int):
    """int64 when the final mass provably fits, otherwise Python integers.

    A round multiplies the total mass by at most |P|^power, and every
    partial sum of a round is at most that round's mass.
    """
    total = sum(counts) * P.order ** (steps * power)
    return np.int64 if total < _INT64_SAFE else object


def _pair_steps(
    counts: Sequence[int], P: SubgroupRef, steps: int, power: int
) -> list[int]:
    """The rounds of `_orbit_steps` over the pairs of `_orbit_pairs`."""
    src, dst = _orbit_pairs(P)
    dtype = _step_dtype(counts, P, steps, power)
    weight = conjugacy_info(P).centralizer_order.astype(dtype) ** power
    cur = np.array([int(c) for c in counts], dtype=dtype)
    for _ in range(steps):
        new = np.zeros(len(cur), dtype=dtype)
        np.add.at(new, dst, (cur * weight)[src])
        cur = new
    return cur.tolist()


def _class_route_fits(counts: Sequence[int], P: SubgroupRef) -> bool:
    """Whether `_orbit_steps` takes the class route: a class round pays
    over P and counts is constant on the P-orbits."""
    if not _class_route_pays(P):
        return False
    reps, _ = _class_algebra(P)
    vec = np.asarray(counts)
    return bool((vec == vec[reps][conjugacy_info(P).class_of]).all())


@lru_cache(maxsize=1024)
def _class_route_pays(P: SubgroupRef) -> bool:
    """k^2 <= sum |O|^2 over the k P-orbits O: a class round costs no more
    than a pair round."""
    orbits = conjugacy_info(P).classes
    return len(orbits) ** 2 <= sum(len(orbit) ** 2 for orbit in orbits)


@lru_cache(maxsize=32)
def _class_algebra(P: SubgroupRef) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives z_t and D[i, t] = #{w in O_i : w * z_t in O_i}.

    O_i is the i-th P-orbit of `conjugacy_info(P)` and z_t its least
    member.  Column t of D takes one column read of the table.
    """
    G = P.parent
    info = conjugacy_info(P)
    cls = info.class_of
    k = len(info.classes)
    reps = np.array([orbit[0] for orbit in info.classes], dtype=np.intp)
    D = np.empty((k, k), dtype=np.int64)
    for t, z in enumerate(reps):
        same = cls[G.mul[:, z]] == cls
        D[:, t] = np.bincount(cls[same], minlength=k)
    reps.setflags(write=False)
    D.setflags(write=False)
    return reps, D


def _class_steps(
    counts: Sequence[int], P: SubgroupRef, steps: int, power: int
) -> list[int]:
    """The rounds of `_orbit_steps` on one value per P-orbit.

    ``counts`` must be constant on the P-orbits.  For v in O_t the
    pairs (w, u) with w^-1 * u = v and w, u in O_i number D[i, t] (see
    `_class_algebra`), so a round is o <- o . (diag(|C_P(z_i)|^power) D).
    """
    info = conjugacy_info(P)
    reps, D = _class_algebra(P)
    dtype = _step_dtype(counts, P, steps, power)
    weight = info.centralizer_order[reps].astype(dtype) ** power
    step = weight[:, None] * D.astype(dtype)
    cur = np.array([int(counts[z]) for z in reps], dtype=dtype)
    for _ in range(steps):
        cur = cur @ step
    return cur[info.class_of].tolist()


def space_size(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> int:
    """|H|^n * |K|^m, the number of tuples in H^n x K^m."""
    if H.parent is not K.parent:
        raise ForeignSubgroup("H and K must live in the same parent group")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return H.order**n * K.order**m


@lru_cache(maxsize=4096)
def comm_distribution(H: SubgroupRef, n: int) -> tuple[int, ...]:
    """Counts of [x1,...,xn] over H^n, indexed by value, without touching H^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = [0] * H.parent.order
    for h in H.members:
        counts[h] = 1
    return tuple(_orbit_steps(counts, H, n - 1))


def extend_by_conjugators(
    counts: Sequence[int], K: SubgroupRef, m: int
) -> tuple[int, ...]:
    """Extend a value count vector by m further slots drawn from K."""
    if len(counts) != K.parent.order:
        raise ForeignSubgroup("conjugator subgroup must live in the same group")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 1:
        return _conjugator_step(tuple(counts), K)
    return tuple(_orbit_steps(counts, K, m))


@lru_cache(maxsize=4096)
def _conjugator_step(counts: tuple[int, ...], K: SubgroupRef) -> tuple[int, ...]:
    """One orbit step over K at power 1, cached by the values of ``counts``.

    It ends ``final_counts(H, K, n, 1)`` and is the whole of
    ``class_formula_counts(H, K, n, 1)``, so the two share one step; a
    histogram with other values, such as a seeded fault makes, is another
    key and is stepped afresh.
    """
    return tuple(_orbit_steps(counts, K, 1))


@lru_cache(maxsize=4096)
def final_counts(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> tuple[int, ...]:
    """Cached counts of [x1..xn,y1..ym] = g over H^n x K^m, indexed by g."""
    if H.parent is not K.parent:
        raise ForeignSubgroup("H and K must live in the same parent group")
    return extend_by_conjugators(comm_distribution(H, n), K, m)


@lru_cache(maxsize=1024)
def conjugacy_info(K: SubgroupRef) -> groups.ConjugacyInfo:
    """Cached K-conjugacy orbits of K's parent group."""
    return groups.conjugacy(K.parent, K)


def clear_caches() -> None:
    """Empty every cache of this module.

    The caches are those of the functions as defined here, so a function
    replaced on the module (as a test or a tracer may do) is no obstacle.
    """
    for cached in _CACHES:
        cached.cache_clear()


def _expand(
    G: GroupTable, vals: np.ndarray, rest: Sequence[np.ndarray], acc: np.ndarray
) -> None:
    """Fold each value in ``vals`` with every tuple over ``rest``; bin into acc.

    A module-level function rather than a closure in ``brute_counts``, so a
    call leaves no function-cell cycle pinning ``G`` until a cyclic
    collection runs.
    """
    if not rest:
        np.add(acc, np.bincount(vals, minlength=G.order), out=acc)
        return
    nxt = rest[0]
    if vals.size * nxt.size <= _CHUNK:
        _expand(G, _comm_block(G, vals, nxt).ravel(), rest[1:], acc)
    else:
        step = max(1, _CHUNK // max(nxt.size, 1))
        for s in range(0, vals.size, step):
            block = _comm_block(G, vals[s : s + step], nxt)
            _expand(G, block.ravel(), rest[1:], acc)


def brute_counts(
    G: GroupTable,
    pools: Sequence[Sequence[int]],
    cap: int = BRUTE_CAP_DEFAULT,
    threads: int = 1,
) -> list[int]:
    """Value histogram by literal enumeration of every tuple.

    This is the oracle path: it materializes the folded commutator value
    of each individual tuple (in chunks) and bin-counts them, so it shares
    nothing with the histogram recurrence beyond the group table itself.
    ``threads`` is clamped to the CPUs this process may run on.
    """
    if not pools:
        raise EmptyTuple("need at least one tuple slot")
    total = 1
    for p in pools:
        total *= len(p)
    if total > cap:
        raise BruteCapExceeded(f"{total} tuples exceed the cap {cap}")
    arrs = [np.asarray(p, dtype=np.int32) for p in pools]
    workers = 1
    if threads > 1:
        workers = min(threads, _usable_cpus(), arrs[0].size)
    if workers > 1:
        slices = np.array_split(arrs[0], workers)
        accs = [np.zeros(G.order, dtype=np.int64) for _ in slices]

        def work(i: int) -> None:
            _expand(G, slices[i], arrs[1:], accs[i])

        with ThreadPoolExecutor(max_workers=len(slices)) as ex:
            list(ex.map(work, range(len(slices))))
        out = np.sum(accs, axis=0)
    else:
        out = np.zeros(G.order, dtype=np.int64)
        _expand(G, arrs[0], arrs[1:], out)
    return [int(v) for v in out]


def _usable_cpus() -> int:
    """How many CPUs this process may run on (its ``taskset`` on Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _prob(
    counts: Callable[[SubgroupRef, SubgroupRef, int, int], Sequence[int]],
    H: SubgroupRef,
    K: SubgroupRef,
    n: int,
    m: int,
    g: int,
) -> Fraction:
    """counts(H, K, n, m)[g] over the space size, arguments checked first."""
    size = space_size(H, K, n, m)
    if not 0 <= g < H.parent.order:
        raise ValueError(f"element id {g} out of range")
    return Fraction(counts(H, K, n, m)[g], size)


def prob_fast(H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int) -> Fraction:
    """Exact probability via the histogram recurrence (production path)."""
    return _prob(final_counts, H, K, n, m, g)


def class_formula_counts(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> list[int]:
    """Conjugacy-class sums of |C_K(w)|^m over solvable x-block values w, all g.

    An x-block value w solves g when w*g lies in the K-class of w, that
    is, g = w^-1 * u with u in w^K.  This is exact for m = 1 under the
    commutator convention used here and not a sound count for m > 1.
    The sum is one orbit step over K at power m; at m = 1 that is the
    step ``final_counts(H, K, n, 1)`` ends with, shared through
    ``_conjugator_step``.
    """
    if H.parent is not K.parent:
        raise ForeignSubgroup("H and K must live in the same parent group")
    counts = comm_distribution(H, n)
    if m == 1:
        return list(_conjugator_step(counts, K))
    return _orbit_steps(counts, K, 1, power=m)


def prob_class_formula(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int
) -> Fraction:
    """One entry of `class_formula_counts` as a probability."""
    return _prob(class_formula_counts, H, K, n, m, g)


def nested_commutator_subgroup(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> SubgroupRef:
    """The subgroup generated by the values of weight-(n + m) commutators."""
    counts = final_counts(H, K, n, m)
    return _support_closure(H.parent, tuple(v for v, c in enumerate(counts) if c))


@lru_cache(maxsize=4096)
def _support_closure(G: GroupTable, support: tuple[int, ...]) -> SubgroupRef:
    """The closure of one sorted support, made once for every cell that has it."""
    return groups.subgroup_closure(G, support)


def y_set_size(H: SubgroupRef, K: SubgroupRef, n: int) -> int:
    """Tuples in H^n whose folded value has trivial centralizer in K."""
    cent = conjugacy_info(K).centralizer_order
    return sum(c for w, c in enumerate(comm_distribution(H, n)) if c and cent[w] == 1)


_CACHES = (
    comm_distribution,
    _orbit_pairs,
    _class_route_pays,
    _class_algebra,
    final_counts,
    _conjugator_step,
    conjugacy_info,
    _support_closure,
)
