"""Exact engine for left-normed commutator statistics.

Probabilities are exact ``fractions.Fraction`` values.  Every count but
the brute-force one comes from a single primitive, the orbit step: it
walks the conjugation orbits of a subgroup P and weights each orbit pair
by a power of |C_P(w)|, so a step costs sum_w |w^P| <= |G| * |P|
updates regardless of how many tuples it accounts for.  The histogram
recurrence (the production path) chains such steps at weight 1; the
conjugacy-class formula, whose one solvability test keeps w*g in the
K-class of w, is one step at weight m.  Literal tuple
enumeration shares nothing with the step and is the independent oracle
that audits it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import groups
from .errors import BruteCapExceeded, EmptyTuple, ForeignSubgroup
from .groups import GroupTable, SubgroupRef

BRUTE_CAP_DEFAULT = 10**8

_INT64_SAFE = 2**62
_CHUNK = 1 << 22

__all__ = [
    "BRUTE_CAP_DEFAULT",
    "CommParams",
    "ExactProb",
    "CommDistribution",
    "commutator",
    "comm_distribution",
    "extend_by_conjugators",
    "final_counts",
    "brute_counts",
    "prob_brute",
    "prob_fast",
    "class_formula_counts",
    "prob_class_formula",
    "commutator_value_set",
    "nested_commutator_subgroup",
    "nilpotency_degree",
    "commutativity_degree",
    "y_set_size",
    "conjugacy_info",
    "prob_to_json",
    "clear_caches",
]


def commutator(G: GroupTable, x: int, y: int) -> int:
    """x^-1 * y^-1 * x * y."""
    mul, inv = G.mul, G.inv
    return int(mul[mul[mul[inv[x], inv[y]], x], y])


@dataclass(frozen=True)
class CommParams:
    """Inputs (H, K, n, m, g) for a weight-(n + m) commutator probability."""

    H: SubgroupRef
    K: SubgroupRef
    n: int
    m: int
    g: int

    def __post_init__(self) -> None:
        if self.H.parent is not self.K.parent:
            raise ForeignSubgroup("H and K must live in the same parent group")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if not 0 <= self.g < self.H.parent.order:
            raise ValueError(f"element id {self.g} out of range")

    @property
    def parent(self) -> GroupTable:
        return self.H.parent

    @property
    def space_size(self) -> int:
        return self.H.order**self.n * self.K.order**self.m


@dataclass(frozen=True)
class ExactProb:
    """An exact probability together with the method that produced it."""

    value: Fraction
    method: str
    params: Optional[CommParams] = None

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class CommDistribution:
    """Dense histogram of left-normed commutator values over a tuple space."""

    group: GroupTable
    counts: tuple[int, ...]
    weight: int
    source: str

    @property
    def total(self) -> int:
        return sum(self.counts)

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.counts) if c)


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
    """
    G = P.parent
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for orbit in conjugacy_info(P).classes:
        by_size.setdefault(len(orbit), []).append(orbit)
    srcs, dsts = [], []
    for size, orbits in by_size.items():
        block = np.asarray(orbits, dtype=np.int32)
        w = np.repeat(block, size, axis=1)
        u = np.tile(block, (1, size))
        srcs.append(w.ravel())
        dsts.append(G.mul[G.inv[w], u].ravel())
    return np.concatenate(srcs), np.concatenate(dsts)


def _orbit_steps(
    counts: Sequence[int], P: SubgroupRef, steps: int, power: int = 1
) -> list[int]:
    """Apply `steps` rounds of new[w^-1 * u] += old[w] * |C_P(w)|^power.

    The pairs (w, w^-1 * u) are those of `_orbit_pairs`.  At power 1 a
    round is new[v] = sum(old[w] for [w, y] = v, y in P); at power m it is
    the conjugacy-class formula.  A round multiplies the total mass by at
    most |P|^power, so it runs on int64 when the final mass provably fits,
    otherwise on Python integers over the same pairs; both give the same
    exact counts.
    """
    if steps == 0:
        return [int(c) for c in counts]
    src, dst = _orbit_pairs(P)
    total = sum(counts) * P.order ** (steps * power)
    dtype = np.int64 if total < _INT64_SAFE else object
    weight = conjugacy_info(P).centralizer_order.astype(dtype) ** power
    cur = np.array([int(c) for c in counts], dtype=dtype)
    for _ in range(steps):
        new = np.zeros(len(cur), dtype=dtype)
        np.add.at(new, dst, (cur * weight)[src])
        cur = new
    return [int(v) for v in cur]


@lru_cache(maxsize=4096)
def comm_distribution(H: SubgroupRef, n: int) -> CommDistribution:
    """Histogram of [x1,...,xn] over H^n, computed without touching H^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    G = H.parent
    counts = [0] * G.order
    for h in H.members:
        counts[h] = 1
    counts = _orbit_steps(counts, H, n - 1)
    return CommDistribution(
        G, tuple(counts), n, source=f"x-block n={n}, |H|={H.order}, G={G.name}"
    )


def extend_by_conjugators(
    dist: CommDistribution, K: SubgroupRef, m: int
) -> CommDistribution:
    """Extend a value histogram by m further slots drawn from K."""
    if K.parent is not dist.group:
        raise ForeignSubgroup("conjugator subgroup must live in the same group")
    if m < 0:
        raise ValueError("m must be >= 0")
    counts = _orbit_steps(dist.counts, K, m)
    return CommDistribution(
        dist.group,
        tuple(counts),
        dist.weight + m,
        source=f"{dist.source} + y-block m={m}, |K|={K.order}",
    )


@lru_cache(maxsize=4096)
def final_counts(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> tuple[int, ...]:
    """Cached counts of [x1..xn,y1..ym] = g over H^n x K^m, indexed by g."""
    return extend_by_conjugators(comm_distribution(H, n), K, m).counts


@lru_cache(maxsize=1024)
def conjugacy_info(K: SubgroupRef) -> groups.ConjugacyInfo:
    """Cached K-conjugacy orbits of K's parent group."""
    return groups.conjugacy(K.parent, K)


def clear_caches() -> None:
    comm_distribution.cache_clear()
    _orbit_pairs.cache_clear()
    final_counts.cache_clear()
    conjugacy_info.cache_clear()


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
    ``threads`` is clamped to the machine's CPU count.
    """
    if not pools:
        raise EmptyTuple("need at least one tuple slot")
    total = 1
    for p in pools:
        total *= len(p)
    if total > cap:
        raise BruteCapExceeded(f"{total} tuples exceed the cap {cap}")
    arrs = [np.asarray(p, dtype=np.int32) for p in pools]

    def expand(vals: np.ndarray, rest: list[np.ndarray], acc: np.ndarray) -> None:
        if not rest:
            np.add(acc, np.bincount(vals, minlength=G.order), out=acc)
            return
        nxt = rest[0]
        if vals.size * nxt.size <= _CHUNK:
            expand(_comm_block(G, vals, nxt).ravel(), rest[1:], acc)
        else:
            step = max(1, _CHUNK // max(nxt.size, 1))
            for s in range(0, vals.size, step):
                expand(
                    _comm_block(G, vals[s : s + step], nxt).ravel(), rest[1:], acc
                )

    workers = min(threads, os.cpu_count() or 1, arrs[0].size)
    if workers > 1:
        slices = np.array_split(arrs[0], workers)
        accs = [np.zeros(G.order, dtype=np.int64) for _ in slices]

        def work(i: int) -> None:
            expand(slices[i], arrs[1:], accs[i])

        with ThreadPoolExecutor(max_workers=len(slices)) as ex:
            list(ex.map(work, range(len(slices))))
        out = np.sum(accs, axis=0)
    else:
        out = np.zeros(G.order, dtype=np.int64)
        expand(arrs[0], arrs[1:], out)
    return [int(v) for v in out]


def prob_brute(
    params: CommParams, cap: int = BRUTE_CAP_DEFAULT, threads: int = 1
) -> ExactProb:
    """Exact probability by enumerating all |H|^n * |K|^m tuples."""
    pools = [params.H.members] * params.n + [params.K.members] * params.m
    counts = brute_counts(params.parent, pools, cap=cap, threads=threads)
    return ExactProb(
        Fraction(counts[params.g], params.space_size), "brute", params
    )


def prob_fast(params: CommParams) -> ExactProb:
    """Exact probability via the histogram recurrence (production path)."""
    counts = final_counts(params.H, params.K, params.n, params.m)
    return ExactProb(
        Fraction(counts[params.g], params.space_size), "distribution", params
    )


def class_formula_counts(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> list[int]:
    """Conjugacy-class sums of |C_K(w)|^m over solvable x-block values w, all g.

    An x-block value w solves g when w*g lies in the K-class of w, that
    is, g = w^-1 * u with u in w^K.  This is exact for m = 1 under the
    commutator convention used here and not a sound count for m > 1.
    The sum is one orbit step over K at power m.
    """
    if H.parent is not K.parent:
        raise ForeignSubgroup("H and K must live in the same parent group")
    return _orbit_steps(comm_distribution(H, n).counts, K, 1, power=m)


def prob_class_formula(params: CommParams) -> ExactProb:
    """One entry of `class_formula_counts` as a probability."""
    counts = class_formula_counts(params.H, params.K, params.n, params.m)
    return ExactProb(
        Fraction(counts[params.g], params.space_size), "class_formula", params
    )


def commutator_value_set(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> tuple[int, ...]:
    """All values attained by weight-(n + m) commutators over H^n x K^m."""
    counts = final_counts(H, K, n, m)
    return tuple(v for v, c in enumerate(counts) if c)


def nested_commutator_subgroup(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> SubgroupRef:
    """The subgroup generated by the commutator value set."""
    return groups.subgroup_closure(
        H.parent, commutator_value_set(H, K, n, m)
    )


def nilpotency_degree(G: GroupTable, H: SubgroupRef, n: int) -> ExactProb:
    """Probability that a weight-(n + 1) commutator with x-block in H is trivial."""
    if H.parent is not G:
        raise ForeignSubgroup("H must be a subgroup of G")
    return prob_fast(CommParams(H, groups.full_subgroup(G), n, 1, 0))


def commutativity_degree(G: GroupTable) -> ExactProb:
    """Probability that two uniform elements of G commute."""
    return nilpotency_degree(G, groups.full_subgroup(G), 1)


def y_set_size(H: SubgroupRef, K: SubgroupRef, n: int) -> int:
    """Tuples in H^n whose folded value has trivial centralizer in K."""
    dist = comm_distribution(H, n)
    info = conjugacy_info(K)
    return sum(
        dist.counts[w]
        for w in dist.support()
        if int(info.centralizer_order[w]) == 1
    )


def prob_to_json(p: ExactProb) -> dict:
    """JSON-ready form of a probability with its full parameter context."""
    if p.params is None:
        raise ValueError("probability carries no parameters to serialize")
    q = p.params
    return {
        "group": q.parent.name,
        "H": list(q.H.members),
        "K": list(q.K.members),
        "n": q.n,
        "m": q.m,
        "g": q.g,
        "method": p.method,
        "value": {"num": str(p.numerator), "den": str(p.denominator)},
    }
