"""Exact commutator counts on S_N from its integer characters, with no table.

With H = K = S_N, the number of tuples of S_N^(n+m) whose left-normed
commutator [x1..xn, y1..ym] equals g depends only on the cycle type of
g.  One step of the engine's histogram recurrence (see
``engine._class_steps``) maps the per-class counts o to

    o'_t = sum_i o_i |C_G(z_i)| a_i(z_t),

where a_i(z) counts the pairs (w, u) of the class C_i with w^-1 u = z.
By Frobenius's formula a_i(z) = |C_i|^2 / |G| sum_chi chi(z_i)^2 chi(z) / chi(1),
every class of S_N being its own inverse and every character real.  So
the step is the k x k matrix

    T[i][t] = |C_i| sum_chi chi(z_i)^2 chi(z_t) / chi(1),

with k = p(N), and since the characters of S_N are integers (the
Murnaghan-Nakayama rule), T is exact in Python ints.  Starting from one
tuple per element, n - 1 + m steps give every count.  Classes are
indexed by partitions of N in the order of ``partitions``.  The element
ids, as the table would number them, come from ``named_elements``; the
module needs no numpy.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import factorial
from typing import Sequence

from .families import DEFAULT_MAX_ORDER, _check_order, _named_gens, named_order

__all__ = [
    "named_elements",
    "partitions",
    "centralizer_order",
    "characters",
    "step_matrix",
    "commutator_counts",
    "cycle_type",
]

Partition = tuple[int, ...]


def named_elements(
    family: str, param: int, max_order: int = DEFAULT_MAX_ORDER
) -> list[tuple[int, ...]]:
    """The elements of ``groups.named_group(family, param, max_order)`` as
    image tuples, entry a the images of element id a, with no table built.

    A queue walk from the identity multiplies each element, in id order,
    by each generator in turn, and numbers each new permutation as it is
    first met: the breadth-first order of ``groups._close_perms``, whose
    candidate ``level[:, g]`` is ``itemgetter(*g)`` of each row.  Every
    refusal is ``named_group``'s.
    """
    order = named_order(family, param, max_order)
    gens = _named_gens(family, param)
    identity = tuple(range(gens.degree))
    perms = [identity]  # element id -> images, grown as the walk finds them
    seen = {identity}
    # The one permutation of a single point is the identity, and
    # itemgetter of one index would return a scalar.
    steps = [operator.itemgetter(*g) for g in gens.perms] if gens.degree > 1 else []
    for perm in perms:
        for step in steps:
            image = step(perm)
            if image not in seen:
                seen.add(image)
                perms.append(image)
    _check_order(f"{family.upper()}{param}", len(perms), order)
    return perms


@lru_cache(maxsize=16)
def partitions(n: int) -> tuple[Partition, ...]:
    """The partitions of n, parts non-increasing, in reverse lexicographic
    order: ``(n,)`` first, ``(1,) * n`` last."""

    def below(rest: int, cap: int) -> list[Partition]:
        if rest == 0:
            return [()]
        return [
            (first,) + tail
            for first in range(min(rest, cap), 0, -1)
            for tail in below(rest - first, first)
        ]

    return tuple(below(n, n))


def centralizer_order(mu: Partition) -> int:
    """|C(z)| for z of cycle type mu: the product of i^a_i * a_i! over the
    a_i cycles of each length i."""
    out = 1
    for length in set(mu):
        a = mu.count(length)
        out *= length**a * factorial(a)
    return out


def _strip_removals(lam: Partition, r: int) -> list[tuple[int, Partition]]:
    """Every (sign, shape) left by removing a border strip of length r from lam.

    On the beta-set b_j = lam_j + (len(lam) - 1 - j), a strip of length r
    moves one bead b to an empty b - r >= 0; its height is the number of
    beads strictly between, and the sign is (-1)^height.
    """
    ell = len(lam)
    beta = [p + ell - 1 - j for j, p in enumerate(lam)]
    present = set(beta)
    out = []
    for j, b in enumerate(beta):
        c = b - r
        if c < 0 or c in present:
            continue
        height = sum(1 for x in beta if c < x < b)
        moved = sorted(beta[:j] + [c] + beta[j + 1 :], reverse=True)
        shape = tuple(x - (ell - 1 - i) for i, x in enumerate(moved))
        out.append((-1 if height % 2 else 1, tuple(p for p in shape if p)))
    return out


@lru_cache(maxsize=16)
def characters(n: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_n: row l is chi^lam on every class mu,
    both indexed by ``partitions(n)``.

    chi^lam(mu) is found by the Murnaghan-Nakayama rule, removing a
    border strip of length mu[0] in every way and recursing on mu[1:];
    each (shape, remaining cycle type) is worked out once.
    """
    memo: dict[tuple[Partition, Partition], int] = {}

    def chi(lam: Partition, mu: Partition) -> int:
        if not mu:
            return 1
        key = (lam, mu)
        value = memo.get(key)
        if value is None:
            rest = mu[1:]
            value = memo[key] = sum(
                sign * chi(shape, rest) for sign, shape in _strip_removals(lam, mu[0])
            )
        return value

    parts = partitions(n)
    return tuple(tuple(chi(lam, mu) for mu in parts) for lam in parts)


@lru_cache(maxsize=16)
def step_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """T[i][t] = |C_i| sum_chi chi(z_i)^2 chi(z_t) / chi(1) on S_n, exactly.

    As |C_i| = n! / |C(z_i)|, an entry is sum_chi chi(z_i)^2 chi(z_t)
    (n! / chi(1)) over |C(z_i)|, all in ints; AssertionError if that
    division leaves a remainder.
    """
    order = factorial(n)
    table = characters(n)
    # the identity class, (1,) * n, comes last
    cofactors = [order // row[-1] for row in table]
    rows = []
    for i, mu in enumerate(partitions(n)):
        z = centralizer_order(mu)
        weights = [row[i] * row[i] * c for row, c in zip(table, cofactors)]
        row = []
        for t in range(len(table)):
            total = sum(w * chars[t] for w, chars in zip(weights, table))
            entry, rem = divmod(total, z)
            if rem:
                raise AssertionError(f"S{n}: step entry ({i}, {t}) is not an integer")
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


def commutator_counts(degree: int, n: int, m: int) -> dict[Partition, int]:
    """For each cycle type, the tuples of S_degree^(n+m) whose left-normed
    commutator is one given element of that type.

    These are ``engine.final_counts(H, K, n, m)`` with H = K = S_degree,
    read per class; dividing by (degree!)^(n+m) gives p_g.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    step = step_matrix(degree)
    k = len(step)
    cur = [1] * k
    for _ in range(n - 1 + m):
        cur = [sum(cur[i] * step[i][t] for i in range(k)) for t in range(k)]
    return dict(zip(partitions(degree), cur))


def cycle_type(perm: Sequence[int]) -> Partition:
    """The cycle lengths of a permutation given by its images, largest first."""
    images = [int(x) for x in perm]
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))
