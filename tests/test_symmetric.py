"""The character route for S_N: integer characters and exact class counts.

The route is checked against the table: its characters against
``chartab.character_table``, its counts against ``engine.final_counts``
and the brute-force oracle, and its element ids against ``named_group``
and the closure ``groups._close_perms``.
"""

import itertools
from math import factorial

import numpy as np
import pytest

from commdeg import chartab, engine, families, groups, groupspec, symmetric
from commdeg.errors import CommdegError

# p(N), the number of partitions of N
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22)


def element_types(N):
    """The named S_N table and the cycle type of each of its element ids."""
    G = groups.named_group("S", N)
    perms = symmetric.named_elements("S", N)
    return G, [symmetric.cycle_type(p) for p in perms]


@pytest.mark.parametrize("N", range(1, 9))
def test_partitions_and_centralizers(N):
    parts = symmetric.partitions(N)
    assert len(parts) == PARTITION_COUNTS[N]
    assert len(set(parts)) == len(parts)
    assert all(sum(p) == N and list(p) == sorted(p, reverse=True) for p in parts)
    # the class sizes N!/|C(z)| add up to N!
    assert sum(factorial(N) // symmetric.centralizer_order(mu) for mu in parts) == (
        factorial(N)
    )


@pytest.mark.parametrize("N", range(1, 9))
def test_characters_are_exactly_orthogonal(N):
    parts = symmetric.partitions(N)
    table = symmetric.characters(N)
    order = factorial(N)
    z = [symmetric.centralizer_order(mu) for mu in parts]
    k = len(parts)
    assert len(table) == k == PARTITION_COUNTS[N]
    degrees = [row[parts.index((1,) * N)] for row in table]
    assert sum(d * d for d in degrees) == order
    for a, b in itertools.product(range(k), repeat=2):
        rows = sum(
            (order // z[t]) * table[a][t] * table[b][t] for t in range(k)
        )
        assert rows == (order if a == b else 0), (a, b)
        columns = sum(table[lam][a] * table[lam][b] for lam in range(k))
        assert columns == (z[a] if a == b else 0), (a, b)


def test_small_character_values():
    # S3 on the classes (3), (2, 1), (1, 1, 1)
    assert symmetric.partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert symmetric.characters(3) == ((1, 1, 1), (-1, 0, 2), (1, -1, 1))


@pytest.mark.parametrize("N", range(1, 7))
def test_counts_match_final_counts_on_every_element(N):
    G, types = element_types(N)
    full = groups.full_subgroup(G)
    for n, m in itertools.product((1, 2, 3), repeat=2):
        by_type = symmetric.commutator_counts(N, n, m)
        want = engine.final_counts(full, full, n, m)
        assert [by_type[t] for t in types] == list(want), (N, n, m)


@pytest.mark.parametrize(
    "N, n, m",
    [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (3, 3, 1), (4, 1, 1), (4, 2, 1),
     (4, 1, 2)],
)
def test_counts_match_brute_force(N, n, m):
    G, types = element_types(N)
    pools = [range(G.order)] * (n + m)
    brute = engine.brute_counts(G, pools)
    by_type = symmetric.commutator_counts(N, n, m)
    assert [by_type[t] for t in types] == brute


def test_s7_value():
    counts = symmetric.commutator_counts(7, 2, 2)
    assert counts[(1,) * 7] * 98784000 == 927917 * 5040**4


def test_step_matrix_is_integer_and_conserves_mass():
    # one step multiplies the total count over all elements by |G|
    for N in range(1, 9):
        parts = symmetric.partitions(N)
        sizes = [factorial(N) // symmetric.centralizer_order(mu) for mu in parts]
        step = symmetric.step_matrix(N)
        for i, row in enumerate(step):
            assert all(type(x) is int and x >= 0 for x in row)
            assert sum(s * x for s, x in zip(sizes, row)) == sizes[i] * factorial(N)


def test_counts_refuse_empty_blocks():
    with pytest.raises(ValueError):
        symmetric.commutator_counts(3, 0, 1)


@pytest.mark.parametrize("N", range(3, 7))
def test_float_character_table_matches_the_integer_one(N):
    G, types = element_types(N)
    table = chartab.character_table(G)
    parts = symmetric.partitions(N)
    exact = np.array(symmetric.characters(N), dtype=float)
    # columns of the integer table in the float table's class order
    columns = [parts.index(types[rep]) for rep in table.class_reps]
    assert sorted(columns) == list(range(len(parts)))
    exact = exact[:, columns]
    matched = []
    for row in table.values:
        gaps = np.abs(exact - row[None, :]).max(axis=1)
        (hit,) = np.flatnonzero(gaps < chartab.CONSTRUCTION_TOL)
        matched.append(int(hit))
    assert sorted(matched) == list(range(len(parts)))


@pytest.mark.parametrize(
    "spec", ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "A5", "D6", "C7", "Q8", "D2"]
)
def test_named_elements_are_the_table_ids(spec):
    letter, n = families._parse_atom(spec)
    perms = symmetric.named_elements(letter, n)
    closure = groups._close_perms(families._named_gens(letter, n), 10080)
    assert [list(p) for p in perms] == closure.perms.tolist()
    G = groups.named_group(letter, n)
    assert len(perms) == G.order
    assert [families.cycle_label(p) for p in perms] == [
        G.label(a) for a in range(G.order)
    ]


def test_named_elements_refuse_as_named_group():
    for args in (("S", 8), ("S", 8, 40320), ("S", 5, 100), ("X", 3)):
        with pytest.raises(CommdegError) as table:
            groups.named_group(*args)
        with pytest.raises(type(table.value)) as elements:
            symmetric.named_elements(*args)
        assert str(elements.value) == str(table.value)


@pytest.mark.parametrize(
    "spec, degree",
    [
        ("S7", 7),
        (" s 12 ", 12),
        ("S07", 7),
        ("A7", None),
        ("S3xC2", None),
        ("perm(3): (1 2 3)", None),
        ("", None),
        ("Sx", None),
        ("Z3", None),
    ],
)
def test_symmetric_degree(spec, degree):
    assert groupspec.symmetric_degree(spec) == degree


def test_cycle_type():
    assert symmetric.cycle_type((0, 1, 2)) == (1, 1, 1)
    assert symmetric.cycle_type((1, 2, 0, 4, 3, 5)) == (3, 2, 1)
