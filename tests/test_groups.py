import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commdeg import groups, lattice
from commdeg.errors import (
    ClosureTooLarge,
    ForeignSubgroup,
    NotNormal,
    TrivialGroup,
)


def oracle_closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Word closure over raw image tuples, sharing no code with close_group."""
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(degree))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 2, 3, 0)],
        [(1, 0, 2, 3), (0, 1, 3, 2)],
        [(1, 2, 0, 4, 3)],
    ],
)
def test_close_group_matches_word_oracle(gens):
    G = groups.close_group(groups.PermList(len(gens[0]), [list(g) for g in gens]))
    assert G.order == len(oracle_closure(gens))


@pytest.mark.parametrize(
    "family,param,order",
    [
        ("C", 1, 1),
        ("C", 7, 7),
        ("C", 24, 24),
        ("D", 1, 2),
        ("D", 2, 4),
        ("D", 4, 8),
        ("D", 12, 24),
        ("S", 1, 1),
        ("S", 3, 6),
        ("S", 4, 24),
        ("A", 3, 3),
        ("A", 4, 12),
        ("Q", 8, 8),
    ],
)
def test_named_group_orders(family, param, order):
    assert groups.named_group(family, param).order == order


def test_q8_element_order_census(q8):
    tally = {}
    for x in range(q8.order):
        tally[q8.element_order(x)] = tally.get(q8.element_order(x), 0) + 1
    assert tally == {1: 1, 2: 1, 4: 6}


def test_s3_element_labels(s3):
    assert [s3.label(i) for i in range(6)] == [
        "()",
        "(1 2 3)",
        "(1 2)",
        "(1 3 2)",
        "(1 3)",
        "(2 3)",
    ]


def test_table_is_a_group_for_small_cases():
    for G in (
        groups.named_group("S", 3),
        groups.named_group("Q", 8),
        groups.named_group("D", 6),
    ):
        mul = G.mul.astype(np.int64)
        n = G.order
        assert (mul[0] == np.arange(n)).all()
        assert (mul[:, 0] == np.arange(n)).all()
        assert (mul[np.arange(n), G.inv] == 0).all()
        left = mul[mul[:, :, None], np.arange(n)[None, None, :]]
        right = mul[np.arange(n)[:, None, None], mul[None, :, :]]
        assert (left == right).all()
        for row in (mul, mul.T):
            assert all(sorted(r) == list(range(n)) for r in row.tolist())


def test_direct_product_projections_are_homomorphisms(s3):
    c4 = groups.named_group("C", 4)
    P = groups.direct_product(s3, c4)
    assert P.order == 24
    left, right = groups.product_projections(s3, c4)
    assert (left[P.mul] == s3.mul[left[:, None], left[None, :]]).all()
    assert (right[P.mul] == c4.mul[right[:, None], right[None, :]]).all()


def test_direct_product_respects_order_cap():
    c5 = groups.named_group("C", 5)
    with pytest.raises(ClosureTooLarge):
        groups.direct_product(c5, c5, max_order=24)


def test_subgroup_closure_satisfies_lagrange(s4):
    for seed in ([1], [2], [1, 2], [5], [3, 7]):
        H = groups.subgroup_closure(s4, seed)
        assert s4.order % H.order == 0
        assert all(x in H for x in seed)
        members = set(H.members)
        assert {int(s4.mul[a, b]) for a in members for b in members} == members


def test_subgroup_ref_rejects_non_closed_sets(s3):
    with pytest.raises(ValueError):
        groups.SubgroupRef(s3, [0, 2, 4])


def test_conjugacy_class_sizes(s3):
    info = groups.conjugacy(s3, groups.full_subgroup(s3))
    assert sorted(len(c) for c in info.classes) == [1, 2, 3]
    for x in range(s3.order):
        cls = info.classes[info.class_of[x]]
        assert len(cls) * int(info.centralizer_order[x]) == s3.order


def test_conjugacy_under_subgroup_action(s3, a3_in_s3):
    info = groups.conjugacy(s3, a3_in_s3)
    transposition_orbit = info.classes[info.class_of[2]]
    assert transposition_orbit == (2, 4, 5)
    three_cycle_orbit = info.classes[info.class_of[1]]
    assert three_cycle_orbit == (1,)


def test_orbit_stabilizer_over_battery(s4):
    cases = [
        (G, K)
        for G in (groups.named_group("D", 6), groups.named_group("A", 4))
        for K in (groups.full_subgroup(G), groups.subgroup_closure(G, [1]))
    ]
    # <(1 2)> is not normal in S4, so its orbits are not full classes
    transposition = groups.subgroup_closure(s4, [2])
    assert transposition.order == 2 and not groups.is_normal(s4, transposition)
    cases.append((s4, transposition))
    for G, K in cases:
        info = groups.conjugacy(G, K)
        for x in range(G.order):
            orbit = len(info.classes[info.class_of[x]])
            stab = groups.centralizer_of_element(G, K, x).order
            assert orbit * stab == K.order
            assert info.centralizer_order[x] == stab


def test_centers(s3, q8):
    assert groups.center(s3).order == 1
    assert groups.center(q8).order == 2
    assert groups.center(groups.named_group("C", 6)).order == 6


def test_centralizer_of_subgroup(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    assert groups.centralizer_of_subgroup(full, a3_in_s3).members == (0, 1, 3)
    assert groups.centralizer_of_subgroup(a3_in_s3, full).members == (0,)


def test_foreign_subgroup_is_rejected(s3, q8):
    with pytest.raises(ForeignSubgroup):
        groups.is_normal(q8, groups.full_subgroup(s3))


def test_quotient_s3_by_a3(s3, a3_in_s3):
    Q, proj = groups.quotient_group(s3, a3_in_s3)
    assert Q.order == 2
    a = np.arange(s3.order)
    assert (proj[s3.mul] == Q.mul[proj[a][:, None], proj[a][None, :]]).all()


def test_quotient_q8_by_center_has_exponent_two(q8):
    Q, _ = groups.quotient_group(q8, groups.center(q8))
    assert Q.order == 4
    assert all(Q.mul[x, x] == 0 for x in range(4))


def test_quotient_requires_normality(s3):
    H = groups.subgroup_closure(s3, [2])
    with pytest.raises(NotNormal):
        groups.quotient_group(s3, H)


def test_smallest_prime_divisor(s3, q8):
    assert groups.smallest_prime_divisor(s3) == 2
    assert groups.smallest_prime_divisor(groups.named_group("C", 15)) == 3
    with pytest.raises(TrivialGroup):
        groups.smallest_prime_divisor(groups.named_group("C", 1))


_POOL = [
    groups.named_group("S", 3),
    groups.named_group("Q", 8),
    groups.named_group("D", 5),
    groups.named_group("C", 7),
    groups.named_group("A", 4),
]
_POOL_LATTICES = [lattice.all_subgroups(G) for G in _POOL]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_group_axioms_hold_pointwise(data):
    G = data.draw(st.sampled_from(_POOL))
    a = data.draw(st.integers(0, G.order - 1))
    b = data.draw(st.integers(0, G.order - 1))
    assert G.product(a, G.inverse(a)) == 0
    assert G.product(0, a) == a
    assert G.conjugate(a, b) == G.product(
        G.product(G.inverse(b), a), b
    )
    assert G.element_order(a) >= 1
    assert G.product(a, b) in range(G.order)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_subgroup_closure_is_minimal(data):
    idx = data.draw(st.integers(0, len(_POOL) - 1))
    G = _POOL[idx]
    seed = data.draw(
        st.lists(st.integers(0, G.order - 1), min_size=0, max_size=3)
    )
    H = groups.subgroup_closure(G, seed)
    members = set(H.members)
    assert 0 in members
    assert {G.inverse(x) for x in members} == members
    for other in _POOL_LATTICES[idx]:
        if set(seed) <= set(other.members):
            assert members <= set(other.members)


def test_all_subgroups_counts():
    assert len(lattice.all_subgroups(groups.named_group("S", 4))) == 30
    assert len(lattice.all_subgroups(groups.named_group("D", 12))) == 34
    assert len(lattice.all_subgroups(groups.named_group("C", 24))) == 8
    assert len(lattice.all_subgroups(groups.named_group("Q", 8))) == 6


def test_all_subgroups_respects_cap():
    with pytest.raises(ClosureTooLarge):
        lattice.all_subgroups(groups.named_group("C", 30), cap=24)


def test_subgroup_conjugacy_representatives(s4):
    subs = lattice.all_subgroups(s4)
    reps = lattice.subgroup_conjugacy_representatives(s4, subs)
    assert len(reps) == 11
    rep_sets = [set(r.members) for r in reps]
    for H in subs:
        orbit = {
            tuple(sorted(s4.conjugate(x, t) for x in H.members))
            for t in range(s4.order)
        }
        hits = [r for r in rep_sets if tuple(sorted(r)) in orbit]
        assert len(hits) == 1

    d12 = groups.named_group("D", 12)
    assert len(
        lattice.subgroup_conjugacy_representatives(
            d12, lattice.all_subgroups(d12)
        )
    ) == 16
