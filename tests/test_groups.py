import functools
import gc
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commdeg import audit, families, groups, groupspec, lattice
from commdeg.errors import (
    ClosureTooLarge,
    ForeignSubgroup,
    InvalidPermutation,
    NotNormal,
    ResourceLimit,
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


def _compose(p, q):
    """The product p*q as close_group multiplies: apply q, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _oracle_ids(G, gens):
    """Each oracle permutation mapped to its id in G through its label."""
    perms = oracle_closure(gens)
    assert G.order == len(perms)
    by_label = {label: i for i, label in enumerate(G.labels)}
    return {p: by_label[groups.cycle_label(p)] for p in sorted(perms)}


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
    ids = _oracle_ids(G, gens)
    bad = [
        (p, q)
        for p, a in ids.items()
        for q, b in ids.items()
        if G.mul[a, b] != ids[_compose(p, q)]
    ]
    assert not bad


def test_close_group_matches_word_oracle_on_s7():
    # 5040 elements span many validation blocks; 20,000 seeded pairs
    gens = [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]
    G = groups.named_group("S", 7)
    assert G.order > 2 * groups._CHECK_BLOCK
    ids = _oracle_ids(G, gens)
    perms = list(ids)
    rng = np.random.default_rng(20000)
    bad = []
    for x, y in rng.integers(0, len(perms), size=(20000, 2)):
        p, q = perms[x], perms[y]
        if G.mul[ids[p], ids[q]] != ids[_compose(p, q)]:
            bad.append((p, q))
    assert not bad


# sha256 of the int32 bytes of mul and inv, and the labels joined by
# newlines.  Element ids (what -g names), products, inverses and labels all
# reach the output, so closure must reproduce each table id for id; the
# ids are hashed as int32 whatever dtype the table holds them in.
_CLOSURE_SHA256 = {
    "C1": "b162f519ea318f3ea919ea29068bbd9b71119237957718e12a79f65867b4aefd",
    "C2": "d6af33467fd4d0aa1da3bb447d7b316ccc292203c29760854a3ce66992e6aa08",
    "C3": "41e36bf7002569038b65ffeb26fcd219a2726d6c9b94a70e38c433f5ab171d8b",
    "C4": "49b0a03eafb902803c0fb9003c6f4640857786a5cbcdde00f0487662229e1953",
    "C5": "743252bf8b1c1c782a81cb7c3b4451dfbf374fa8ad0fa2dc597c13795293055a",
    "C6": "c22681a2d5b0aaebdb598d8333ddc99e7daf9b1125488e2133c9de5c7daff412",
    "C7": "34dd96ebd944c57a3ef428c17f59827a9857f948e73368d14c06bc9e9a887663",
    "C8": "61a201a0ae41cc53603048ed4cf7bca30efb7edc5bdf615b687a8f4576a9a85d",
    "C9": "2159ae9131742721e9e3e6f71a83bf50edb1d39cef7d21471d2ed95c82d34763",
    "C10": "2d382953d84287740b538ff994f6def508ae6413aa94aaa02dd795254ee52ecd",
    "C11": "3c8fc4fa82321eed222de46d92277dfaafb7bb422d09e106b93721ef645ffcd4",
    "C12": "e71e2dd7df7374969ed3313daf828f608457ee24abcabf0d536dcd22d42df3a5",
    "C13": "009db6148f61855193589961d311513c1cb673e1105fdec4e277b81b07d476e4",
    "C14": "dbfa969db8336020f23f189c8d39d5906ce397e9306206d43fa0df12890bab1c",
    "C15": "b3746db86cf8147fb670498f4f5b76da792a5bf830ea634c2a247a8fadefe2f4",
    "C16": "fce749d7899204869ac9fe1c6b01e592924434186eee2c68c290d1cefc6cc45a",
    "C17": "cd5f5c5dba493c6c8ea5c71b489c2bb35d17f78cf5180e913d4066667624e8dd",
    "C18": "b62dc18b9e1f6c8763104cac39affabf3a71a9626db558b60c822b2051ace76c",
    "C19": "96dcd709283abf8e5e4776633d28fc4c76d839fc3518325a33e02a9c610f3627",
    "C20": "5401ef4c4377cb29b4177f91a5952f48cb681b0ee6339e657d6b5c9cdcb0ee36",
    "C21": "61c6dd5932f30979729cea6ff57c2d3403a86626379a151ae3b5a0a53825cfa8",
    "C22": "2cae4646ff8a05fe4ddf32cefa2892c21c920b6da32ae72a7bdadfac214bf848",
    "C23": "850f7027162955a41068134d059215a0a43560f64295b6108cda17d200693d03",
    "C24": "7f79486fa7763261b543a10bd9bca42c507cc2684ba8160207e1468c0d127363",
    "D1": "d6af33467fd4d0aa1da3bb447d7b316ccc292203c29760854a3ce66992e6aa08",
    "D2": "55ccec96e323b7ab714a0f4fb0a60d4ea2ae9e02c99ad962c50ef1047a3fe938",
    "D3": "923e2f562fd0d4bce4d011fd77305c8baa10a40b2a56b1a341dbea900aae923e",
    "D4": "1678b8d79a0b31b38448d99438746977151775786b622703407e635e5b0aabe5",
    "D5": "d8e7e75efd6c4224d8b19967ba841cad931b22cd91bf6e9a6463db80e5f67366",
    "D6": "e538942ab2c7cd3a3d7200ec270ef76efb958baa36f201a31335ec984ae0c553",
    "D7": "f09d559d3d489e0d3480255fc5c36d200baeb91bbb6f9253af36bc42e7ab1f75",
    "D8": "34f4d8f7febc4c97033989f2fa6e42915a0c2a9b619c5a582135de09c8ba5320",
    "D9": "94920be576a9202babcf13d84638f304645bb48f83c3c6c98bede05d4e07ba08",
    "D10": "0c4b5a5aad4e9de570ccb71a8d95fe74cfb0ddc67a164a45a3f66fa7c0dccb34",
    "D11": "915507fab7b3805fe165c3709ed2823a18672425eb179187bb8b76b56bf8e60a",
    "D12": "a4636ba7c049a1461f440d03628a1b1576013e0e16381d865a8d75c0d3e6c848",
    "S1": "b162f519ea318f3ea919ea29068bbd9b71119237957718e12a79f65867b4aefd",
    "S2": "d6af33467fd4d0aa1da3bb447d7b316ccc292203c29760854a3ce66992e6aa08",
    "S3": "43e4aa2d46877b5195ad1ed99002f588b52e2fb30520f6f4bb75793b3de6dbb8",
    "S4": "d4467460f33f31f9078e9b6a50ad4381fd746ea93010c3e40bf24787ab1f0222",
    "A1": "b162f519ea318f3ea919ea29068bbd9b71119237957718e12a79f65867b4aefd",
    "A2": "b162f519ea318f3ea919ea29068bbd9b71119237957718e12a79f65867b4aefd",
    "A3": "41e36bf7002569038b65ffeb26fcd219a2726d6c9b94a70e38c433f5ab171d8b",
    "A4": "451bab48e7cdce532e5760114ae4c882981967b5a9611185c8053a18ff379c9b",
    "Q8": "27794cc37ac7474239ec94ffef7cac7e27199bd4c86ebec40d2626cb231b9694",
    "S7": "4be02aee10188149aa29670f00974622cc03daccf99bf69e6ab9756ee461fb3f",
    "A7": "bbc708bd7266be18b8ea87ac9728340e43ef89a97bdb7b425d74bb76ea480243",
    "S3xQ8": "67e58ab4b444054225bca04ed45251eac3e93491aa864ac4ead40b35bb536326",
    "perm(4): (1 2)(3 4); (1 3)": (
        "1530ec33fae34f8c3210b33621682d033752de7da8435849ff73b946931dbca2"
    ),
}


def _table_sha256(G):
    digest = hashlib.sha256()
    digest.update(G.mul.astype(np.int32).tobytes())
    digest.update(G.inv.astype(np.int32).tobytes())
    digest.update("\n".join(G.label(i) for i in range(G.order)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec", sorted(_CLOSURE_SHA256))
def test_closure_bytes_are_pinned(spec):
    assert _table_sha256(groupspec.parse_group_spec(spec)) == _CLOSURE_SHA256[spec]


def test_pinned_closures_cover_the_named_groups():
    assert set(audit.named_group_specs(24)) <= set(_CLOSURE_SHA256)


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


@pytest.mark.parametrize("spec", audit.named_group_specs(24) + ("S7",))
def test_element_orders_match_element_order(spec):
    G = groupspec.parse_group_spec(spec)
    assert G.element_orders().tolist() == [G.element_order(a) for a in range(G.order)]


def test_element_orders_of_a_large_cyclic_group():
    # Element id r of C5040 is gen^r.
    G = groupspec.parse_group_spec("C5040")
    expected = [5040 // math.gcd(r, 5040) for r in range(5040)]
    assert G.element_orders().tolist() == expected


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
    # the pair (a, b) has id a*|C4| + b
    left, right = np.divmod(np.arange(P.order), c4.order)
    assert (left[P.mul] == s3.mul[left[:, None], left[None, :]]).all()
    assert (right[P.mul] == c4.mul[right[:, None], right[None, :]]).all()


def test_direct_product_matches_broadcast_formula():
    a5, d6 = groups.named_group("A", 5), groups.named_group("D", 6)
    P = groups.direct_product(a5, d6)
    n1, n2 = a5.order, d6.order
    m1 = a5.mul.astype(np.int64)
    mul = (m1[:, None, :, None] * n2 + d6.mul[None, :, None, :]).reshape(
        n1 * n2, n1 * n2
    )
    inv = np.add.outer(a5.inv.astype(np.int64) * n2, d6.inv).reshape(-1)
    assert P.mul.dtype == np.int16 and P.inv.dtype == np.int16
    assert np.array_equal(P.mul, mul)
    assert np.array_equal(P.inv, inv)


def _build_peak(build):
    tracemalloc.start()
    try:
        G = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return G, peak


def test_table_build_peak_memory():
    # Filling and validation work a row or a block at a time, so a build
    # needs little beyond the table; a full-table sort or broadcast would
    # not fit in 2x.
    G, peak = _build_peak(lambda: groups.named_group("A", 7))
    assert peak <= 2 * G.order**2 * G.mul.itemsize
    s5, d10 = groups.named_group("S", 5), groups.named_group("D", 10)
    P, peak = _build_peak(lambda: groups.direct_product(s5, d10))
    assert P.order >= 2000
    assert peak <= 2 * P.order**2 * P.mul.itemsize


def test_every_table_holds_int16_ids(s3, q8):
    tables = [
        groups.named_group("S", 4),
        groups.direct_product(s3, q8),
        groups.quotient_group(q8, groups.center(q8))[0],
        groups.GroupTable(s3.mul.astype(np.int64), s3.inv.astype(np.uint32)),
        groups.GroupTable(s3.mul.tolist()),
    ]
    for G in tables:
        assert G.mul.dtype == G.inv.dtype == np.int16, G


def test_narrowing_never_wraps_an_id_onto_a_valid_one(s6):
    # 65536 + j is j once cast to int16, so a blind cast would accept both.
    mul = s6.mul.astype(np.int64)
    mul[5, 7] += 1 << 16
    with pytest.raises(ValueError, match="each row must permute"):
        groups.GroupTable(mul)
    inv = s6.inv.astype(np.int64)
    inv[5] += 1 << 16
    with pytest.raises(ValueError, match="inverse table inconsistent"):
        groups.GroupTable(s6.mul, inv)
    with pytest.raises(ValueError, match="ids must be integers"):
        groups.GroupTable(s6.mul + 0.5)


def test_order_past_int16_ids_is_refused_whatever_the_byte_limit(monkeypatch):
    monkeypatch.setattr(families, "TABLE_BYTES_MAX", 1 << 40)
    c128, c256 = groups.named_group("C", 128), groups.named_group("C", 256)
    with pytest.raises(ResourceLimit, match="order 32768 is past"):
        groups.direct_product(c128, c256, max_order=40000)


def _last_block(n):
    """First id of the last validation block of an order-n table."""
    return (n - 1) // groups._CHECK_BLOCK * groups._CHECK_BLOCK


def _swap_ids(mul, x, y):
    """The same group with the ids x and y exchanged."""
    relabel = np.arange(len(mul))
    relabel[[x, y]] = [y, x]
    out = np.empty_like(mul)
    out[np.ix_(relabel, relabel)] = relabel[mul]
    return out


@pytest.fixture(scope="module")
def s6():
    return groups.named_group("S", 6)


@pytest.mark.parametrize(
    "fault,message",
    [
        ("swap_in_row", "each column must permute"),
        ("swap_in_column", "each row must permute"),
        ("value_n", "each row must permute"),
        ("value_minus_one", "each row must permute"),
        ("identity_moved", "identity must sit at id 0"),
        ("wrong_inverse", "inverse table inconsistent"),
    ],
)
def test_validation_rejects_corrupted_table(s6, fault, message):
    n = s6.order
    last = _last_block(n)
    assert last >= 2 * groups._CHECK_BLOCK  # at least three blocks
    r, c = last + 1, last + 2  # rows and columns inside the last block
    assert not (s6.mul[r : r + 2, c : c + 2] == 0).any()
    mul = s6.mul.copy()
    inv = None
    if fault == "swap_in_row":
        mul[r, [c, c + 1]] = mul[r, [c + 1, c]]
    elif fault == "swap_in_column":
        mul[[r, r + 1], c] = mul[[r + 1, r], c]
    elif fault == "value_n":
        mul[r, c] = n
    elif fault == "value_minus_one":
        mul[r, c] = -1
    elif fault == "identity_moved":
        mul = _swap_ids(mul, 0, r)
    else:
        inv = s6.inv.copy()
        inv[[r, r + 1]] = inv[[r + 1, r]]
    with pytest.raises(ValueError, match=message):
        groups.GroupTable(mul, inv)


def test_closure_refuses_a_permutation_array_over_the_limit(monkeypatch):
    # C100 as a 100-cycle on 1000 points: its table takes 40,000 bytes,
    # its (100, 1000) int16 permutation array 200,000.
    cycle = tuple(range(1, 100)) + (0,) + tuple(range(100, 1000))
    gens = groups.PermList(1000, (cycle,))
    monkeypatch.setattr(families, "TABLE_BYTES_MAX", 100 * 100 * 4)
    with pytest.raises(ResourceLimit, match="closure of degree 1000"):
        groups.close_group(gens)
    monkeypatch.setattr(families, "TABLE_BYTES_MAX", 100 * 1000 * 2)
    assert groups.close_group(gens).order == 100


@pytest.mark.parametrize("family", ["C", "S"])
def test_order_one_tables(family):
    G = groups.named_group(family, 1)
    assert G.mul.tolist() == [[0]] and G.inv.tolist() == [0]
    for bad in ([[1]], [[-1]]):
        with pytest.raises(ValueError, match="each row must permute"):
            groups.GroupTable(np.array(bad))
    with pytest.raises(ValueError, match="inverse table inconsistent"):
        groups.GroupTable(G.mul, np.array([1]))


def test_validation_rejects_one_sided_inverses():
    # A Latin square with identity 0 (a loop, not a group): 2 * 3 = 0 but
    # 3 * 2 = 1, so the right inverse of 2 is not a left inverse.
    loop = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
    )
    with pytest.raises(ValueError, match="inverse table inconsistent"):
        groups.GroupTable(loop)


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


@pytest.mark.parametrize("spec", ["S3", "Q8", "D12", "C6", "Q8xC3", "A5", "C1"])
def test_center_is_where_row_equals_column(spec):
    G = groupspec.parse_group_spec(spec)
    commuting = np.flatnonzero((G.mul == G.mul.T).all(axis=1))
    assert groups.center(G).members == tuple(commuting.tolist())


def _cyclic_table(n):
    a = np.arange(n)
    return groups.GroupTable((a[:, None] + a[None, :]) % n, name=f"C{n}")


def _dihedral_table(n):
    # r^i s^j has id i + j*n; (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d).
    i, j = np.arange(2 * n) % n, np.arange(2 * n) // n
    rot = (i[:, None] + np.where(j[:, None], -1, 1) * i[None, :]) % n
    return groups.GroupTable(rot + ((j[:, None] + j[None, :]) % 2) * n, name=f"D{n}")


def test_c5040_closes_to_its_arithmetic_table():
    # Degree 5040 keys the closure by bytes; g^j must get id j.
    G = groupspec.parse_group_spec("C5040")
    want = _cyclic_table(5040)
    assert np.array_equal(G.mul, want.mul)
    assert np.array_equal(G.inv, want.inv)
    assert G.label(1) == "(" + " ".join(map(str, range(1, 5041))) + ")"


# C5040 and D2520 come from their arithmetic tables, which skip closure.
_ARITHMETIC = {
    "C5040": lambda: _cyclic_table(5040),
    "D2520": lambda: _dihedral_table(2520),
}


@pytest.mark.parametrize(
    "spec", ["S3", "Q8", "D12", "C6", "Q8xC3", "A5", "C1", "C5040", "D2520"]
)
def test_center_is_where_the_class_is_a_point(spec):
    make = _ARITHMETIC.get(spec, lambda: groupspec.parse_group_spec(spec))
    G = make()
    info = groups.conjugacy(G, groups.full_subgroup(G))
    central = np.flatnonzero(info.centralizer_order == G.order)
    assert groups.center(G).members == tuple(central.tolist())


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



def _reference_representatives(G, subs):
    """Every conjugate walked element by element: the reference for the gather."""
    by_members = {h.members: h for h in subs}
    assigned = set()
    reps = []
    for h in subs:
        if h.members in assigned:
            continue
        orbit = {
            tuple(sorted(G.conjugate(x, t) for x in h.members))
            for t in range(G.order)
        }
        assigned |= orbit
        rep = min(orbit)
        reps.append(by_members.get(rep) or groups.SubgroupRef(G, rep))
    return reps


@pytest.mark.parametrize("spec", [*audit.named_group_specs(24), "A5", "S5"])
def test_representatives_match_the_element_walk(spec):
    G = groupspec.parse_group_spec(spec)
    subs = lattice.all_subgroups(G, cap=G.order)
    reps = lattice.subgroup_conjugacy_representatives(G, subs)
    expected = _reference_representatives(G, subs)
    assert [r.members for r in reps] == [r.members for r in expected]


def _reference_subgroups(G):
    """Every cyclic subgroup joined with every subgroup found: the reference for the class walk."""
    seen = set()
    frontier = []

    def add(members):
        if members not in seen:
            seen.add(members)
            frontier.append(members)

    add((0,))
    for x in range(1, G.order):
        add(groups.subgroup_closure(G, [x]).members)
    cyclic = list(seen)
    while frontier:
        current = frontier.pop()
        for base in cyclic:
            if not set(base) <= set(current):
                add(groups.subgroup_closure(G, set(base) | set(current)).members)
    return sorted(seen, key=lambda members: (len(members), members))


@pytest.mark.parametrize("spec", [*audit.named_group_specs(24), "A5", "S5"])
def test_all_subgroups_match_the_join_loop(spec):
    G = groupspec.parse_group_spec(spec)
    got = lattice.all_subgroups(G, cap=G.order)
    assert [h.members for h in got] == _reference_subgroups(G)


@pytest.mark.parametrize(
    "spec, counts", [("S4", (30, 11)), ("A5", (59, 9)), ("S5", (156, 19)), ("A6", (501, 22))]
)
def test_lattice_and_class_counts(spec, counts):
    G = groupspec.parse_group_spec(spec)
    subs = lattice.all_subgroups(G, cap=G.order)
    reps = lattice.subgroup_conjugacy_representatives(G, subs)
    assert (len(subs), len(reps)) == counts


@pytest.mark.parametrize("spec", ["S7", "S7xC2"])
def test_landmark_pool_representatives_conjugate_no_element(monkeypatch, spec):
    # Neither an element walk nor a gather over every conjugate of G
    # itself: the latter would hold |G|^2 two-byte ids (203 MB on S7xC2),
    # where the pool needs at most the order-2 gather.
    G = groupspec.parse_group_spec(spec)
    pool = audit._subgroup_pool(G, audit.AuditConfig(groups=(spec,), pair_policy="all"))

    def refuse(self, a, b):
        raise AssertionError("conjugated one element")

    monkeypatch.setattr(groups.GroupTable, "conjugate", refuse)
    tracemalloc.start()
    try:
        reps = lattice.subgroup_conjugacy_representatives(G, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.order for r in pool] == ([1, 5040] if spec == "S7" else [1, 2, 10080])
    assert len(reps) == len(pool)
    assert all(r is h for r, h in zip(reps, pool))
    assert peak < 8 * 2**20


def _reference_centralizer(H, K):
    """C_H(K) from one |H| x |K| compare: the reference for the blocked one."""
    G = H.parent
    harr = np.asarray(H.members)
    karr = np.asarray(K.members)
    block = G.mul[np.ix_(harr, karr)] == G.mul[np.ix_(karr, harr)].T
    return tuple(harr[block.all(axis=1)].tolist())


@pytest.mark.parametrize("spec", ["D4", "Q8", "S4xC2", "S7"])
def test_centralizer_of_the_whole_group_is_the_center(spec):
    G = groupspec.parse_group_spec(spec)
    full = groups.full_subgroup(G)
    assert groups.centralizer_of_subgroup(full, full) == groups.center(G)


def test_centralizer_past_one_block_matches_the_whole_compare():
    G = groups.named_group("S", 6)
    full = groups.full_subgroup(G)
    assert full.order > groups._CHECK_BLOCK
    ks = [groups.subgroup_closure(G, seed) for seed in ([7], [1, 100], [3, 200])]
    # Orders 6, 120 and 360: A6 spans three blocks of K.
    assert [K.order for K in ks] == [6, 120, 360]
    for K in [*ks, full]:
        for H in (full, K):
            got = groups.centralizer_of_subgroup(H, K)
            assert got.members == _reference_centralizer(H, K)


def test_centralizer_scratch_stays_below_one_square_block():
    G = groups.named_group("S", 7)
    full = groups.full_subgroup(G)
    tracemalloc.start()
    try:
        center = groups.centralizer_of_subgroup(full, full)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert center.members == (0,)
    # One |G| x |G| compare would hold |G|^2 bools and two |G|^2 id blocks.
    assert peak < G.order**2 // 4


def test_trivial_and_whole_group_are_normal_at_once(monkeypatch):
    G = groups.named_group("S", 5)
    full, trivial = groups.full_subgroup(G), groups.trivial_subgroup(G)

    def refuse(*args, **kwargs):
        raise AssertionError("tested members")

    monkeypatch.setattr(np, "isin", refuse)
    assert groups.is_normal(G, full) and groups.is_normal(G, trivial)
    with pytest.raises(AssertionError):
        groups.is_normal(G, groups.subgroup_closure(G, [1]))


def _point_walk_label(perm):
    """Cycle notation written point by point: the reference for cycle_label."""
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


@pytest.mark.parametrize("family, param", [("C", 12), ("D", 7), ("S", 5)])
def test_cycle_labels_match_the_point_walk(family, param):
    G = groups.named_group(family, param)
    perms = oracle_closure(list(families._FAMILIES[family].gens(param)))
    expected = sorted(_point_walk_label(p) for p in perms)
    assert sorted(G.label(i) for i in range(G.order)) == expected
    assert sorted(groups.cycle_label(p) for p in perms) == expected


def test_cycle_labels_of_c2520_match_the_point_walk():
    # Element id r of C2520 is gen^r, which sends point i to i + r.
    G = groupspec.parse_group_spec("C2520")
    points = np.arange(2520)
    for r in [0, 1, 2, 7, 360, 840, 1259, 1260, 2519, *range(3, 2520, 97)]:
        perm = (points + r) % 2520
        expected = _point_walk_label(perm.tolist())
        assert G.label(r) == groups.cycle_label(perm) == expected


def test_cycle_label_reads_tuples_lists_and_id_rows_alike():
    # (1 3 5)(2 6), with 4 and 7 fixed
    images = (2, 5, 4, 3, 0, 1, 6)
    row = np.array(images, dtype=np.int16)
    labels = {families.cycle_label(p) for p in (images, list(images), row)}
    assert labels == {"(1 3 5)(2 6)"}
    assert families.cycle_label(np.arange(4, dtype=np.int16)) == "()"


def test_plain_limits_match_the_id_dtype():
    assert families._ORDER_MAX == np.iinfo(groups._ID_DTYPE).max
    assert families._ID_BYTES == groups._ID_DTYPE.itemsize


def test_full_subgroup_is_kept_without_a_cycle():
    G = groups.named_group("S", 3)
    full = groups.full_subgroup(G)
    assert groups.full_subgroup(G) is full
    assert full == groups.SubgroupRef(G, range(6))
    table, ref = weakref.ref(G), weakref.ref(full)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del G, full
        # Reference counting alone frees both: neither pins the other.
        assert table() is None and ref() is None
    finally:
        if enabled:
            gc.enable()


def test_permlist_is_a_normalised_immutable_value():
    gens = families.PermList(3, [[1, 2, 0], range(3)])
    assert gens.degree == 3 and gens.perms == ((1, 2, 0), (0, 1, 2))
    same = families.PermList(3, (x for x in [(1, 2, 0), (0, 1, 2)]))
    assert gens == same and hash(gens) == hash(same)
    assert gens != families.PermList(3, [(1, 2, 0)])
    assert gens != families.PermList(4, [(1, 2, 0, 3), (0, 1, 2, 3)])
    assert len({gens, same}) == 1
    assert repr(gens) == "PermList(degree=3, perms=((1, 2, 0), (0, 1, 2)))"
    assert families.PermList(2, []).perms == ()
    for name in ("degree", "perms", "other"):
        with pytest.raises(AttributeError):
            setattr(gens, name, 1)


@pytest.mark.parametrize(
    "degree, perms",
    [(0, []), (-1, []), (0, [()]), (3, [(0, 1)]), (3, [(0, 1, 1)]), (3, [(0, 1, 3)])],
)
def test_permlist_refuses_what_is_no_permutation(degree, perms):
    with pytest.raises(InvalidPermutation):
        families.PermList(degree, perms)


# (n, ids): a list of ids in 0..n-1, possibly empty, with repeats.
_ID_LISTS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=60))
)


@settings(max_examples=50, deadline=None)
@given(_ID_LISTS)
def test_distinct_ids_are_np_unique(case):
    n, ids = case
    a = np.asarray(ids, dtype=groups._ID_DTYPE)
    assert groups._distinct_ids(a, n).tolist() == np.unique(a).tolist()


# Groups whose conjugacy, quotients and subgroup classes are checked
# against the np.unique code they replaced.
_UNIQUE_SPECS = [*audit.named_group_specs(24), "S5", "C60"]


@functools.lru_cache(maxsize=None)
def _lattice(spec):
    G = groupspec.parse_group_spec(spec)
    return G, lattice.all_subgroups(G, cap=G.order)


def _reference_conjugacy(G, K):
    """K-orbits on G, each its np.unique: the reference for groups.conjugacy."""
    karr = np.asarray(K.members, dtype=np.int32)
    kinv = G.inv[karr]
    class_of = np.full(G.order, -1, dtype=np.int32)
    classes = []
    for x in range(G.order):
        if class_of[x] < 0:
            orbit = np.unique(G.mul[G.mul[kinv, x], karr])
            class_of[orbit] = len(classes)
            classes.append(tuple(int(v) for v in orbit))
    return tuple(classes), class_of


@pytest.mark.parametrize("spec", _UNIQUE_SPECS)
def test_conjugacy_matches_np_unique(spec):
    G, subs = _lattice(spec)
    pool = [*lattice.subgroup_conjugacy_representatives(G, subs), groups.full_subgroup(G)]
    for K in pool:
        info = groups.conjugacy(G, K)
        classes, class_of = _reference_conjugacy(G, K)
        assert info.classes == classes
        assert info.class_of.tolist() == class_of.tolist()
        sizes = np.array([len(c) for c in classes])
        assert info.centralizer_order.tolist() == (K.order // sizes[class_of]).tolist()


def _reference_quotient(G, N):
    """G/N's table, projection and coset representatives through np.unique
    and a rank dict: the reference for groups.quotient_group."""
    cosmin = G.mul[:, np.asarray(N.members, dtype=np.int32)].min(axis=1)
    reps = np.unique(cosmin)
    rank = {int(r): i for i, r in enumerate(reps)}
    proj = np.asarray([rank[int(v)] for v in cosmin], dtype=groups._ID_DTYPE)
    return proj[G.mul[np.ix_(reps, reps)]], proj, reps.tolist()


@pytest.mark.parametrize("spec", _UNIQUE_SPECS)
def test_quotient_group_matches_np_unique(spec):
    G, subs = _lattice(spec)
    normal = [N for N in subs if groups.is_normal(G, N)]
    assert normal[0].order == 1 and normal[-1].order == G.order
    for N in normal:
        Q, proj = groups.quotient_group(G, N)
        mul, ref_proj, reps = _reference_quotient(G, N)
        assert np.array_equal(Q.mul, mul)
        assert proj.dtype == groups._ID_DTYPE
        assert np.array_equal(proj, ref_proj)
        assert list(Q.labels) == [f"{G.label(r)}N" for r in reps]


@pytest.mark.parametrize("spec", _UNIQUE_SPECS)
def test_subgroup_class_matches_np_unique(spec):
    G, subs = _lattice(spec)
    ts = np.arange(G.order)[:, None]
    for H in subs:
        conj = G.mul[G.mul[G.inv[ts], H.members], ts]
        conj.sort(axis=1)
        expected = [tuple(row) for row in np.unique(conj, axis=0).tolist()]
        assert lattice._class(G, H.members) == expected
