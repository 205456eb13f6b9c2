import gc
import itertools
import json
import os
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commdeg import audit, cli, engine, groups, groupspec, lattice
from commdeg.errors import BruteCapExceeded, ForeignSubgroup


def oracle_counts(G, pools):
    """Histogram of left-normed commutator values by literal enumeration.

    Nested python loops over itertools.product, folding with G.product and
    G.inverse only; shares nothing with the engine's recurrence or its
    vectorized block kernel.
    """
    counts = [0] * G.order
    for tup in itertools.product(*pools):
        v = tup[0]
        for y in tup[1:]:
            v = G.product(
                G.product(G.inverse(v), G.inverse(y)), G.product(v, y)
            )
        counts[v] += 1
    return counts


def oracle_prob(H, K, n, m, g):
    G = H.parent
    pools = [H.members] * n + [K.members] * m
    counts = oracle_counts(G, pools)
    return Fraction(counts[g], H.order**n * K.order**m)


def test_commutator_convention(s3):
    # [x, y] = x^-1 y^-1 x y, checked against hand multiplication
    x, y = 2, 1
    expected = s3.product(
        s3.product(s3.inverse(x), s3.inverse(y)), s3.product(x, y)
    )
    assert engine.commutator(s3, x, y) == expected
    assert engine.brute_counts(s3, [[x], [y]]) == [
        int(v == expected) for v in range(6)
    ]
    assert engine.brute_counts(s3, [[x], [y], [0]])[0] == 1


def test_commuting_degree_frozen_values(s3, q8):
    # d(G) = p_1 at n = m = 1 over the whole group
    for G, degree in ((s3, Fraction(1, 2)), (q8, Fraction(5, 8))):
        full = groups.full_subgroup(G)
        commuting = engine.final_counts(full, full, 1, 1)[0]
        assert Fraction(commuting, engine.space_size(full, full, 1, 1)) == degree


def test_identity_probability_weight_three(s3):
    full = groups.full_subgroup(s3)
    trivial = engine.final_counts(full, full, 2, 1)[0]
    assert Fraction(trivial, engine.space_size(full, full, 2, 1)) == Fraction(3, 4)


def test_s3_single_element_probabilities(s3):
    full = groups.full_subgroup(s3)
    three_cycle = engine.prob_fast(full, full, 1, 1, 1)
    transposition = engine.prob_fast(full, full, 1, 1, 2)
    assert three_cycle == Fraction(1, 4)
    assert transposition == 0


def test_comm_distribution_s3_weight_two(s3):
    counts = engine.comm_distribution(groups.full_subgroup(s3), 2)
    assert counts == (18, 9, 0, 9, 0, 0)
    assert sum(counts) == 36
    assert tuple(v for v, c in enumerate(counts) if c) == (0, 1, 3)


def test_counts_match_oracle_on_mixed_pairs(s3, q8):
    cases = []
    for G in (s3, q8):
        full = groups.full_subgroup(G)
        cyc = groups.subgroup_closure(G, [1])
        cases += [
            (full, full, 1, 1),
            (full, cyc, 2, 1),
            (cyc, full, 1, 2),
            (cyc, cyc, 2, 2),
        ]
    for H, K, n, m in cases:
        got = engine.final_counts(H, K, n, m)
        want = oracle_counts(H.parent, [H.members] * n + [K.members] * m)
        assert list(got) == want


def brute_prob(H, K, n, m, g, **kwargs):
    """p_g from literal enumeration, the route `prob --method brute` takes."""
    pools = [H.members] * n + [K.members] * m
    counts = engine.brute_counts(H.parent, pools, **kwargs)
    return Fraction(counts[g], engine.space_size(H, K, n, m))


def test_prob_fast_equals_brute_counts(s3):
    full = groups.full_subgroup(s3)
    tr = groups.subgroup_closure(s3, [2])
    for n, m in [(1, 1), (2, 1), (1, 2)]:
        for g in range(s3.order):
            assert engine.prob_fast(tr, full, n, m, g) == brute_prob(
                tr, full, n, m, g
            )


def test_brute_cap_is_enforced(s3):
    full = groups.full_subgroup(s3)
    with pytest.raises(BruteCapExceeded):
        brute_prob(full, full, 2, 2, 0, cap=100)


def test_brute_threads_agree(q8):
    full = groups.full_subgroup(q8)
    assert brute_prob(full, full, 2, 1, 0, threads=4) == brute_prob(
        full, full, 2, 1, 0, threads=1
    )


def test_profile_sums_to_one(s3, q8):
    for G in (s3, q8):
        H = groups.subgroup_closure(G, [1])
        K = groups.full_subgroup(G)
        size = H.order**2 * K.order
        counts = engine.final_counts(H, K, 2, 1)
        assert sum(Fraction(c, size) for c in counts) == 1


def test_class_formula_exact_at_m_one(s3, q8):
    for G in (s3, q8):
        full = groups.full_subgroup(G)
        sub = groups.subgroup_closure(G, [1])
        for H, K in [(full, full), (sub, full), (full, sub), (sub, sub)]:
            for n in (1, 2):
                for g in range(G.order):
                    assert engine.prob_class_formula(
                        H, K, n, 1, g
                    ) == engine.prob_fast(H, K, n, 1, g)


def test_class_formula_overcounts_at_m_two(s3):
    full = groups.full_subgroup(s3)
    assert engine.prob_class_formula(full, full, 1, 2, 0) == Fraction(66, 216)
    assert engine.prob_fast(full, full, 1, 2, 0) == Fraction(162, 216)


def class_sum(H, K, n, m, g):
    """The paper's class formula for one g, as a literal loop over w."""
    G = H.parent
    info = engine.conjugacy_info(K)
    total = 0
    for w, c in enumerate(engine.comm_distribution(H, n)):
        t = G.product(w, g)
        if info.class_of[t] == info.class_of[w]:
            total += c * int(info.centralizer_order[w]) ** m
    return total


def test_class_formula_counts_match_per_element_sum(s3, q8):
    d4 = groups.named_group("D", 4)
    for G in (s3, q8, d4):
        subs = lattice.all_subgroups(G)
        for H, K in itertools.product(subs, subs):
            for n, m in itertools.product((1, 2, 3), (1, 2)):
                got = engine.class_formula_counts(H, K, n, m)
                want = [class_sum(H, K, n, m, g) for g in range(G.order)]
                assert got == want, (G.name, H.members, K.members, n, m)


def test_class_formula_counts_beyond_int64(s3):
    # 6^25 > 2^62, so the step must take the Python-integer route
    full = groups.full_subgroup(s3)
    got = engine.class_formula_counts(full, full, 1, 25)
    assert got == [class_sum(full, full, 1, 25, g) for g in range(6)]
    assert max(got) > 2**63


def test_x_block_histograms_are_inversion_symmetric():
    # The paper's solvability test, g^-1*w in w^K, is the derived one on
    # w^-1, so check_class_formula reads its mismatches off the derived
    # sum; that is sound only while every x-block histogram is symmetric.
    for spec in audit.named_group_specs(24):
        G = groupspec.parse_group_spec(spec)
        for H in lattice.all_subgroups(G):
            for n in (1, 2, 3):
                counts = engine.comm_distribution(H, n)
                assert all(
                    counts[v] == counts[G.inv[v]] for v in range(G.order)
                ), (spec, H.members, n)


def test_zeta_counts(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    brute = engine.brute_counts(s3, [a3_in_s3.members, full.members])
    assert brute[1] == 3
    want = oracle_counts(s3, [a3_in_s3.members, range(6)])
    assert brute == want
    assert list(engine.final_counts(a3_in_s3, full, 1, 1)) == want


def test_y_set_size(s3):
    flip = groups.subgroup_closure(s3, [2])
    # x in S3 with C_<(12)>(x) = 1: the four elements outside that centralizer
    assert engine.y_set_size(groups.full_subgroup(s3), flip, 1) == 4


def test_value_set_and_generated_subgroup(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    counts = engine.final_counts(full, full, 1, 1)
    assert tuple(v for v, c in enumerate(counts) if c) == (0, 1, 3)
    derived = engine.nested_commutator_subgroup(full, full, 1, 1)
    assert derived.members == a3_in_s3.members
    triv = engine.nested_commutator_subgroup(
        groups.trivial_subgroup(s3), full, 1, 1
    )
    assert triv.is_trivial


def test_relative_probability_frozen(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    assert engine.prob_fast(a3_in_s3, full, 1, 1, 0) == Fraction(2, 3)
    assert engine.prob_fast(a3_in_s3, full, 1, 1, 1) == Fraction(1, 6)


def test_extend_rejects_foreign_subgroup(s3, q8):
    counts = engine.comm_distribution(groups.full_subgroup(s3), 1)
    with pytest.raises(ForeignSubgroup):
        engine.extend_by_conjugators(counts, groups.full_subgroup(q8), 1)


def _refusal_cases():
    """(id, call, args, the exception it must raise) for refused input."""
    full = groups.full_subgroup(groups.named_group("S", 3))
    q8 = groups.full_subgroup(groups.named_group("Q", 8))
    extend, foreign = engine.extend_by_conjugators, ForeignSubgroup
    cases = [
        ("space_size-foreign", engine.space_size, (full, q8, 1, 1), foreign),
        ("space_size-n0", engine.space_size, (full, full, 0, 1), ValueError),
        ("final_counts-S3xQ8", engine.final_counts, (full, q8, 1, 1), foreign),
        ("final_counts-Q8xS3", engine.final_counts, (q8, full, 1, 1), foreign),
        ("extend-short", extend, ([1] * 5, full, 1), foreign),
        ("extend-long", extend, ([1] * 6, q8, 1), foreign),
    ]
    for prob in (engine.prob_fast, engine.prob_class_formula):
        name = prob.__name__
        cases += [
            (f"{name}-foreign", prob, (full, q8, 1, 1, 0), foreign),
            (f"{name}-n0", prob, (full, full, 0, 1, 0), ValueError),
            (f"{name}-m0", prob, (full, full, 1, 0, 0), ValueError),
            (f"{name}-g-1", prob, (full, full, 1, 1, -1), ValueError),
            (f"{name}-g6", prob, (full, full, 1, 1, 6), ValueError),
        ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("call, args, error", _refusal_cases())
def test_refuses_foreign_and_out_of_range_input(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_bigint_path_matches_int64_path(monkeypatch, s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    flip = groups.subgroup_closure(s3, [2])
    cases = [
        ([1] * 6, full, 2),
        (engine.comm_distribution(a3_in_s3, 1), full, 2),
        (engine.comm_distribution(flip, 1), full, 2),
    ]
    fast = [engine._orbit_steps(c, P, k) for c, P, k in cases]
    monkeypatch.setattr(engine, "_INT64_SAFE", 1)
    slow = [engine._orbit_steps(c, P, k) for c, P, k in cases]
    assert fast == slow
    assert slow[1] == list(engine.final_counts.__wrapped__(a3_in_s3, full, 1, 2))


def test_bigint_path_beyond_int64(s3):
    full = groups.full_subgroup(s3)
    counts = engine._orbit_steps([1] * 6, full, 30)
    assert sum(counts) == 6**31 > 2**63
    assert counts[2] == counts[4] == counts[5] == 0


def _both_routes(counts, P, steps, power):
    """The class route and the pair route on one input; they must agree."""
    by_class = engine._class_steps(counts, P, steps, power)
    by_pairs = engine._pair_steps(counts, P, steps, power)
    assert by_class == by_pairs, (P.parent.name, steps, power)
    return by_class


@pytest.mark.parametrize("spec", audit.named_group_specs(24))
def test_class_route_matches_pair_route(spec):
    full = groups.full_subgroup(groupspec.parse_group_spec(spec))
    ones = [1] * full.order
    for n, m in itertools.product((1, 2, 3), repeat=2):
        x_block = _both_routes(ones, full, n - 1, 1) if n > 1 else ones
        assert tuple(x_block) == engine.comm_distribution(full, n)
        counts = _both_routes(x_block, full, m, 1)
        assert tuple(counts) == engine.final_counts(full, full, n, m)
        formula = _both_routes(x_block, full, 1, m)
        assert formula == engine.class_formula_counts(full, full, n, m)
    # A subgroup's own indicator is constant on its orbits, so the x-block
    # steps of comm_distribution(H, n) may take the class route too.
    for H in lattice.all_subgroups(full.parent):
        members = [int(x in H) for x in range(full.order)]
        assert _both_routes(members, H, 2, 1) == list(engine.comm_distribution(H, 3))


@pytest.mark.parametrize("spec", ["S7", "S7xC2"])
def test_class_route_matches_pair_route_at_the_cap(spec):
    full = groups.full_subgroup(groupspec.parse_group_spec(spec))
    try:
        x_block = _both_routes([1] * full.order, full, 1, 1)
        counts = _both_routes(x_block, full, 2, 1)
        assert engine._class_route_fits(x_block, full)
        assert sum(counts) == engine.space_size(full, full, 2, 2)
        if spec == "S7":
            assert counts[0] == 927917 * 5040**4 // 98784000
    finally:
        engine.clear_caches()


def test_class_route_beyond_int64(s4):
    # 24 * 24^13 > 2^62, so both routes must run on Python integers
    full = groups.full_subgroup(s4)
    counts = _both_routes([1] * 24, full, 13, 1)
    assert sum(counts) == 24**14 >= 2**62
    assert engine._step_dtype([1] * 24, full, 13, 1) is object
    formula = _both_routes(engine.comm_distribution(full, 1), full, 1, 14)
    assert sum(formula) >= 2**62


def test_non_invariant_input_takes_the_pair_route(s3):
    # <(1 2)> in S3: its x-block histogram is not constant on the classes of
    # S3, so extending by the full group must not use the class algebra.
    flip = groups.subgroup_closure(s3, [2])
    full = groups.full_subgroup(s3)
    assert engine._class_route_fits([1] * 6, full)
    x_block = engine.comm_distribution(flip, 1)
    assert not engine._class_route_fits(x_block, full)
    for m in (1, 2, 3):
        want = engine.brute_counts(s3, [flip.members] + [full.members] * m)
        assert list(engine.final_counts(flip, full, 1, m)) == want


def test_brute_threads_clamped_to_cpu_count(monkeypatch, s3):
    requested = []

    class InlineExecutor:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(engine, "ThreadPoolExecutor", InlineExecutor)
    pools = [range(6)] * 3
    counts = engine.brute_counts(s3, pools, threads=10**6)
    cpus = engine._usable_cpus()
    assert all(w <= cpus for w in requested)
    assert bool(requested) == (cpus > 1)
    assert counts == engine.brute_counts(s3, pools)


def test_brute_threads_follow_the_cpu_affinity(monkeypatch, capsys, s3):
    # Bound to one CPU (`taskset -c 0`) on a machine of many, a brute run
    # asked for two threads starts no pool.
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)

    def refuse(max_workers):
        raise AssertionError(f"a pool of {max_workers} threads on one CPU")

    pools = [range(6)] * 3
    expected = engine.brute_counts(s3, pools)
    argv = ["prob", "-G", "S3", "-n", "2", "-g", "0", "--method", "brute"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(engine, "ThreadPoolExecutor", refuse)
    assert engine.brute_counts(s3, pools, threads=2) == expected
    assert cli.main([*argv, "--threads", "2"]) == 0
    assert capsys.readouterr().out == printed
    assert audit._workers(10) == 1


def test_prob_json_round_trip(capsys, s3):
    # The payload `prob -o json` prints carries the exact value and its inputs.
    full = groups.full_subgroup(s3)
    argv = ["prob", "-G", "S3", "-g", "1", "--method", "dist", "-o", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    value = payload["value"]
    p = engine.prob_fast(full, full, 1, 1, 1)
    assert Fraction(int(value["num"]), int(value["den"])) == p == Fraction(1, 4)
    assert payload["method"] == "distribution"
    assert payload["g"] == 1
    assert payload["H"] == list(full.members)


def test_distribution_csv(capsys):
    # The CSV that `dist -o csv` prints for a distribution.
    assert cli.main(["dist", "-G", "S3", "-n", "2", "-o", "csv"]) == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "element_id,count"
    assert lines[1] == "0,18"
    assert len(lines) == 7
    assert text.endswith("\n") and not text.endswith("\n\n")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_total_mass_is_the_tuple_space(data):
    G = data.draw(
        st.sampled_from(
            [
                groups.named_group("S", 3),
                groups.named_group("D", 4),
                groups.named_group("C", 5),
            ]
        )
    )
    seed = data.draw(st.integers(0, G.order - 1))
    H = groups.subgroup_closure(G, [seed])
    K = groups.full_subgroup(G)
    n = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(1, 2))
    counts = engine.final_counts(H, K, n, m)
    assert sum(counts) == H.order**n * K.order**m
    assert all(c >= 0 for c in counts)


def test_single_thread_brute_never_reads_cpu_count(monkeypatch, s3):
    pools = [range(6)] * 3
    expected = engine.brute_counts(s3, pools)

    def unread():
        raise AssertionError("os.cpu_count read for one thread")

    monkeypatch.setattr(engine.os, "cpu_count", unread)
    assert engine.brute_counts(s3, pools) == expected
    assert engine.brute_counts(s3, pools, threads=1) == expected


def test_brute_counts_leaves_no_cycle_pinning_the_group():
    # Reference counting alone must free the table once the caller drops
    # it: a recursive closure inside brute_counts used to hold it in a
    # function-cell cycle until a cyclic collection ran.
    G = groups.named_group("S", 3)
    ref = weakref.ref(G)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert engine.brute_counts(G, [range(6), range(6), range(6)])[0] > 0
        del G
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_clear_caches_empties_every_engine_cache(s3):
    full = groups.full_subgroup(s3)
    # The class route for S3's class functions, the pair route for <(1 2)>.
    assert engine.nested_commutator_subgroup(full, full, 2, 1).order == 3
    engine.final_counts(groups.subgroup_closure(s3, [2]), full, 1, 1)
    caches = [f for f in vars(engine).values() if hasattr(f, "cache_info")]
    assert engine._support_closure in caches
    assert all(f.cache_info().currsize for f in caches)
    engine.clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)


def test_nested_commutator_subgroup_closes_each_support_once(monkeypatch, s3):
    calls = []
    closure = groups.subgroup_closure

    def counting(G, seed):
        calls.append(tuple(seed))
        return closure(G, seed)

    engine.clear_caches()
    monkeypatch.setattr(groups, "subgroup_closure", counting)
    full = groups.full_subgroup(s3)
    a3 = groups.subgroup_closure(s3, [1])
    calls.clear()
    try:
        # [x, y] over S3 x S3 and over A3 x S3 both take the values of A3.
        first = engine.nested_commutator_subgroup(full, full, 1, 1)
        second = engine.nested_commutator_subgroup(a3, full, 1, 1)
        assert first is second and first == a3
        assert calls == [(0, 1, 3)]
    finally:
        engine.clear_caches()
