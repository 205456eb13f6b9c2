"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL`` line.  The brute-force sweep over the
named groups of order <= 24 is computed once and shared by the criteria
that consume it.
"""

import time
from fractions import Fraction

import pytest

from commdeg import audit, chartab, engine, groups, groupspec, lattice


@pytest.fixture
def report(capsys):
    """Verdict printer that bypasses capture, one line per criterion."""

    def _report(num: int, name: str, ok: bool) -> None:
        line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def battery_groups():
    return [
        (spec, groupspec.parse_group_spec(spec))
        for spec in audit.named_group_specs(24)
    ]


@pytest.fixture(scope="module")
def battery_sweep(battery_groups):
    """Brute-force count vectors for every lattice pair and cell.

    Returns (elapsed_seconds, cells) where each cell is
    (H, K, n, m, brute_count_vector).
    """
    start = time.perf_counter()
    cells = []
    for _, G in battery_groups:
        subs = lattice.all_subgroups(G)
        for H in subs:
            for K in subs:
                for n in (1, 2):
                    for m in (1, 2):
                        pools = [H.members] * n + [K.members] * m
                        brute = engine.brute_counts(G, pools)
                        cells.append((H, K, n, m, brute))
    return time.perf_counter() - start, cells


def test_criterion_1_oracle_equivalence(battery_sweep, report):
    elapsed, cells = battery_sweep
    mismatches = 0
    for H, K, n, m, brute in cells:
        if list(engine.final_counts(H, K, n, m)) != list(brute):
            mismatches += 1
    ok = mismatches == 0 and elapsed < 300.0
    print(f"checked {len(cells)} cells in {elapsed:.1f}s, {mismatches} mismatches")
    report(1, "oracle_equivalence", ok)


def test_criterion_2_char_probability(battery_groups, report):
    worst = 0.0
    for _, G in battery_groups:
        table = chartab.character_table(G, seed=0)
        full = groups.full_subgroup(G)
        counts = engine.final_counts(full, full, 1, 1)
        size = G.order**2
        for g in range(G.order):
            dev = abs(chartab.prob_char_pg(G, table, g) - counts[g] / size)
            worst = max(worst, dev)
    print(f"max deviation {worst:.3e}")
    report(2, "char_probability", worst < 1e-8)


def test_criterion_3_class_count_degree(battery_groups, report):
    ok = True
    for _, G in battery_groups:
        table = chartab.character_table(G, seed=0)
        k = len(engine.conjugacy_info(groups.full_subgroup(G)).classes)
        ok = ok and table.n_classes == k
        full = groups.full_subgroup(G)
        commuting = engine.final_counts(full, full, 1, 1)[0]
        ok = ok and Fraction(commuting, G.order**2) == Fraction(k, G.order)
    report(3, "class_count_degree", ok)


def test_criterion_4_pair_count_character(battery_groups, report):
    worst = 0.0
    for _, G in battery_groups:
        table = chartab.character_table(G, seed=0)
        _, mults = chartab.pair_count_class_function(table)
        for mult, degree in zip(mults, table.degrees):
            worst = max(worst, abs(mult - G.order / degree))
    print(f"max multiplicity deviation {worst:.3e}")
    report(4, "pair_count_character", worst < 1e-6)


def test_criterion_5_relative_char_formula(battery_groups, report):
    worst = 0.0
    for _, G in battery_groups:
        table = chartab.character_table(G, seed=0)
        for H in lattice.all_subgroups(G):
            if not groups.is_normal(G, H):
                continue
            denom = H.order * G.order
            counts = engine.brute_counts(G, [H.members, range(G.order)])
            for g in range(G.order):
                exact = counts[g] / denom
                dev = abs(chartab.prob_char_relative(G, table, H, g) - exact)
                worst = max(worst, dev)
    s3 = groups.named_group("S", 3)
    a3 = groups.subgroup_closure(s3, [1])
    spot = Fraction(
        engine.brute_counts(s3, [a3.members, range(6)])[1], a3.order * s3.order
    )
    ok = worst < 1e-8 and spot == Fraction(1, 6)
    print(f"max deviation {worst:.3e}, spot value {spot}")
    report(5, "relative_char_formula", ok)


def test_criterion_6_class_formula_m1(battery_sweep, report):
    mismatches = 0
    for H, K, n, m, brute in battery_sweep[1]:
        if m != 1:
            continue
        size = H.order**n * K.order
        support = [g for g, c in enumerate(brute) if c]
        for g in support + ([0] if 0 not in support else []):
            formula = engine.prob_class_formula(H, K, n, 1, g)
            if formula != Fraction(brute[g], size):
                mismatches += 1
    report(6, "class_formula_m1", mismatches == 0)


def test_criterion_7_audit_expressiveness(report):
    config = audit.default_config()
    first = audit.run_battery(config)
    witnesses = [
        f
        for f in first.findings
        if f.claim == "P3_mgt1"
        and f.verdict == audit.VIOLATED
        and f.instance["group"] == "S3"
        and f.instance["H"] == list(range(6))
        and f.instance["K"] == list(range(6))
        and f.instance["n"] == 1
        and f.instance["m"] == 2
    ]
    ok = len(witnesses) == 1
    if ok:
        w = witnesses[0].witness
        ok = (
            w["g"] == 0
            and Fraction(*map(int, w["formula_value"].split("/")))
            == Fraction(66, 216)
            and Fraction(*map(int, w["exact_value"].split("/")))
            == Fraction(162, 216)
        )
    ok = ok and not first.hard_violations()
    second = audit.run_battery(config)
    ok = ok and first.dumps() == second.dumps()
    report(7, "audit_expressiveness", ok)


def test_criterion_8_spot_values(s3, q8, report):
    full = groups.full_subgroup(s3)
    q8_full = groups.full_subgroup(q8)

    def trivial_prob(H, n):
        # p_1 over H^n x H: the commuting (n = 1) or nilpotency degree
        return Fraction(
            engine.final_counts(H, H, n, 1)[0], engine.space_size(H, H, n, 1)
        )

    checks = [
        trivial_prob(full, 1) == Fraction(1, 2),
        trivial_prob(q8_full, 1) == Fraction(5, 8),
        trivial_prob(full, 2) == Fraction(3, 4),
        engine.prob_fast(full, full, 1, 1, 1) == Fraction(1, 4),
        engine.prob_fast(full, full, 1, 1, 2) == 0,
    ]
    report(8, "spot_values", all(checks))


def test_criterion_9_fault_detection(monkeypatch, s3, report):
    real = engine.comm_distribution.__wrapped__

    def corrupted(H, n):
        counts = list(real(H, n))
        counts[0] += 1
        return tuple(counts)

    # cold caches: the criterion-1 comparator must now see disagreement
    engine.clear_caches()
    monkeypatch.setattr(engine, "comm_distribution", corrupted)
    full = groups.full_subgroup(s3)
    comparator_failures = 0
    for n, m in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        pools = [full.members] * n + [full.members] * m
        brute = engine.brute_counts(s3, pools)
        if list(engine.final_counts.__wrapped__(full, full, n, m)) != list(brute):
            comparator_failures += 1
    monkeypatch.undo()
    engine.clear_caches()

    # warm exact side, then corrupt the histogram feeding the class formula
    engine.final_counts(full, full, 2, 1)
    monkeypatch.setattr(engine, "comm_distribution", corrupted)
    [flagged] = audit.check_class_formula(full, full, 2, 1)
    monkeypatch.undo()
    engine.clear_caches()

    ok = comparator_failures > 0 and flagged.verdict == audit.VIOLATED
    report(9, "fault_detection", ok)
