import numpy as np
import pytest

from commdeg import chartab, engine, groups
from commdeg.errors import ForeignSubgroup, NotClassConstant, NotNormal


def test_s3_table_frozen(s3):
    t = chartab.character_table(s3, seed=0)
    assert t.class_reps == (0, 1, 2)
    assert t.class_sizes == (1, 2, 3)
    assert t.degrees == (1, 1, 2)
    want = np.array([[1, 1, -1], [1, 1, 1], [2, -1, 0]], dtype=float)
    assert np.allclose(t.values, want, atol=1e-9)


def test_q8_table_frozen(q8):
    t = chartab.character_table(q8, seed=0)
    assert t.degrees == (1, 1, 1, 1, 2)
    assert np.allclose(
        t.values[4], [2, -2, 0, 0, 0], atol=1e-9
    )
    assert abs(t.values.imag).max() < 1e-9


def test_c4_table_has_complex_entries():
    c4 = groups.named_group("C", 4)
    t = chartab.character_table(c4, seed=0)
    assert t.degrees == (1, 1, 1, 1)
    assert abs(t.values.imag).max() == pytest.approx(1.0, abs=1e-9)
    # The JSON form carries every degree and value, imaginary parts included.
    payload = chartab.table_to_json(t)
    irreducibles = payload["irreducibles"]
    assert [irr["degree"] for irr in irreducibles] == list(t.degrees)
    values = [[complex(re, im) for re, im in irr["values"]] for irr in irreducibles]
    assert np.array_equal(values, t.values)


def test_table_is_seed_invariant(s3, q8):
    for G in (s3, q8):
        a = chartab.character_table(G, seed=0)
        b = chartab.character_table(G, seed=12345)
        assert np.allclose(a.values, b.values, atol=1e-9)


def test_orthogonality_on_battery_groups():
    for spec in [
        ("S", 3),
        ("Q", 8),
        ("S", 4),
        ("A", 4),
        ("D", 10),
        ("C", 12),
        ("C", 60),
        ("S", 5),
    ]:
        G = groups.named_group(*spec)
        t = chartab.character_table(G, seed=0)
        report = chartab.verify_orthogonality(t)
        assert report.passed
        assert report.max_row_deviation < chartab.ROUNDING_TOL
        assert sum(d * d for d in t.degrees) == G.order


def test_cyclic_table_matches_closed_form():
    n = 60
    G = groups.named_group("C", n)
    t = chartab.character_table(G, seed=0)
    # C_n is generated by element 1; r is the exponent of each class rep
    power = {0: 0}
    x = 0
    for r in range(1, n):
        x = int(G.mul[x, 1])
        power[x] = r
    assert len(power) == n
    rs = np.array([power[rep] for rep in t.class_reps])
    found = set()
    for row in t.values:
        # a linear character is fixed by its value on the generator
        j = int(round(np.angle(row[rs == 1][0]) * n / (2 * np.pi))) % n
        want = np.exp(2j * np.pi * j * rs / n)
        assert np.abs(row - want).max() < 1e-9
        found.add(j)
    assert found == set(range(n))


def test_value_lookup_by_element(s3):
    t = chartab.character_table(s3, seed=0)
    # the 2-dim character: 2 at e, -1 on 3-cycles, 0 on transpositions
    assert t.values[2, t.class_of[0]] == pytest.approx(2)
    assert t.values[2, t.class_of[3]] == pytest.approx(-1)
    assert t.values[2, t.class_of[5]] == pytest.approx(0, abs=1e-9)


def test_prob_char_pg_matches_exact(s3, q8):
    for G in (s3, q8):
        t = chartab.character_table(G, seed=0)
        full = groups.full_subgroup(G)
        counts = engine.final_counts(full, full, 1, 1)
        for g in range(G.order):
            want = counts[g] / G.order**2
            assert chartab.prob_char_pg(G, t, g) == pytest.approx(want, abs=1e-10)


def test_prob_char_relative_frozen(s3, a3_in_s3):
    t = chartab.character_table(s3, seed=0)
    assert chartab.prob_char_relative(s3, t, a3_in_s3, 1) == pytest.approx(1 / 6)
    assert chartab.prob_char_relative(s3, t, a3_in_s3, 2) == pytest.approx(
        0, abs=1e-10
    )


def test_prob_char_relative_requires_normal(s3):
    t = chartab.character_table(s3, seed=0)
    flip = groups.subgroup_closure(s3, [2])
    with pytest.raises(NotNormal):
        chartab.prob_char_relative(s3, t, flip, 0)


def test_restriction_norm(s3, a3_in_s3):
    t = chartab.character_table(s3, seed=0)
    assert chartab.restriction_norm(t, 2, a3_in_s3) == pytest.approx(2.0)
    assert chartab.restriction_norm(t, 1, a3_in_s3) == pytest.approx(1.0)


def test_restriction_norm_rejects_foreign_subgroup(s3, q8):
    t = chartab.character_table(s3, seed=0)
    with pytest.raises(ForeignSubgroup):
        chartab.restriction_norm(t, 0, groups.full_subgroup(q8))


def test_vanishes_outside(s3, q8, a3_in_s3):
    tq = chartab.character_table(q8, seed=0)
    assert chartab.vanishes_outside(tq, 4, groups.center(q8))
    assert not chartab.vanishes_outside(tq, 0, groups.center(q8))
    ts = chartab.character_table(s3, seed=0)
    assert chartab.vanishes_outside(ts, 2, a3_in_s3)
    assert chartab.vanishes_outside(ts, 2, groups.full_subgroup(s3))


def test_pair_count_class_function_s3(s3):
    t = chartab.character_table(s3, seed=0)
    cf, mults = chartab.pair_count_class_function(t)
    assert np.allclose(mults.real, [6, 6, 3], atol=1e-6)
    ok, report = chartab.is_character(cf, t)
    assert ok
    assert report["rounded"] == [6, 6, 3]


def test_is_character_rejects_non_characters(s3):
    t = chartab.character_table(s3, seed=0)
    ok, report = chartab.is_character(0.5 * t.values[2], t)
    assert not ok
    assert report["max_integrality_deviation"] > 1e-3
    ok, report = chartab.is_character(t.values[0] - t.values[1], t)
    assert not ok
    assert not report["nonnegative"]
    ok, _ = chartab.is_character(t.values[0] + 2 * t.values[2], t)
    assert ok


def test_class_function_from_counts(s3):
    t = chartab.character_table(s3, seed=0)
    flip = groups.subgroup_closure(s3, [2])
    counts = engine.final_counts(flip, groups.full_subgroup(s3), 1, 1)
    cf = chartab.class_function_from_counts(t, counts)
    assert np.allclose(cf.real, [8, 2, 0], atol=1e-12)
    ok, report = chartab.is_character(cf, t)
    assert ok
    assert report["rounded"] == [2, 2, 2]


def test_class_function_from_counts_rejects_non_constant():
    a4 = groups.named_group("A", 4)
    t = chartab.character_table(a4, seed=0)
    H = groups.subgroup_closure(a4, [4])
    assert H.order == 2
    counts = engine.final_counts(H, groups.full_subgroup(a4), 1, 1)
    with pytest.raises(NotClassConstant):
        chartab.class_function_from_counts(t, counts)
