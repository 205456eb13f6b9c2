import io
import json

import numpy as np
import pytest

from commdeg import chartab, engine, groups
from commdeg.audit import named_group_specs
from commdeg.errors import ForeignSubgroup, NotClassConstant, NotNormal
from commdeg.groupspec import parse_group_spec


def tensor_character_table(G, seed):
    """The table by the whole k x k x k structure tensor: the reference route.

    The first construction, kept as an oracle for the slice-by-slice one:
    a[i, j, t] = #{(x, y) in C_i x C_j : x*y = rep_t} held whole, each
    draw contracted with np.tensordot, each central character read from
    the strided view a[:, pivot, :], rows ordered by a key of Python
    tuples.  Raises AssertionError when no draw succeeds.
    """
    reps, sizes, class_of = chartab._class_layout(G)
    k = len(reps)
    a = np.empty((k, k, k), dtype=np.float64)
    cls64 = class_of.astype(np.int64)
    for t, z in enumerate(reps):
        y = G.mul[G.inv, z]
        pairs = cls64 * k + cls64[y]
        a[:, :, t] = np.bincount(pairs, minlength=k * k).reshape(k, k)
    rng = np.random.default_rng(seed)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    for _ in range(chartab.MAX_RETRIES):
        combo = np.tensordot(rng.standard_normal(k), a, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(combo)
        scale = max(1.0, float(np.abs(eigvals).max()))
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < chartab.CONSTRUCTION_TOL * scale:
            continue
        omegas = np.empty((k, k), dtype=np.complex128)
        for p in range(k):
            v = eigvecs[:, p]
            pivot = int(np.argmax(np.abs(v)))
            omegas[p] = (a[:, pivot, :] @ v) / v[pivot]
        norms = np.sum(np.abs(omegas) ** 2 / sizes_arr, axis=1)
        degs_float = np.sqrt(G.order / norms)
        degs = np.rint(degs_float).astype(np.int64)
        if np.any(np.abs(degs_float - degs) > chartab.ROUNDING_TOL):
            continue
        if np.any(degs < 1) or int(np.sum(degs**2)) != G.order:
            continue
        values = omegas * (degs[:, None] / sizes_arr[None, :])
        key = sorted(
            range(k),
            key=lambda p: (
                int(degs[p]),
                tuple(
                    (round(float(values[p, i].real), 6) + 0.0,
                     round(float(values[p, i].imag), 6) + 0.0)
                    for i in range(k)
                ),
            ),
        )
        values, degs = values[key], degs[key]
        table = chartab.CharacterTable(
            G, reps, sizes, class_of, values, degs, chartab.CONSTRUCTION_TOL
        )
        if chartab.verify_orthogonality(table).passed:
            return table
    raise AssertionError(f"no draw of the reference route succeeded on {G.name}")


@pytest.mark.parametrize("spec", named_group_specs(24))
def test_table_is_bit_identical_to_the_tensor_route(spec):
    G = parse_group_spec(spec)
    for seed in (0, 1, 2):
        ref = tensor_character_table(G, seed)
        t = chartab.character_table(G, seed=seed)
        assert t.degrees == ref.degrees
        assert np.array_equal(t.values, ref.values), (spec, seed)


@pytest.mark.parametrize("spec", ["A5", "S5", "S3xQ8"])
def test_table_matches_the_tensor_route_on_larger_groups(spec):
    # BLAS may sum these in another order than the tensor contraction, so
    # only the degrees and classes are pinned exactly.
    G = parse_group_spec(spec)
    for seed in (0, 1, 2):
        ref = tensor_character_table(G, seed)
        t = chartab.character_table(G, seed=seed)
        assert t.degrees == ref.degrees
        assert (t.class_reps, t.class_sizes) == (ref.class_reps, ref.class_sizes)
        assert np.allclose(t.values, ref.values, rtol=0, atol=1e-12), (spec, seed)


def test_row_order_is_the_tuple_key_order():
    # Ties to six places, -0.0 against 0.0 and degree ties all keep the
    # order that sorting by (degree, rounded tuple) gives.
    rng = np.random.default_rng(7)
    values = np.round(rng.standard_normal((40, 6)), 1) + 1j * np.round(
        rng.standard_normal((40, 6)), 1
    )
    values[::3, 0] = 1e-9 - 1e-9j
    values[1::3, 0] = -0.0
    values[5] = values[11] + 1e-8
    degs = rng.integers(1, 3, 40)
    key = sorted(
        range(40),
        key=lambda p: (
            int(degs[p]),
            tuple(
                (round(float(v.real), 6) + 0.0, round(float(v.imag), 6) + 0.0)
                for v in values[p]
            ),
        ),
    )
    assert chartab._row_order(values, degs).tolist() == key


def test_row_order_rounds_half_way_values_as_round_does():
    # Values at the six-place half-way boundary and their neighbours, on
    # both sides, where x * 1e6 can round across the half-integer.
    centres = [0.0000005, -0.0000015, 0.1234565, 2.0000025, 0.0078125, -0.0000025]
    near = []
    for x in centres:
        for y in (x, -x):
            near += [np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)]
    rng = np.random.default_rng(3)
    vals = np.array(near + list(rng.standard_normal(24)))
    values = vals[:, None] + 1j * vals[::-1, None]
    values = np.hstack([values, values[::-1], np.full_like(values, -0.0)])
    degs = np.ones(len(values), dtype=np.int64)
    key = sorted(
        range(len(values)),
        key=lambda p: tuple(
            (round(float(v.real), 6), round(float(v.imag), 6)) for v in values[p]
        ),
    )
    # The rounded keys differ where the two sides of a boundary part.
    assert round(near[0], 6) != round(near[2], 6)
    assert chartab._row_order(values, degs).tolist() == key


def _old_payload(t):
    """The dict ``table_to_json`` returned before it wrote text."""
    return {
        "order": t.group.order,
        "classes": [
            {"size": s, "rep": r} for s, r in zip(t.class_sizes, t.class_reps)
        ],
        "irreducibles": [
            {
                "degree": t.degrees[i],
                "values": [[float(v.real), float(v.imag)] for v in t.values[i]],
            }
            for i in range(t.n_classes)
        ],
    }


@pytest.mark.parametrize("spec", named_group_specs(120))
def test_table_json_is_the_dump_of_the_payload(spec):
    G = parse_group_spec(spec)
    for seed in (0, 1):
        t = chartab.character_table(G, seed=seed)
        buf = io.StringIO()
        chartab.table_to_json(t, buf)
        want = json.dumps(_old_payload(t), sort_keys=True, indent=1)
        assert buf.getvalue() == want, (spec, seed)


def test_table_json_keeps_negative_zero():
    # C4's table has -0.0 parts, which share their value, not their bits
    # or their text, with 0.0.
    t = chartab.character_table(groups.named_group("C", 4), seed=0)
    buf = io.StringIO()
    chartab.table_to_json(t, buf)
    assert "\n     -0.0" in buf.getvalue()
    assert buf.getvalue() == json.dumps(_old_payload(t), sort_keys=True, indent=1)


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
    buf = io.StringIO()
    chartab.table_to_json(t, buf)
    payload = json.loads(buf.getvalue())
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


def _assert_cyclic_closed_form(n):
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


def test_cyclic_table_matches_closed_form():
    _assert_cyclic_closed_form(60)


def test_c600_table_matches_closed_form():
    # 600 classes: a whole k x k x k structure tensor would need 1.7 GB.
    _assert_cyclic_closed_form(600)


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
