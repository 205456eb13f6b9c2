import dataclasses
import gc
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commdeg import audit, chartab, engine, groups, jsontext
from commdeg.errors import ConfigInvalid


@pytest.fixture(scope="module")
def s3_table(s3):
    return chartab.character_table(s3, seed=0)


def members(G, *ids):
    return groups.subgroup_closure(G, ids)


def test_class_formula_hard_case_holds(s3):
    full = groups.full_subgroup(s3)
    f = audit.check_class_formula(full, full, 2, 1)
    assert f.claim == "P3_m1"
    assert f.verdict == audit.HOLDS
    assert f.witness["paper_predicate_mismatches"] == 0


def test_class_formula_weight_three_witness(s3):
    full = groups.full_subgroup(s3)
    f = audit.check_class_formula(full, full, 1, 2)
    assert f.claim == "P3_mgt1"
    assert f.verdict == audit.VIOLATED
    assert f.witness["g"] == 0
    assert Fraction(*map(int, f.witness["formula_value"].split("/"))) == Fraction(
        66, 216
    )
    assert Fraction(*map(int, f.witness["exact_value"].split("/"))) == Fraction(
        162, 216
    )


def test_monotonicity_violation_at_a3(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_monotonicity(a3_in_s3, full, 1, 1, [1])
    assert f.verdict == audit.VIOLATED
    assert f.witness["smaller_subgroup_prob"] == "1/6"
    assert f.witness["larger_subgroup_prob"] == "1/4"


def test_monotonicity_holds_at_identity(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_monotonicity(a3_in_s3, full, 1, 1, [0])
    assert f.verdict == audit.HOLDS
    [g] = audit.check_monotonicity(a3_in_s3, a3_in_s3, 1, 1, [0])
    assert g.verdict == audit.HOLDS
    assert g.witness["class_partitions_match"] is True


def test_monotonicity_requires_containment(s3):
    [f] = audit.check_monotonicity(
        members(s3, 2), members(s3, 4), 1, 1, [0]
    )
    assert f.verdict == audit.PRECONDITION_FAILED


def test_symmetry_weight_two_always_holds(s3, a3_in_s3):
    flip = members(s3, 2)
    for g in range(s3.order):
        f_a, f_b = audit.check_symmetry(a3_in_s3, flip, 1, 1, [g])
        assert f_a.verdict == audit.HOLDS
        assert f_b.verdict == audit.HOLDS


def test_symmetry_vacuous_without_normality(s3):
    _, f_b = audit.check_symmetry(members(s3, 2), members(s3, 4), 1, 1, [0])
    assert f_b.verdict == audit.VACUOUS


def test_chain_link_three_fails_for_a3_pair(s3, a3_in_s3):
    [f] = audit.check_chain(a3_in_s3, a3_in_s3, 1, 1, [0])
    assert f.verdict == audit.VIOLATED
    assert f.witness["links_hold"] == [True, True, False, True]
    full = groups.full_subgroup(s3)
    [f] = audit.check_chain(full, full, 1, 1, [0])
    assert f.verdict == audit.HOLDS


def test_c4_closed_form_holds(s3):
    f = audit.check_c4(members(s3, 2), members(s3, 4), 1, 1)
    assert f.verdict == audit.HOLDS
    assert f.witness["lhs"] == "3/4"


def test_c4_vacuous_when_centralizers_are_big(s3):
    full = groups.full_subgroup(s3)
    f = audit.check_c4(full, full, 1, 1)
    assert f.verdict == audit.VACUOUS


def test_c5_bound(s3, q8, a3_in_s3):
    [f] = audit.check_c5(a3_in_s3, a3_in_s3, 1, [0])
    assert f.verdict == audit.VIOLATED
    assert f.witness["subgroup_center_order"] == 3
    [f] = audit.check_c5(groups.full_subgroup(s3), groups.full_subgroup(s3), 1, [2])
    assert f.verdict == audit.HOLDS
    [f] = audit.check_c5(groups.full_subgroup(q8), groups.full_subgroup(q8), 1, [0])
    assert f.verdict == audit.VACUOUS


def test_t3_bounds():
    c3 = groups.named_group("C", 3)
    triv = groups.trivial_subgroup(c3)
    upper, lower = audit.check_t3(triv, triv, 1, 1, [0])
    assert upper.claim == "T3i" and upper.verdict == audit.VIOLATED
    assert upper.witness == {
        "lhs": "1/1",
        "bound": "7/9",
        "prime": 3,
    }
    assert lower.claim == "T3ii" and lower.verdict == audit.HOLDS

    c1 = groups.named_group("C", 1)
    t = groups.trivial_subgroup(c1)
    upper, lower = audit.check_t3(t, t, 1, 1, [0])
    assert upper.verdict == audit.PRECONDITION_FAILED
    assert lower.verdict == audit.PRECONDITION_FAILED


def test_c6_equality_case_fails_on_c2():
    c2 = groups.named_group("C", 2)
    full = groups.full_subgroup(c2)
    f = audit.check_c6(full, full, 1, 1)
    assert f.verdict == audit.VIOLATED
    assert f.witness["equality_elements"] == [0]
    assert f.witness["index_power"] == 1
    assert f.witness["rhs_power"] == "-1/2"


def test_c6_vacuous_without_equality(s3):
    full = groups.full_subgroup(s3)
    f = audit.check_c6(full, full, 1, 1)
    assert f.verdict == audit.VACUOUS


def test_quotient_claim(s3, a3_in_s3):
    [f] = audit.check_quotient(a3_in_s3, a3_in_s3, 1, 1, [0])
    assert f.verdict == audit.HOLDS
    [f] = audit.check_quotient(a3_in_s3, a3_in_s3, 1, 1, [1])
    assert f.verdict == audit.HOLDS
    assert f.witness["equality_required"] is False
    # abelian full pair: nested values are trivial, so equality is required
    # at every g in N, but a non-identity g has probability 0 on the left
    c4 = groups.named_group("C", 4)
    full = groups.full_subgroup(c4)
    [f] = audit.check_quotient(full, full, 1, 1, [1])
    assert f.verdict == audit.VIOLATED
    assert f.witness["equality_required"] is True
    [f] = audit.check_quotient(members(s3, 2), a3_in_s3, 1, 1, [0])
    assert f.verdict == audit.PRECONDITION_FAILED


def test_remark_support_and_triviality(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    for H, K, n, m in [
        (full, full, 1, 1),
        (a3_in_s3, full, 2, 1),
        (members(s3, 2), a3_in_s3, 1, 2),
    ]:
        f_support, f_trivial = audit.check_remark_r1(H, K, n, m)
        assert f_support.verdict == audit.HOLDS
        assert f_trivial.verdict == audit.HOLDS


def test_multiplicativity_exact(s3, q8):
    c2 = groups.named_group("C", 2)
    # (e, f) = (1, 0) has id e*|F| + f in the product.
    [f] = audit.check_multiplicativity(
        c2,
        c2,
        *(groups.full_subgroup(c2),) * 4,
        n=1,
        m=1,
        gs=[1 * c2.order + 0],
    )
    assert (f.instance["e"], f.instance["f"]) == (1, 0)
    assert f.verdict == audit.HOLDS
    full_s3 = groups.full_subgroup(s3)
    full_q8 = groups.full_subgroup(q8)
    [f] = audit.check_multiplicativity(
        s3, q8, full_s3, full_s3, full_q8, full_q8, 1, 1, [1 * q8.order + 3]
    )
    assert (f.instance["e"], f.instance["f"]) == (1, 3)
    assert f.verdict == audit.HOLDS
    lhs = Fraction(*map(int, f.witness["product_prob"].split("/")))
    # p of a 3-cycle in S3 is 1/4; p of -1 in Q8 is 1 - d(Q8) = 3/8
    assert lhs == Fraction(1, 4) * Fraction(3, 8)


def test_frob_bound(s3, s3_table, a3_in_s3):
    f = audit.check_frob_bound(groups.full_subgroup(s3), s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["equality_elements"] == [0]
    assert f.witness["all_characters_vanish_outside"] is True
    f = audit.check_frob_bound(a3_in_s3, s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["equality_iff_vanishing_consistent"] is True


def test_zeta_character_check(s3, s3_table):
    f = audit.check_zeta_character(members(s3, 2), 1, 1, s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["multiplicities"] == [2, 2, 2]
    a4 = groups.named_group("A", 4)
    t4 = chartab.character_table(a4, seed=0)
    f = audit.check_zeta_character(members(a4, 4), 1, 1, t4)
    assert f.verdict == audit.PRECONDITION_FAILED


def test_character_identity_checks(s3, q8, s3_table):
    assert audit.check_eq3(s3_table).verdict == audit.HOLDS
    assert audit.check_eq4(s3_table).verdict == audit.HOLDS
    assert audit.check_psi(s3_table).verdict == audit.HOLDS
    tq = chartab.character_table(q8, seed=0)
    assert audit.check_eq3(tq).verdict == audit.HOLDS
    assert audit.check_eq7(groups.center(q8), tq).verdict == audit.HOLDS


def test_eq7_requires_normal(s3, s3_table):
    f = audit.check_eq7(members(s3, 2), s3_table)
    assert f.verdict == audit.PRECONDITION_FAILED


def test_named_group_specs():
    specs = audit.named_group_specs(24)
    assert len(specs) == 45
    assert "C24" in specs and "D12" in specs and "S4" in specs
    assert "Q8" in specs and "A4" in specs
    assert "S5" not in specs
    assert audit.named_group_specs(6) == (
        "C1",
        "C2",
        "C3",
        "C4",
        "C5",
        "C6",
        "D1",
        "D2",
        "D3",
        "S1",
        "S2",
        "S3",
        "A1",
        "A2",
        "A3",
    )
    assert audit.named_group_specs(1) == ("C1", "S1", "A1", "A2")
    assert audit.named_group_specs(8) == (
        "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
        "D1", "D2", "D3", "D4",
        "S1", "S2", "S3",
        "A1", "A2", "A3",
        "Q8",
    )  # fmt: skip
    # C1..C<cyclic>, D1..D<dihedral>, then the rest as listed.
    for cap, count, cyclic, dihedral, rest in (
        (120, 191, 120, 60, (
            "S1", "S2", "S3", "S4", "S5", "A1", "A2", "A3", "A4", "A5", "Q8",
        )),
        (10080, 15135, 10080, 5040, (
            "S1", "S2", "S3", "S4", "S5", "S6", "S7",
            "A1", "A2", "A3", "A4", "A5", "A6", "A7",
            "Q8",
        )),
    ):  # fmt: skip
        specs = audit.named_group_specs(cap)
        assert len(specs) == count
        assert specs[:cyclic] == tuple(f"C{i}" for i in range(1, cyclic + 1))
        assert specs[cyclic : cyclic + dihedral] == tuple(
            f"D{i}" for i in range(1, dihedral + 1)
        )
        assert specs[cyclic + dihedral :] == rest


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        audit.AuditConfig(groups=("S3",), claims=("NOPE",)).validate()
    with pytest.raises(ConfigInvalid):
        audit.AuditConfig(groups=("S3",), g_policy="random").validate()
    with pytest.raises(ConfigInvalid):
        audit.AuditConfig(groups=("S3",), n_values=(0,)).validate()
    audit.default_config().validate()


def test_config_json_round_trip():
    config = audit.default_config()
    back = audit.config_from_json(config.to_json())
    assert back == config
    with pytest.raises(ConfigInvalid):
        audit.config_from_json({"bogus_key": 1})
    with pytest.raises(ConfigInvalid):
        audit.config_from_json({"n_values": ["x"]})
    partial = audit.config_from_json({"groups": ["S3"], "claims": ["EQ3"]})
    assert partial.groups == ("S3",)
    assert partial.seed == 0


def test_empty_claim_filter_yields_empty_report():
    config = audit.AuditConfig(groups=("S3",), claims=())
    report = audit.run_battery(config)
    assert report.findings == []
    assert report.summary == {}
    assert report.hard_violations() == []


def test_small_battery_is_deterministic():
    config = audit.AuditConfig(
        groups=("S3", "C4"), claims=("P2a", "P4", "EQ3", "T3i")
    )
    a = audit.run_battery(config).dumps()
    b = audit.run_battery(config).dumps()
    assert a == b
    payload = json.loads(a)
    assert set(payload) == {"config_echo", "seed", "legend", "summary", "findings"}
    assert set(payload["legend"]) <= set(audit.CLAIMS)
    for item in payload["findings"]:
        assert item["verdict"] in audit.VERDICTS
        assert "runtime_ms" not in item


def test_report_runtime_toggle():
    config = audit.AuditConfig(groups=("C2",), claims=("EQ4",))
    report = audit.run_battery(config)
    with_times = report.to_json(include_runtime=True)
    assert all("runtime_ms" in f for f in with_times["findings"])


def test_every_claim_is_registered_to_one_check():
    exported = [name for name in audit.__all__ if name.startswith("check_")]
    assert list(audit._CHECK_CLAIMS) == exported
    tags = [tag for claims in audit._CHECK_CLAIMS.values() for tag in claims]
    assert sorted(tags) == sorted(audit.CLAIMS)


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
@example(0, 7)
@example(-6, 4)
@example(12, 18)
def test_ratio_text_is_the_fraction_text(c, s):
    fraction = Fraction(c, s)
    assert audit._ratio(c, s) == f"{fraction.numerator}/{fraction.denominator}"


def test_battery_never_builds_a_per_g_probability(monkeypatch):
    # Every check decides its g from count vectors, so the per-g
    # probability route of the engine is never reached.
    def refuse(*args, **kwargs):
        raise AssertionError("per-g probability route reached")

    monkeypatch.setattr(engine, "prob_fast", refuse)
    monkeypatch.setattr(engine, "prob_class_formula", refuse)
    config = audit.AuditConfig(groups=("S3", "D4", "Q8", "S3xC2"))
    report = audit.run_battery(config)
    assert {f.claim for f in report.findings} == set(audit.CLAIMS)


def test_battery_restores_the_collector_state():
    config = audit.AuditConfig(groups=("C2",), claims=("EQ4",))
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            audit.run_battery(config)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _finding_json(findings):
    return json.dumps([f.to_json() for f in findings], sort_keys=True)


def test_single_claim_runs_match_the_full_run():
    config = audit.AuditConfig(
        groups=("S3", "D4", "Q8"), product_pairs=(("S3", "C2"),)
    )
    full = audit.run_battery(config)
    assert {f.claim for f in full.findings} == set(audit.CLAIMS)
    for claim in audit.CLAIMS:
        single = audit.run_battery(dataclasses.replace(config, claims=(claim,)))
        expected = [f for f in full.findings if f.claim == claim]
        assert _finding_json(single.findings) == _finding_json(expected), claim
        assert single.summary == {claim: full.summary[claim]}


def test_battery_calls_checks_through_the_module(monkeypatch):
    calls = {"check_c4": 0, "check_eq3": 0}

    def counting(name):
        real = getattr(audit, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(audit, name, counting(name))
    config = audit.AuditConfig(groups=("S3", "C4"), claims=("C4", "EQ3"))
    report = audit.run_battery(config)
    assert calls == {
        "check_c4": sum(report.summary["C4"].values()),
        "check_eq3": 2,
    }


# sha256 of the report on four small groups, leaving out the four claims
# whose witnesses hold float deviations (EQ3, EQ7, PSI, ZETA_CHAR).
SMALL_REPORT_SHA256 = "709e64796968024a09d25e21f4930dff2c49407c0d3322be7d874b1cdb6cd7bc"


def test_small_battery_report_bytes_are_pinned():
    floats = {"EQ3", "EQ7", "PSI", "ZETA_CHAR"}
    config = audit.AuditConfig(
        groups=("S3", "D4", "Q8", "C6"),
        claims=tuple(c for c in audit.CLAIMS if c not in floats),
    )
    report = audit.run_battery(config)
    assert len(report.findings) == 9978
    assert hashlib.sha256(report.dumps().encode()).hexdigest() == SMALL_REPORT_SHA256


@pytest.fixture(scope="module")
def s3_d4_report():
    return audit.run_battery(audit.AuditConfig(groups=("S3", "D4")))


def test_report_bytes_match_stdlib_writer(s3_d4_report):
    for include_runtime in (False, True):
        assert s3_d4_report.dumps(include_runtime=include_runtime) == json.dumps(
            s3_d4_report.to_json(include_runtime), sort_keys=True, indent=1
        )


def test_write_streams_the_dumps_text(s3_d4_report):
    for include_runtime in (False, True):
        sink = io.StringIO()
        s3_d4_report.write(sink, include_runtime=include_runtime)
        assert sink.getvalue() == s3_d4_report.dumps(include_runtime=include_runtime)


class _Discard:
    def write(self, text):
        pass


def test_report_write_peak_memory(s3_d4_report):
    # Streaming holds one finding's text at a time; joining the document,
    # even once, would peak above its length.
    size = len(s3_d4_report.dumps())
    tracemalloc.start()
    try:
        s3_d4_report.write(_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 10


def test_battery_peak_bytes_per_finding():
    # A finding keeps its witness as a shared key tuple and a value tuple,
    # its runtime as one float per check call, and its fraction texts
    # shared, and the sort holds one claim's keys at a time: about 380
    # traced bytes a finding at the peak of a warm run, against about 735
    # with a dict per witness and a sort key per finding held at once.
    config = audit.AuditConfig(groups=("S3", "D4"))
    audit.run_battery(config)
    gc.collect()
    tracemalloc.start()
    try:
        report = audit.run_battery(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / len(report.findings) < 550


def test_finding_witness_is_the_dict_the_check_built(monkeypatch, s3, a3_in_s3):
    built = []

    class Recording(audit.Finding):
        __slots__ = ()

        def __init__(self, claim, instance, verdict, witness, runtime_ms=0.0):
            super().__init__(claim, instance, verdict, witness, runtime_ms)
            built.append((self, dict(witness)))

    monkeypatch.setattr(audit, "Finding", Recording)
    full = groups.full_subgroup(s3)
    audit.check_t3(a3_in_s3, full, 2, 1, [0, 1, 4])
    audit.check_chain(a3_in_s3, full, 1, 2, [0, 1])
    audit.check_class_formula(a3_in_s3, full, 2, 2)
    assert len(built) == 9
    for f, witness in built:
        assert list(f.witness.items()) == list(witness.items())
        assert f.to_json() == {
            "claim": f.claim,
            "instance": f.instance,
            "verdict": f.verdict,
            "witness": witness,
        }
        assert f.to_json(include_runtime=True)["runtime_ms"] == 0.0
    # Witnesses of one layout share their key tuple.
    t3i = [f for f, _ in built if f.claim == "T3i"]
    assert t3i[0].witness_keys is t3i[1].witness_keys is t3i[2].witness_keys


def test_finding_witness_is_a_fresh_dict():
    witness = {"lhs": "1/2", "links_hold": [True, False]}
    f = audit.Finding("T2_CHAIN", {"group": "S3"}, audit.HOLDS, witness)
    read = f.witness
    assert read == witness and read is not witness
    read["lhs"] = "0/1"
    del read["links_hold"]
    assert f.witness == witness
    witness["extra"] = 1
    assert f.witness == {"lhs": "1/2", "links_hold": [True, False]}


def test_findings_over_one_subgroup_share_its_member_list(s3, a3_in_s3):
    c4 = audit.check_c4(a3_in_s3, groups.full_subgroup(s3), 1, 1)
    c6 = audit.check_c6(a3_in_s3, a3_in_s3, 2, 1)
    assert c4.instance is not c6.instance
    assert c4.instance["H"] is c6.instance["H"] is c6.instance["K"]
    assert c4.instance["H"] == list(a3_in_s3.members)


def test_findings_sorted_by_claim_then_instance_json(s3_d4_report):
    findings = s3_d4_report.findings
    assert findings == sorted(
        findings, key=lambda f: (f.claim, json.dumps(f.instance, sort_keys=True))
    )


# Group names a template must carry through: spaces, quotes, a backslash,
# non-ASCII, and the text a template is cut at.
_TEMPLATE_NAMES = (
    "S3",
    "perm(4): (1 2)(3 4); (1 3)",
    'a "quoted" \\ name',
    "Gruppe \u00e4\u2202",
    'C2 "g": 0',
)


@pytest.mark.parametrize("name", _TEMPLATE_NAMES)
@pytest.mark.parametrize("blocks", [("H", "K"), ("H", "N")])
@pytest.mark.parametrize("n, m", [(1, 2), (12, 3), (4, 105)])
def test_cell_template_is_the_encoder_text(name, blocks, n, m):
    base = {"group": name, blocks[0]: [0, 1, 2], blocks[1]: [0, 5, 11]}
    base.update(n=n, m=m)
    styles = [
        (audit._compact_writer(), lambda d: json.dumps(d, sort_keys=True)),
        (audit._indented_writer(), lambda d: jsontext.encode(d, "\n   ")),
    ]
    for writer, reference in styles:
        head, tail = audit._template(writer, base)
        for g in (0, 9, 10, 99, 100, 12345):
            inst = {**base, "g": g}
            assert head + str(g) + tail == writer(inst) == reference(inst)


def test_battery_templates_are_the_encoder_text():
    config = audit.AuditConfig(groups=("S3", "D4", "Q8", "C6"), product_pairs=())
    report = audit.run_battery(config)
    report.write(_Discard())
    per_g = [
        f.instance
        for f in report.findings
        if isinstance(f.instance, audit._GInstance)
    ]
    assert len(per_g) > len(report.findings) / 2
    for inst in per_g:
        g = str(inst["g"])
        head, tail = inst.cell.compact
        assert head + g + tail == json.dumps(inst, sort_keys=True)
        head, tail = inst.cell.indented
        assert head + g + tail == jsontext.encode(inst, "\n   ")


def test_checks_of_one_cell_share_its_instances():
    report = audit.run_battery(audit.AuditConfig(groups=("S3",), product_pairs=()))
    # Claims that report one instance, and how many of them one instance
    # carries at m = 1 and at m > 1 (C5 reads only the cells at m = 1).
    shared = [
        ({"P2a", "P2b", "T2_CHAIN", "T3i", "T3ii", "C5"}, {1: 6, 2: 5}),
        ({"R1a", "R1b", "P3_m1", "P3_mgt1", "C4", "C6"}, {1: 5, 2: 5}),
    ]
    for claims, counts in shared:
        by_text: dict[str, list] = {}
        for f in report.findings:
            if f.claim in claims:
                by_text.setdefault(json.dumps(f.instance, sort_keys=True), []).append(f)
        assert by_text
        for text, found in by_text.items():
            assert len(found) == counts[json.loads(text)["m"]], text
            assert all(f.instance is found[0].instance for f in found), text


def test_lone_check_builds_its_own_plain_equal_instances(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    gs = [0, 1, 4]
    findings = audit.check_t3(a3_in_s3, full, 2, 1, gs)
    H, K = list(a3_in_s3.members), list(full.members)
    plain = [
        {"group": s3.name, "H": H, "K": K, "n": 2, "m": 1, "g": g}
        for g in gs
        for _ in ("T3i", "T3ii")
    ]
    assert [f.instance for f in findings] == plain
    assert [json.dumps(f.instance) for f in findings] == [json.dumps(d) for d in plain]
    again = audit.check_t3(a3_in_s3, full, 2, 1, gs)
    assert again[0].instance is not findings[0].instance


def test_report_dumps_peak_memory(s3_d4_report):
    # Buffering every token of the report before one join (the standard
    # library's indented writer) peaks near 10x the text; one string per
    # finding stays under 4x.
    tracemalloc.start()
    try:
        text = s3_d4_report.dumps()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(text)


def test_findings_are_reproducible_single_instances():
    config = audit.AuditConfig(groups=("S3",), claims=("P3_mgt1",))
    report = audit.run_battery(config)
    bad = [f for f in report.findings if f.verdict == audit.VIOLATED]
    assert bad
    for f in bad[:3]:
        G = groups.named_group("S", 3)
        H = groups.SubgroupRef(G, f.instance["H"])
        K = groups.SubgroupRef(G, f.instance["K"])
        again = audit.check_class_formula(H, K, f.instance["n"], f.instance["m"])
        assert again.verdict == audit.VIOLATED
        assert again.witness["g"] == f.witness["g"]


def _corrupting(real):
    def wrapper(H, n):
        counts = list(real(H, n))
        counts[0] += 1
        return tuple(counts)

    return wrapper


def test_seeded_fault_breaks_hard_guarantee(monkeypatch, s3):
    """A single corrupted distribution count must flip P3_m1 to violated."""
    engine.clear_caches()
    full = groups.full_subgroup(s3)
    engine.final_counts(full, full, 2, 1)
    monkeypatch.setattr(
        engine, "comm_distribution", _corrupting(engine.comm_distribution.__wrapped__)
    )
    finding = audit.check_class_formula(full, full, 2, 1)
    monkeypatch.undo()
    engine.clear_caches()
    assert finding.claim == "P3_m1"
    assert finding.verdict == audit.VIOLATED


def test_seeded_fault_breaks_oracle_agreement(monkeypatch, s3):
    """With cold caches the corrupted histogram disagrees with brute force."""
    engine.clear_caches()
    monkeypatch.setattr(
        engine, "comm_distribution", _corrupting(engine.comm_distribution.__wrapped__)
    )
    full = groups.full_subgroup(s3)
    fast = engine.prob_fast(full, full, 2, 1, 0)
    brute = Fraction(
        engine.brute_counts(s3, [full.members] * 3)[0],
        engine.space_size(full, full, 2, 1),
    )
    monkeypatch.undo()
    engine.clear_caches()
    assert fast != brute


def test_seeded_centralizer_fault_breaks_class_formula(monkeypatch, s3):
    """A wrong |C_K(x)| feeds both the histogram step and the class sum.

    P3_m1 must still flag it, because its exact side is brute force.
    """
    real = groups.conjugacy

    def corrupted(G, K):
        info = real(G, K)
        cent = info.centralizer_order.copy()
        cent[1] += 1
        return groups.ConjugacyInfo(info.classes, info.class_of, cent)

    engine.clear_caches()
    monkeypatch.setattr(groups, "conjugacy", corrupted)
    full = groups.full_subgroup(s3)
    finding = audit.check_class_formula(full, full, 1, 1)
    monkeypatch.undo()
    engine.clear_caches()
    assert finding.claim == "P3_m1"
    assert finding.verdict == audit.VIOLATED
