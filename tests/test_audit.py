import argparse
import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import pickle
import random
import re
import time
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from commdeg import audit, chartab, cli, engine, groups, groupspec, jsontext
from commdeg.errors import ClosureTooLarge, CommdegError, ConfigInvalid


@pytest.fixture
def in_process(monkeypatch):
    """Walk each battery in this process, where the test can watch it."""
    monkeypatch.setattr(audit, "_workers", lambda n_walks: 1)


@pytest.fixture(params=[1, 2])
def workers(request, monkeypatch):
    """Walk each battery in this process (1) or in two worker processes (2)."""
    monkeypatch.setattr(audit, "_workers", lambda n_walks: min(request.param, n_walks))
    return request.param


@pytest.fixture(scope="module")
def s3_table(s3):
    return chartab.character_table(s3, seed=0)


def members(G, *ids):
    return groups.subgroup_closure(G, ids)


def test_class_formula_hard_case_holds(s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_class_formula(full, full, 2, 1)
    assert f.claim == "P3_m1"
    assert f.verdict == audit.HOLDS
    assert f.witness["paper_predicate_mismatches"] == 0


def test_class_formula_weight_three_witness(s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_class_formula(full, full, 1, 2)
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
    [f] = audit.check_c4(members(s3, 2), members(s3, 4), 1, 1)
    assert f.verdict == audit.HOLDS
    assert f.witness["lhs"] == "3/4"


def test_c4_vacuous_when_centralizers_are_big(s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_c4(full, full, 1, 1)
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
    [f] = audit.check_c6(full, full, 1, 1)
    assert f.verdict == audit.VIOLATED
    assert f.witness["equality_elements"] == [0]
    assert f.witness["index_power"] == 1
    assert f.witness["rhs_power"] == "-1/2"


def test_c6_vacuous_without_equality(s3):
    full = groups.full_subgroup(s3)
    [f] = audit.check_c6(full, full, 1, 1)
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
    [f] = audit.check_frob_bound(groups.full_subgroup(s3), s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["equality_elements"] == [0]
    assert f.witness["all_characters_vanish_outside"] is True
    [f] = audit.check_frob_bound(a3_in_s3, s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["equality_iff_vanishing_consistent"] is True


def test_zeta_character_check(s3, s3_table):
    [f] = audit.check_zeta_character(members(s3, 2), 1, 1, s3_table)
    assert f.verdict == audit.HOLDS
    assert f.witness["multiplicities"] == [2, 2, 2]
    a4 = groups.named_group("A", 4)
    t4 = chartab.character_table(a4, seed=0)
    [f] = audit.check_zeta_character(members(a4, 4), 1, 1, t4)
    assert f.verdict == audit.PRECONDITION_FAILED


def test_character_identity_checks(s3, q8, s3_table):
    assert audit.check_eq3(s3_table)[0].verdict == audit.HOLDS
    assert audit.check_eq4(s3_table)[0].verdict == audit.HOLDS
    assert audit.check_psi(s3_table)[0].verdict == audit.HOLDS
    tq = chartab.character_table(q8, seed=0)
    assert audit.check_eq3(tq)[0].verdict == audit.HOLDS
    assert audit.check_eq7(groups.center(q8), tq)[0].verdict == audit.HOLDS


def test_eq7_requires_normal(s3, s3_table):
    [f] = audit.check_eq7(members(s3, 2), s3_table)
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


def test_every_walk_runs_with_the_collector_paused(workers, monkeypatch):
    # At one worker the walks run under run_battery's pause; a worker is
    # forked under it and keeps it.  The checks run in whichever process
    # walks, so the replaced check asks there.
    real = audit.check_eq4

    def paused_only(*args):
        if gc.isenabled():
            raise AssertionError("a check ran with the collector enabled")
        return real(*args)

    monkeypatch.setattr(audit, "check_eq4", paused_only)
    assert gc.isenabled()
    config = audit.AuditConfig(groups=("C2", "S3"), claims=("EQ4",))
    report = audit.run_battery(config)
    assert {f.claim for f in report.findings} == {"EQ4"}
    assert gc.isenabled()


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


def test_battery_calls_checks_through_the_module(monkeypatch, in_process):
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


def _small_config():
    floats = {"EQ3", "EQ7", "PSI", "ZETA_CHAR"}
    return audit.AuditConfig(
        groups=("S3", "D4", "Q8", "C6"),
        claims=tuple(c for c in audit.CLAIMS if c not in floats),
    )


def test_small_battery_report_bytes_are_pinned(monkeypatch):
    # Walked in this process, and in two worker processes.
    for workers in (1, 2):
        monkeypatch.setattr(audit, "_workers", lambda n_walks: workers)
        report = audit.run_battery(_small_config())
        assert len(report.findings) == 9978
        digest = hashlib.sha256(report.dumps().encode()).hexdigest()
        assert digest == SMALL_REPORT_SHA256, workers


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
    # even once, would peak above its length.  The first write also fills
    # the report's per-run text memos, so it is made untraced here and the
    # second write is the one measured, whatever ran before this test.
    size = len(s3_d4_report.dumps())
    s3_d4_report.write(_Discard())
    tracemalloc.start()
    try:
        s3_d4_report.write(_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 10


def test_battery_peak_bytes_per_finding(in_process):
    # Findings are batches, one per claim and cell, whose verdict codes and
    # witness ids are columns shared within a run, with each distinct
    # witness held once: about 280 traced bytes a finding at the peak of a
    # warm run, against about 290 with a slotted record per finding and
    # about 735 with a dict per witness and a sort key per finding.
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
    built = {}
    real = audit._witness

    def recording(fields):
        w = real(fields)
        built.setdefault(w, dict(fields))
        return w

    monkeypatch.setattr(audit, "_witness", recording)
    full = groups.full_subgroup(s3)
    # One table for the three calls, as in a run.
    with audit._run_tables() as tables:
        calls = [
            audit.check_t3(a3_in_s3, full, 2, 1, [0, 1, 4]),
            audit.check_chain(a3_in_s3, full, 1, 2, [0, 1]),
            audit.check_class_formula(a3_in_s3, full, 2, 2),
        ]
    rows = [row for found in calls for row in found.rows()]
    assert sum(map(len, calls)) == len(rows) == 9
    for found in calls:
        for f, (batch, _, _, w) in zip(found, found.rows()):
            witness = built[w]
            assert f.claim == batch.claim
            assert list(f.witness.items()) == list(witness.items())
            assert f.to_json() == {
                "claim": f.claim,
                "instance": f.instance,
                "verdict": f.verdict,
                "witness": witness,
            }
            assert f.to_json(include_runtime=True)["runtime_ms"] == 0.0
    # Witnesses of one layout share their key tuple.
    t3i = {w for batch, _, _, w in calls[0].rows() if batch.claim == "T3i"}
    assert len({id(tables.witnesses[w][0]) for w in t3i}) == 1


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
    [c4] = audit.check_c4(a3_in_s3, groups.full_subgroup(s3), 1, 1)
    [c6] = audit.check_c6(a3_in_s3, a3_in_s3, 2, 1)
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
        (audit._Style([], None), lambda d: json.dumps(d, sort_keys=True)),
        (audit._Style([], "\n   "), lambda d: jsontext.encode(d, "\n   ")),
    ]
    for style, reference in styles:
        head, tail = style._head_tail(base)
        for g in (0, 9, 10, 99, 100, 12345):
            inst = {**base, "g": g}
            assert head + str(g) + tail == style._text(inst) == reference(inst)


def _row_texts(findings):
    return [(f.claim, json.dumps(f.instance, sort_keys=True)) for f in findings]


def test_sort_orders_findings_as_their_instance_texts():
    # Member lists whose texts share prefixes, g whose digits do, cells
    # equal in all but the keys after g, per-cell and per-g batches, and
    # equal cells made twice, as a group named twice makes them.
    lists = ([0, 1], [0, 1, 2], [0, 10])
    gs = sorted((0, 9, 10, 99, 100, 12345), key=str)
    by_claim: dict = {}
    with audit._run_tables():
        w = audit._witness({})
        for name in _TEMPLATE_NAMES:
            for x, y, blocks, n, m in [
                (x, y, blocks, n, m)
                for x in lists
                for y in lists
                for blocks in (("H", "K"), ("H", "N"))
                for n in (1, 12)
                for m in (1, 2)
            ]:
                for _ in range(2):
                    cell = {"group": name, blocks[0]: x, blocks[1]: y, "n": n, "m": m}
                    for claim, cell_gs in (("C4", None), ("T3i", gs)):
                        rows = [(audit.HOLDS, w)] * (1 if cell_gs is None else len(gs))
                        batch = audit._batch(claim, cell, cell_gs, rows)
                        by_claim.setdefault(claim, []).append(batch)
    for batches in by_claim.values():
        random.Random(0).shuffle(batches)
    given = audit.Findings([b for c in by_claim for b in by_claim[c]], [((),)])
    expected = sorted(given, key=lambda f: _row_texts([f]))
    batches, joins = audit._sorted_batches(by_claim, audit._Style([], None))
    assert any(joins)
    found = audit.Findings(batches, [((),)], joins)
    assert _row_texts(found) == _row_texts(expected)
    # Rows with equal texts keep the order their batches came in.
    assert [(id(f.cell), f.g) for f in found] == [(id(f.cell), f.g) for f in expected]


def test_sort_holds_one_head_per_cell():
    # A thousand batches of one cell, each with one g, sort by that cell's
    # one head and merge by the text of g; a text per row would hold 1,000
    # copies of the two lists.
    members = list(range(2000))
    cell = {"group": "C2000", "H": members, "K": members, "n": 1, "m": 1}
    with audit._run_tables():
        rows = [(audit.VACUOUS, 0)]
        batches = [audit._batch("C5", cell, (g,), rows) for g in range(1000)]
    random.Random(0).shuffle(batches)
    tracemalloc.start()
    try:
        ordered, joins = audit._sorted_batches({"C5": batches}, audit._Style([], None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert joins == b"\x00" + b"\x01" * 999
    found = audit.Findings(ordered, [((),)], joins)
    assert [f.g for f in found] == sorted(range(1000), key=lambda g: f"{g},")
    assert peak < 2 * 2**20


def test_g_values_come_in_the_order_of_their_text():
    G = groups.named_group("C", 24)
    full = groups.full_subgroup(G)
    for policy in ("support", "all"):
        gs = audit._g_values(full, full, 1, 1, policy)
        assert list(gs) == sorted(gs, key=str) and len(set(gs)) == len(gs)
    assert len(audit._g_values(full, full, 1, 1, "all")) == 24


def test_battery_templates_are_the_encoder_text():
    config = audit.AuditConfig(groups=("S3", "D4", "Q8", "C6"), product_pairs=())
    report = audit.run_battery(config)
    compact = report.findings._style(indented=False)
    indented = report.findings._style(indented=True)
    per_g = [row for row in report.findings.rows() if row[0].gs is not None]
    assert len(per_g) > len(report.findings) / 2
    for batch, g, _, _ in per_g:
        assert "g" not in batch.cell
        inst = {**batch.cell, "g": g}
        head, tail = compact.instance(batch)
        assert head + str(g) + tail == json.dumps(inst, sort_keys=True)
        head, tail = indented.instance(batch)
        assert head + str(g) + tail == jsontext.encode(inst, "\n   ")


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
            assert all(f.cell is found[0].cell for f in found), text


def test_lone_check_builds_its_own_plain_equal_instances(s3, a3_in_s3):
    full = groups.full_subgroup(s3)
    gs = [0, 1, 4]
    findings = audit.check_t3(a3_in_s3, full, 2, 1, gs)
    H, K = list(a3_in_s3.members), list(full.members)
    # One batch per claim, T3i then T3ii, each in the order of gs.
    plain = [
        {"group": s3.name, "H": H, "K": K, "n": 2, "m": 1, "g": g}
        for _ in ("T3i", "T3ii")
        for g in gs
    ]
    assert [f.instance for f in findings] == plain
    assert [json.dumps(f.instance) for f in findings] == [json.dumps(d) for d in plain]
    assert [f.g for f in findings] == [g for _ in ("T3i", "T3ii") for g in gs]
    assert [f.claim for f in findings] == ["T3i"] * 3 + ["T3ii"] * 3
    # Outside a run each call makes its own cell.
    again = audit.check_t3(a3_in_s3, full, 2, 1, gs)
    assert again[0].cell is not findings[0].cell
    assert all(f.cell is findings[0].cell for f in findings)


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
        [again] = audit.check_class_formula(H, K, f.instance["n"], f.instance["m"])
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
    [finding] = audit.check_class_formula(full, full, 2, 1)
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
    [finding] = audit.check_class_formula(full, full, 1, 1)
    monkeypatch.undo()
    engine.clear_caches()
    assert finding.claim == "P3_m1"
    assert finding.verdict == audit.VIOLATED


def _per_cell_reach(H, K, n, m):
    """Every slot walked again for one cell: the reference for the chained reach."""
    G = H.parent
    reach = np.asarray(H.members, dtype=np.int32)
    for pool in [H] * (n - 1) + [K] * m:
        cols = np.asarray(pool.members, dtype=np.int32)
        step = max(1, engine._CHUNK // cols.size)
        seen = np.zeros(G.order, dtype=bool)
        for lo in range(0, reach.size, step):
            seen[engine._comm_block(G, reach[lo : lo + step], cols)] = True
        reach = np.flatnonzero(seen)
    return reach


def test_chained_reach_matches_the_per_cell_walk():
    config = audit.AuditConfig(groups=audit.named_group_specs(12))
    cells = [(n, m) for n in (3, 1, 2) for m in (2, 3, 1)]
    audit._reachable_values.cache_clear()
    audit._x_block_values.cache_clear()
    for spec in config.groups:
        G = groupspec.parse_group_spec(spec)
        pool = audit._subgroup_pool(G, config)
        for H in pool:
            for K in pool:
                for n, m in cells:
                    chained = audit._reachable_values(H, K, n, m)
                    assert not chained.flags.writeable
                    assert chained.tolist() == _per_cell_reach(H, K, n, m).tolist()


def test_equal_witnesses_share_one_values_tuple(s3_d4_report):
    # One table entry, so one id and one text, per distinct witness.
    findings = s3_d4_report.findings
    by_text: dict = {}
    for f, (_, _, _, w) in zip(findings, findings.rows()):
        by_text.setdefault(json.dumps(f.witness, sort_keys=True), set()).add(w)
    assert all(len(ids) == 1 for ids in by_text.values())
    assert len(by_text) == len(findings.witnesses) < len(findings) / 10


def test_witness_texts_are_made_once_per_id(s3_d4_report):
    made = []
    findings = audit.run_battery(s3_d4_report.config).findings
    style = findings._style(indented=True)
    real = style._witness_items

    def counting(entry):
        made.append(id(entry))
        return real(entry)

    style._witness_items = counting
    for _ in range(2):
        audit.AuditReport(s3_d4_report.config, {}, findings).write(_Discard())
    assert sorted(made) == sorted(id(e) for e in findings.witnesses)


def test_a_report_makes_each_cell_text_once(monkeypatch, workers):
    # The sort and the CSV rows read one compact text of each cell object,
    # whole for a per-cell batch or cut at g for a per-g one, and a cell
    # made of the same blocks and exponents is one object, so no text is
    # made twice.
    made = []
    real = audit._Style._text

    def counting(self, d):
        text = real(self, d)
        made.append(text)
        return text

    monkeypatch.setattr(audit._Style, "_text", counting)
    report = audit.run_battery(audit.AuditConfig(groups=("S3", "D4")))
    sorted_texts = len(made)
    rows = list(report.rows())
    assert len(made) == sorted_texts
    cells = {(id(b.cell), b.gs is None) for b in report.findings.batches}
    assert len(made) == len(cells)
    assert len(made) == len(set(made)) == 878
    assert len(rows) == len(report.findings) > len(made)


def test_report_texts_go_with_their_findings():
    # Both forms' texts are freed with the last reference to the report,
    # not at a later cyclic collection.
    report = audit.run_battery(audit.AuditConfig(groups=("S3",)))
    report.write(_Discard())
    list(report.rows())
    styles = [weakref.ref(report.findings._style(form)) for form in (False, True)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del report
        assert [style() for style in styles] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_witness_reads_are_fresh_and_private(s3_d4_report):
    findings = s3_d4_report.findings
    chains = [
        (f, w) for f, (_, _, _, w) in zip(findings, findings.rows())
        if f.claim == "T2_CHAIN"
    ]
    f, other = next(
        (a, b) for (a, w), (b, v) in zip(chains, chains[1:]) if w == v
    )
    before = json.dumps(other.witness)
    read = f.witness
    assert json.dumps(read) == before
    read["links_hold"].append("changed")
    read["pair"] = "changed"
    assert json.dumps(f.witness) == json.dumps(other.witness) == before
    assert json.dumps(findings[findings.index(f)].witness) == before


def test_witness_tables_are_per_run(s3_d4_report):
    assert audit._RUN.get() is None
    second = audit.run_battery(s3_d4_report.config)
    assert audit._RUN.get() is None
    assert _finding_json(second.findings) == _finding_json(s3_d4_report.findings)
    first, again = s3_d4_report.findings.witnesses, second.findings.witnesses
    assert first == again and first is not again
    assert not {id(e) for e in first} & {id(e) for e in again}
    # The report keeps the table alone: the run's memo and text index go.
    held = gc.get_referents(second.findings)
    assert not any(isinstance(x, audit._RunTables) for x in held)


def test_witnesses_equal_only_as_numbers_stay_apart():
    # True == 1 == 1.0 and 0.0 == -0.0, but each is written apart.
    values = (True, 1, 1.0, 0.0, -0.0, 1)
    with audit._run_tables() as tables:
        ids = [audit._witness({"x": v, "y": [v]}) for v in values]
        cell = {"group": "S3"}
        batches = [audit._batch("C4", cell, None, [(audit.HOLDS, w)]) for w in ids]
        findings = audit.Findings(batches, tables.witnesses)
    texts = [json.dumps(f.witness) for f in findings]
    assert texts == [json.dumps({"x": v, "y": [v]}) for v in values]
    assert ids[1] == ids[5]
    assert len(set(ids)) == len(tables.witnesses) == 5


# Each per-g check, the claims it reports and the blocks of its instances.
_PER_G_CHECKS = {
    "check_symmetry": (("P2a", "P2b"), ("H", "K")),
    "check_monotonicity": (("P4",), ("H", "K")),
    "check_quotient": (("P5",), ("H", "N")),
    "check_chain": (("T2_CHAIN",), ("H", "K")),
    "check_c5": (("C5",), ("H", "K")),
    "check_t3": (("T3i", "T3ii"), ("H", "K")),
}


def test_run_witnesses_equal_those_of_lone_calls():
    config = audit.AuditConfig(groups=("S3", "D4", "Q8"), product_pairs=())
    report = audit.run_battery(config)
    check_of = {
        claim: (name, blocks)
        for name, (claims, blocks) in _PER_G_CHECKS.items()
        for claim in claims
    }
    calls: dict = {}
    cells_of_ids: dict = {}
    findings = report.findings
    for f, (batch, _, _, w) in zip(findings, findings.rows()):
        if f.claim not in check_of:
            continue
        name, blocks = check_of[f.claim]
        inst = f.cell
        assert batch.gs is not None and "g" not in inst
        cell = (inst["group"], *(tuple(inst[b]) for b in blocks), inst["n"], inst["m"])
        witness = json.dumps(f.witness, sort_keys=True)
        calls.setdefault((name, cell), {})[f.claim, f.g] = witness
        cells_of_ids.setdefault(w, set()).add(cell)
    assert {claim for (name, _), found in calls.items() for claim, _ in found} == set(
        check_of
    )
    # The run's memo was warmed by other cells: some witnesses serve several.
    assert any(len(cells) > 1 for cells in cells_of_ids.values())
    for (name, (spec, x, y, n, m)), expected in calls.items():
        G = groupspec.parse_group_spec(spec)
        H, K = groups.SubgroupRef(G, x), groups.SubgroupRef(G, y)
        gs = sorted({g for _, g in expected})
        check = getattr(audit, name)
        lone = check(H, K, n, gs) if name == "check_c5" else check(H, K, n, m, gs)
        got = {(f.claim, f.g): json.dumps(f.witness, sort_keys=True) for f in lone}
        assert got == expected, (name, spec, x, y, n, m)


def test_run_instances_are_shared_by_what_they_are_made_of():
    report = audit.run_battery(audit.AuditConfig(groups=("D4",), product_pairs=()))
    # Every instance over two blocks; FROB_BOUND, ZETA_CHAR and EQ7 have one.
    by_text: dict = {}
    for f in report.findings:
        if "K" in f.cell or "N" in f.cell:
            text = json.dumps(f.cell, sort_keys=True)
            by_text.setdefault(text, set()).add(id(f.cell))
    assert len(by_text) > 100
    assert all(len(ids) == 1 for ids in by_text.values())
    p4 = [f for f in report.findings if f.claim == "P4"]
    assert p4 and all("g" not in f.cell and f.g is not None for f in p4)


def test_each_group_is_freed_when_its_walk_ends(monkeypatch, in_process):
    parsed, products, alive_at_parse = [], [], []
    real_parse, real_product = groupspec.parse_group_spec, groups.direct_product

    def parse(spec, **kwargs):
        alive_at_parse.append([i for i, ref in enumerate(parsed) if ref() is not None])
        G = real_parse(spec, **kwargs)
        parsed.append(weakref.ref(G))
        return G

    def product(*args, **kwargs):
        P = real_product(*args, **kwargs)
        products.append(weakref.ref(P))
        return P

    monkeypatch.setattr(groupspec, "parse_group_spec", parse)
    monkeypatch.setattr(groups, "direct_product", product)
    report = audit.run_battery(audit.AuditConfig(groups=("C4", "S3", "D4")))
    # Three groups, then the default three product pairs of two groups each:
    # every earlier walk's tables are gone when a walk parses its first
    # group, and a pair's first group is in use when its second is parsed.
    assert len(parsed) == 9 and len(products) == 3
    assert alive_at_parse == [[], [], [], [], [3], [], [5], [], [7]]
    assert "P1" in report.summary
    assert [ref() for ref in parsed + products] == [None] * 12


@pytest.fixture(scope="module")
def mixed_config():
    # Per-g claims, per-cell claims and one product pair.
    return audit.AuditConfig(
        groups=("S3", "C4"),
        claims=("P2a", "P2b", "T3i", "C5", "P4", "C4", "R1a", "P3_m1", "EQ4", "P1"),
        product_pairs=(("C2", "S3"),),
    )


def test_batch_route_builds_no_finding(monkeypatch, mixed_config):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Finding was built")

    monkeypatch.setattr(audit.Finding, "__init__", refuse)
    report = audit.run_battery(mixed_config)
    report.write(_Discard())
    for output in ("csv", "table"):
        args = argparse.Namespace(output=output, timings=True)
        cli._write_audit(_Discard(), report, args)
    counted = sum(n for counts in report.summary.values() for n in counts.values())
    assert len(report.findings) == counted
    monkeypatch.undo()
    for include_runtime in (False, True):
        written = json.loads(report.dumps(include_runtime))["findings"]
        assert len(written) == len(report.findings)
        assert [f.to_json(include_runtime) for f in report.findings] == written
    findings = report.findings
    assert findings[0] == next(iter(findings)) and findings[-1] == list(findings)[-1]
    assert findings[3:7] == list(findings)[3:7]



# sha256 of the default report in each form `audit --battery default`
# writes: `--out FILE`, `-o csv` and `-o table`.
DEFAULT_REPORT_SHA256 = {
    "json": "e047be459d65a5c646c7d04f1153e00c1c4ef4b1e8c94e1fd3f3456b8ce6c7c0",
    "csv": "2ec16d339846c3f98e3178df14d9aa82019e0ac4df683cd670de431641a15756",
    "table": "c1d21ffb47c752cb68c7514da63bf1535916690dd3a97997fb23796ec584a371",
}


def _written(report, output, timings=False):
    sink = io.StringIO()
    cli._write_audit(sink, report, argparse.Namespace(output=output, timings=timings))
    return sink.getvalue()


def test_default_report_bytes_at_every_worker_count(workers):
    report = audit.run_battery(audit.default_config())
    for output, digest in DEFAULT_REPORT_SHA256.items():
        text = _written(report, output)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, output


# sha256 of that report's text with timings, each runtime written as 0.
SMALL_TIMINGS_LAYOUT_SHA256 = (
    "c1f12957af31a4b0dfaee74e988d126c82f0a88978749b49bf3b6f332bebb2b9"
)
_RUNTIME = re.compile(r'"runtime_ms": ([^,\n]+)')


def test_timings_layout_at_every_worker_count(workers):
    report = audit.run_battery(_small_config())
    text = report.dumps(include_runtime=True)
    runtimes = [float(t) for t in _RUNTIME.findall(text)]
    assert len(runtimes) == len(report.findings) == 9978
    assert all(0 <= t < 60_000 for t in runtimes)
    masked = _RUNTIME.sub('"runtime_ms": 0', text)
    assert hashlib.sha256(masked.encode()).hexdigest() == SMALL_TIMINGS_LAYOUT_SHA256
    # The CSV form: the rows without timings, each with its runtime last.
    rows = list(csv.reader(io.StringIO(_written(report, "csv", timings=True))))
    assert rows[0][-1] == "runtime_ms"
    assert [r[:-1] for r in rows] == list(csv.reader(io.StringIO(_written(report, "csv"))))
    assert [float(r[-1]) for r in rows[1:]] == runtimes


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_a_pickle_round_trip():
    # A walk worker's error reaches the parent pickled.
    kinds = [CommdegError, *_subclasses(CommdegError)]
    assert len(kinds) == 16
    message = "order 40320 exceeds the cap 10080"
    for kind in kinds:
        error = pickle.loads(pickle.dumps(kind(message)))
        assert type(error) is kind
        assert (error.code, str(error)) == (kind.code, message)


def test_a_failed_walk_leaves_no_worker(workers):
    # S8 is past the order cap; its walk fails after C2's.
    with pytest.raises(ClosureTooLarge, match="order 40320 exceeds the cap 10080"):
        audit.run_battery(audit.AuditConfig(groups=("C2", "S8")))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_walk_goes_on_past_a_failed_one(monkeypatch, workers):
    # C3's walk would sleep for minutes: it is stopped, not waited for.
    real = groupspec.parse_group_spec

    def parse(spec, **kwargs):
        if spec == "C3":
            time.sleep(300)
        return real(spec, **kwargs)

    monkeypatch.setattr(groupspec, "parse_group_spec", parse)
    start = time.monotonic()
    with pytest.raises(ClosureTooLarge):
        audit.run_battery(audit.AuditConfig(groups=("S8", "C3"), product_pairs=()))
    assert time.monotonic() - start < 60
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_the_usable_cpus_and_no_more_than_the_walks():
    cpus = len(os.sched_getaffinity(0))
    assert [audit._workers(n) for n in (0, 1, 10_000)] == [1, 1, cpus]


def test_a_worker_that_dies_ends_the_battery(monkeypatch):
    monkeypatch.setattr(audit, "_workers", lambda n_walks: 2)
    real = groupspec.parse_group_spec

    def parse(spec, **kwargs):
        if spec == "C3":
            os._exit(1)
        return real(spec, **kwargs)

    monkeypatch.setattr(groupspec, "parse_group_spec", parse)
    with pytest.raises(ChildProcessError, match="walking 'C3' ended"):
        audit.run_battery(audit.AuditConfig(groups=("C2", "C3"), product_pairs=()))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
