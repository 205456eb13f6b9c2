import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import commdeg
from commdeg import audit, chartab, cli, engine, groups, groupspec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_error_on_bad_n(capsys):
    code, _, err = run(capsys, "prob", "-G", "S3", "-n", "0", "-g", "0")
    assert code == 2
    assert "-n" in err


def test_usage_error_names_the_flag(capsys):
    code, _, err = run(capsys, "prob", "-G", "S3", "-g", "six")
    assert code == 2
    assert "-g" in err
    code, _, err = run(capsys, "prob", "-G", "S3", "-g", "99")
    assert code == 2


def test_computation_error_exit_code(capsys):
    code, _, err = run(capsys, "prob", "-G", "C99", "--max-order", "10", "-g", "0")
    assert code == 4
    assert "closure_too_large" in err


@pytest.mark.parametrize(
    "spec,message",
    [
        ("S9", "order 362880 exceeds the cap 10080"),
        ("C20000", "order 20000 exceeds the cap 10080"),
        # Orders with thousands of digits are refused without working out n!.
        ("S1700", "order over 1000000000000000000 exceeds the cap 10080"),
        ("S3000", "order over 1000000000000000000 exceeds the cap 10080"),
        ("A20000", "order over 1000000000000000000 exceeds the cap 10080"),
        ("S200000", "order over 1000000000000000000 exceeds the cap 10080"),
    ],
)
def test_family_order_over_the_cap_exits_4(capsys, spec, message):
    code, out, err = run(capsys, "info", "-G", spec)
    assert (code, out, err) == (4, "", f"error [closure_too_large]: {message}\n")


_LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "-G", f"C{_LONG}"),
        ("info", "-G", f"perm({_LONG}): (1 2)"),
        ("info", "-G", f"perm(3): (1 {_LONG})"),
        ("prob", "-G", "S3", "-H", f"gen[{_LONG}]", "-g", "0"),
        ("audit", "--config", "{seed}"),
        ("audit", "--config", "{groups}"),
    ],
)
def test_over_long_integers_are_usage_errors(capsys, tmp_path, argv):
    configs = {
        "{seed}": '{"seed": ' + _LONG + "}",
        "{groups}": json.dumps({"groups": [f"C{_LONG}"]}),
    }
    for key, text in configs.items():
        (tmp_path / key).write_text(text)
    argv = [str(tmp_path / a) if a in configs else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_info_table(capsys):
    code, out, _ = run(capsys, "info", "-G", "D4xC2")
    assert code == 0
    assert "order 16" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "-G", "S3", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["class_count"] == 3
    assert payload["center_order"] == 1
    assert payload["elements"][1]["label"] == "(1 2 3)"


@pytest.mark.parametrize("spec", ["S3", "Q8", "C6", "Q8xC3"])
def test_info_json_center_and_abelian_match_definitions(capsys, spec):
    code, out, _ = run(capsys, "info", "-G", spec, "-o", "json")
    assert code == 0
    payload = json.loads(out)
    mul = groupspec.parse_group_spec(spec).mul
    commutes = mul == mul.T
    assert payload["center_order"] == int(commutes.all(axis=1).sum())
    assert payload["is_abelian"] == bool(commutes.all())


@pytest.mark.parametrize(
    "spec, digest",
    [
        ("S4", "f8d77aeb8dafe4ba533602a6defe7bb480db983aefebb4d6af6221579e0a16d8"),
        ("S3xQ8", "cfd32b30048e56abe8fb05794cd83cf94976e870bba81b222957b2aa693fb3e7"),
        (
            "perm(4): (1 2)(3 4); (1 3)",
            "398ef567e518d6451680d34fa702ae07e7cfae2113dcaa43224fd7b56dc094a6",
        ),
    ],
)
def test_info_json_bytes_are_pinned(capsys, spec, digest):
    code, out, _ = run(capsys, "info", "-G", spec, "-o", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prob_table_cross_checks_brute(capsys):
    code, out, _ = run(capsys, "prob", "-G", "S3", "-g", "0")
    assert code == 0
    assert "distribution: 1/2" in out
    assert "brute: 1/2" in out


def test_prob_json_round_trips(capsys):
    code, out, _ = run(capsys, "prob", "-G", "S3", "-g", "1", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    value = payload["value"]
    assert Fraction(int(value["num"]), int(value["den"])) == Fraction(1, 4)
    assert payload["cross_checks"][0]["method"] == "brute"


def test_prob_all_matches_profile(capsys, s3):
    code, out, _ = run(
        capsys, "prob", "-G", "S3", "-n", "2", "-g", "all", "-o", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "distribution"
    full = groups.full_subgroup(s3)
    counts = engine.final_counts(full, full, 2, 1)
    values = {
        int(g): Fraction(int(v["num"]), int(v["den"]))
        for g, v in payload["values"].items()
    }
    assert values == {g: Fraction(c, 6**3) for g, c in enumerate(counts)}
    assert sum(values.values()) == 1

    code, _, _ = run(capsys, "profile", "-G", "S3")
    assert code == 2


def test_prob_all_rejects_single_element_methods(capsys):
    for method in ("brute", "class", "char"):
        code, out, err = run(
            capsys, "prob", "-G", "S3", "-g", "all", "--method", method
        )
        assert code == 2
        assert out == ""
        assert "-g all" in err and method in err
    code, out, _ = run(capsys, "prob", "-G", "S3", "-g", "all", "--method", "dist")
    assert code == 0 and out


@pytest.mark.parametrize(
    "extra, flag",
    [
        (("-g", "1", "--method", "class", "--threads", "2"), "--threads"),
        (("-g", "1", "--method", "dist", "--brute-cap", "10"), "--brute-cap"),
        (("-g", "1", "--seed", "3"), "--seed"),
        (("-g", "1", "--method", "class", "--seed", "0"), "--seed"),
        (("-g", "1", "--method", "class", "--brute-cap", "10"), "--brute-cap"),
        (("-g", "1", "--method", "dist", "--threads", "2"), "--threads"),
        (("-g", "0", "--method", "char", "--threads", "1"), "--threads"),
        (("-g", "0", "--method", "brute", "--seed", "1"), "--seed"),
        (("-g", "all", "--threads", "2"), "--threads"),
        (("-g", "all", "--brute-cap", "10"), "--brute-cap"),
        (("-g", "0", "--method", "char", "--brute-cap", "10"), "--brute-cap"),
        (("-g", "all", "--seed", "0"), "--seed"),
    ],
)
def test_prob_refuses_flags_its_route_ignores(capsys, extra, flag):
    # C99 is over the order cap: the refusal comes before the group is built.
    code, out, err = run(capsys, "prob", "-G", "C99", "--max-order", "10", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and flag in err


_BRUTE_DEFAULTS = ("--brute-cap", str(engine.BRUTE_CAP_DEFAULT), "--threads", "1")


@pytest.mark.parametrize(
    "extra, defaults",
    [
        (("-g", "1"), _BRUTE_DEFAULTS),
        (("-g", "1", "--method", "brute"), _BRUTE_DEFAULTS),
        (("-g", "1", "--method", "class"), ("-n", "1", "-m", "1")),
        (("-g", "0", "--method", "char"), ("--seed", "0")),
    ],
)
def test_prob_flags_default_when_omitted(capsys, extra, defaults):
    code, implicit, _ = run(capsys, "prob", "-G", "S4", *extra)
    assert code == 0
    code, explicit, _ = run(capsys, "prob", "-G", "S4", *extra, *defaults)
    assert code == 0
    assert explicit == implicit


def test_prob_has_no_predicate_flag(capsys):
    code, out, err = run(
        capsys, "prob", "-G", "S4", "-g", "3", "--method", "class",
        "--predicate", "derived",
    )
    assert code == 2
    assert out == ""
    assert "--predicate" in err


def test_prob_flag_table_matches_parser():
    # The rows of the tuning-flag table under `prob` in docs/formats.md.
    text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    section = text.split("## `prob`", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `--")
    ]
    documented = {flag[2:].replace("-", "_"): default for flag, default, _ in rows}
    assert documented == {
        flag: str(default) for flag, (_, default) in cli._PROB_ROUTE_FLAGS.items()
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("info", "-G", "S4"),
        ("prob", "-G", "S4", "-g", "3"),
        ("prob", "-G", "S3", "-g", "all"),
        ("prob", "-G", "S4", "-g", "0", "--method", "char"),
        ("zeta", "-G", "S4"),
        ("dist", "-G", "D4", "-n", "2"),
        ("chartab", "-G", "D5"),
        ("audit", "--groups", "S3", "--claims", "EQ3,P4"),
    ],
)
def test_json_output_is_the_stdlib_indented_dump(capsys, argv):
    code, out, _ = run(capsys, *argv, "-o", "json")
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n" == out


def test_prob_class_method(capsys):
    code, out, _ = run(
        capsys,
        "prob", "-G", "S3", "-g", "0", "-n", "1", "-m", "2",
        "--method", "class", "-o", "csv",
    )
    assert code == 0
    assert "class_formula,11,36" in out


def test_prob_char_method(capsys):
    code, out, _ = run(
        capsys, "prob", "-G", "S3", "-g", "1", "--method", "char", "-o", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "char_pg"
    assert payload["value"]["float"] == pytest.approx(0.25)

    code, out, _ = run(
        capsys,
        "prob", "-G", "S3", "-H", "gen[1]", "-g", "1", "--method", "char",
        "-o", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "char_relative"
    assert payload["value"]["float"] == pytest.approx(1 / 6)


def test_prob_char_usage_gates(capsys):
    code, _, err = run(
        capsys, "prob", "-G", "S3", "-g", "0", "-n", "2", "--method", "char"
    )
    assert code == 2 and "-n 1 -m 1" in err
    code, _, err = run(
        capsys, "prob", "-G", "S3", "-K", "gen[1]", "-g", "0", "--method", "char"
    )
    assert code == 2 and "-K full" in err
    code, _, err = run(
        capsys, "prob", "-G", "S3", "-H", "gen[2]", "-g", "0", "--method", "char"
    )
    assert code == 2 and "-H" in err


def test_zeta_command(capsys):
    code, out, _ = run(
        capsys, "zeta", "-G", "S3", "-H", "gen[1]", "-g", "1", "-o", "json"
    )
    assert code == 0
    assert json.loads(out)["counts"]["1"] == 3

    # y-slots range over all of G, and the key is `counts` even for one -g:
    # [(1 2), y] = (1 2 3) for two y in S3, for none in <(1 2)>
    code, out, _ = run(
        capsys, "zeta", "-G", "S3", "-H", "gen[2]", "-g", "1", "-o", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"group", "H", "n", "m", "counts"}
    assert payload["counts"] == {"1": 2}


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "-G", "S3", "-n", "2", "-o", "csv")
    assert code == 0
    assert out == "element_id,count\n0,18\n1,9\n2,0\n3,9\n4,0\n5,0\n"


def test_chartab_json(capsys):
    code, out, _ = run(capsys, "chartab", "-G", "Q8", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(irr["degree"] for irr in payload["irreducibles"]) == [1, 1, 1, 1, 2]


def test_chartab_table(capsys):
    code, out, _ = run(capsys, "chartab", "-G", "S3")
    assert code == 0
    assert "3 classes" in out


def _child_env():
    """This process's environment, with the package's ``src`` on PYTHONPATH."""
    src = str(Path(commdeg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_capped(limit, *argv):
    """Run the CLI in a child with its address space capped at ``limit``.

    An allocation past the cap ends in MemoryError (exit 1), not in the
    typed error, so the tests below see whether a refusal came first.
    """
    return subprocess.run(
        [sys.executable, "-m", "commdeg.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


# sha256 of `chartab -G <spec> --seed <seed> -o <form>` standard output:
# the rounded values, told apart to six places, are the same for every seed.
_CHARTAB_TEXT_SHA256 = {
    ("C200", "csv"): "92805adef8ea81e69e1c7ecec3580b7975527efaa8dfdea2f0bc9fd2f5fcf15e",
    ("C200", "table"): "2f8519bda5f8e853e5faad4eaa429fcbd342129399ca0e9a664596110fc25954",
    ("S4", "csv"): "84bd0542ae16543e2a37f0db7c683685e94d7363ea12874246dddec7a58885a6",
    ("S4", "table"): "5426eaff48dc28218a9b4e28fe2599f6767d1c588437c67d9940fd7ebe0688d8",
    ("C600", "csv"): "97a7a7c7f6168a35d38446b657c79d44f585f009133b23ed9600878a30d211c4",
    ("C600", "table"): "8bac9f28cfd132be9b0a78771e051e3d92732369d46a63046706f4d0d0958ccf",
}


class _Sha256Sink:
    """A standard output that keeps only the sha256 of what is written."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "spec,seed", [("C200", "0"), ("C200", "1"), ("S4", "0"), ("C600", "0")]
)
def test_chartab_csv_and_table_bytes_are_pinned(monkeypatch, spec, seed):
    # One table per case, rendered in both forms.  C600's table form is
    # about 940 MB (each column as wide as the longest class label), so
    # the output is hashed as it is written, never held.
    real = chartab.character_table
    built = {}

    def once(G, seed=0):
        if "table" not in built:
            built["table"] = real(G, seed=seed)
        return built["table"]

    monkeypatch.setattr(chartab, "character_table", once)
    for form in ("csv", "table"):
        sink = _Sha256Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        code = cli.main(["chartab", "-G", spec, "--seed", seed, "-o", form])
        assert code == 0
        assert sink.digest.hexdigest() == _CHARTAB_TEXT_SHA256[spec, form], form


def test_chartab_past_512_classes_answers_under_memory_cap():
    # C600 has 600 classes: a whole k x k x k structure tensor would need
    # 1.7 GB, but the table is built from k x k slices.
    proc = _run_capped(1 << 30, "chartab", "-G", "C600", "-o", "json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["order"] == 600
    assert [irr["degree"] for irr in payload["irreducibles"]] == [1] * 600


def test_chartab_over_working_set_limit_exits_4():
    # The first class count whose k x k working set is over the limit;
    # a cyclic group has one class per element.
    k = math.isqrt(
        chartab.WORKING_SET_BYTES_MAX // chartab.WORKING_SET_BYTES_PER_ENTRY
    ) + 1
    proc = _run_capped(1 << 30, "chartab", "-G", f"C{k}", "-o", "json")
    assert proc.returncode == 4, proc.stderr
    assert "error [resource_limit]" in proc.stderr
    assert proc.stdout == ""


def test_huge_permutation_degree_is_refused_before_allocation():
    # The parse lists of 30,000,000 points would take gigabytes.
    proc = _run_capped(1 << 31, "info", "-G", "perm(30000000): (1 2)")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error [resource_limit]: parsing perm(30000000)")
    assert proc.stdout == ""
    proc = _run_capped(1 << 31, "info", "-G", "perm(1000000): (1 2)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("group perm(1000000): (1 2): order 2\n")


@pytest.mark.parametrize(
    "spec,order", [("C10000xC10000", 100000000), ("C100xC100xC100", 1000000)]
)
def test_product_over_the_cap_exits_4_before_building_its_atoms(spec, order):
    # Each C10000 table takes 400 MB, and C100xC100 is a 400 MB table
    # too, so building any of them first would fail under this cap.
    proc = _run_capped(1 << 29, "info", "-G", spec)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == (
        f"error [closure_too_large]: order {order} exceeds the cap 10080\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv", [("chartab", "-G", "C200", "-o", "json"), ("info", "-G", "C500")]
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "commdeg.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    # Both outputs are far larger than a pipe's buffer, so the child is
    # still writing when the pipe closes.
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_group_over_table_limit_exits_4():
    # S8 has order 40320, so its table would need 6.5 GB.
    proc = _run_capped(1 << 30, "info", "-G", "S8", "--max-order", "40320")
    assert proc.returncode == 4, proc.stderr
    assert "error [resource_limit]" in proc.stderr
    assert proc.stdout == ""


def test_family_order_over_table_limit_exits_4_before_closure():
    # S10's 3,628,800 elements would take about 1 GB to close, and its
    # table 26 TB; the order from the family table is refused first.
    proc = _run_capped(1 << 29, "info", "-G", "S10", "--max-order", "4000000")
    assert proc.returncode == 4, proc.stderr
    assert "error [resource_limit]" in proc.stderr
    assert proc.stdout == ""


def test_info_csv_of_c5040_is_streamed_under_memory_cap():
    # The 122 MB CSV must be written a row at a time: its whole text,
    # held at once beside the table, does not fit under this cap.
    proc = _run_capped(400 << 20, "info", "-G", "C5040", "-o", "csv")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "9e2e6e68243f5bbff095b74df66350745bf0d3e732a5edb5f3426f82dff89db7"
    )


def test_info_json_of_c5040_is_streamed_under_memory_cap():
    # The 122 MB JSON must be written an element at a time, as the CSV is.
    proc = _run_capped(400 << 20, "info", "-G", "C5040", "-o", "json")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "7206c05b47fe997d6842299cfd42c3a018f1bb555169130d39f447dc7f2beff1"
    )


def test_group_at_order_cap_builds_under_memory_cap():
    # S7xC2 has order 10080, the default cap: a 203 MB table of int16 ids,
    # which must be built and validated without a second full-size copy.
    proc = _run_capped(1 << 29, "info", "-G", "S7xC2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("group S7xC2: order 10080\n")


@pytest.mark.parametrize(
    "spec,message",
    [
        ("X5", "unrecognized group spec"),
        ("perm(3): (1 4)", "point 4 outside degree 3"),
        ("S3x", "malformed product spec"),
    ],
)
def test_malformed_group_spec_is_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "info", "-G", spec)
    assert code == 2
    assert err.startswith("usage error: ") and message in err
    assert out == ""


def test_audit_small_battery_json(capsys):
    code, out, _ = run(
        capsys, "audit", "--groups", "S3", "--claims", "EQ3,EQ4,P3_m1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["EQ3"] == {"holds": 1}
    assert payload["config_echo"]["groups"] == ["S3"]
    assert all("runtime_ms" not in f for f in payload["findings"])


def test_audit_byte_identical_runs(capsys):
    argv = ("audit", "--groups", "S3,C4", "--claims", "P4,T3i", "--seed", "7")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_audit_json_is_the_report_text(capsys, monkeypatch, tmp_path):
    # One battery per config, so the --timings runs write the same timings
    # the expected text holds.
    reports = {}
    real = audit.run_battery

    def once(config):
        if config not in reports:
            reports[config] = real(config)
        return reports[config]

    monkeypatch.setattr(audit, "run_battery", once)
    target = tmp_path / "report.json"
    for timings in ([], ["--timings"]):
        for out_args in ([], ["--out", str(target)]):
            argv = ["audit", "--groups", "S3,D4", *timings, *out_args]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            text = target.read_bytes().decode() if out_args else out
            (report,) = reports.values()
            assert text == report.dumps(include_runtime=bool(timings)) + "\n"
            assert out == ("" if out_args else text)


def test_audit_timings_flag(capsys):
    code, out, _ = run(
        capsys, "audit", "--groups", "C2", "--claims", "EQ4", "--timings"
    )
    assert code == 0
    payload = json.loads(out)
    assert all("runtime_ms" in f for f in payload["findings"])


def test_audit_table_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "audit", "--groups", "S3", "--claims", "P3_mgt1",
        "--out", str(target), "-o", "table",
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "P3_mgt1" in text and "violated" in text


def test_audit_csv_flattening(capsys):
    code, out, _ = run(
        capsys, "audit", "--groups", "C2", "--claims", "EQ4", "-o", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim,verdict,instance,witness"
    assert lines[1].startswith("EQ4,holds,")


@pytest.fixture(scope="module")
def s3_d4_report():
    return audit.run_battery(audit.AuditConfig(groups=("S3", "D4")))


def _csv_text_in_one_piece(report, timings):
    # Every row first, then the whole text through the csv module.
    rows = [
        [
            f.claim,
            f.verdict,
            json.dumps(f.instance, sort_keys=True),
            json.dumps(f.witness, sort_keys=True),
        ]
        + ([round(f.runtime_ms, 3)] if timings else [])
        for f in report.findings
    ]
    header = ["claim", "verdict", "instance", "witness"] + (
        ["runtime_ms"] if timings else []
    )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def test_audit_csv_rows_are_the_one_piece_text(s3_d4_report):
    for timings in (False, True):
        sink = io.StringIO()
        args = argparse.Namespace(output="csv", timings=timings)
        cli._write_audit(sink, s3_d4_report, args)
        assert sink.getvalue() == _csv_text_in_one_piece(s3_d4_report, timings)


class _Discard:
    def write(self, text):
        pass


def test_audit_csv_write_peak_memory(s3_d4_report):
    # Writing row by row holds one row at a time, plus the csv module's
    # 128 KiB record buffer; building the rows or the text first would
    # peak above the text's length.  The first write also fills the
    # report's per-run text memos, so it is made untraced here and the
    # second write is the one measured, whatever ran before this test.
    size = len(_csv_text_in_one_piece(s3_d4_report, False))
    args = argparse.Namespace(output="csv", timings=False)
    cli._write_audit(_Discard(), s3_d4_report, args)
    tracemalloc.start()
    try:
        cli._write_audit(_Discard(), s3_d4_report, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4


def test_audit_unknown_claim_is_usage_error(capsys):
    code, _, err = run(capsys, "audit", "--claims", "BOGUS")
    assert code == 2
    assert "--claims" in err


def test_audit_config_file(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"groups": ["S3"], "claims": ["EQ4"]}))
    code, out, _ = run(capsys, "audit", "--config", str(path))
    assert code == 0
    assert json.loads(out)["summary"]["EQ4"] == {"holds": 1}

    code, _, err = run(
        capsys, "audit", "--config", str(path), "--groups", "C2"
    )
    assert code == 2
    assert "--groups" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "audit", "--config", str(bad))
    assert code == 2


def test_audit_invalid_config_values_are_usage_errors(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_values": [0]}))
    for argv in (("--n-values", "0"), ("--config", str(path))):
        code, out, err = run(capsys, "audit", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("usage error:") and "n values" in err


def test_audit_hard_violation_exit_code(capsys, monkeypatch):
    """A corrupted count table must drive the audit command to exit 3."""
    engine.clear_caches()
    real = engine.final_counts.__wrapped__

    def corrupted(H, K, n, m):
        counts = list(real(H, K, n, m))
        counts[0] += 1
        return tuple(counts)

    monkeypatch.setattr(engine, "final_counts", corrupted)
    code, out, _ = run(capsys, "audit", "--groups", "S3", "--claims", "P3_m1")
    monkeypatch.undo()
    engine.clear_caches()
    assert code == 3
    payload = json.loads(out)
    assert payload["summary"]["P3_m1"]["violated"] > 0


def test_cross_check_failure_exits_4(capsys, monkeypatch):
    engine.clear_caches()
    real = engine.comm_distribution.__wrapped__

    def corrupted(H, n):
        counts = list(real(H, n))
        counts[0] += 1
        return tuple(counts)

    monkeypatch.setattr(engine, "comm_distribution", corrupted)
    code, _, err = run(capsys, "prob", "-G", "S3", "-g", "0", "-n", "2")
    monkeypatch.undo()
    engine.clear_caches()
    assert code == 4
    assert "cross-check" in err


def _no_tables(monkeypatch):
    """Make building any group table fail, for the character route's runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr(groups.GroupTable, "__init__", refuse)


@pytest.mark.parametrize("output", ["table", "json", "csv"])
@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2)])
def test_prob_s4_characters_match_the_table(capsys, monkeypatch, output, n, m):
    # Over --brute-cap, `auto` on S<N> with -H and -K full is answered from
    # the characters of S_N; --method dist always reads the table.
    argv = ["prob", "-G", "S4", "-n", str(n), "-m", str(m), "-o", output]
    for g in range(24):
        table = run(capsys, *argv, "-g", str(g), "--method", "dist")
        with monkeypatch.context() as patch:
            _no_tables(patch)
            characters = run(capsys, *argv, "-g", str(g), "--brute-cap", "1")
        assert characters == table, g
        assert table[0] == 0


_S7_PINNED = {
    "table": "group S7, |H|=5040, |K|=5040, n=2, m=2, g=0 [()]\n"
    "  distribution: 927917/98784000 = 0.009393\n",
    "csv": "method,num,den,float\n"
    "distribution,927917,98784000,0.009393393666990605\n",
}


@pytest.mark.parametrize("output", ["table", "json", "csv"])
def test_prob_s7_builds_no_table_and_its_bytes_are_pinned(
    capsys, monkeypatch, output
):
    _no_tables(monkeypatch)
    code, out, err = run(
        capsys, "prob", "-G", "S7", "-n", "2", "-m", "2", "-g", "0", "-o", output
    )
    assert code == 0, err
    if output == "json":
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == (
            "90d34563353631588756a89414e6debae26329aeca2dcd884e69e5d9c394c56c"
        )
    else:
        assert out == _S7_PINNED[output]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ["-G", "S8"],
            4,
            "error [closure_too_large]: order 40320 exceeds the cap 10080\n",
        ),
        (
            ["-G", "S8", "--max-order", "40320"],
            4,
            "error [resource_limit]: the table of a group of order 40320 needs"
            " 3251404800 bytes, over the 1073741824-byte limit\n",
        ),
        (
            ["-G", "S5", "--max-order", "100"],
            4,
            "error [closure_too_large]: order 120 exceeds the cap 100\n",
        ),
        (
            ["-G", "S3", "-g", "99"],
            2,
            "usage error: -g id 99 out of range for group of order 6\n",
        ),
    ],
)
def test_prob_symmetric_refusals_are_the_table_routes(capsys, argv, code, message):
    args = ["prob", "-n", "2", "-m", "2", *argv]
    if "-g" not in argv:
        args += ["-g", "0"]
    # --brute-cap 1 sends S3 to the character route too; --method dist
    # is the same refusal where the table answers
    for extra in ([], ["--brute-cap", "1"], ["--method", "dist"]):
        assert run(capsys, *args, *extra) == (code, "", message), extra


# Modules whose loading the child below reports.
_WATCHED = ("numpy", "numpy.ma", "dataclasses", "inspect", "csv", "json")

# Runs `cli.main` on each argv of a list (its repr) in one child, numpy
# blocked when asked, and prints each (exit code, stdout, stderr), then
# which of the watched modules were loaded.  json, one of them, is
# imported only to print the result.
_CHILD_MAIN = """
import ast, contextlib, io, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from commdeg import cli
results = []
for argv in ast.literal_eval(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
loaded = [m for m in ast.literal_eval(sys.argv[3]) if sys.modules.get(m) is not None]
import json
print(json.dumps({"results": results, "loaded": loaded}))
"""


def _child_main(mode, argvs):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_MAIN, mode, repr(argvs), repr(_WATCHED)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_prob_symmetric_runs_with_numpy_blocked(capsys):
    argvs = [
        ["prob", "-G", "S7", "-n", "2", "-m", "2", "-g", g, "-o", output]
        for g in ("0", "1", "5039")
        for output in ("json", "table")
    ]
    argvs.append(["prob", "-G", "S3", "-n", "6", "-m", "5", "-g", "2"])
    refusal = ["prob", "-G", "S8", "-n", "2", "-m", "2", "-g", "0"]
    blocked = _child_main("block", [*argvs, refusal, ["--help"]])
    assert "numpy" not in blocked["loaded"]
    *answers, refused, helped = blocked["results"]
    for argv, answer in zip(argvs, answers):
        # the table route, in this process, with numpy
        assert answer == list(run(capsys, *argv, "--method", "dist")), argv
        assert answer[0] == 0 and answer[2] == "", argv
    assert refused == list(run(capsys, *refusal))
    assert refused[:2] == [4, ""]
    assert helped[0] == 0 and helped[1].startswith("usage: commdeg")


def test_prob_symmetric_imports_no_numpy():
    # nor the modules of the other routes: dataclasses (with inspect),
    # csv and json
    argv = ["prob", "-G", "S7", "-n", "2", "-m", "2", "-g", "0"]
    child = _child_main("plain", [argv])
    assert child["results"][0][:2] == [0, _S7_PINNED["table"]]
    assert child["loaded"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["chartab", "-G", "C200", "-o", "json"],
        ["info", "-G", "S4"],
        ["audit", "--groups", "S4", "-o", "table"],
        ["prob", "-G", "S4", "-g", "all", "-o", "csv"],
    ],
)
def test_numpy_routes_do_not_load_numpy_ma(argv):
    child = _child_main("plain", [argv])
    assert child["results"][0][0] == 0
    assert "numpy" in child["loaded"] and "numpy.ma" not in child["loaded"]


# In one child: imports commdeg, then commdeg.cli, then runs `chartab -G S3`
# as the CLI does (`main()` reading sys.argv) or in-process (`main(argv)`).
# Prints the exit code, the variables each step added, changed (to their
# new value) or removed (to null), the BLAS thread variables at the end,
# and whether numpy was loaded before and after the call.
_CHILD_ENVIRON = """
import contextlib, io, json, os, sys
def step(name):
    now = dict(os.environ)
    steps[name] = {k: now.get(k) for k in {*last, *now} if last.get(k) != now.get(k)}
    last.clear()
    last.update(now)
steps, last = {}, dict(os.environ)
import commdeg
step("import commdeg")
from commdeg import cli
step("import commdeg.cli")
argv = ["chartab", "-G", "S3"]
loaded = ["numpy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "entry":
        sys.argv[1:] = argv
        code = cli.main()
    else:
        code = cli.main(argv)
loaded.append("numpy" in sys.modules)
step("main")
blas = {var: os.environ.get(var) for var in cli._BLAS_THREAD_VARS}
print(json.dumps({"code": code, "steps": steps, "blas": blas, "numpy": loaded}))
"""


def _blas_env(**chosen):
    """`_child_env` with no BLAS thread variable set but those ``chosen``."""
    env = _child_env()
    for var in cli._BLAS_THREAD_VARS:
        env.pop(var, None)
    env.update(chosen)
    return env


def _child_environ(how, env):
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_ENVIRON, how],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# An empty value is no choice: OpenBLAS reads it as unset.
@pytest.mark.parametrize("chosen", [{}, {"OMP_NUM_THREADS": ""}])
def test_cli_entry_sets_one_blas_thread_before_numpy_loads(chosen):
    child = _child_environ("entry", _blas_env(**chosen))
    assert child["code"] == 0
    assert child["steps"] == {
        "import commdeg": {},
        "import commdeg.cli": {},
        "main": {"OPENBLAS_NUM_THREADS": "1"},
    }
    assert child["numpy"] == [False, True]


@pytest.mark.parametrize(
    "chosen",
    [
        {"OPENBLAS_NUM_THREADS": "3"},
        {"OMP_NUM_THREADS": "2"},
        {"GOTO_NUM_THREADS": "2"},
    ],
)
def test_cli_entry_keeps_the_callers_blas_thread_count(chosen):
    child = _child_environ("entry", _blas_env(**chosen))
    assert child["code"] == 0
    assert child["steps"] == {"import commdeg": {}, "import commdeg.cli": {}, "main": {}}
    assert child["blas"] == {var: chosen.get(var) for var in cli._BLAS_THREAD_VARS}


def test_in_process_main_leaves_the_environment_alone():
    child = _child_environ("list", _blas_env())
    assert child["code"] == 0
    assert child["steps"] == {"import commdeg": {}, "import commdeg.cli": {}, "main": {}}
    assert child["blas"] == dict.fromkeys(cli._BLAS_THREAD_VARS)
    assert child["numpy"] == [False, True]


def test_chartab_json_is_the_one_thread_text_unless_a_count_is_chosen():
    # With the pool left at its default of one thread per core, the last
    # bits of C256's values changed with the machine's core count.
    argv = [sys.executable, "-m", "commdeg.cli", "chartab", "-G", "C256", "-o", "json"]
    texts = [
        subprocess.run(argv, capture_output=True, env=env, timeout=60, check=True).stdout
        for env in (_blas_env(), _blas_env(OPENBLAS_NUM_THREADS="1"))
    ]
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["order"] == 256


def test_env_var_order_cap(capsys, monkeypatch):
    monkeypatch.setenv("COMMDEG_MAX_ORDER", "10")
    code, _, err = run(capsys, "info", "-G", "C24")
    assert code == 4
    monkeypatch.setenv("COMMDEG_MAX_ORDER", "not-a-number")
    code, _, err = run(capsys, "info", "-G", "C24")
    assert code == 2
    monkeypatch.delenv("COMMDEG_MAX_ORDER")
    code, _, _ = run(capsys, "info", "-G", "C24")
    assert code == 0


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main(["prob", "--help"]) == 0
    capsys.readouterr()


def test_write_csv_is_the_csv_module_text():
    header = ("id", "label", "order", "class")
    rows = [
        [0, "()", 1, 0],
        [1, "(1 2)(3 4)", 2, 1],
        [2, "((1 2),(1 3))", 3, ""],
        [3, 'a"b', 4],
        [5, "c\rd", "e\nf"],
        [],
        [""],
        [True, 1.5, None, -3],
        ["x y", "(1 2 3)", 7, 2**70],
    ]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([header, *rows])
    written = io.StringIO()
    cli._write_csv(written, header, rows)
    assert written.getvalue() == expected.getvalue()


def test_write_csv_holds_one_row_at_a_time():
    # 1,000 rows of a 100 kB plain label: a whole-text buffer would hold
    # 100 MB, a writer that writes each row as it is made a few rows.
    label = "(1 2)" * 20_000
    rows = ((i, label, 1, 0) for i in range(1000))
    tracemalloc.start()
    try:
        cli._write_csv(_Discard(), ("id", "label", "order", "class"), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(label)


def test_cli_and_audit_import_no_process_pool():
    # The battery's worker pool is imported when a battery runs.
    code = (
        "import sys, commdeg.cli, commdeg.audit; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _is_running(pid):
    """Whether ``pid`` names a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # The state follows the parenthesized command name.
            state = fh.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="on one CPU the battery walks in-process"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["--battery", "default"],
        # Two walks of over ten seconds each, killed in their first second.
        ["--groups", "A6,A6", "--enum-cap", "360"],
    ],
)
def test_audit_workers_end_with_a_killed_command(tmp_path, argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "commdeg.cli", "audit", *argv,
         "--out", str(tmp_path / "report.json")],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_child_env(),
    )
    listing = f"/proc/{proc.pid}/task/{proc.pid}/children"
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            try:
                with open(listing) as fh:
                    workers = [int(pid) for pid in fh.read().split()]
            except FileNotFoundError:  # the command has ended
                break
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert workers
    time.sleep(1)
    assert [pid for pid in workers if _is_running(pid)] == []
