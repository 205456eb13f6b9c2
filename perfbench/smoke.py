"""Smoke check of the benchmark harness on a tiny command.

Usage, from the repository root:

    python3 perfbench/smoke.py

Runs `prob -G S3 -g 1` (exact value 1/4) through the same code path as
perfbench/run.py, untraced and traced, and exits non-zero unless

1. each run emits exactly the metrics BENCHMARK.json names, with their
   units (end-to-end untraced, per-layer traced), and the tracer's own
   metric list equals BENCHMARK.json's per-layer list;
2. a correct output passes, and the same output corrupted before the
   check counts every command child as failed;
3. the tracer wraps exactly the check functions commdeg.audit exports,
   and exits non-zero, without running the command, when a function it
   should wrap does not exist.

Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import tracer

SECONDS = 1.0


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracer.per_layer_metrics():
        problems.append("BENCHMARK.json per_layer != tracer.per_layer_metrics()")

    good = run.check_distribution(Fraction(1, 4))
    tiny = run.Workload(
        "smoke-S3", lambda seed, d: ["prob", "-G", "S3", "-g", "1"], ("S3",), good
    )
    corrupt = run.Workload(
        "smoke-S3-corrupt",
        tiny.args,
        tiny.setup_specs,
        lambda out, d: good(out.replace(b"1/4", b"1/5"), d),
    )
    for trace in (False, True):
        result, detail = run.run(tiny, 0, SECONDS, trace)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != expected[trace]:
            problems.append(f"trace={trace}: emitted {sorted(emitted.items())}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={trace}: correct output failed: {detail}")
        result, detail = run.run(corrupt, 0, SECONDS, trace)
        commands = result["attempted"] - len(detail["setup"])
        if result["correct"] or not commands or result["failed"] != commands:
            problems.append(
                f"trace={trace}: corrupted output not counted as failed:"
                f" {result['failed']} of {result['attempted']}"
            )
    sys.path.insert(0, str(run.SRC))
    from commdeg import audit

    exported = tuple(n for n in audit.__all__ if n.startswith("check_"))
    if exported != tracer.AUDIT_CHECKS:
        problems.append(f"tracer.AUDIT_CHECKS != commdeg.audit checks {exported}")
    # Last, because it wraps commdeg's functions in this process.
    tracer.LAYERS = (*tracer.LAYERS, ("audit.gone", "audit", "gone"))
    with tempfile.TemporaryDirectory() as tmp:
        stats = Path(tmp) / "stats.json"
        code = tracer.main([str(stats), "--", "prob", "-G", "S3", "-g", "1"])
        if code == 0 or stats.exists():
            problems.append(f"a missing layer function gave exit {code}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
