"""Repeat the benchmark over several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/summary.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                 [--out FILE]

For every workload in BENCHMARK.json, runs the
benchmark command once per seed, seeds first-seed .. first-seed+runs-1,
with BENCHMARK.json's run_seconds.  Prints, per workload and metric, the
unit, the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median, and for end-to-end metrics the bound and
whether the spread is under a third of it (steady), under it (within) or
over it (OVER); then failed / attempted over all runs.  With --out,
writes every run's result and detail record as JSON.  With --runs 1
this is one command that prints every metric by name and unit for every
workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    records = []
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                *spec["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}")
                print(done.stderr[-2000:])
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
            results.append(result)
            records.append(
                {"workload": workload, "seed": seed, "result": result, "detail": detail}
            )
            values = ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"]
                if m["name"] in result["metrics"]
            )
            print(
                f"  {workload} seed {seed}: correct={result['correct']} {values}",
                flush=True,
            )

        print(f"\n{workload}: {len(results)} runs")
        print(
            f"  {'metric':<48} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}"
            f" {'spread':>7}"
        )
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median, q1, q3, rel = spread(values)
            line = (
                f"  {metric['name']:<48} {metric['unit']:<6} {median:>12.6g}"
                f" {q1:>12.6g} {q3:>12.6g} {rel:>7.3f}"
            )
            if "bound" in metric:
                bound = metric["bound"]
                if rel < bound / 3:
                    verdict = "steady"
                else:
                    verdict = "within" if rel <= bound else "OVER"
                line += f"  bound {bound} {verdict}"
            print(line)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4g}\n")

    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
