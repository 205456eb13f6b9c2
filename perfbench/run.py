"""End-to-end benchmark of the commdeg command-line tool.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``commdeg`` command, launched as a fresh child
process ``python -m commdeg.cli ...`` with ``src`` on PYTHONPATH, in the
caller's environment otherwise (so BLAS keeps its default thread count).
The load is a closed loop: one client, one command at a time.  Every
child's exit code and output are checked against an independent
expectation; a child that fails either check counts as failed.

With ``--trace 0`` the run reports, as medians over its children:
``wall_s`` (launch to exit), ``cpu_s`` (user + sys from ``os.wait4``),
``peak_rss_mb`` (``ru_maxrss``) and ``setup_s`` (the time a fresh child
takes to import ``commdeg.cli`` and build the command's groups, as the
child measures it; set-up children run between the command children).
With ``--trace 1`` it runs the same untraced loop, without the set-up
children, then one more child under ``perfbench/tracer.py``,
and reports the per-layer aggregates plus ``trace_overhead_s`` (traced
wall time minus the untraced median).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and every sample.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# After each command child, set-up children run until they have taken
# this share of the loop's time so far (at least one per command child),
# so that they sample the whole run rather than one moment of it.
SETUP_SHARE = 0.1
# Every child is killed at this many seconds after the run starts, so a
# hung command cannot hold the run past its 180 s limit.
HARD_DEADLINE_S = 165.0

# sha256 of the file `audit --battery default --out FILE` writes.
AUDIT_REPORT_SHA256 = "e047be459d65a5c646c7d04f1153e00c1c4ef4b1e8c94e1fd3f3456b8ce6c7c0"
CHARTAB_ORDER = 200
CHARTAB_TOL = 1e-6

# A set-up child imports commdeg.cli and builds the groups given as
# arguments, or with none, the groups `audit --battery default` builds:
# the default config's groups, then its product pairs.  It times itself
# from before the import, so interpreter start-up stays out, and prints
# the seconds as its only output.
SETUP_CODE = """
import time
start = time.perf_counter()
import sys, commdeg.cli
from commdeg.audit import default_config
from commdeg.groupspec import parse_group_spec
specs = sys.argv[1:]
if not specs:
    config = default_config()
    specs = [*config.groups, *(f"{a}x{b}" for a, b in config.product_pairs)]
for spec in specs:
    parse_group_spec(spec)
print(time.perf_counter() - start)
"""

ENV_PROBE_CODE = r"""
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = {line.split()[-1] for line in fh if "openblas" in line}
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version"),
             "threads": threads},
}))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, scratch dir) -> arguments after `python -m commdeg.cli`
    args: Callable[[int, Path], list[str]]
    # groups a set-up child builds; () means those of the default audit
    setup_specs: tuple[str, ...]
    # (stdout bytes, scratch dir) -> error text, or None when correct
    check: Callable[[bytes, Path], Optional[str]]


def _check_audit(stdout: bytes, scratch: Path) -> Optional[str]:
    digest = hashlib.sha256((scratch / "report.json").read_bytes()).hexdigest()
    if digest != AUDIT_REPORT_SHA256:
        return f"report sha256 {digest} != {AUDIT_REPORT_SHA256}"
    return None


def _check_setup(stdout: bytes, scratch: Path) -> Optional[str]:
    try:
        float(stdout)
    except ValueError:
        return f"set-up child printed {stdout[-80:]!r}, not its time"
    return None


def check_distribution(expected: Fraction) -> Callable[[bytes, Path], Optional[str]]:
    """Checker for `prob -o table`: the distribution value equals `expected`."""

    def check(stdout: bytes, scratch: Path) -> Optional[str]:
        found = re.search(rb"distribution:\s*(\d+)/(\d+)", stdout)
        if found is None:
            return "no 'distribution: p/q' line in the output"
        value = Fraction(int(found.group(1)), int(found.group(2)))
        if value != expected:
            return f"value {value} != {expected}"
        return None

    return check


def _check_chartab_cyclic(stdout: bytes, scratch: Path) -> Optional[str]:
    """Compare with the closed form: chi_j(gen^r) = exp(2 pi i j r / n).

    Element id r of Cn is gen^r, so each row is determined by its value
    on the class of id 1, and the rows must be the n characters j = 0..n-1
    in some order.
    """
    n = CHARTAB_ORDER
    try:
        table = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if table.get("order") != n:
        return f"order {table.get('order')} != {n}"
    classes = table.get("classes", [])
    reps = [c.get("rep") for c in classes]
    if sorted(reps) != list(range(n)) or any(c.get("size") != 1 for c in classes):
        return "classes are not the n singletons {0}, ..., {n-1}"
    rows = table.get("irreducibles", [])
    if len(rows) != n:
        return f"{len(rows)} irreducibles, expected {n}"
    where_one = reps.index(1)
    seen = set()
    for row in rows:
        if row.get("degree") != 1:
            return f"degree {row.get('degree')} != 1"
        values = [complex(re_, im) for re_, im in row["values"]]
        j = round(cmath.phase(values[where_one]) * n / (2 * math.pi)) % n
        for r, value in zip(reps, values):
            if abs(value - cmath.exp(2j * math.pi * j * r / n)) > CHARTAB_TOL:
                return f"row for j={j} differs from the closed form at gen^{r}"
        seen.add(j)
    if len(seen) != n:
        return f"rows cover {len(seen)} distinct characters, expected {n}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-default",
            lambda seed, d: [
                "audit", "--battery", "default", "--out", str(d / "report.json")
            ],
            (),
            _check_audit,
        ),
        Workload(
            "prob-S7",
            lambda seed, d: ["prob", "-G", "S7", "-n", "2", "-m", "2", "-g", "0"],
            ("S7",),
            check_distribution(Fraction(927917, 98784000)),
        ),
        Workload(
            "chartab-C200",
            lambda seed, d: [
                "chartab", "-G", f"C{CHARTAB_ORDER}", "-o", "json", "--seed", str(seed)
            ],
            (f"C{CHARTAB_ORDER}",),
            _check_chartab_cyclic,
        ),
    )
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: Optional[str]
    # set-up children only: the time the child measured itself
    setup_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Runner:
    """Launches children one at a time and checks each one's result."""

    def __init__(self, scratch: Path, deadline: float) -> None:
        self.scratch = scratch
        self.deadline = deadline
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.attempted = 0
        self.failed = 0

    def launch(
        self,
        cmd: list[str],
        check: Optional[Callable[[bytes, Path], Optional[str]]] = None,
    ) -> Sample:
        # Each check sees only the files this child wrote.
        for stale in self.scratch.iterdir():
            stale.unlink()
        out_path = self.scratch / "stdout"
        err_path = self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        error = None
        if code != 0:
            tail = err_path.read_bytes()[-400:].decode(errors="replace")
            error = f"exit code {code}: {tail}"
        elif check is not None:
            try:
                error = check(out_path.read_bytes(), self.scratch)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"malformed output: {exc!r}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {' '.join(cmd[-6:])}: {error}", file=sys.stderr)
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            error=error,
        )

    def setup(self, cmd: list[str]) -> Sample:
        sample = self.launch(cmd, _check_setup)
        if sample.ok:
            sample.setup_s = float((self.scratch / "stdout").read_bytes())
        return sample

    def loop(
        self, cmd: list[str], check, seconds: float, setup_cmd: Optional[list[str]]
    ) -> tuple[list[Sample], list[Sample]]:
        """Closed loop for about `seconds`: a command child is started only
        while at least half of a typical child's duration still fits.  With
        `setup_cmd`, set-up children follow each command child (SETUP_SHARE).
        Returns the command samples and the set-up samples."""
        samples: list[Sample] = []
        setup: list[Sample] = []
        start = time.perf_counter()
        while True:
            samples.append(self.launch(cmd, check))
            if setup_cmd is not None:
                setup.append(self.setup(setup_cmd))
                while (
                    sum(s.wall_s for s in setup)
                    < SETUP_SHARE * (time.perf_counter() - start)
                    and time.perf_counter() < self.deadline
                ):
                    setup.append(self.setup(setup_cmd))
            now = time.perf_counter()
            typical = statistics.median(s.wall_s for s in samples)
            if now - start + typical / 2 > seconds or now + typical > self.deadline:
                return samples, setup


def _median(samples: list[Sample], field: str) -> float:
    good = [s for s in samples if s.ok] or samples
    # A failed set-up child has no time of its own; its wall time stands in.
    return statistics.median(getattr(s, field) or s.wall_s for s in good)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> Optional[str]:
    """HEAD of the repository at ROOT; None in a checkout without .git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(runner: Runner) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE_CODE],
        env=runner.env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode == 0:
        env = json.loads(probe.stdout)
    else:
        env = {"probe_error": probe.stderr[-400:]}
    env.update(commit=_commit(), source_sha256=_source_digest(), nproc=os.cpu_count())
    return env


def run(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> tuple[dict, dict]:
    """Measure one workload; return the result object and the detail record."""
    started = time.perf_counter()
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        runner = Runner(scratch, started + HARD_DEADLINE_S)
        python = sys.executable
        command = [python, "-m", "commdeg.cli", *workload.args(seed, scratch)]

        setup_cmd = None if trace else [python, "-c", SETUP_CODE, *workload.setup_specs]
        samples, setup = runner.loop(command, workload.check, seconds, setup_cmd)
        wall = _median(samples, "wall_s")

        if trace:
            stats_path = scratch / "trace.json"
            traced_cmd = [
                python, str(BENCH_DIR / "tracer.py"), str(stats_path), "--",
                *workload.args(seed, scratch),
            ]
            traced = runner.launch(traced_cmd, workload.check)
            stats = json.loads(stats_path.read_text()) if traced.ok else {"stats": {}}
            values = dict(stats["stats"], trace_overhead_s=traced.wall_s - wall)
            metrics = {
                name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in tracer.per_layer_metrics()
            }
        else:
            traced = None
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "cpu_s": {"value": _median(samples, "cpu_s"), "unit": "s"},
                "peak_rss_mb": {"value": _median(samples, "peak_rss_mb"), "unit": "MB"},
                "setup_s": {"value": _median(setup, "setup_s"), "unit": "s"},
            }
        env = environment(runner)

    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "setup": [vars(s) for s in setup],
        "samples": [vars(s) for s in samples],
        "traced": vars(traced) if traced else None,
        "run_s": time.perf_counter() - started,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "commdeg" / "cli.py").is_file():
        print(f"perfbench: no commdeg sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    result, detail = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
