"""Run one commdeg CLI command in-process with its layer functions wrapped.

Usage (with the repository's ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py STATS_JSON -- CLI_ARG...

The command runs through ``commdeg.cli.main`` exactly as ``python -m
commdeg.cli CLI_ARG...`` would run it, and its output is the same.  Each
function in ``LAYERS`` is replaced, for this process only, by a wrapper
that counts calls and accumulates self time (inclusive time minus the
time of wrapped callees).  The aggregates, plus the ``cache_info()``
deltas of the cached engine functions and the number of audit findings,
are written to STATS_JSON.  Aggregates are kept per function name rather
than as one span per call, because the default audit makes about a
million wrapped calls.  The process exits with the command's exit code,
or with 3, before running the command, when a function in ``LAYERS`` no
longer exists.  Nothing under ``src`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Optional

AUDIT_CHECKS = (
    "check_multiplicativity",
    "check_symmetry",
    "check_class_formula",
    "check_c4",
    "check_monotonicity",
    "check_quotient",
    "check_chain",
    "check_c5",
    "check_t3",
    "check_c6",
    "check_frob_bound",
    "check_zeta_character",
    "check_remark_r1",
    "check_eq3",
    "check_eq4",
    "check_eq7",
    "check_psi",
)

# (metric prefix, module under commdeg, attribute path).  Every call site
# in commdeg reaches these through a module attribute or a class, so
# replacing the attribute is enough to see every call.
LAYERS = (
    ("groups.close_group", "groups", "close_group"),
    ("groups.GroupTable", "groups", "GroupTable.__init__"),
    ("groups.conjugacy", "groups", "conjugacy"),
    ("groups.subgroup_closure", "groups", "subgroup_closure"),
    ("groups.is_normal", "groups", "is_normal"),
    ("groups.quotient_group", "groups", "quotient_group"),
    ("lattice.all_subgroups", "lattice", "all_subgroups"),
    (
        "lattice.subgroup_conjugacy_representatives",
        "lattice",
        "subgroup_conjugacy_representatives",
    ),
    ("engine.comm_distribution", "engine", "comm_distribution"),
    ("engine.extend_by_conjugators", "engine", "extend_by_conjugators"),
    ("engine.final_counts", "engine", "final_counts"),
    ("engine.conjugacy_info", "engine", "conjugacy_info"),
    ("engine.prob_fast", "engine", "prob_fast"),
    ("engine.prob_class_formula", "engine", "prob_class_formula"),
    ("engine.brute_counts", "engine", "brute_counts"),
    ("chartab.character_table", "chartab", "character_table"),
    ("chartab.table_to_json", "chartab", "table_to_json"),
    ("chartab.prob_char_relative", "chartab", "prob_char_relative"),
    ("audit.run_battery", "audit", "run_battery"),
    ("audit.AuditReport.dumps", "audit", "AuditReport.dumps"),
    *((f"audit.{name}", "audit", name) for name in AUDIT_CHECKS),
    ("cli.main", "cli", "main"),
)

# lru_cached functions whose hit ratio is reported, by LAYERS prefix.
CACHED = ("engine.final_counts", "engine.conjugacy_info")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    metrics = []
    for prefix, _, _ in LAYERS:
        metrics.append((f"{prefix}.calls", "count", "lower"))
        metrics.append((f"{prefix}.self_s", "s", "lower"))
    for prefix in CACHED:
        metrics.append((f"{prefix}.misses", "count", "lower"))
        metrics.append((f"{prefix}.hit_ratio", "ratio", "higher"))
    metrics.append(("audit.findings", "count", "higher"))
    metrics.append(("trace_overhead_s", "s", "lower"))
    return metrics


class Tracer:
    """Per-name call counts and self times for wrapped functions."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.findings = 0
        # One accumulator per active wrapped frame: time spent in wrapped
        # callees, subtracted from the frame's inclusive time.
        self._stack: list[float] = []

    def wrap(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _count_findings(self, report) -> None:
        self.findings += len(report.findings)

    def install(self) -> tuple[dict[str, Callable], list[str]]:
        """Wrap every LAYERS entry; return the originals and missing names."""
        originals: dict[str, Callable] = {}
        missing: list[str] = []
        for prefix, module_name, path in LAYERS:
            owner = importlib.import_module(f"commdeg.{module_name}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(prefix)
                continue
            hook = self._count_findings if prefix == "audit.run_battery" else None
            setattr(owner, attr, self.wrap(prefix, fn, hook))
            originals[prefix] = fn
        return originals, missing


def _cache_counts(originals: dict[str, Callable]) -> dict[str, tuple[int, int]]:
    counts = {}
    for prefix in CACHED:
        fn = originals.get(prefix)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        counts[prefix] = (info.hits, info.misses) if info else (0, 0)
    return counts


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    from commdeg import cli

    tracer = Tracer()
    originals, missing = tracer.install()
    if missing:
        print(f"tracer: layer functions not found: {missing}", file=sys.stderr)
        return 3
    before = _cache_counts(originals)
    code = cli.main(cli_args)
    sys.stdout.flush()
    after = _cache_counts(originals)

    stats: dict[str, float] = {}
    for prefix, _, _ in LAYERS:
        stats[f"{prefix}.calls"] = tracer.calls[prefix]
        stats[f"{prefix}.self_s"] = tracer.self_s[prefix]
    for prefix in CACHED:
        hits = after[prefix][0] - before[prefix][0]
        misses = after[prefix][1] - before[prefix][1]
        stats[f"{prefix}.misses"] = misses
        stats[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    stats["audit.findings"] = tracer.findings
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"stats": stats}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
