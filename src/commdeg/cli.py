"""Command-line front end: spec parsing, dispatch, and rendering.

Exit codes: 0 success, 2 usage error, 3 hard-guarantee audit violation,
4 computation error, 141 standard output closed early by its reader.
Element ids everywhere are the dense ids assigned at group construction;
`info` prints the id-to-permutation table so ids can be chosen
meaningfully.

Run as a program (``python -m commdeg.cli`` or the ``commdeg`` script),
the command uses one BLAS thread unless its caller chose a count; see
`main`.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from . import families, symmetric
from .errors import (
    CommdegError,
    ConfigInvalid,
    InvalidPermutation,
    ToleranceExceeded,
    UnknownFamily,
    UsageError,
)
from .families import BRUTE_CAP_DEFAULT, DEFAULT_MAX_ORDER

if TYPE_CHECKING:
    # Every module that imports numpy, and csv, json and jsontext, is
    # imported where it is used, so that a command pays only for what it
    # needs: `prob -G S<N>` on the character route imports none of them.
    from . import audit, chartab
    from .groups import GroupTable, SubgroupRef

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HARD_VIOLATION = 3
EXIT_COMPUTE = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped-to process

_ENV_MAX_ORDER = "COMMDEG_MAX_ORDER"
# The variables OpenBLAS reads its thread count from.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in _comma_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commdeg",
        description="Exact commutator-value probabilities on finite groups.",
        epilog="Dn is the dihedral group of order 2n; products use infix x"
        " (e.g. S3xC2); raw groups use perm(<degree>): (cycles); ...",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, subgroups: bool = True) -> None:
        p.add_argument("-G", "--group", required=True, help="group spec")
        if subgroups:
            p.add_argument("-H", default="full", help="x-block subgroup spec")
            p.add_argument("-K", default="full", help="y-block subgroup spec")
        p.add_argument(
            "--max-order",
            type=_positive_int,
            default=None,
            help=f"construction cap (default from ${_ENV_MAX_ORDER} or"
            f" {DEFAULT_MAX_ORDER})",
        )
        p.add_argument(
            "-o",
            "--output",
            choices=("table", "json", "csv"),
            default="table",
            help="rendering format",
        )

    p_info = sub.add_parser("info", help="group census and id-to-label table")
    add_common(p_info, subgroups=False)

    p_prob = sub.add_parser("prob", help="probability that the commutator equals g")
    add_common(p_prob)
    p_prob.add_argument("-n", type=_positive_int, default=1)
    p_prob.add_argument("-m", type=_positive_int, default=1)
    p_prob.add_argument("-g", required=True, help="element id, or 'all'")
    p_prob.add_argument(
        "--method",
        choices=("auto", "brute", "class", "dist", "char"),
        default="auto",
    )
    # Defaults live in _PROB_ROUTE_FLAGS, so a flag the route ignores is
    # seen as given and refused.
    p_prob.add_argument("--brute-cap", type=_positive_int, default=None)
    p_prob.add_argument("--threads", type=_positive_int, default=None)
    p_prob.add_argument("--seed", type=int, default=None)

    p_zeta = sub.add_parser(
        "zeta", help="solution counts with the y-block drawn from the whole group"
    )
    add_common(p_zeta, subgroups=False)
    p_zeta.add_argument("-H", default="full", help="x-block subgroup spec")
    p_zeta.add_argument("-n", type=_positive_int, default=1)
    p_zeta.add_argument("-m", type=_positive_int, default=1)
    p_zeta.add_argument("-g", default="all", help="element id, or 'all'")

    p_dist = sub.add_parser("dist", help="histogram of x-block commutator values")
    add_common(p_dist, subgroups=False)
    p_dist.add_argument("-H", default="full", help="x-block subgroup spec")
    p_dist.add_argument("-n", type=_positive_int, default=1)

    p_chartab = sub.add_parser("chartab", help="complex irreducible character table")
    add_common(p_chartab, subgroups=False)
    p_chartab.add_argument("--seed", type=int, default=0)

    p_audit = sub.add_parser("audit", help="claim battery over named groups")
    p_audit.add_argument("--battery", choices=("default",), default=None)
    p_audit.add_argument("--groups", type=_comma_list, default=None)
    p_audit.add_argument("--claims", type=_comma_list, default=None)
    p_audit.add_argument("--n-values", type=_comma_ints, default=None)
    p_audit.add_argument("--m-values", type=_comma_ints, default=None)
    p_audit.add_argument("--g-policy", choices=("support", "all"), default=None)
    p_audit.add_argument("--pair-policy", choices=("classes", "all"), default=None)
    p_audit.add_argument("--subgroup-policy", choices=("all", "named"), default=None)
    p_audit.add_argument("--enum-cap", type=_positive_int, default=None)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--max-order", type=_positive_int, default=None)
    p_audit.add_argument("--config", default=None, help="JSON file mirroring the flags")
    p_audit.add_argument("--out", default=None, help="write the report to a file")
    p_audit.add_argument(
        "--timings", action="store_true", help="include per-finding runtimes"
    )
    p_audit.add_argument(
        "-o", "--output", choices=("table", "json", "csv"), default="json"
    )
    return parser


def _resolve_max_order(args: argparse.Namespace) -> int:
    if getattr(args, "max_order", None) is not None:
        return args.max_order
    raw = os.environ.get(_ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"${_ENV_MAX_ORDER} must be an integer, got {raw!r}")
    if value < 1:
        raise UsageError(f"${_ENV_MAX_ORDER} must be >= 1")
    return value


def _resolve_group(args: argparse.Namespace) -> GroupTable:
    from . import groupspec

    return groupspec.parse_group_spec(args.group, max_order=_resolve_max_order(args))


def _resolve_g(order: int, text: str, flag: str = "-g") -> int:
    """The element id ``text`` names in a group of the given order."""
    try:
        g = int(text)
    except ValueError:
        raise UsageError(f"{flag} must be an element id or 'all', got {text!r}")
    if not 0 <= g < order:
        raise UsageError(f"{flag} id {g} out of range for group of order {order}")
    return g


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _complex_rows(table: chartab.CharacterTable) -> Iterator[list[str]]:
    """The text of each value of the table, one row at a time.

    Each part is rounded to six places by ``chartab.rounded_parts``, as
    the row order rounds it, and each distinct rounded part is written
    with ``:g`` once.  A value reads ``re`` when its imaginary part rounds
    to zero, ``imi`` when its real part does, and ``re±imi`` otherwise; a
    part that rounds to -0.0 reads as 0.
    """
    from . import chartab

    texts: dict[float, str] = {}
    for row in table.values:
        parts = (chartab.rounded_parts(row) + 0.0).tolist()
        for x in parts:
            if x not in texts:
                texts[x] = f"{x:g}"
        cells = []
        for re, im in zip(parts[0::2], parts[1::2]):
            if im == 0.0:
                cells.append(texts[re])
            elif re == 0.0:
                cells.append(texts[im] + "i")
            else:
                cells.append(texts[re] + ("+" if im > 0.0 else "") + texts[im] + "i")
        yield cells


def _write_csv(fp: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then each of ``rows`` to ``fp`` as CSV, each
    row as it is made, every line ending in a newline.

    A row of ints and of strings that hold no comma, quote or line break
    is the csv module's text of it, its fields joined by commas; it is
    joined directly, since the csv module reads every character of a
    long label one at a time.  Any other row goes through the csv module.
    """
    import csv

    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if row and all(map(_plain, row)):
            fp.write(",".join(map(str, row)) + "\n")
        else:
            writer.writerow(row)


def _print_json(payload: dict) -> None:
    """Print ``payload`` as the JSON text of every `-o json` output."""
    from . import jsontext

    print(jsontext.dumps(payload))


def _plain(v: object) -> bool:
    """Whether the csv module writes ``v`` as ``str(v)``: an unquoted int or str."""
    if type(v) is not str:
        return type(v) is int
    return v != "" and not ("," in v or '"' in v or "\r" in v or "\n" in v)


def _cmd_info(args: argparse.Namespace) -> int:
    from . import engine, groups

    G = _resolve_group(args)
    info = engine.conjugacy_info(groups.full_subgroup(G))
    # x is central exactly when |C_G(x)| = |G|; G is abelian exactly when
    # every class is a single element.
    center_order = int((info.centralizer_order == G.order).sum())
    is_abelian = len(info.classes) == G.order
    orders = G.element_orders().tolist()
    classes = info.class_of.tolist()
    if args.output == "json":
        from . import jsontext

        # Each element is written at depth 2 as it is made.
        elements = (
            jsontext.encode(
                {"id": i, "label": G.label(i), "order": orders[i], "class": classes[i]},
                "\n  ",
            )
            for i in range(G.order)
        )
        fields = {
            "center_order": center_order,
            "class_count": len(info.classes),
            "group": G.name,
            "is_abelian": is_abelian,
            "order": G.order,
        }
        sys.stdout.writelines(jsontext.document(fields, "elements", elements))
        print()
    elif args.output == "csv":
        rows = ((i, G.label(i), orders[i], classes[i]) for i in range(G.order))
        _write_csv(sys.stdout, ("id", "label", "order", "class"), rows)
    else:
        print(f"group {G.name}: order {G.order}")
        print(
            f"abelian {is_abelian}, classes {len(info.classes)},"
            f" center order {center_order}"
        )
        labels = [G.label(i) for i in range(G.order)]
        width = max(map(len, labels))
        print(f"{'id':>4} {'label':<{width}} {'order':>5} class")
        for i, label in enumerate(labels):
            print(f"{i:>4} {label:<{width}} {orders[i]:>5} {classes[i]:>5}")
    return EXIT_OK


def _prob_json(
    args: argparse.Namespace,
    group: str,
    H: Sequence[int],
    K: Sequence[int],
    g: int,
    method: str,
    value: dict,
) -> dict:
    """The `prob -o json` object for one route's value of p_g; H and K are
    the member ids of the two subgroups."""
    return {
        "group": group,
        "H": list(H),
        "K": list(K),
        "n": args.n,
        "m": args.m,
        "g": g,
        "method": method,
        "value": value,
    }


def _exact_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


# prob flag -> (the --method values whose route reads it, its default).
# No -g all route reads any of them.
_PROB_ROUTE_FLAGS = {
    "brute_cap": (("auto", "brute"), BRUTE_CAP_DEFAULT),
    "threads": (("auto", "brute"), 1),
    "seed": (("char",), 0),
}


def _cmd_prob(args: argparse.Namespace) -> int:
    if args.g == "all" and args.method not in ("auto", "dist"):
        raise UsageError(
            f"-g all supports only --method auto or dist, not {args.method}"
        )
    route = "-g all" if args.g == "all" else f"--method {args.method}"
    for flag, (methods, default) in _PROB_ROUTE_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.g == "all" or args.method not in methods:
            raise UsageError(f"--{flag.replace('_', '-')} is not used by {route}")
    degree = _symmetric_degree(args)
    if degree is not None:
        return _cmd_prob_symmetric(args, degree)
    from . import engine, groupspec

    G = _resolve_group(args)
    H = groupspec.parse_subgroup_spec(G, args.H)
    K = groupspec.parse_subgroup_spec(G, args.K)
    if args.g == "all":
        return _render_profile(args, G, H, K)
    g = _resolve_g(G.order, args.g)
    if args.method == "char":
        return _cmd_prob_char(args, G, H, K, g)

    n, m = args.n, args.m
    space = engine.space_size(H, K, n, m)

    def brute() -> Fraction:
        pools = [H.members] * n + [K.members] * m
        counts = engine.brute_counts(G, pools, cap=args.brute_cap, threads=args.threads)
        return Fraction(counts[g], space)

    # (method, exact value) pairs: the answer first, then its cross-checks.
    results: list[tuple[str, Fraction]] = []
    if args.method == "dist":
        results.append(("distribution", engine.prob_fast(H, K, n, m, g)))
    elif args.method == "brute":
        results.append(("brute", brute()))
    elif args.method == "class":
        results.append(("class_formula", engine.prob_class_formula(H, K, n, m, g)))
    else:
        fast = engine.prob_fast(H, K, n, m, g)
        results.append(("distribution", fast))
        if space <= args.brute_cap:
            check = brute()
            results.append(("brute", check))
            if check != fast:
                raise ToleranceExceeded(
                    f"cross-check failed: distribution {_frac(fast)}"
                    f" != brute {_frac(check)}"
                )
    _print_prob(args, G.name, H.members, K.members, g, G.label(g), results)
    return EXIT_OK


def _symmetric_degree(args: argparse.Namespace) -> Optional[int]:
    """N when `prob` is answered from the characters of S_N, else None.

    That route answers `--method auto` for one element of `-G S<N>` with
    `-H full -K full` when the tuple space is over `--brute-cap`, so that
    no brute cross-check would run.  The group's order is checked here as
    `named_group` checks it, so the route refuses what the table does.
    """
    if args.method != "auto" or args.g == "all":
        return None
    if any(spec.strip().lower() != "full" for spec in (args.H, args.K)):
        return None
    degree = families.symmetric_degree(args.group)
    if degree is None:
        return None
    order = families.named_order("S", degree, _resolve_max_order(args))
    if order**args.n * order**args.m <= args.brute_cap:
        return None
    return degree


def _cmd_prob_symmetric(args: argparse.Namespace, degree: int) -> int:
    """`prob` on S<degree> with H = K = the whole group, with no table.

    The count comes from ``symmetric.commutator_counts`` by the cycle type
    of g, and g's id, label and cycle type from ``symmetric.named_elements``,
    which numbers the elements as the table does; the output is the table
    route's, byte for byte, and the route imports no numpy.
    """
    perms = symmetric.named_elements("S", degree, _resolve_max_order(args))
    order = len(perms)
    g = _resolve_g(order, args.g)
    n, m = args.n, args.m
    count = symmetric.commutator_counts(degree, n, m)[symmetric.cycle_type(perms[g])]
    value = Fraction(count, order**n * order**m)
    members = range(order)
    label = families.cycle_label(perms[g])
    _print_prob(
        args, f"S{degree}", members, members, g, label, [("distribution", value)]
    )
    return EXIT_OK


def _print_prob(
    args: argparse.Namespace,
    group: str,
    H: Sequence[int],
    K: Sequence[int],
    g: int,
    label: str,
    results: list[tuple[str, Fraction]],
) -> None:
    """Print `prob`'s exact (method, value) pairs, the answer first and
    its cross-checks after it."""
    if args.output == "json":
        payloads = [
            _prob_json(args, group, H, K, g, method, _exact_json(value))
            for method, value in results
        ]
        payload = payloads[0]
        if payloads[1:]:
            payload["cross_checks"] = payloads[1:]
        _print_json(payload)
    elif args.output == "csv":
        rows = [
            [method, value.numerator, value.denominator, float(value)]
            for method, value in results
        ]
        _write_csv(sys.stdout, ("method", "num", "den", "float"), rows)
    else:
        print(
            f"group {group}, |H|={len(H)}, |K|={len(K)},"
            f" n={args.n}, m={args.m}, g={g} [{label}]"
        )
        for method, value in results:
            print(f"{method:>14}: {_frac(value)} = {float(value):.6f}")


def _cmd_prob_char(
    args: argparse.Namespace, G: GroupTable, H: SubgroupRef, K: SubgroupRef, g: int
) -> int:
    from . import chartab, groups

    if args.n != 1 or args.m != 1:
        raise UsageError("--method char requires -n 1 -m 1")
    if not K.is_full:
        raise UsageError("--method char requires -K full")
    table = chartab.character_table(G, seed=args.seed)
    if H.is_full:
        value = chartab.prob_char_pg(G, table, g)
        method = "char_pg"
    elif groups.is_normal(G, H):
        value = chartab.prob_char_relative(G, table, H, g)
        method = "char_relative"
    else:
        raise UsageError("--method char requires -H full or a normal subgroup for -H")
    if args.output == "json":
        value_json = {"float": value}
        payload = _prob_json(args, G.name, H.members, K.members, g, method, value_json)
        _print_json(payload)
    elif args.output == "csv":
        _write_csv(sys.stdout, ("method", "float"), [[method, value]])
    else:
        print(
            f"group {G.name}, |H|={H.order}, |K|={K.order}, n=1, m=1,"
            f" g={g} [{G.label(g)}]"
        )
        print(f"{method:>14}: {value:.12f}")
    return EXIT_OK


def _render_profile(
    args: argparse.Namespace, G: GroupTable, H: SubgroupRef, K: SubgroupRef
) -> int:
    from . import engine

    counts = engine.final_counts(H, K, args.n, args.m)
    size = engine.space_size(H, K, args.n, args.m)
    profile = {g: Fraction(c, size) for g, c in enumerate(counts)}
    if args.output == "json":
        payload = {
            "group": G.name,
            "H": list(H.members),
            "K": list(K.members),
            "n": args.n,
            "m": args.m,
            "method": "distribution",
            "values": {str(g): _exact_json(p) for g, p in profile.items()},
        }
        _print_json(payload)
    elif args.output == "csv":
        rows = ((g, G.label(g), p.numerator, p.denominator) for g, p in profile.items())
        _write_csv(sys.stdout, ("g", "label", "num", "den"), rows)
    else:
        print(f"group {G.name}, |H|={H.order}, |K|={K.order}, n={args.n}, m={args.m}")
        labels = [G.label(g) for g in profile]
        width = max(map(len, labels))
        for (g, p), label in zip(profile.items(), labels):
            print(f"{g:>4} {label:<{width}} {_frac(p)}")
    return EXIT_OK


def _cmd_zeta(args: argparse.Namespace) -> int:
    from . import engine, groups, groupspec

    G = _resolve_group(args)
    H = groupspec.parse_subgroup_spec(G, args.H)
    counts = engine.final_counts(
        H, groups.full_subgroup(G), args.n, args.m
    )
    if args.g != "all":
        g = _resolve_g(G.order, args.g)
        selected = {g: counts[g]}
    else:
        selected = dict(enumerate(counts))
    if args.output == "json":
        payload = {
            "group": G.name,
            "H": list(H.members),
            "n": args.n,
            "m": args.m,
            "counts": {str(g): c for g, c in selected.items()},
        }
        _print_json(payload)
    elif args.output == "csv":
        rows = ((g, G.label(g), c) for g, c in selected.items())
        _write_csv(sys.stdout, ("g", "label", "count"), rows)
    else:
        print(f"group {G.name}, |H|={H.order}, n={args.n}, m={args.m}")
        for g, c in selected.items():
            print(f"{g:>4} {G.label(g):<12} {c}")
    return EXIT_OK


def _cmd_dist(args: argparse.Namespace) -> int:
    from . import engine, groupspec

    G = _resolve_group(args)
    H = groupspec.parse_subgroup_spec(G, args.H)
    counts = engine.comm_distribution(H, args.n)
    total = sum(counts)
    if args.output == "json":
        payload = {
            "group": G.name,
            "H": list(H.members),
            "n": args.n,
            "total": total,
            "counts": list(counts),
        }
        _print_json(payload)
    elif args.output == "csv":
        _write_csv(sys.stdout, ("element_id", "count"), enumerate(counts))
    else:
        print(f"group {G.name}, |H|={H.order}, n={args.n}, total {total}")
        for g, c in enumerate(counts):
            if c:
                print(f"{g:>4} {G.label(g):<12} {c}")
    return EXIT_OK


def _cmd_chartab(args: argparse.Namespace) -> int:
    from . import chartab

    G = _resolve_group(args)
    table = chartab.character_table(G, seed=args.seed)
    if args.output == "json":
        chartab.table_to_json(table, sys.stdout)
        sys.stdout.write("\n")
    elif args.output == "csv":
        header = ["degree"] + [f"c{j}" for j in range(table.n_classes)]
        rows = (
            [degree, *cells]
            for degree, cells in zip(table.degrees, _complex_rows(table))
        )
        _write_csv(sys.stdout, header, rows)
    else:
        print(f"group {G.name}: {table.n_classes} classes")
        reps = [G.label(r) for r in table.class_reps]
        width = max(8, max(len(r) for r in reps) + 1)
        print(" " * 6 + "".join(f"{r:>{width}}" for r in reps))
        print(" " * 6 + "".join(f"{s:>{width}}" for s in table.class_sizes))
        for i, cells in enumerate(_complex_rows(table)):
            line = "".join([c.rjust(width) for c in cells])
            print(f"chi{i:<2} ({table.degrees[i]})".ljust(6)[:6] + line)
    return EXIT_OK


_AUDIT_CONFIG_FLAGS = (
    "battery",
    "groups",
    "claims",
    "n_values",
    "m_values",
    "g_policy",
    "pair_policy",
    "subgroup_policy",
    "enum_cap",
    "seed",
    "max_order",
)


def _audit_config(args: argparse.Namespace) -> audit.AuditConfig:
    from . import audit

    given = {f: getattr(args, f) for f in _AUDIT_CONFIG_FLAGS}
    given = {f: v for f, v in given.items() if v is not None}
    if args.config is not None:
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise UsageError(f"--config is exclusive with {flags}")
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--config: cannot read {args.config!r}: {exc}")
        except ValueError as exc:  # bad JSON, or an integer too long to read
            raise UsageError(f"--config: invalid JSON in {args.config!r}: {exc}")
        return audit.config_from_json(payload)
    if args.claims is not None:
        unknown = [c for c in args.claims if c not in audit.CLAIMS]
        if unknown:
            raise UsageError(f"--claims: unknown claim tags {unknown}")
    given.pop("battery", None)
    if "enum_cap" in given:
        given["subgroup_enum_cap"] = given.pop("enum_cap")
    return audit.config_from_json(given)


def _cmd_audit(args: argparse.Namespace) -> int:
    from . import audit

    config = _audit_config(args)
    report = audit.run_battery(config)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_audit(fh, report, args)
    else:
        _write_audit(sys.stdout, report, args)
    return EXIT_HARD_VIOLATION if report.hard_violations() else EXIT_OK


def _write_audit(
    fp: TextIO, report: audit.AuditReport, args: argparse.Namespace
) -> None:
    """The report in ``args.output`` form plus a newline.

    JSON and CSV are written one finding at a time, from the report's
    batches.
    """
    from . import audit

    if args.output == "csv":
        header = ["claim", "verdict", "instance", "witness"]
        if args.timings:
            header.append("runtime_ms")
        _write_csv(fp, header, report.rows(args.timings))
    elif args.output == "table":
        lines = [f"{'claim':<12} holds violated vacuous precondition_failed"]
        for claim in sorted(report.summary):
            counts = report.summary[claim]
            lines.append(
                f"{claim:<12} {counts.get(audit.HOLDS, 0):>5}"
                f" {counts.get(audit.VIOLATED, 0):>8}"
                f" {counts.get(audit.VACUOUS, 0):>7}"
                f" {counts.get(audit.PRECONDITION_FAILED, 0):>19}"
            )
        hard = report.hard_violations()
        lines.append(f"findings: {len(report.findings)}, hard violations: {len(hard)}")
        fp.write("\n".join(lines) + "\n")
    else:
        report.write(fp, include_runtime=args.timings)
        fp.write("\n")


_HANDLERS = {
    "info": _cmd_info,
    "prob": _cmd_prob,
    "zeta": _cmd_zeta,
    "dist": _cmd_dist,
    "chartab": _cmd_chartab,
    "audit": _cmd_audit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; ``argv`` None means the process's own arguments.

    With ``argv`` None the process is the CLI, and numpy is not loaded
    yet, so the BLAS thread count is still open: unless the caller set
    one of `_BLAS_THREAD_VARS` to a non-empty value, it is set to one
    thread.  commdeg's only
    BLAS work is chartab's k x k calls (k <= 1024), each too small to
    share, where a second thread busy-waits between calls: it adds CPU
    time, saves no wall time, and changes the last bits of large tables'
    full-precision JSON with the core count.  A call with a list of
    arguments leaves the environment as it is.
    """
    if argv is None and not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Send the rest of
        # the output, and the interpreter's final flush, nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, ConfigInvalid, UnknownFamily, InvalidPermutation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CommdegError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
