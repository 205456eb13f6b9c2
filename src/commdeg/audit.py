"""Empirical checks of commutator-probability claims on group batteries.

Each check evaluates one stated identity, bound, or implication on a
concrete instance and returns its findings, each with an exact (or
tolerance-gated) witness.  Verdicts are per-instance and never
extrapolated: a claim that fails somewhere is recorded with its
counterexample, and a claim whose hypothesis is not met is recorded as
vacuous rather than skipped.  A small set of claims (HARD_CLAIMS) is
machine-verifiable and must never be violated; the audit command's exit
code keys off those.

A claim is registered in ``_CHECK_CLAIMS``, which maps each ``check_*``
function to the claim tags its findings carry.  ``run_battery`` walks each
instance shape of a group once and calls every selected check of that
shape once per instance:

- per (H, K, n, m) cell of the subgroup pool: R1, P3, C4, C6, and, with
  the g list of that cell, P2, T2_CHAIN, T3;
- per nested pair H <= K and (n, m), with the g list of (H, G, n, m): P4;
- per normal N, H <= N and (n, m), with the g list of (H, G, n, m): P5;
- per n at m = 1, with the g list of (H, K, n, 1): C5;
- per subgroup, with the group's character table: FROB_BOUND, ZETA_CHAR
  (per (n, m)), EQ7 (normal subgroups only);
- per group: EQ3, EQ4, PSI;

then P1 per product pair, blocks and (n, m), with the g list of the
product blocks.  A check that receives a g list decides every g in it from
the cached count vectors.

Findings are held as batches (``_Batch``), one per claim and cell: the
cell, a g column (none for a per-cell claim), verdict codes and witness
ids into the run's table, which holds each distinct witness once.  A cell
is what ``_cell(n, m, **blocks)`` gives, ``{group, **blocks, n, m}`` with
each block as its member list; a row's instance is the cell, or
``{**cell, "g": g}``.  Every check returns ``Findings``, which makes each
``Finding`` only when it is read; the report writers read the batches.
Their texts come from one ``_Style`` per form, kept with the findings:
compact, made by ``run_battery``'s sort and reused by the CSV rows, and
depth 3 of the JSON report.

Each group's walk is one call (``_walk_group``, ``_walk_pair``) with
tables of its own, and the caches keyed by its subgroups are emptied when
it ends (``_forget_walk``), so what stays of a group is the member lists
and name in its cells.  The walks run side by side in W worker processes,
W the number of CPUs the process may run on (at most one per walk), and
the parent takes their batches in config order, so the report is the
same at every W; with W = 1 the walks run in the parent.  The memory
rule is per process: a worker holds one walk's working set at a time,
the parent the findings, and up to W walks run at once on the machine.
``audit --groups S7,S7xC2 --claims EQ4,C5,T3i -o table`` peaks at 273 MB
RSS in the worker that walks S7xC2, 88 MB in the one that walks S7 and
35 MB in the parent; walked in one process, it peaks at 289 MB.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
import os
import time
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from . import chartab, engine, groups, groupspec, jsontext, lattice
from .errors import ConfigInvalid, NotClassConstant
from .groups import DEFAULT_MAX_ORDER, GroupTable, SubgroupRef

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
PRECONDITION_FAILED = "precondition_failed"

VERDICTS = (HOLDS, VIOLATED, VACUOUS, PRECONDITION_FAILED)

HARD_CLAIMS = frozenset({"EQ3", "EQ4", "EQ7", "PSI", "P3_m1"})

CLAIM_INFO = {
    "R1a": "probability is nonzero exactly on the reachable commutator value set",
    "R1b": "identity probability is 1 exactly when the value subgroup is trivial",
    "P1": "probability on a direct product is the product of factor probabilities",
    "P2a": "swapping subgroup arguments and inverting g preserves the probability"
    " (block lengths kept as written; the exponent-swapped reading is recorded)",
    "P2b": "with H or K normal, swapping subgroups or inverting g both preserve"
    " the probability",
    "P3_m1": "centralizer-weighted class sum equals exact counting at m = 1"
    " (derived solvability predicate)",
    "P3_mgt1": "centralizer-weighted class sum compared to exact counting at"
    " m > 1 (known to disagree; recorded, not corrected)",
    "C4": "if every non-identity x-block value has trivial centralizer in K,"
    " the identity probability is 1/|H|^n + 1/|K|^m - 1/(|H|^n |K|^m)",
    "FROB_BOUND": "p_g(H, G) <= |G:H| d(G) for all g; equality is tied to all"
    " irreducibles vanishing off H",
    "ZETA_CHAR": "the per-g solution count, when constant on classes,"
    " decomposes as a character",
    "P4": "enlarging the x-block subgroup (y-block ambient) cannot increase"
    " the probability; equality tied to matching class partitions",
    "P5": "probability does not decrease when passing to the quotient by a"
    " normal subgroup containing H; g is mapped to its coset",
    "T2_CHAIN": "chain p_g(G,G) <= p_g(H,K) <= p_1(H,K) <= p_1(H,G) <= p_1(H,H),"
    " four links checked separately",
    "C5": "if the ambient center is trivial, the m = 1 probability is at most"
    " (2^n - 1)/2^n; the trivial-Z(H) variant is recorded in the witness",
    "T3i": "upper bound (2p^n + p - 2)/p^(n+m), p the least prime divisor of |G|",
    "T3ii": "lower bound from trivially-centralized tuples and |C_H(K)|",
    "C6": "if the T3i bound is attained, |H:C_H(K)|^n is at most"
    " (p^(n+1) - p^3 - p^2/2 + p)/(2p^2 + p - 2) (compared before the root)",
    "EQ3": "(1/|G|) sum of chi(g)/chi(1) over irreducibles reproduces the"
    " exact probability",
    "EQ4": "irreducible count equals class count and d(G) = k(G)/|G| exactly",
    "EQ7": "restriction-weighted character sum reproduces the exact weight-2"
    " probability for normal H",
    "PSI": "the pair-count class function decomposes with multiplicities"
    " |G|/chi(1)",
}

CLAIMS = tuple(CLAIM_INFO)

__all__ = [
    "CLAIMS",
    "HARD_CLAIMS",
    "CLAIM_INFO",
    "HOLDS",
    "VIOLATED",
    "VACUOUS",
    "PRECONDITION_FAILED",
    "Finding",
    "Findings",
    "AuditConfig",
    "AuditReport",
    "named_group_specs",
    "default_config",
    "config_from_json",
    "run_battery",
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
]


# One key tuple per distinct witness layout, shared by every witness entry
# with that layout; the checks make a few dozen layouts in all.
_WITNESS_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}


class _RunTables:
    """What the walks of a battery in one process, the merge of a
    battery's walks, or one check called alone share.

    ``memo`` maps a function and its arguments to what ``_per_run`` made
    of them.  ``witnesses`` is the witness table: entry i, the witness of
    id i, is its key tuple followed by its values.  ``ids`` maps each
    entry's ``repr`` to its id, so equal witnesses share an entry and
    those written apart (``True`` and ``1``, ``0.0`` and ``-0.0``), which
    ``==`` would not tell apart, do not.  ``cells`` holds the cells of the
    walk in progress.
    """

    __slots__ = ("memo", "witnesses", "ids", "cells")

    def __init__(self) -> None:
        self.memo: dict[tuple, object] = {}
        self.witnesses: list[tuple] = []
        self.ids: dict[str, int] = {}
        self.cells: dict[tuple, dict] = {}


# The tables of the walk, merge or lone check in progress; None outside one.
_RUN: ContextVar[Optional[_RunTables]] = ContextVar("_RUN", default=None)


def _per_run(make: Callable, *args):
    """``make(*args)``, made once per run for each ``make`` and ``args``.

    ``make`` is a function of its arguments alone, none of which it
    returns ``None`` for.  Outside a run each call makes a new value.
    """
    tables = _RUN.get()
    if tables is None:
        return make(*args)
    key = (make, *args)
    value = tables.memo.get(key)
    if value is None:
        value = tables.memo[key] = make(*args)
    return value


def _witness(fields: dict) -> int:
    """The id of ``fields`` in the witness table, entered if it is new."""
    return _entered(_RUN.get(), (tuple(fields), *fields.values()))


def _entered(tables: _RunTables, entry: tuple) -> int:
    """The id of the witness entry ``(keys, *values)`` in ``tables``,
    entered, with its key tuple shared, if it is new."""
    text = repr(entry)
    w = tables.ids.get(text)
    if w is None:
        keys = entry[0]
        w = tables.ids[text] = len(tables.witnesses)
        tables.witnesses.append((_WITNESS_KEYS.setdefault(keys, keys), *entry[1:]))
    return w


# A batch holds each verdict as its index in VERDICTS.
_CODE = {verdict: code for code, verdict in enumerate(VERDICTS)}


class _Batch:
    """The findings of one claim on one cell, as columns.

    ``gs`` holds the g of each row, or is ``None`` for a per-cell claim,
    whose batch has one row whose instance is the cell itself.  ``codes``
    holds each row's verdict as its index in ``VERDICTS``, one string per
    run for each pattern; ``witnesses`` each row's witness id, likewise;
    ``runtime_ms`` is each row's share of its check call's time.
    ``_batch`` makes a batch from its rows.
    """

    __slots__ = ("claim", "cell", "gs", "codes", "witnesses", "runtime_ms")

    def __init__(
        self,
        claim: str,
        cell: dict,
        gs: Optional[tuple[int, ...]],
        codes: bytes,
        witnesses: tuple[int, ...],
        runtime_ms: float = 0.0,
    ) -> None:
        self.claim = claim
        self.cell = cell
        self.gs = gs
        # The run's memo also keeps one of each column: no memo key, which
        # starts with a function, equals a column.
        memo = _RUN.get().memo
        self.codes = memo.setdefault(codes, codes)
        self.witnesses = memo.setdefault(witnesses, witnesses)
        self.runtime_ms = runtime_ms

    def __len__(self) -> int:
        return len(self.codes)

    def rows(self, tag: object = None) -> Iterator[tuple]:
        """(tag, g, verdict code, witness id) per row; g is "" for a per-cell claim."""
        gs = ("",) if self.gs is None else self.gs
        return zip(itertools.repeat(tag), gs, self.codes, self.witnesses)


def _batch(claim: str, cell: dict, gs: Optional[Sequence[int]], rows: list) -> _Batch:
    """The batch of ``rows``, one ``(verdict, witness id)`` pair per row."""
    return _Batch(
        claim,
        cell,
        None if gs is None else tuple(gs),
        bytes([_CODE[v] for v, _ in rows]),
        tuple([w for _, w in rows]),
    )


def _one(claim: str, cell: dict, verdict: str, witness: dict) -> _Batch:
    """The batch of one per-cell finding."""
    return _batch(claim, cell, None, [(verdict, _witness(witness))])


@dataclass(slots=True, init=False)
class Finding:
    """One checked instance: what was tested, the verdict, and the numbers.

    ``Findings`` makes one when it is read.  It names its instance by
    ``cell``, kept as given, and ``g``: the instance is the cell itself
    when ``g`` is ``None``, else a fresh ``{**cell, "g": g}`` on each read.
    It keeps its witness's items; ``witness`` is a fresh dict made from
    them on each read, with fresh copies of its lists, so changing it
    changes nothing in any finding.
    """

    claim: str
    cell: dict
    verdict: str
    witness_items: tuple[tuple[str, object], ...]
    runtime_ms: float
    g: Optional[int]

    def __init__(
        self,
        claim: str,
        instance: dict,
        verdict: str,
        witness: Mapping,
        runtime_ms: float = 0.0,
        *,
        g: Optional[int] = None,
    ) -> None:
        self.claim = claim
        self.cell = instance
        self.verdict = verdict
        self.witness_items = tuple(witness.items())
        self.runtime_ms = runtime_ms
        self.g = g

    @property
    def instance(self) -> dict:
        return self.cell if self.g is None else {**self.cell, "g": self.g}

    @property
    def witness(self) -> dict:
        return {k: list(v) if type(v) is list else v for k, v in self.witness_items}

    def to_json(self, include_runtime: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": self.witness,
        }
        if include_runtime:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


class Findings(Sequence):
    """The findings of a list of batches, in order, each read as a ``Finding``.

    ``witnesses`` is the table the batches' witness ids index.  A batch
    whose ``joins`` byte is 1 merges its rows with those of the batches
    before it by g's text (``_sorted_batches``).  A ``Finding`` is made
    only when it is read.  Equal to a list or tuple of equal findings.
    """

    def __init__(
        self, batches: list[_Batch], witnesses: list[tuple], joins: bytes = b""
    ) -> None:
        self.batches = batches
        self.witnesses = witnesses
        self.joins = joins
        self._len: Optional[int] = None
        self._index: Optional[list[tuple]] = None
        self._styles: dict[bool, _Style] = {}

    def __len__(self) -> int:
        if self._len is None:
            self._len = sum(map(len, self.batches))
        return self._len

    def __iter__(self) -> Iterator[Finding]:
        for row in self.rows():
            yield self._finding(*row)

    def __getitem__(self, index):
        if self._index is None:
            self._index = list(self.rows())
        if isinstance(index, slice):
            return [self._finding(*row) for row in self._index[index]]
        return self._finding(*self._index[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Findings, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def rows(self, prepare: Callable[[_Batch], object] = lambda b: b) -> Iterator:
        """``_Batch.rows(prepare(batch))`` of every row, in order; ``prepare``
        runs once per batch, before its first row."""
        run: list[_Batch] = []
        for batch, joins in zip(self.batches, self.joins or bytes(len(self.batches))):
            if run and not joins:
                yield from _merged(run, prepare)
                run = []
            run.append(batch)
        if run:
            yield from _merged(run, prepare)

    def _style(self, indented: bool) -> _Style:
        """The texts of one form (depth 3 of the report, or compact), kept
        with the findings for later writes."""
        style = self._styles.get(indented)
        if style is None:
            nl = "\n   " if indented else None
            style = self._styles[indented] = _Style(self.witnesses, nl)
        return style

    def _finding(self, b: _Batch, g, code: int, w: int) -> Finding:
        keys, *values = self.witnesses[w]
        witness = dict(zip(keys, values))
        g = None if b.gs is None else g
        return Finding(b.claim, b.cell, VERDICTS[code], witness, b.runtime_ms, g=g)


def _merged(run: list[_Batch], prepare: Callable[[_Batch], object]) -> Iterator[tuple]:
    """The rows of ``run`` stably sorted by g's text (round robin on one gs)."""
    if len(run) == 1:
        return run[0].rows(prepare(run[0]))
    streams = [batch.rows(prepare(batch)) for batch in run]
    if all(batch.gs == run[0].gs for batch in run):
        return itertools.chain.from_iterable(zip(*streams))
    rows = [row for stream in streams for row in stream]
    rows.sort(key=lambda row: str(row[1]))
    return iter(rows)


def _check(body: Callable[..., list[_Batch]]) -> Callable[..., Findings]:
    """A check: the ``Findings`` of the batches ``body`` returns, with their
    witnesses in the run's table, or outside a run in tables of its own."""

    @functools.wraps(body)
    def check(*args, **kwargs) -> Findings:
        tables = _RUN.get()
        if tables is not None:
            return Findings(body(*args, **kwargs), tables.witnesses)
        with _run_tables() as tables:
            return Findings(body(*args, **kwargs), tables.witnesses)

    return check


def _ratio(c: int, s: int) -> str:
    """The text of ``Fraction(c, s)`` for ``s > 0``: lowest terms, sign on top.

    Within a run each ``(c, s)`` is written once.
    """
    return _per_run(_lowest_terms, c, s)


def _lowest_terms(c: int, s: int) -> str:
    d = math.gcd(c, s)
    return f"{c // d}/{s // d}"


def _mem(S: SubgroupRef) -> list[int]:
    return _member_list(S.members)


@lru_cache(maxsize=4096)
def _member_list(members: tuple[int, ...]) -> list[int]:
    # One list per distinct member tuple, shared by every instance over that
    # subgroup, so the report and the sort key encode it once.  Keyed by
    # the tuple, not the SubgroupRef, so the cache holds no group table.
    # Nothing mutates these lists.
    return list(members)


def _cell(n: int, m: int, **blocks: SubgroupRef) -> dict:
    """The cell ``{group, **blocks, n, m}``, each block as its member list.

    There is one cell per blocks and exponents in a walk (``_RunTables``).
    """
    cells = _RUN.get().cells
    key = (n, m, *blocks.items())
    cell = cells.get(key)
    if cell is None:
        group = next(iter(blocks.values())).parent.name
        members = {name: _mem(S) for name, S in blocks.items()}
        cell = cells[key] = {"group": group, **members, "n": n, "m": m}
    return cell


@lru_cache(maxsize=4096)
def _mutual_centralizer(H: SubgroupRef, K: SubgroupRef) -> SubgroupRef:
    return groups.centralizer_of_subgroup(H, K)


@lru_cache(maxsize=64)
def _center(G: GroupTable) -> SubgroupRef:
    return groups.center(G)


def _product_subgroup(
    product: GroupTable, left: SubgroupRef, right: SubgroupRef
) -> SubgroupRef:
    """left x right inside product = left.parent x right.parent."""
    width = right.parent.order
    ids = [a * width + c for a in left.members for c in right.members]
    return SubgroupRef(product, ids, _checked=True)


# The checks below that take ``gs`` decide every g of one instance shape in
# one call.  A probability p_g(H, K) is the count final_counts(H, K, n, m)[g]
# over the space size |H|^n |K|^m, so every equality and bound between
# probabilities is an integer cross-multiplication of counts and sizes, and
# each witness fraction is written by ``_ratio``.  A per-g claim's verdict
# and witness are a function of the numbers its witness shows, so its
# ``_*_row`` function makes both, once per run for each such numbers.


@_check
def check_multiplicativity(
    E: GroupTable,
    F: GroupTable,
    A: SubgroupRef,
    B: SubgroupRef,
    C: SubgroupRef,
    D: SubgroupRef,
    n: int,
    m: int,
    gs: Sequence[int],
    product: Optional[GroupTable] = None,
) -> list[_Batch]:
    """p_(e,f)(A x C, B x D) on E x F against p_e(A, B) * p_f(C, D).

    A and B live in E, C and D in F (the x-block is A x C, the y-block
    B x D); (e, f) has id e*|F| + f in the product, and ``gs`` lists such
    ids.  The product space is the product of the factor spaces, so the
    equality is one of counts.  Each (e, f) instance is a cell of its own.
    """
    if product is None:
        product = groups.direct_product(E, F)
    product_counts = engine.final_counts(
        _product_subgroup(product, A, C), _product_subgroup(product, B, D), n, m
    )
    left_counts = engine.final_counts(A, B, n, m)
    right_counts = engine.final_counts(C, D, n, m)
    left_size = engine.space_size(A, B, n, m)
    right_size = engine.space_size(C, D, n, m)
    size = left_size * right_size
    members = {"A": _mem(A), "B": _mem(B), "C": _mem(C), "D": _mem(D)}
    batches = []
    for g in gs:
        e, f = divmod(g, F.order)
        lhs, left, right = product_counts[g], left_counts[e], right_counts[f]
        inst = {
            "group": product.name,
            "left_group": E.name,
            "right_group": F.name,
            **members,
            "n": n,
            "m": m,
            "e": e,
            "f": f,
        }
        witness = {
            "product_prob": _ratio(lhs, size),
            "left_prob": _ratio(left, left_size),
            "right_prob": _ratio(right, right_size),
            "factor_product": _ratio(left * right, size),
        }
        verdict = HOLDS if lhs == left * right else VIOLATED
        batches.append(_one("P1", inst, verdict, witness))
    return batches


def _p2a_row(
    lhs: int, size: int, as_written: int, swapped_size: int, exp_swapped: int
) -> tuple[str, int]:
    verdict = HOLDS if lhs * swapped_size == as_written * size else VIOLATED
    return verdict, _witness({
        "lhs": _ratio(lhs, size),
        "swapped_same_exponents": _ratio(as_written, swapped_size),
        "swapped_exponents_too": _ratio(exp_swapped, size),
        "exponent_swapped_equal": lhs == exp_swapped,
    })


def _p2b_row(
    h_normal: bool, k_normal: bool, lhs: int = 0, size: int = 0,
    swapped: int = 0, swapped_size: int = 0, inverted: int = 0,
) -> tuple[str, int]:
    if not (h_normal or k_normal):
        return VACUOUS, _witness({"H_normal": h_normal, "K_normal": k_normal})
    ok = lhs * swapped_size == swapped * size and lhs == inverted
    return HOLDS if ok else VIOLATED, _witness({
        "H_normal": h_normal,
        "K_normal": k_normal,
        "lhs": _ratio(lhs, size),
        "swapped_subgroups": _ratio(swapped, swapped_size),
        "inverted_element": _ratio(inverted, size),
    })


@_check
def check_symmetry(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[_Batch]:
    """Swap symmetry, plus the extra equalities when H or K is normal.

    The headline verdict keeps the block lengths as written (n stays with
    the x-block after the swap); the reading that also swaps the exponents
    is evaluated into the witness since the two differ for n != m.  Two
    batches over one cell, P2a then P2b.
    """
    G = H.parent
    inv = G.inv
    counts = engine.final_counts(H, K, n, m)
    swapped_counts = engine.final_counts(K, H, n, m)
    # (K, H, m, n) spans the same space as (H, K, n, m).
    exp_swapped_counts = engine.final_counts(K, H, m, n)
    size = engine.space_size(H, K, n, m)
    swapped_size = engine.space_size(K, H, n, m)
    h_normal = groups.is_normal(G, H)
    k_normal = groups.is_normal(G, K)
    normal = h_normal or k_normal
    rows_a, rows_b = [], []
    for g in gs:
        ginv = int(inv[g])
        lhs = counts[g]
        rows_a.append(_per_run(
            _p2a_row, lhs, size, swapped_counts[ginv], swapped_size,
            exp_swapped_counts[ginv],
        ))
        # Without a normal block the witness shows no numbers.
        numbers = (
            (lhs, size, swapped_counts[g], swapped_size, counts[ginv]) if normal else ()
        )
        rows_b.append(_per_run(_p2b_row, h_normal, k_normal, *numbers))
    cell = _cell(n, m, H=H, K=K)
    return [_batch("P2a", cell, gs, rows_a), _batch("P2b", cell, gs, rows_b)]


@_check
def check_class_formula(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> list[_Batch]:
    """Class-sum evaluation against exact counts for every g.

    Tagged P3_m1 when m = 1 (a hard guarantee with the derived predicate)
    and P3_mgt1 otherwise.  The witness also counts how many g the
    literal-predicate variant got wrong, so the convention ambiguity
    stays visible.  That variant keeps g^-1*w in the K-class of w, which
    is the derived sum over the histogram with each w replaced by w^-1;
    an x-block histogram is inversion-symmetric, so its mismatches are
    the derived formula's own.

    The class formula is one orbit step of the histogram recurrence (at
    m = 1 the very step ``final_counts`` ends with), so the exact side
    comes from ``engine.brute_counts`` instead, and the histogram must
    match it too; only a tuple space above ``engine.BRUTE_CAP_DEFAULT``
    falls back to ``final_counts`` as the exact side.
    """
    G = H.parent
    tag = "P3_m1" if m == 1 else "P3_mgt1"
    size = engine.space_size(H, K, n, m)
    counts = exact_counts = engine.final_counts(H, K, n, m)
    if m == 1 and size <= engine.BRUTE_CAP_DEFAULT:
        exact_counts = engine.brute_counts(G, [H.members] * n + [K.members])
    formula = engine.class_formula_counts(H, K, n, m)
    g = next(
        (
            g
            for g in range(G.order)
            if formula[g] != exact_counts[g] or counts[g] != exact_counts[g]
        ),
        None,
    )
    inst = _cell(n, m, H=H, K=K)
    witness = {
        "predicate": "derived",
        "elements_checked": G.order,
        "paper_predicate_mismatches": sum(
            f != e for f, e in zip(formula, exact_counts)
        ),
    }
    if g is None:
        return [_one(tag, inst, HOLDS, witness)]
    witness.update(
        {
            "g": g,
            "formula_value": _ratio(formula[g], size),
            "exact_value": _ratio(exact_counts[g], size),
        }
    )
    if counts[g] != exact_counts[g]:
        witness["histogram_value"] = _ratio(counts[g], size)
    return [_one(tag, inst, VIOLATED, witness)]


@_check
def check_c4(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> list[_Batch]:
    """Closed form for the identity probability under trivial centralizers.

    Hypothesis reading: the x-block support contains at least one
    non-identity value and every such value has |C_K(w)| = 1 (the identity
    is exempt, since its centralizer is all of K).  Anything else is
    vacuous.  Over the space size |H|^n |K|^m the closed form is
    |K|^m + |H|^n - 1.
    """
    counts = engine.comm_distribution(H, n)
    info = engine.conjugacy_info(K)
    nontrivial = [w for w, c in enumerate(counts) if c and w != 0]
    inst = _cell(n, m, H=H, K=K)
    hypothesis = bool(nontrivial) and all(
        int(info.centralizer_order[w]) == 1 for w in nontrivial
    )
    if not hypothesis:
        witness = {"hypothesis": False, "nonidentity_support_count": len(nontrivial)}
        return [_one("C4", inst, VACUOUS, witness)]
    lhs = engine.final_counts(H, K, n, m)[0]
    rhs = H.order**n + K.order**m - 1
    size = engine.space_size(H, K, n, m)
    witness = {"hypothesis": True, "lhs": _ratio(lhs, size), "rhs": _ratio(rhs, size)}
    return [_one("C4", inst, HOLDS if lhs == rhs else VIOLATED, witness)]


def _p4_row(
    smaller: int, smaller_size: int,
    larger: int, larger_size: int, match: Optional[bool],
) -> tuple[str, int]:
    fields = {
        "smaller_subgroup_prob": _ratio(smaller, smaller_size),
        "larger_subgroup_prob": _ratio(larger, larger_size),
    }
    if match is not None:
        fields["class_partitions_match"] = match
    holds = smaller * larger_size >= larger * smaller_size
    return HOLDS if holds else VIOLATED, _witness(fields)


@_check
def check_monotonicity(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[_Batch]:
    """p_g(H, G) >= p_g(K, G) for H <= K, with the equality condition.

    On equality instances the witness records whether H- and K-conjugation
    partition the parent identically (the stated criterion).
    ``conjugacy_info`` numbers classes in order of their least member, so
    two partitions are equal exactly when their ``class_of`` arrays are.
    """
    G = H.parent
    cell = _cell(n, m, H=H, K=K)
    if not set(H.members) <= set(K.members):
        reason = _witness({"reason": "H is not contained in K"})
        return [_batch("P4", cell, gs, [(PRECONDITION_FAILED, reason)] * len(gs))]
    full = groups.full_subgroup(G)
    smaller = engine.final_counts(H, full, n, m)
    larger = engine.final_counts(K, full, n, m)
    smaller_size = engine.space_size(H, full, n, m)
    larger_size = engine.space_size(K, full, n, m)
    same: Optional[bool] = None
    rows = []
    for g in gs:
        equal = smaller[g] * larger_size == larger[g] * smaller_size
        if equal and same is None:
            same = np.array_equal(
                engine.conjugacy_info(H).class_of, engine.conjugacy_info(K).class_of
            )
        rows.append(_per_run(
            _p4_row, smaller[g], smaller_size, larger[g], larger_size,
            same if equal else None,
        ))
    return [_batch("P4", cell, gs, rows)]


def _p5_row(
    sub: int, sub_size: int, quo: int, quo_size: int,
    intersection_order: int, equality_required: bool,
) -> tuple[str, int]:
    lhs, rhs = sub * quo_size, quo * sub_size
    ok = lhs <= rhs and (not equality_required or lhs == rhs)
    return HOLDS if ok else VIOLATED, _witness({
        "subgroup_prob": _ratio(sub, sub_size),
        "quotient_prob": _ratio(quo, quo_size),
        "intersection_order": intersection_order,
        "equality_required": equality_required,
    })


@_check
def check_quotient(
    H: SubgroupRef,
    N: SubgroupRef,
    n: int,
    m: int,
    gs: Sequence[int],
    quotient: Optional[tuple[GroupTable, np.ndarray]] = None,
) -> list[_Batch]:
    """p_g(H, G) <= p at the image (g to its coset, H to its projection).

    When N meets the nested commutator subgroup trivially, equality is
    required as well; a strict inequality there counts as a violation.
    """
    G = H.parent
    cell = _cell(n, m, H=H, N=N)
    reason = None
    if not groups.is_normal(G, N):
        reason = "N is not normal"
    elif not set(H.members) <= set(N.members):
        reason = "H is not contained in N"
    if reason is not None:
        rows = [(PRECONDITION_FAILED, _witness({"reason": reason}))] * len(gs)
        return [_batch("P5", cell, gs, rows)]
    Q, proj = quotient if quotient is not None else groups.quotient_group(G, N)
    full = groups.full_subgroup(G)
    # The image of a subgroup under the projection is a subgroup.
    h_image = SubgroupRef(Q, {int(proj[x]) for x in H.members}, _checked=True)
    q_full = groups.full_subgroup(Q)
    sub = engine.final_counts(H, full, n, m)
    quo = engine.final_counts(h_image, q_full, n, m)
    sub_size = engine.space_size(H, full, n, m)
    quo_size = engine.space_size(h_image, q_full, n, m)
    nested = engine.nested_commutator_subgroup(H, full, n, m)
    intersection = sorted(set(N.members) & set(nested.members))
    equality_required = intersection == [0]
    rows = [
        _per_run(
            _p5_row, sub[g], sub_size, quo[int(proj[g])], quo_size,
            len(intersection), equality_required,
        )
        for g in gs
    ]
    return [_batch("P5", cell, gs, rows)]


def _chain_row(
    whole: int, whole_size: int, pair: int, pair_size: int, pair_id: int,
    ambient_id: int, ambient_size: int, self_id: int, self_size: int,
) -> tuple[str, int]:
    links = [
        whole * pair_size <= pair * whole_size,
        pair <= pair_id,
        pair_id * ambient_size <= ambient_id * pair_size,
        ambient_id * self_size <= self_id * ambient_size,
    ]
    return HOLDS if all(links) else VIOLATED, _witness({
        "whole_group": _ratio(whole, whole_size),
        "pair": _ratio(pair, pair_size),
        "pair_identity": _ratio(pair_id, pair_size),
        "ambient_identity": _ratio(ambient_id, ambient_size),
        "self_identity": _ratio(self_id, self_size),
        "links_hold": links,
    })


@_check
def check_chain(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[_Batch]:
    """The four-link probability chain, each link witnessed separately.

    The verdict holds when every link does.
    """
    G = H.parent
    full = groups.full_subgroup(G)
    whole = engine.final_counts(full, full, n, m)
    pair = engine.final_counts(H, K, n, m)
    pair_id = pair[0]
    ambient_id = engine.final_counts(H, full, n, m)[0]
    self_id = engine.final_counts(H, H, n, m)[0]
    whole_size = engine.space_size(full, full, n, m)
    pair_size = engine.space_size(H, K, n, m)
    ambient_size = engine.space_size(H, full, n, m)
    self_size = engine.space_size(H, H, n, m)
    rows = [
        _per_run(
            _chain_row, whole[g], whole_size, pair[g], pair_size,
            pair_id, ambient_id, ambient_size, self_id, self_size,
        )
        for g in gs
    ]
    return [_batch("T2_CHAIN", _cell(n, m, H=H, K=K), gs, rows)]


def _c5_row(
    count: int, size: int, n: int, center_order: int, subgroup_center_order: int
) -> tuple[str, int]:
    below = count * 2**n <= (2**n - 1) * size
    fields = {
        "lhs": _ratio(count, size),
        "bound": _ratio(2**n - 1, 2**n),
        "center_order": center_order,
        "subgroup_center_order": subgroup_center_order,
    }
    if subgroup_center_order == 1:
        fields["variant_subgroup_center_holds"] = below
    verdict = VACUOUS if center_order != 1 else HOLDS if below else VIOLATED
    return verdict, _witness(fields)


@_check
def check_c5(
    H: SubgroupRef, K: SubgroupRef, n: int, gs: Sequence[int]
) -> list[_Batch]:
    """(2^n - 1)/2^n bound at m = 1 under a trivial ambient center.

    Tested as stated (hypothesis on Z(G), taken as C_G(G)); the witness
    also evaluates the variant hypothesis Z(H) = 1, which the surrounding
    results suggest, without letting it influence the verdict.
    """
    center_order = _center(H.parent).order
    z_h_order = _mutual_centralizer(H, H).order
    counts = engine.final_counts(H, K, n, 1)
    size = engine.space_size(H, K, n, 1)
    rows = [
        _per_run(_c5_row, counts[g], size, n, center_order, z_h_order) for g in gs
    ]
    return [_batch("C5", _cell(n, 1, H=H, K=K), gs, rows)]


def _t3i_row(
    lhs: int, size: int, upper_num: int, upper_den: int, p: int
) -> tuple[str, int]:
    verdict = HOLDS if lhs * upper_den <= upper_num * size else VIOLATED
    return verdict, _witness(
        {"lhs": _ratio(lhs, size), "bound": _ratio(upper_num, upper_den), "prime": p}
    )


def _t3ii_row(
    lhs: int, size: int, lower_num: int, p: int, y: int, c: int
) -> tuple[str, int]:
    return HOLDS if lhs >= lower_num else VIOLATED, _witness({
        "lhs": _ratio(lhs, size),
        "bound": _ratio(lower_num, size),
        "prime": p,
        "y_tuple_count": y,
        "mutual_centralizer_order": c,
    })


@_check
def check_t3(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[_Batch]:
    """Both smallest-prime bounds; two batches over one cell, T3i then T3ii.

    The T3ii bound has the space size |H|^n |K|^m as its denominator, so
    it is compared with the count directly.
    """
    G = H.parent
    cell = _cell(n, m, H=H, K=K)
    if G.order == 1:
        reason = {"reason": "no prime divides the trivial group order"}
        rows = [(PRECONDITION_FAILED, _witness(reason))] * len(gs)
        return [_batch("T3i", cell, gs, rows), _batch("T3ii", cell, gs, rows)]
    p = groups.smallest_prime_divisor(G)
    counts = engine.final_counts(H, K, n, m)
    size = engine.space_size(H, K, n, m)
    upper_num, upper_den = 2 * p**n + p - 2, p ** (m + n)
    y = engine.y_set_size(H, K, n)
    c = _mutual_centralizer(H, K).order
    lower_num = (1 - p) * y + p * H.order**n - (K.order + p) * c**n
    upper = [_per_run(_t3i_row, counts[g], size, upper_num, upper_den, p) for g in gs]
    lower = [_per_run(_t3ii_row, counts[g], size, lower_num, p, y, c) for g in gs]
    return [_batch("T3i", cell, gs, upper), _batch("T3ii", cell, gs, lower)]


@_check
def check_c6(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> list[_Batch]:
    """Index restriction on instances attaining the T3i bound.

    The comparison is done before extracting the n-th root, as exact
    rationals: |H:C_H(K)|^n against the stated right side (which can be
    negative, in which case equality instances can only violate).
    """
    G = H.parent
    inst = _cell(n, m, H=H, K=K)
    if G.order == 1:
        reason = {"reason": "no prime divides the trivial group order"}
        return [_one("C6", inst, PRECONDITION_FAILED, reason)]
    p = groups.smallest_prime_divisor(G)
    upper_num, upper_den = 2 * p**n + p - 2, p ** (m + n)
    upper = _ratio(upper_num, upper_den)
    target = upper_num * engine.space_size(H, K, n, m)
    counts = engine.final_counts(H, K, n, m)
    equality_gs = [g for g, c in enumerate(counts) if c * upper_den == target]
    if not equality_gs:
        witness = {"bound": upper, "equality_elements": []}
        return [_one("C6", inst, VACUOUS, witness)]
    index = H.order // _mutual_centralizer(H, K).order
    rhs_num = 2 * (p ** (n + 1) - p**3 + p) - p**2
    rhs_den = 2 * (2 * p**2 + p - 2)
    holds = index**n * rhs_den <= rhs_num
    witness = {
        "bound": upper,
        "equality_elements": equality_gs[:8],
        "index": index,
        "index_power": index**n,
        "rhs_power": _ratio(rhs_num, rhs_den),
    }
    return [_one("C6", inst, HOLDS if holds else VIOLATED, witness)]


@_check
def check_frob_bound(H: SubgroupRef, table: chartab.CharacterTable) -> list[_Batch]:
    """p_g(H, G) <= |G:H| d(G) for every g, plus the vanishing criterion.

    The bound verdict is exact; the witness records which g attain
    equality, whether every irreducible vanishes off H, and whether the
    stated equivalence between the two is consistent on this instance.
    """
    G = table.group
    full = groups.full_subgroup(G)
    index = G.order // H.order
    # d(G) is the commuting-pair count over |G|^2.
    bound_num = index * engine.final_counts(full, full, 1, 1)[0]
    bound_den = engine.space_size(full, full, 1, 1)
    counts = engine.final_counts(H, full, 1, 1)
    target = bound_num * engine.space_size(H, full, 1, 1)
    violating = [g for g, c in enumerate(counts) if c * bound_den > target]
    equality_gs = [g for g, c in enumerate(counts) if c * bound_den == target]
    all_vanish = all(
        chartab.vanishes_outside(table, i, H) for i in range(table.n_classes)
    )
    inst = {"group": G.name, "H": _mem(H)}
    witness = {
        "bound": _ratio(bound_num, bound_den),
        "index": index,
        "violating_elements": violating[:8],
        "equality_elements": equality_gs[:8],
        "all_characters_vanish_outside": all_vanish,
        "equality_iff_vanishing_consistent": bool(equality_gs) == all_vanish,
    }
    verdict = HOLDS if not violating else VIOLATED
    return [_one("FROB_BOUND", inst, verdict, witness)]


@_check
def check_zeta_character(
    H: SubgroupRef, n: int, m: int, table: chartab.CharacterTable
) -> list[_Batch]:
    """Whether the per-g solution count decomposes as a character.

    The counts must first be constant on conjugacy classes; when they are
    not (possible for non-normal H), the instance is recorded as a
    precondition failure, not a violation.
    """
    G = table.group
    counts = engine.final_counts(H, groups.full_subgroup(G), n, m)
    inst = {"group": G.name, "H": _mem(H), "n": n, "m": m}
    try:
        cf = chartab.class_function_from_counts(table, counts)
    except NotClassConstant as exc:
        reason = {"reason": str(exc)}
        return [_one("ZETA_CHAR", inst, PRECONDITION_FAILED, reason)]
    ok, report = chartab.is_character(cf, table)
    witness = {
        "multiplicities": report["rounded"],
        "max_integrality_deviation": report["max_integrality_deviation"],
        "max_reconstruction_deviation": report["max_reconstruction_deviation"],
        "nonnegative": report["nonnegative"],
    }
    return [_one("ZETA_CHAR", inst, HOLDS if ok else VIOLATED, witness)]


@_check
def check_remark_r1(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> list[_Batch]:
    """Support and triviality characterizations of the probability.

    The value set is recomputed by plain set reachability (commutator
    blocks as the brute oracle forms them, no counting), so the comparison
    does not share the histogram recurrence with the side being tested.
    """
    counts = engine.final_counts(H, K, n, m)
    support = {g for g, c in enumerate(counts) if c}
    reach = set(_reachable_values(H, K, n, m).tolist())
    inst = _cell(n, m, H=H, K=K)
    support_witness = {
        "support_size": len(support),
        "reachable_size": len(reach),
        "support_minus_reachable": sorted(support - reach)[:8],
        "reachable_minus_support": sorted(reach - support)[:8],
    }
    size = engine.space_size(H, K, n, m)
    value_subgroup = engine.nested_commutator_subgroup(H, K, n, m)
    ok = (counts[0] == size) == value_subgroup.is_trivial
    trivial_witness = {
        "prob_identity": _ratio(counts[0], size),
        "value_subgroup_order": value_subgroup.order,
    }
    return [
        _one("R1a", inst, HOLDS if support == reach else VIOLATED, support_witness),
        _one("R1b", inst, HOLDS if ok else VIOLATED, trivial_witness),
    ]


@lru_cache(maxsize=64)
def _reachable_values(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> np.ndarray:
    """Sorted ids of every [x1, ..., xn, y1, ..., ym] over H^n x K^m.

    Each slot replaces the value set by the commutators of its values with
    the slot's subgroup (``_reach_step``).  The set after the n H-slots
    is kept per (H, n) and serves every K, and (n, m) is (n, m - 1) plus
    one more K-slot, so the cells of one (H, K), taken in order of m, walk
    each slot prefix once.  The arrays are shared, and read-only.
    """
    before = _x_block_values(H, n) if m == 1 else _reachable_values(H, K, n, m - 1)
    return _reach_step(before, K)


@lru_cache(maxsize=16)
def _x_block_values(H: SubgroupRef, n: int) -> np.ndarray:
    """Sorted ids of every [x1, ..., xn] over H^n, read-only."""
    if n == 1:
        reach = np.asarray(H.members, dtype=np.intp)
        reach.setflags(write=False)
        return reach
    return _reach_step(_x_block_values(H, n - 1), H)


def _reach_step(reach: np.ndarray, pool: SubgroupRef) -> np.ndarray:
    """Sorted ids of every [v, y] with v in ``reach`` and y in ``pool``.

    Formed in row chunks of ``engine._comm_block`` and gathered in a mask
    over the group; read-only.
    """
    G = pool.parent
    cols = np.asarray(pool.members, dtype=np.int32)
    step = max(1, engine._CHUNK // cols.size)
    seen = np.zeros(G.order, dtype=bool)
    for lo in range(0, reach.size, step):
        seen[engine._comm_block(G, reach[lo : lo + step], cols)] = True
    reach = np.flatnonzero(seen)
    reach.setflags(write=False)
    return reach


@_check
def check_eq3(table: chartab.CharacterTable) -> list[_Batch]:
    """Degree-weighted character sum against the exact probability, all g."""
    G = table.group
    full = groups.full_subgroup(G)
    counts = engine.final_counts(full, full, 1, 1)
    size = engine.space_size(full, full, 1, 1)
    worst, worst_g = 0.0, 0
    for g in range(G.order):
        dev = abs(chartab.prob_char_pg(G, table, g) - counts[g] / size)
        if dev > worst:
            worst, worst_g = dev, g
    verdict = HOLDS if worst < chartab.FORMULA_TOL else VIOLATED
    witness = {
        "max_deviation": worst,
        "worst_element": worst_g,
        "tolerance": chartab.FORMULA_TOL,
    }
    return [_one("EQ3", {"group": G.name}, verdict, witness)]


@_check
def check_eq4(table: chartab.CharacterTable) -> list[_Batch]:
    """Irreducible count vs class count, and d(G) = k(G)/|G| exactly."""
    G = table.group
    full = groups.full_subgroup(G)
    k = len(engine.conjugacy_info(full).classes)
    # d(G) is the commuting-pair count over |G|^2.
    commuting = engine.final_counts(full, full, 1, 1)[0]
    size = engine.space_size(full, full, 1, 1)
    ok = table.n_classes == k and commuting * G.order == k * size
    witness = {
        "irreducible_count": table.n_classes,
        "class_count": k,
        "commuting_probability": _ratio(commuting, size),
        "class_ratio": _ratio(k, G.order),
    }
    return [_one("EQ4", {"group": G.name}, HOLDS if ok else VIOLATED, witness)]


@_check
def check_eq7(H: SubgroupRef, table: chartab.CharacterTable) -> list[_Batch]:
    """Restriction-weighted character formula against exact counts, all g."""
    G = table.group
    inst = {"group": G.name, "H": _mem(H)}
    if not groups.is_normal(G, H):
        return [_one("EQ7", inst, PRECONDITION_FAILED, {"reason": "H is not normal"})]
    full = groups.full_subgroup(G)
    denom = engine.space_size(H, full, 1, 1)
    counts = engine.final_counts(H, full, 1, 1)
    worst, worst_g = 0.0, 0
    for g in range(G.order):
        exact = counts[g] / denom
        dev = abs(chartab.prob_char_relative(G, table, H, g) - exact)
        if dev > worst:
            worst, worst_g = dev, g
    verdict = HOLDS if worst < chartab.FORMULA_TOL else VIOLATED
    witness = {
        "max_deviation": worst,
        "worst_element": worst_g,
        "tolerance": chartab.FORMULA_TOL,
    }
    return [_one("EQ7", inst, verdict, witness)]


@_check
def check_psi(table: chartab.CharacterTable) -> list[_Batch]:
    """Pair-count decomposition: multiplicities must be |G|/degree."""
    G = table.group
    cf, mults = chartab.pair_count_class_function(table)
    expected = np.asarray([G.order / d for d in table.degrees])
    deviation = float(np.abs(mults - expected).max())
    ok_char, report = chartab.is_character(cf, table)
    ok = deviation < chartab.ROUNDING_TOL and ok_char
    witness = {
        "max_multiplicity_deviation": deviation,
        "is_character": ok_char,
        "multiplicities": report["rounded"],
    }
    return [_one("PSI", {"group": G.name}, HOLDS if ok else VIOLATED, witness)]


def named_group_specs(max_order: int = lattice.DEFAULT_ENUM_CAP) -> tuple[str, ...]:
    """Specs of every named-family member within the order bound."""
    return groups.named_group_names(max_order)


@dataclass(frozen=True)
class AuditConfig:
    """Battery shape: which groups, claims, exponents, and sampling policies."""

    groups: tuple[str, ...]
    claims: tuple[str, ...] = CLAIMS
    n_values: tuple[int, ...] = (1, 2)
    m_values: tuple[int, ...] = (1, 2)
    g_policy: str = "support"
    pair_policy: str = "classes"
    subgroup_policy: str = "all"
    product_pairs: tuple[tuple[str, str], ...] = (
        ("C2", "C2"),
        ("S3", "Q8"),
        ("D4", "C3"),
    )
    seed: int = 0
    max_order: int = DEFAULT_MAX_ORDER
    subgroup_enum_cap: int = lattice.DEFAULT_ENUM_CAP

    def validate(self) -> None:
        unknown = [c for c in self.claims if c not in CLAIMS]
        if unknown:
            raise ConfigInvalid(f"unknown claim tags: {unknown}")
        if self.g_policy not in ("support", "all"):
            raise ConfigInvalid(f"unknown g policy {self.g_policy!r}")
        if self.pair_policy not in ("classes", "all"):
            raise ConfigInvalid(f"unknown pair policy {self.pair_policy!r}")
        if self.subgroup_policy not in ("all", "named"):
            raise ConfigInvalid(f"unknown subgroup policy {self.subgroup_policy!r}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigInvalid("n values must be a non-empty list of integers >= 1")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ConfigInvalid("m values must be a non-empty list of integers >= 1")
        if self.max_order < 1 or self.subgroup_enum_cap < 1:
            raise ConfigInvalid("order caps must be positive")
        for pair in self.product_pairs:
            if len(pair) != 2:
                raise ConfigInvalid(f"product pair {pair!r} must have two specs")

    def to_json(self) -> dict:
        return {
            "groups": list(self.groups),
            "claims": list(self.claims),
            "n_values": list(self.n_values),
            "m_values": list(self.m_values),
            "g_policy": self.g_policy,
            "pair_policy": self.pair_policy,
            "subgroup_policy": self.subgroup_policy,
            "product_pairs": [list(p) for p in self.product_pairs],
            "seed": self.seed,
            "max_order": self.max_order,
            "subgroup_enum_cap": self.subgroup_enum_cap,
        }


def default_config() -> AuditConfig:
    return AuditConfig(groups=named_group_specs(lattice.DEFAULT_ENUM_CAP))


def config_from_json(payload: dict) -> AuditConfig:
    """Build a config from the JSON mirror of the flags."""
    if not isinstance(payload, dict):
        raise ConfigInvalid("config payload must be a JSON object")
    base = default_config()
    known = set(base.to_json())
    unknown = set(payload) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    try:
        if "groups" in payload:
            kwargs["groups"] = tuple(str(s) for s in payload["groups"])
        if "claims" in payload:
            kwargs["claims"] = tuple(str(c) for c in payload["claims"])
        if "n_values" in payload:
            kwargs["n_values"] = tuple(int(v) for v in payload["n_values"])
        if "m_values" in payload:
            kwargs["m_values"] = tuple(int(v) for v in payload["m_values"])
        for key in ("g_policy", "pair_policy", "subgroup_policy"):
            if key in payload:
                kwargs[key] = str(payload[key])
        if "product_pairs" in payload:
            kwargs["product_pairs"] = tuple(
                (str(a), str(b)) for a, b in payload["product_pairs"]
            )
        for key in ("seed", "max_order", "subgroup_enum_cap"):
            if key in payload:
                kwargs[key] = int(payload[key])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed config value: {exc}") from None
    if "groups" not in kwargs:
        kwargs["groups"] = base.groups
    config = AuditConfig(**kwargs)
    config.validate()
    return config


@dataclass
class AuditReport:
    """Aggregated findings with per-claim verdict counts.

    ``findings`` reads as a sequence of ``Finding``; the writers read its
    batches.  ``write`` is the route that writes the report, one finding
    at a time; ``dumps`` joins the same pieces into one string.  Both give
    the text of ``jsontext.dumps(self.to_json(include_runtime))``.
    """

    config: AuditConfig
    summary: dict
    findings: Findings

    def hard_violations(self) -> list[Finding]:
        # The hard claims are per-cell claims, whose rows come batch by batch.
        hard = [b for b in self.findings.batches if b.claim in HARD_CLAIMS]
        rows = [row for batch in hard for row in batch.rows(batch)]
        return [self.findings._finding(*r) for r in rows if r[2] == _CODE[VIOLATED]]

    def _head(self) -> dict:
        return {
            "config_echo": self.config.to_json(),
            "seed": self.config.seed,
            "legend": {c: CLAIM_INFO[c] for c in sorted(self.summary)},
            "summary": self.summary,
        }

    def to_json(self, include_runtime: bool = False) -> dict:
        return {
            **self._head(),
            "findings": [f.to_json(include_runtime) for f in self.findings],
        }

    def write(self, fp: TextIO, include_runtime: bool = False) -> None:
        """Write the report to ``fp``, holding one finding's text at a time.

        The cyclic collector is paused meanwhile: the writer makes no
        cycles, so a collection would only traverse the findings again.
        """
        with _collector_paused():
            for piece in self._pieces(include_runtime):
                fp.write(piece)

    def dumps(self, include_runtime: bool = False) -> str:
        """The text ``write`` writes, as one string."""
        return "".join(self._pieces(include_runtime))

    def rows(self, include_runtime: bool = False) -> Iterator[list]:
        """One CSV row per finding: claim, verdict, and the texts of
        ``json.dumps(instance, sort_keys=True)`` and of the witness
        likewise, then the rounded runtime if asked for."""
        style = self.findings._style(indented=False)

        def prepare(batch: _Batch) -> tuple:
            runtime = [round(batch.runtime_ms, 3)] if include_runtime else []
            return batch.claim, *style.instance(batch), runtime

        for (claim, head, tail, runtime), g, code, w in self.findings.rows(prepare):
            yield [claim, VERDICTS[code], f"{head}{g}{tail}", style.witness(w), *runtime]

    def _pieces(self, include_runtime: bool) -> Iterator[str]:
        # One piece for the head, one per finding and one for the tail.
        texts = _finding_texts(self.findings, include_runtime)
        return jsontext.document(self._head(), "findings", texts)


def _finding_texts(findings: Findings, include_runtime: bool) -> Iterator[str]:
    """The text of each finding at depth 2 of the report.

    A finding is written from its fixed key layout, in sorted key order:
    ``claim``, ``instance``, [``runtime_ms``], ``verdict``, ``witness``,
    with its instance and witness at depth 3.  All but g, the verdict and
    the witness is the same for every row of a batch and is joined once
    per batch; each row is then one f-string.
    """
    quote = jsontext.SCALARS[str]
    verdicts = [quote(v) for v in VERDICTS]
    claims = {c: f'{{\n   "claim": {quote(c)},\n   "instance": ' for c in CLAIMS}
    style = findings._style(indented=True)

    def prepare(batch: _Batch) -> tuple[str, str, str]:
        head, tail = style.instance(batch)
        runtime = (
            ',\n   "runtime_ms": ' + jsontext.encode(round(batch.runtime_ms, 3), "")
            if include_runtime
            else ""
        )
        lead = f'{claims[batch.claim]}{head}'
        return lead, f'{tail}{runtime},\n   "verdict": '

    for (lead, mid), g, code, w in findings.rows(prepare):
        yield (
            f'{lead}{g}{mid}{verdicts[code]},\n   "witness": '
            f"{style.witness(w)}\n  }}"
        )


class _Style:
    """The texts of one form of a report's instances and witnesses:
    compact (``nl`` None), as ``json.dumps(sort_keys=True)`` writes them,
    or depth 3 of the report (``nl`` ``"\\n   "``).  Each cell's whole
    text, each cell's head and tail around g, each member list's text and
    each witness id's text is made once and kept as long as the object,
    which refers to no method of its own, so that it goes with the last
    reference to it rather than at a cyclic collection.
    """

    def __init__(self, witnesses: list[tuple], nl: Optional[str]) -> None:
        encode = (lambda v: jsontext.encode(v, nl + " ")) if nl else jsontext.compact
        self._items = jsontext.items_writer(nl, functools.partial(_once, {}, encode))
        self._witness_items = jsontext.items_writer(nl)
        self._witnesses = witnesses
        self._witness_texts: list[Optional[str]] = [None] * len(witnesses)
        self._wholes: dict[int, tuple] = {}
        self._cuts: dict[int, tuple] = {}

    def instance(self, batch: _Batch) -> tuple[str, str]:
        """The head and tail of a batch's instances around g; a per-cell
        batch's head is its cell's whole text, and its tail is empty."""
        if batch.gs is None:
            return _once(self._wholes, self._text, batch.cell), ""
        return _once(self._cuts, self._head_tail, batch.cell)

    def witness(self, w: int) -> str:
        """The text of the witness of id ``w``."""
        text = self._witness_texts[w]
        if text is None:
            text = self._witness_texts[w] = self._witness_items(self._witnesses[w])
        return text

    def _text(self, d: dict) -> str:
        return self._items((tuple(d), *d.values()))

    def _head_tail(self, cell: dict) -> tuple[str, str]:
        """The text of ``{**cell, "g": g}`` before and after g's digits, cut
        from that of g = 0: ``"g": 0`` occurs once in it, as ``"g"`` is the
        one key of that name and a quote inside a string is escaped."""
        head, _, tail = self._text({**cell, "g": 0}).partition('"g": 0')
        return head + '"g": ', tail


def _once(made: dict, make: Callable[[object], object], v: object) -> object:
    """``make(v)``, made once per object ``v`` and kept in ``made``; for
    objects nothing mutates."""
    # id -> (object, value); holding the object keeps its id from being reused.
    hit = made.get(id(v))
    if hit is None:
        hit = made[id(v)] = (v, make(v))
    return hit[1]


def _subgroup_pool(G: GroupTable, config: AuditConfig) -> list[SubgroupRef]:
    """Subgroups to audit: full lattice when small, landmarks otherwise."""
    if config.subgroup_policy == "all" and G.order <= config.subgroup_enum_cap:
        subs = lattice.all_subgroups(G, cap=config.subgroup_enum_cap)
    else:
        subs = []
        for cand in (
            groups.trivial_subgroup(G),
            groups.center(G),
            groups.full_subgroup(G),
        ):
            if all(cand.members != s.members for s in subs):
                subs.append(cand)
        subs.sort(key=lambda s: (s.order, s.members))
    if config.pair_policy == "classes":
        return lattice.subgroup_conjugacy_representatives(G, subs)
    return subs


@lru_cache(maxsize=256)
def _g_values(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, g_policy: str
) -> tuple[int, ...]:
    """Elements to test: the support, the identity, one non-support id.

    In the order of their decimal texts, the order of the report's rows
    (see ``_sorted_batches``).  Kept per (H, K, n, m): P4 and P5 ask for
    the same (H, G, n, m) once for each K above H and each normal N.
    """
    G = H.parent
    if g_policy == "all":
        return tuple(sorted(range(G.order), key=str))
    counts = engine.final_counts(H, K, n, m)
    chosen = {g for g, c in enumerate(counts) if c}
    chosen.add(0)
    for g in range(G.order):
        if not counts[g]:
            chosen.add(g)
            break
    return tuple(sorted(chosen, key=str))


def _first_proper(G: GroupTable) -> Optional[SubgroupRef]:
    if G.order == 1:
        return None
    h = groups.subgroup_closure(G, [1])
    return h if h.order < G.order else None


# The claim tags each check's findings carry, in ``__all__`` order.  A check
# runs when any of its tags is selected; ``run_battery`` gives its instances.
_CHECK_CLAIMS = {
    "check_multiplicativity": ("P1",),
    "check_symmetry": ("P2a", "P2b"),
    "check_class_formula": ("P3_m1", "P3_mgt1"),
    "check_c4": ("C4",),
    "check_monotonicity": ("P4",),
    "check_quotient": ("P5",),
    "check_chain": ("T2_CHAIN",),
    "check_c5": ("C5",),
    "check_t3": ("T3i", "T3ii"),
    "check_c6": ("C6",),
    "check_frob_bound": ("FROB_BOUND",),
    "check_zeta_character": ("ZETA_CHAR",),
    "check_remark_r1": ("R1a", "R1b"),
    "check_eq3": ("EQ3",),
    "check_eq4": ("EQ4",),
    "check_eq7": ("EQ7",),
    "check_psi": ("PSI",),
}

# Checks of one shape that share a signature.
_CELL_CHECKS = ("check_remark_r1", "check_class_formula", "check_c4", "check_c6")
_G_CHECKS = ("check_symmetry", "check_chain", "check_t3")
_GROUP_CHECKS = ("check_eq3", "check_eq4", "check_psi")
# Checks that read the group's character table.
_TABLE_CHECKS = {
    "check_frob_bound", "check_zeta_character", "check_eq7", *_GROUP_CHECKS
}

def _sorted_batches(
    by_claim: dict[str, list[_Batch]], style: _Style
) -> tuple[list[_Batch], bytes]:
    """The batches and their joins, as rows sort: by claim, then by
    ``json.dumps(instance, sort_keys=True)``, stable.

    That text is a cell's head, g and tail, as the compact ``style`` makes
    them, once per cell.  A head ends at the one ``"g": `` of its text, or
    is a whole object, so no head is a proper prefix of another: a claim's
    batches sort by (head, tail), and those of one head join, their rows
    merged by g's text (a tail starts with a comma, which sorts before
    every digit).
    """
    cut = style.instance
    batches, joins = [], bytearray()
    for claim in sorted(by_claim):
        last = None
        keyed = zip(map(cut, by_claim[claim]), by_claim[claim])
        for (head, _), batch in sorted(keyed, key=operator.itemgetter(0)):
            joins.append(head == last)
            batches.append(batch)
            last = head
    return batches, bytes(joins)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its state after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _run_tables() -> Iterator[_RunTables]:
    """Share work through new ``_RunTables``; stop sharing on exit."""
    tables = _RunTables()
    token = _RUN.set(tables)
    try:
        yield tables
    finally:
        _RUN.reset(token)


def _forget_walk() -> None:
    """Empty every cache keyed by a group or its subgroups, as a walk ends:
    what then stays of the group is the member lists and name in its cells."""
    _RUN.get().cells.clear()
    engine.clear_caches()
    for cache in (
        chartab._relative_coeffs, _reachable_values, _x_block_values, _g_values,
        _mutual_centralizer, _center,
    ):
        cache.cache_clear()


def run_battery(config: AuditConfig) -> AuditReport:
    """Execute every selected check on every instance the config describes.

    Each group is walked by one call (``_walk_group``, then ``_walk_pair``
    per product pair), and what it cached of the group is dropped when it
    returns (``_forget_walk``).  The walks run in ``_workers`` processes
    side by side (``_walk_all``); their batches are taken in config order,
    kept per claim and sorted at the end, and the summary counts their
    verdict codes.  A fixed config yields a byte-identical serialized
    report at any worker count; per-finding timings are measured but
    written only when asked for.
    """
    config.validate()
    walks = [(_walk_group, spec) for spec in config.groups]
    if "check_multiplicativity" in _active_checks(config):
        walks += [(_walk_pair, pair) for pair in config.product_pairs]
    by_claim: dict[str, list[_Batch]] = {}
    # The witness ids of each walking process, as ids of the run's table.
    run_ids: dict[object, list[int]] = {}

    def merge(source: object, found: list[tuple], witnesses: list[tuple]) -> None:
        ids = run_ids.setdefault(source, [])
        ids += [_entered(tables, entry) for entry in witnesses]
        for claim, cell, gs, codes, local, runtime_ms in found:
            local = tuple([ids[w] for w in local])
            batch = _Batch(claim, cell, gs, codes, local, runtime_ms)
            by_claim.setdefault(claim, []).append(batch)

    # Batches accumulate for the whole run and form no reference cycles,
    # so full cyclic collections during it would only re-traverse them.
    # Every walk runs paused: here, or in a worker forked here, which
    # inherits the paused collector.  The few cycles a walk leaves are
    # standard-library closures (``ast.literal_eval``, ``inspect``), a few
    # hundred objects on the default battery, freed by the first
    # collection after the pause.
    with _collector_paused():
        with _run_tables() as tables:
            _walk_all(walks, config, merge)
            compact = _Style(tables.witnesses, None)
            batches, joins = _sorted_batches(by_claim, compact)
    summary: dict[str, dict[str, int]] = {}
    for claim in sorted(by_claim):
        codes = b"".join(batch.codes for batch in by_claim[claim])
        summary[claim] = {v: codes.count(c) for v, c in _CODE.items() if c in codes}
    findings = Findings(batches, tables.witnesses, joins)
    findings._styles[False] = compact
    return AuditReport(config, summary, findings)


def _active_checks(config: AuditConfig) -> set[str]:
    """The checks that report a claim the config selects."""
    selected = set(config.claims)
    return {name for name, tags in _CHECK_CLAIMS.items() if selected.intersection(tags)}


def _workers(n_walks: int) -> int:
    """How many processes walk a battery of ``n_walks`` walks: one per CPU
    this process may run on (``engine._usable_cpus``), and no more than
    there are walks; one off Linux, where ``prctl`` cannot be set."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(engine._usable_cpus(), n_walks))


def _walk_all(walks: list[tuple], config: AuditConfig, merge: Callable) -> None:
    """``merge(source, *_walk(walk, what, config))`` for each ``(walk,
    what)``, in order, ``source`` naming the process that walked it.

    With one worker the walks run here, under the run's tables.
    Otherwise the workers are forked first, and each is sent the index of
    the next walk whenever it is free; ``merge`` takes the results in
    config order.  When a walk fails, once every walk before it is
    merged, the workers are killed, so that, as in one process, no walk
    after it goes on, and its error is raised once they are reaped.  The
    parent starts no thread: a ``concurrent.futures`` process pool starts
    two, whose stacks and malloc arenas add about 200 MB to the parent's
    address space, and its shutdown waits for the walks in progress.
    """
    workers = _workers(len(walks))
    if workers == 1:
        for walk, what in walks:
            merge(None, *_walk(walk, what, config))
        return
    import signal
    from multiprocessing.connection import Pipe, wait

    parent = os.getpid()
    pids: dict = {}  # the parent's end of each worker's pipe -> its pid
    busy: dict = {}  # the end of each busy worker -> the index of its walk
    done: dict[int, tuple] = {}  # walk index -> (pid, True, result) or (pid, False, error)
    todo = iter(range(len(walks)))

    def dispatch(end) -> None:
        i = next(todo, None)
        if i is not None:
            busy[end] = i
            end.send(i)

    try:
        for _ in range(workers):
            ours, theirs = Pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for end in (ours, *pids):
                        end.close()
                    _worker_start(parent)
                    _serve(theirs, walks, config)
                finally:
                    os._exit(0)
            theirs.close()
            pids[ours] = pid
            dispatch(ours)
        for i in range(len(walks)):
            while i not in done:
                for end in wait(list(busy)):
                    j = busy.pop(end)
                    try:
                        done[j] = (pids[end], *end.recv())
                    except EOFError:
                        raise ChildProcessError(
                            f"the worker process walking {walks[j][1]!r} ended"
                        ) from None
                    dispatch(end)
            pid, ok, value = done.pop(i)
            if not ok:
                raise value
            merge(pid, *value)
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for end, pid in pids.items():
            end.close()
            os.waitpid(pid, 0)


def _serve(tasks, walks: list[tuple], config: AuditConfig) -> None:
    """A worker's loop: walk each index ``tasks`` sends, under tables of
    the worker's own, and send back ``(True, result)`` or ``(False,
    error)``, until the parent closes it."""
    with _run_tables():
        while True:
            try:
                i = tasks.recv()
            except EOFError:
                return
            try:
                reply = (True, _walk(*walks[i], config))
            except Exception as exc:  # raised in the parent, in its walk's turn
                reply = (False, exc)
            tasks.send(reply)


def _worker_start(parent: int) -> None:
    """Bind a walk worker to ``parent``, the process that forked it.

    The kernel kills the worker when the parent dies, however it dies
    (Linux ``prctl(PR_SET_PDEATHSIG)``); a parent that died before that
    call has left the worker to another parent, and it exits.  Ctrl-C
    reaches the whole process group, and is the parent's to handle.
    """
    import ctypes
    import signal

    PR_SET_PDEATHSIG = 1
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    # Should the call fail, the worker still ends when it next reads its
    # pipe, which the parent's death closes.
    prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _walk(walk: Callable, what: object, config: AuditConfig) -> tuple[list, list]:
    """One walk, ``walk(what, config, active, run)``, under the process's
    tables, which keep what it made for the walks after it.

    Returns the batches of the selected claims, each as the plain tuple
    ``(claim, cell, gs, codes, witness ids, runtime_ms)``, and the
    witness entries the walk added to the table: with those of the
    process's walks before it, the table that the ids index.
    """
    tables = _RUN.get()
    known = len(tables.witnesses)
    selected = set(config.claims)
    active = _active_checks(config)
    kept: list[tuple] = []

    def run(name: str, *args) -> None:
        if name not in active:
            return
        # Looked up on the module at each call, so a check replaced there
        # (as perfbench's tracer does) sees every call.
        check = globals()[name]
        start = time.perf_counter()
        found = check(*args)
        share = (time.perf_counter() - start) * 1000.0 / len(found)
        for b in found.batches:
            if b.claim in selected:
                kept.append((b.claim, b.cell, b.gs, b.codes, b.witnesses, share))

    try:
        walk(what, config, active, run)
    finally:
        _forget_walk()
    return kept, tables.witnesses[known:]


def _walk_group(
    spec: str, config: AuditConfig, active: set[str], run: Callable
) -> None:
    """Every selected check of a group's instance shapes, each shape walked once."""
    G = groupspec.parse_group_spec(spec, max_order=config.max_order)
    pool = _subgroup_pool(G, config)
    full = groups.full_subgroup(G)
    per_g = [name for name in _G_CHECKS if name in active]
    policy = config.g_policy
    cells = [(n, m) for n in config.n_values for m in config.m_values]
    for H in pool:
        for K in pool:
            for n, m in cells:
                for name in _CELL_CHECKS:
                    run(name, H, K, n, m)
                if per_g:
                    gs = _g_values(H, K, n, m, policy)
                    for name in per_g:
                        run(name, H, K, n, m, gs)
            nested = set(H.members) <= set(K.members)
            if "check_monotonicity" in active and nested:
                for n, m in cells:
                    gs = _g_values(H, full, n, m, policy)
                    run("check_monotonicity", H, K, n, m, gs)
            if "check_c5" in active:
                for n in config.n_values:
                    gs = _g_values(H, K, n, 1, policy)
                    run("check_c5", H, K, n, gs)
    if "check_quotient" in active:
        for N in pool:
            if not groups.is_normal(G, N):
                continue
            quotient = groups.quotient_group(G, N)
            for H in pool:
                if set(H.members) <= set(N.members):
                    for n, m in cells:
                        gs = _g_values(H, full, n, m, policy)
                        run("check_quotient", H, N, n, m, gs, quotient)
    if active & _TABLE_CHECKS:
        table = chartab.character_table(G, seed=config.seed)
        for H in pool:
            run("check_frob_bound", H, table)
            for n, m in cells:
                run("check_zeta_character", H, n, m, table)
            if groups.is_normal(G, H):
                run("check_eq7", H, table)
        for name in _GROUP_CHECKS:
            run(name, table)


def _walk_pair(
    pair: tuple[str, str], config: AuditConfig, active: set[str], run: Callable
) -> None:
    """P1 on the product of one pair of groups, for every blocks and (n, m)."""
    E, F = (groupspec.parse_group_spec(s, max_order=config.max_order) for s in pair)
    product = groups.direct_product(E, F, max_order=config.max_order)
    full_e, full_f = groups.full_subgroup(E), groups.full_subgroup(F)
    combos = [(full_e, full_e, full_f, full_f)]
    prop_e, prop_f = _first_proper(E), _first_proper(F)
    if prop_e is not None or prop_f is not None:
        combos.append((prop_e or full_e, full_e, full_f, prop_f or full_f))
    for A, B, C, D in combos:
        block_x = _product_subgroup(product, A, C)
        block_y = _product_subgroup(product, B, D)
        for n in config.n_values:
            for m in config.m_values:
                gs = _g_values(block_x, block_y, n, m, config.g_policy)
                run("check_multiplicativity", E, F, A, B, C, D, n, m, gs, product)
