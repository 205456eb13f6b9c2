"""Empirical checks of commutator-probability claims on group batteries.

Each check evaluates one stated identity, bound, or implication on a
concrete instance and returns a Finding with an exact (or tolerance-gated)
witness.  Verdicts are per-instance and never extrapolated: a claim that
fails somewhere is recorded with its counterexample, and a claim whose
hypothesis is not met is recorded as vacuous rather than skipped.  A small
set of claims (HARD_CLAIMS) is machine-verifiable and must never be
violated; the audit command's exit code keys off those.

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
the cached count vectors, returning its findings in g order.

The checks on one cell ``{group, H, K, n, m}`` report shared instance
dicts: R1, P3, C4 and C6 the cell itself (a ``_Cell``), and P2,
T2_CHAIN, T3 and C5 one ``_GInstance`` per g, which the cell's g list
(``_CellGs``) carries to each of them; P4's instances lie over the same
cell.  A ``_GInstance`` points at its ``_Cell``, which holds, once per
style (the sort key and CSV cell, and depth 3 of the report), its own
text and the text of its g instances cut around the digits of g
(``_template``).  ``_cell_writer`` writes a cell from its kept text,
joins head, g and tail for a g instance, and writes every other dict
with ``_dict_writer``.

A ``Finding`` is a slotted record that keeps its witness as a key tuple,
shared by every witness of that layout, and a tuple of values; the
report and CSV writers read the two tuples, not a dict.  The fraction
texts of one ``run_battery`` call are shared through one table
(``_RATIO_TEXTS``), so a text that many witnesses hold is stored once.
"""

from __future__ import annotations

import gc
import json
import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, TextIO

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
    "AuditConfig",
    "AuditReport",
    "named_group_specs",
    "instance_json_writer",
    "witness_json_writer",
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


# One key tuple per distinct witness layout, shared by every Finding whose
# witness has that layout; the checks make a few dozen layouts in all.
_WITNESS_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}


@dataclass(slots=True, init=False)
class Finding:
    """One checked instance: what was tested, the verdict, and the numbers.

    A slotted record that holds its witness as two tuples: the keys, one
    tuple shared by every witness with the same keys in the same order,
    and the values in that order.  ``witness`` is a fresh dict made from
    them on each read, so changing it changes nothing in the finding.
    """

    claim: str
    instance: dict
    verdict: str
    witness_keys: tuple[str, ...]
    witness_values: tuple
    runtime_ms: float

    def __init__(
        self,
        claim: str,
        instance: dict,
        verdict: str,
        witness: dict,
        runtime_ms: float = 0.0,
    ) -> None:
        self.claim = claim
        self.instance = instance
        self.verdict = verdict
        keys = tuple(witness)
        self.witness_keys = _WITNESS_KEYS.setdefault(keys, keys)
        self.witness_values = tuple(witness.values())
        self.runtime_ms = runtime_ms

    @property
    def witness(self) -> dict:
        return dict(zip(self.witness_keys, self.witness_values))

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


# The fraction texts written during one ``run_battery`` call, each kept once
# however many witnesses hold it; None outside such a call.
_RATIO_TEXTS: ContextVar[Optional[dict[str, str]]] = ContextVar(
    "_RATIO_TEXTS", default=None
)


def _ratio(c: int, s: int) -> str:
    """The text of ``Fraction(c, s)`` for ``s > 0``: lowest terms, sign on top."""
    d = math.gcd(c, s)
    text = f"{c // d}/{s // d}"
    texts = _RATIO_TEXTS.get()
    return text if texts is None else texts.setdefault(text, text)


def _mem(S: SubgroupRef) -> list[int]:
    return _member_list(S.members)


@lru_cache(maxsize=4096)
def _member_list(members: tuple[int, ...]) -> list[int]:
    # One list per distinct member tuple, shared by every instance over that
    # subgroup, so the report and the sort key encode it once.  Keyed by
    # the tuple, not the SubgroupRef, so the cache holds no group table.
    # Nothing mutates these lists.
    return list(members)


def _inst(G: GroupTable, **kw) -> dict:
    base: dict = {"group": G.name}
    base.update(kw)
    return base


class _Cell(dict):
    """One cell ``{group, blocks, n, m}``: the instance the per-cell checks report.

    A plain dict to every reader, which also keeps the text of its
    instances once made, one slot per style: as the sort key and CSV cell
    (``_compact_writer``) and at depth 3 of the report
    (``_indented_writer``).  ``compact`` and ``indented`` hold the head and
    the tail around the digits of g in the text of any of the cell's g
    instances, ``compact_text`` and ``indented_text`` the text of the cell
    itself.  See ``_cell_writer``.
    """

    __slots__ = ("compact", "indented", "compact_text", "indented_text")

    def __init__(self, base: dict) -> None:
        super().__init__(base)
        self.compact: Optional[tuple[str, str]] = None
        self.indented: Optional[tuple[str, str]] = None
        self.compact_text: Optional[str] = None
        self.indented_text: Optional[str] = None

    def g_list(self, gs: Sequence[int]) -> _CellGs:
        """``gs`` as a list that carries the cell's instance of each g."""
        insts = []
        for g in gs:
            inst = _GInstance(self, g=g)
            inst.cell = self
            insts.append(inst)
        out = _CellGs(gs)
        out.insts = insts
        return out


class _GInstance(dict):
    """The instance ``{**cell, "g": g}``, a plain dict to every reader."""

    __slots__ = ("cell",)


class _CellGs(list):
    """A g list that carries its cell's instance of each of its g."""

    __slots__ = ("insts",)


def _g_insts(
    G: GroupTable, n: int, m: int, gs: Sequence[int], **blocks
) -> list[dict]:
    """The instance of each g in ``gs``: group, ``blocks``, n, m and g.

    A g list built by ``_Cell.g_list`` (as ``run_battery`` builds them)
    carries its instances, so the checks it is handed to share them; any
    other list gets instances over a new cell.
    """
    if isinstance(gs, _CellGs):
        return gs.insts
    return _Cell({"group": G.name, **blocks, "n": n, "m": m}).g_list(gs).insts


@lru_cache(maxsize=4096)
def _mutual_centralizer(H: SubgroupRef, K: SubgroupRef) -> SubgroupRef:
    return groups.centralizer_of_subgroup(H, K)


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
# each witness fraction is written by ``_ratio``.


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
) -> list[Finding]:
    """p_(e,f)(A x C, B x D) on E x F against p_e(A, B) * p_f(C, D).

    A and B live in E, C and D in F (the x-block is A x C, the y-block
    B x D); (e, f) has id e*|F| + f in the product, and ``gs`` lists such
    ids.  The product space is the product of the factor spaces, so the
    equality is one of counts.
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
    findings = []
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
        findings.append(Finding("P1", inst, verdict, witness))
    return findings


def check_symmetry(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[Finding]:
    """Swap symmetry, plus the extra equalities when H or K is normal.

    The headline verdict keeps the block lengths as written (n stays with
    the x-block after the swap); the reading that also swaps the exponents
    is evaluated into the witness since the two differ for n != m.  Two
    findings per g, P2a then P2b, sharing one instance.
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
    findings = []
    for g, inst in zip(gs, _g_insts(G, n, m, gs, H=_mem(H), K=_mem(K))):
        ginv = int(inv[g])
        lhs = counts[g]
        as_written = swapped_counts[ginv]
        exp_swapped = exp_swapped_counts[ginv]
        lhs_text = _ratio(lhs, size)
        findings.append(
            Finding(
                "P2a",
                inst,
                HOLDS if lhs * swapped_size == as_written * size else VIOLATED,
                {
                    "lhs": lhs_text,
                    "swapped_same_exponents": _ratio(as_written, swapped_size),
                    "swapped_exponents_too": _ratio(exp_swapped, size),
                    "exponent_swapped_equal": lhs == exp_swapped,
                },
            )
        )
        if not (h_normal or k_normal):
            findings.append(
                Finding(
                    "P2b", inst, VACUOUS, {"H_normal": h_normal, "K_normal": k_normal}
                )
            )
            continue
        swapped = swapped_counts[g]
        inverted = counts[ginv]
        ok = lhs * swapped_size == swapped * size and lhs == inverted
        findings.append(
            Finding(
                "P2b",
                inst,
                HOLDS if ok else VIOLATED,
                {
                    "H_normal": h_normal,
                    "K_normal": k_normal,
                    "lhs": lhs_text,
                    "swapped_subgroups": _ratio(swapped, swapped_size),
                    "inverted_element": _ratio(inverted, size),
                },
            )
        )
    return findings


def check_class_formula(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> Finding:
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
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m)
    witness = {
        "predicate": "derived",
        "elements_checked": G.order,
        "paper_predicate_mismatches": sum(
            f != e for f, e in zip(formula, exact_counts)
        ),
    }
    if g is None:
        return Finding(tag, inst, HOLDS, witness)
    witness.update(
        {
            "g": g,
            "formula_value": _ratio(formula[g], size),
            "exact_value": _ratio(exact_counts[g], size),
        }
    )
    if counts[g] != exact_counts[g]:
        witness["histogram_value"] = _ratio(counts[g], size)
    return Finding(tag, inst, VIOLATED, witness)


def check_c4(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> Finding:
    """Closed form for the identity probability under trivial centralizers.

    Hypothesis reading: the x-block support contains at least one
    non-identity value and every such value has |C_K(w)| = 1 (the identity
    is exempt, since its centralizer is all of K).  Anything else is
    vacuous.  Over the space size |H|^n |K|^m the closed form is
    |K|^m + |H|^n - 1.
    """
    G = H.parent
    counts = engine.comm_distribution(H, n)
    info = engine.conjugacy_info(K)
    nontrivial = [w for w, c in enumerate(counts) if c and w != 0]
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m)
    hypothesis = bool(nontrivial) and all(
        int(info.centralizer_order[w]) == 1 for w in nontrivial
    )
    if not hypothesis:
        return Finding(
            "C4",
            inst,
            VACUOUS,
            {"hypothesis": False, "nonidentity_support_count": len(nontrivial)},
        )
    lhs = engine.final_counts(H, K, n, m)[0]
    rhs = H.order**n + K.order**m - 1
    size = engine.space_size(H, K, n, m)
    return Finding(
        "C4",
        inst,
        HOLDS if lhs == rhs else VIOLATED,
        {"hypothesis": True, "lhs": _ratio(lhs, size), "rhs": _ratio(rhs, size)},
    )


def _canonical_partition(class_of: Sequence[int]) -> list[int]:
    remap: dict[int, int] = {}
    out = []
    for c in class_of:
        c = int(c)
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return out


def check_monotonicity(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[Finding]:
    """p_g(H, G) >= p_g(K, G) for H <= K, with the equality condition.

    On equality instances the witness records whether H- and K-conjugation
    partition the parent identically (the stated criterion), canonicalized
    by first occurrence so the class indexings do not matter.
    """
    G = H.parent
    insts = _g_insts(G, n, m, gs, H=_mem(H), K=_mem(K))
    if not set(H.members) <= set(K.members):
        return [
            Finding(
                "P4", inst, PRECONDITION_FAILED, {"reason": "H is not contained in K"}
            )
            for inst in insts
        ]
    full = groups.full_subgroup(G)
    smaller = engine.final_counts(H, full, n, m)
    larger = engine.final_counts(K, full, n, m)
    smaller_size = engine.space_size(H, full, n, m)
    larger_size = engine.space_size(K, full, n, m)
    same: Optional[bool] = None
    findings = []
    for g, inst in zip(gs, insts):
        lhs = smaller[g] * larger_size
        rhs = larger[g] * smaller_size
        witness = {
            "smaller_subgroup_prob": _ratio(smaller[g], smaller_size),
            "larger_subgroup_prob": _ratio(larger[g], larger_size),
        }
        if lhs == rhs:
            if same is None:
                same = _canonical_partition(
                    engine.conjugacy_info(H).class_of
                ) == _canonical_partition(engine.conjugacy_info(K).class_of)
            witness["class_partitions_match"] = same
        findings.append(Finding("P4", inst, HOLDS if lhs >= rhs else VIOLATED, witness))
    return findings


def check_quotient(
    H: SubgroupRef,
    N: SubgroupRef,
    n: int,
    m: int,
    gs: Sequence[int],
    quotient: Optional[tuple[GroupTable, np.ndarray]] = None,
) -> list[Finding]:
    """p_g(H, G) <= p at the image (g to its coset, H to its projection).

    When N meets the nested commutator subgroup trivially, equality is
    required as well; a strict inequality there counts as a violation.
    """
    G = H.parent
    insts = _g_insts(G, n, m, gs, H=_mem(H), N=_mem(N))
    reason = None
    if not groups.is_normal(G, N):
        reason = "N is not normal"
    elif not set(H.members) <= set(N.members):
        reason = "H is not contained in N"
    if reason is not None:
        return [
            Finding("P5", inst, PRECONDITION_FAILED, {"reason": reason})
            for inst in insts
        ]
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
    findings = []
    for g, inst in zip(gs, insts):
        coset = int(proj[g])
        lhs = sub[g] * quo_size
        rhs = quo[coset] * sub_size
        ok = lhs <= rhs and (not equality_required or lhs == rhs)
        witness = {
            "subgroup_prob": _ratio(sub[g], sub_size),
            "quotient_prob": _ratio(quo[coset], quo_size),
            "intersection_order": len(intersection),
            "equality_required": equality_required,
        }
        findings.append(Finding("P5", inst, HOLDS if ok else VIOLATED, witness))
    return findings


def check_chain(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[Finding]:
    """The four-link probability chain, each link witnessed separately.

    The last two links, between identity probabilities, are the same for
    every g of the cell.
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
    identity_links = [
        pair_id * ambient_size <= ambient_id * pair_size,
        ambient_id * self_size <= self_id * ambient_size,
    ]
    pair_id_text = _ratio(pair_id, pair_size)
    ambient_id_text = _ratio(ambient_id, ambient_size)
    self_id_text = _ratio(self_id, self_size)
    findings = []
    for g, inst in zip(gs, _g_insts(G, n, m, gs, H=_mem(H), K=_mem(K))):
        links = [
            whole[g] * pair_size <= pair[g] * whole_size,
            pair[g] <= pair_id,
            *identity_links,
        ]
        witness = {
            "whole_group": _ratio(whole[g], whole_size),
            "pair": _ratio(pair[g], pair_size),
            "pair_identity": pair_id_text,
            "ambient_identity": ambient_id_text,
            "self_identity": self_id_text,
            "links_hold": links,
        }
        verdict = HOLDS if all(links) else VIOLATED
        findings.append(Finding("T2_CHAIN", inst, verdict, witness))
    return findings


def check_c5(
    H: SubgroupRef, K: SubgroupRef, n: int, gs: Sequence[int]
) -> list[Finding]:
    """(2^n - 1)/2^n bound at m = 1 under a trivial ambient center.

    Tested as stated (hypothesis on Z(G), taken as C_G(G)); the witness
    also evaluates the variant hypothesis Z(H) = 1, which the surrounding
    results suggest, without letting it influence the verdict.
    """
    G = H.parent
    full = groups.full_subgroup(G)
    z_g = _mutual_centralizer(full, full)
    z_h = _mutual_centralizer(H, H)
    counts = engine.final_counts(H, K, n, 1)
    size = engine.space_size(H, K, n, 1)
    bound_num, bound_den = 2**n - 1, 2**n
    bound = _ratio(bound_num, bound_den)
    findings = []
    for g, inst in zip(gs, _g_insts(G, n, 1, gs, H=_mem(H), K=_mem(K))):
        below = counts[g] * bound_den <= bound_num * size
        witness = {
            "lhs": _ratio(counts[g], size),
            "bound": bound,
            "center_order": z_g.order,
            "subgroup_center_order": z_h.order,
        }
        if z_h.is_trivial:
            witness["variant_subgroup_center_holds"] = below
        if not z_g.is_trivial:
            verdict = VACUOUS
        else:
            verdict = HOLDS if below else VIOLATED
        findings.append(Finding("C5", inst, verdict, witness))
    return findings


def check_t3(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, gs: Sequence[int]
) -> list[Finding]:
    """Both smallest-prime bounds; two findings per g, T3i then T3ii.

    The T3ii bound has the space size |H|^n |K|^m as its denominator, so
    it is compared with the count directly.
    """
    G = H.parent
    insts = _g_insts(G, n, m, gs, H=_mem(H), K=_mem(K))
    if G.order == 1:
        reason = "no prime divides the trivial group order"
        return [
            Finding(tag, inst, PRECONDITION_FAILED, {"reason": reason})
            for inst in insts
            for tag in ("T3i", "T3ii")
        ]
    p = groups.smallest_prime_divisor(G)
    counts = engine.final_counts(H, K, n, m)
    size = engine.space_size(H, K, n, m)
    upper_num, upper_den = 2 * p**n + p - 2, p ** (m + n)
    upper = _ratio(upper_num, upper_den)
    y = engine.y_set_size(H, K, n)
    c = _mutual_centralizer(H, K).order
    lower_num = (1 - p) * y + p * H.order**n - (K.order + p) * c**n
    lower = _ratio(lower_num, size)
    findings = []
    for g, inst in zip(gs, insts):
        lhs = counts[g]
        lhs_text = _ratio(lhs, size)
        findings.append(
            Finding(
                "T3i",
                inst,
                HOLDS if lhs * upper_den <= upper_num * size else VIOLATED,
                {"lhs": lhs_text, "bound": upper, "prime": p},
            )
        )
        findings.append(
            Finding(
                "T3ii",
                inst,
                HOLDS if lhs >= lower_num else VIOLATED,
                {
                    "lhs": lhs_text,
                    "bound": lower,
                    "prime": p,
                    "y_tuple_count": y,
                    "mutual_centralizer_order": c,
                },
            )
        )
    return findings


def check_c6(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> Finding:
    """Index restriction on instances attaining the T3i bound.

    The comparison is done before extracting the n-th root, as exact
    rationals: |H:C_H(K)|^n against the stated right side (which can be
    negative, in which case equality instances can only violate).
    """
    G = H.parent
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m)
    if G.order == 1:
        return Finding(
            "C6",
            inst,
            PRECONDITION_FAILED,
            {"reason": "no prime divides the trivial group order"},
        )
    p = groups.smallest_prime_divisor(G)
    upper_num, upper_den = 2 * p**n + p - 2, p ** (m + n)
    upper = _ratio(upper_num, upper_den)
    target = upper_num * engine.space_size(H, K, n, m)
    counts = engine.final_counts(H, K, n, m)
    equality_gs = [g for g, c in enumerate(counts) if c * upper_den == target]
    if not equality_gs:
        return Finding("C6", inst, VACUOUS, {"bound": upper, "equality_elements": []})
    index = H.order // _mutual_centralizer(H, K).order
    rhs_num = 2 * (p ** (n + 1) - p**3 + p) - p**2
    rhs_den = 2 * (2 * p**2 + p - 2)
    holds = index**n * rhs_den <= rhs_num
    return Finding(
        "C6",
        inst,
        HOLDS if holds else VIOLATED,
        {
            "bound": upper,
            "equality_elements": equality_gs[:8],
            "index": index,
            "index_power": index**n,
            "rhs_power": _ratio(rhs_num, rhs_den),
        },
    )


def check_frob_bound(H: SubgroupRef, table: chartab.CharacterTable) -> Finding:
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
    inst = _inst(G, H=_mem(H))
    witness = {
        "bound": _ratio(bound_num, bound_den),
        "index": index,
        "violating_elements": violating[:8],
        "equality_elements": equality_gs[:8],
        "all_characters_vanish_outside": all_vanish,
        "equality_iff_vanishing_consistent": bool(equality_gs) == all_vanish,
    }
    return Finding("FROB_BOUND", inst, HOLDS if not violating else VIOLATED, witness)


def check_zeta_character(
    H: SubgroupRef, n: int, m: int, table: chartab.CharacterTable
) -> Finding:
    """Whether the per-g solution count decomposes as a character.

    The counts must first be constant on conjugacy classes; when they are
    not (possible for non-normal H), the instance is recorded as a
    precondition failure, not a violation.
    """
    G = table.group
    counts = engine.final_counts(H, groups.full_subgroup(G), n, m)
    inst = _inst(G, H=_mem(H), n=n, m=m)
    try:
        cf = chartab.class_function_from_counts(table, counts)
    except NotClassConstant as exc:
        return Finding("ZETA_CHAR", inst, PRECONDITION_FAILED, {"reason": str(exc)})
    ok, report = chartab.is_character(cf, table)
    witness = {
        "multiplicities": report["rounded"],
        "max_integrality_deviation": report["max_integrality_deviation"],
        "max_reconstruction_deviation": report["max_reconstruction_deviation"],
        "nonnegative": report["nonnegative"],
    }
    return Finding("ZETA_CHAR", inst, HOLDS if ok else VIOLATED, witness)


def check_remark_r1(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int
) -> list[Finding]:
    """Support and triviality characterizations of the probability.

    The value set is recomputed by plain set reachability (commutator
    blocks as the brute oracle forms them, no counting), so the comparison
    does not share the histogram recurrence with the side being tested.
    """
    G = H.parent
    counts = engine.final_counts(H, K, n, m)
    support = {g for g, c in enumerate(counts) if c}
    reach = set(_reachable_values(H, K, n, m).tolist())
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m)
    f_support = Finding(
        "R1a",
        inst,
        HOLDS if support == reach else VIOLATED,
        {
            "support_size": len(support),
            "reachable_size": len(reach),
            "support_minus_reachable": sorted(support - reach)[:8],
            "reachable_minus_support": sorted(reach - support)[:8],
        },
    )
    size = engine.space_size(H, K, n, m)
    value_subgroup = engine.nested_commutator_subgroup(H, K, n, m)
    ok = (counts[0] == size) == value_subgroup.is_trivial
    f_trivial = Finding(
        "R1b",
        inst,
        HOLDS if ok else VIOLATED,
        {
            "prob_identity": _ratio(counts[0], size),
            "value_subgroup_order": value_subgroup.order,
        },
    )
    return [f_support, f_trivial]


def _reachable_values(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> np.ndarray:
    """Sorted ids of every [x1, ..., xn, y1, ..., ym] over H^n x K^m.

    Each slot replaces the value set by the commutators of its values with
    the slot's subgroup, formed in row chunks of ``engine._comm_block`` and
    gathered in a mask over the group.
    """
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


def check_eq3(table: chartab.CharacterTable) -> Finding:
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
    return Finding(
        "EQ3",
        {"group": G.name},
        HOLDS if worst < chartab.FORMULA_TOL else VIOLATED,
        {
            "max_deviation": worst,
            "worst_element": worst_g,
            "tolerance": chartab.FORMULA_TOL,
        },
    )


def check_eq4(table: chartab.CharacterTable) -> Finding:
    """Irreducible count vs class count, and d(G) = k(G)/|G| exactly."""
    G = table.group
    full = groups.full_subgroup(G)
    k = len(engine.conjugacy_info(full).classes)
    # d(G) is the commuting-pair count over |G|^2.
    commuting = engine.final_counts(full, full, 1, 1)[0]
    size = engine.space_size(full, full, 1, 1)
    ok = table.n_classes == k and commuting * G.order == k * size
    return Finding(
        "EQ4",
        {"group": G.name},
        HOLDS if ok else VIOLATED,
        {
            "irreducible_count": table.n_classes,
            "class_count": k,
            "commuting_probability": _ratio(commuting, size),
            "class_ratio": _ratio(k, G.order),
        },
    )


def check_eq7(H: SubgroupRef, table: chartab.CharacterTable) -> Finding:
    """Restriction-weighted character formula against exact counts, all g."""
    G = table.group
    inst = _inst(G, H=_mem(H))
    if not groups.is_normal(G, H):
        return Finding("EQ7", inst, PRECONDITION_FAILED, {"reason": "H is not normal"})
    full = groups.full_subgroup(G)
    denom = engine.space_size(H, full, 1, 1)
    counts = engine.final_counts(H, full, 1, 1)
    worst, worst_g = 0.0, 0
    for g in range(G.order):
        exact = counts[g] / denom
        dev = abs(chartab.prob_char_relative(G, table, H, g) - exact)
        if dev > worst:
            worst, worst_g = dev, g
    return Finding(
        "EQ7",
        inst,
        HOLDS if worst < chartab.FORMULA_TOL else VIOLATED,
        {
            "max_deviation": worst,
            "worst_element": worst_g,
            "tolerance": chartab.FORMULA_TOL,
        },
    )


def check_psi(table: chartab.CharacterTable) -> Finding:
    """Pair-count decomposition: multiplicities must be |G|/degree."""
    G = table.group
    cf, mults = chartab.pair_count_class_function(table)
    expected = np.asarray([G.order / d for d in table.degrees])
    deviation = float(np.abs(mults - expected).max())
    ok_char, report = chartab.is_character(cf, table)
    ok = deviation < chartab.ROUNDING_TOL and ok_char
    return Finding(
        "PSI",
        {"group": G.name},
        HOLDS if ok else VIOLATED,
        {
            "max_multiplicity_deviation": deviation,
            "is_character": ok_char,
            "multiplicities": report["rounded"],
        },
    )


def named_group_specs(max_order: int = 24) -> tuple[str, ...]:
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
    subgroup_enum_cap: int = 24

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
    return AuditConfig(groups=named_group_specs(24))


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

    ``write`` is the route that writes the report, one finding at a time;
    ``dumps`` joins the same pieces into one string.  Both give the text of
    ``jsontext.dumps(self.to_json(include_runtime))``.
    """

    config: AuditConfig
    summary: dict
    findings: list[Finding]

    def hard_violations(self) -> list[Finding]:
        return [
            f
            for f in self.findings
            if f.claim in HARD_CLAIMS and f.verdict == VIOLATED
        ]

    def _head(self) -> dict:
        present = sorted({f.claim for f in self.findings})
        return {
            "config_echo": self.config.to_json(),
            "seed": self.config.seed,
            "legend": {c: CLAIM_INFO[c] for c in present},
            "summary": self.summary,
        }

    def to_json(self, include_runtime: bool = False) -> dict:
        return {
            **self._head(),
            "findings": [f.to_json(include_runtime) for f in self.findings],
        }

    def write(self, fp: TextIO, include_runtime: bool = False) -> None:
        """Write the report to ``fp``, holding one finding's text at a time."""
        for piece in self._pieces(include_runtime):
            fp.write(piece)

    def dumps(self, include_runtime: bool = False) -> str:
        """The text ``write`` writes, as one string."""
        return "".join(self._pieces(include_runtime))

    def _pieces(self, include_runtime: bool) -> Iterator[str]:
        # The top-level keys in sorted order, with the findings list
        # between "config_echo" and "legend", one piece per finding.
        head = self._head()
        yield (
            '{\n "config_echo": '
            + jsontext.encode(head["config_echo"], "\n ")
            + ',\n "findings": '
        )
        if not self.findings:
            yield "[]"
        else:
            sep = "[\n  "
            for text in _finding_texts(self.findings, include_runtime):
                yield sep + text
                sep = ",\n  "
            yield "\n ]"
        for key in ("legend", "seed", "summary"):
            yield f',\n "{key}": ' + jsontext.encode(head[key], "\n ")
        yield "\n}"


def _finding_texts(
    findings: list[Finding], include_runtime: bool
) -> Iterator[str]:
    """The text of each finding at depth 2 of the report.

    A finding is written from its fixed key layout, in sorted key order:
    ``claim``, ``instance``, [``runtime_ms``], ``verdict``, ``witness``,
    with its instance (through ``_cell_writer``) and witness at depth 3.
    An instance's member lists are shared between findings (see
    ``_member_list``), so each is encoded once per call.  The witness is
    written from the finding's key and value tuples (``_items_writer``).
    """
    quote = jsontext.SCALARS[str]
    nl = "\n    "
    instance_text = _cell_writer(_indented_writer(), "indented")
    witness_text = _items_writer(nl, ",", "\n   }", lambda v: jsontext.encode(v, nl))
    for f in findings:
        runtime = (
            ',\n   "runtime_ms": ' + jsontext.encode(round(f.runtime_ms, 3), "")
            if include_runtime
            else ""
        )
        yield (
            '{\n   "claim": '
            + quote(f.claim)
            + ',\n   "instance": '
            + instance_text(f.instance)
            + runtime
            + ',\n   "verdict": '
            + quote(f.verdict)
            + ',\n   "witness": '
            + witness_text(f.witness_keys, f.witness_values)
            + "\n  }"
        )


def _compact_writer() -> Callable[[dict], str]:
    """A writer of ``json.dumps(d, sort_keys=True)`` for instance dicts."""
    return _dict_writer(
        "", ", ", "}", _by_identity(json.JSONEncoder(sort_keys=True).encode)
    )


def _indented_writer() -> Callable[[dict], str]:
    """A writer of instance dicts at depth 3 of the report.

    Its text of ``d`` is ``jsontext.encode(d, "\\n   ")``.
    """
    nl = "\n    "
    return _dict_writer(
        nl, ",", "\n   }", _by_identity(lambda v: jsontext.encode(v, nl))
    )


def _cell_writer(write: Callable[[dict], str], style: str) -> Callable[[dict], str]:
    """``write`` for instances, writing each cell's instances once or from a template.

    The text of a cell is made once by ``write`` and kept in the cell's
    ``<style>_text`` slot.  The instance of one g of a cell is the head
    and the tail ``_template`` cuts from ``write`` once per cell, kept in
    the cell's ``style`` slot, with the digits of g in between.  Any other
    instance goes through ``write``.
    """
    own = style + "_text"

    def text(inst: dict) -> str:
        kind = type(inst)
        if kind is _GInstance:
            cell = inst.cell
            cut = getattr(cell, style)
            if cut is None:
                cut = _template(write, cell)
                setattr(cell, style, cut)
            # One f-string makes one string; g is an int, written as repr.
            return f"{cut[0]}{inst['g']}{cut[1]}"
        if kind is _Cell:
            whole = getattr(inst, own)
            if whole is None:
                whole = write(inst)
                setattr(inst, own, whole)
            return whole
        return write(inst)

    return text


def _template(text: Callable[[dict], str], base: dict) -> tuple[str, str]:
    """The head and the tail of ``text({**base, "g": g})`` around g's digits.

    Cut from ``text`` of the instance with g = 0, in which ``"g": 0``
    occurs once: ``"g"`` is the one key of that name, and a quote inside
    a string value is written escaped.
    """
    head, _, tail = text({**base, "g": 0}).partition('"g": 0')
    return head + '"g": ', tail


def _items_writer(
    indent: str, item_sep: str, close: str, container: Callable[[object], str]
) -> Callable[[tuple[str, ...], tuple], str]:
    """A writer of the JSON text of the dict ``dict(zip(keys, values))``.

    The dict's keys are ``str``, and its items are written in sorted key
    order.  Each item is ``indent``, the key, ``": "`` and the value, the
    items are joined by ``item_sep`` and followed by ``close``.  Scalar
    values go through ``jsontext.SCALARS``, which writes them as the
    compact and the indented standard-library forms both do; any other
    value through ``container``.  The sorted key order is worked out once
    per distinct key tuple, and each value is then read by its position.
    """
    scalars = jsontext.SCALARS
    quote = scalars[str]
    layouts: dict[tuple[str, ...], list[tuple[int, str]]] = {}

    def text(keys: tuple[str, ...], values: tuple) -> str:
        if not keys:
            return "{}"
        layout = layouts.get(keys)
        if layout is None:
            layout = layouts[keys] = [
                (keys.index(k), indent + quote(k) + ": ") for k in sorted(keys)
            ]
        parts = []
        for i, prefix in layout:
            v = values[i]
            w = scalars.get(type(v))
            parts.append(prefix + (w(v) if w is not None else container(v)))
        return "{" + item_sep.join(parts) + close

    return text


def _dict_writer(
    indent: str, item_sep: str, close: str, container: Callable[[object], str]
) -> Callable[[dict], str]:
    """``_items_writer`` for dicts with ``str`` keys."""
    items = _items_writer(indent, item_sep, close, container)
    return lambda d: items(tuple(d), tuple(d.values()))


def _by_identity(encode: Callable[[object], str]) -> Callable[[object], str]:
    """``encode``, run once per object; for objects nothing mutates."""
    # id -> (object, text); holding the object keeps its id from being reused.
    seen: dict[int, tuple[object, str]] = {}

    def text(v: object) -> str:
        hit = seen.get(id(v))
        if hit is None:
            hit = seen[id(v)] = (v, encode(v))
        return hit[1]

    return text


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


def _g_values(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, config: AuditConfig
) -> list[int]:
    """Elements to test: the support, the identity, one non-support id."""
    G = H.parent
    if config.g_policy == "all":
        return list(range(G.order))
    counts = engine.final_counts(H, K, n, m)
    chosen = {g for g, c in enumerate(counts) if c}
    chosen.add(0)
    for g in range(G.order):
        if not counts[g]:
            chosen.add(g)
            break
    return sorted(chosen)


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

def instance_json_writer() -> Callable[[dict], str]:
    """A writer of ``json.dumps(instance, sort_keys=True)`` for instances."""
    return _cell_writer(_compact_writer(), "compact")


def witness_json_writer() -> Callable[[Finding], str]:
    """A writer of ``json.dumps(finding.witness, sort_keys=True)`` for findings.

    It writes from the finding's key and value tuples, without the dict.
    """
    items = _items_writer("", ", ", "}", json.JSONEncoder(sort_keys=True).encode)
    return lambda f: items(f.witness_keys, f.witness_values)


def _sort_findings(findings: list[Finding]) -> None:
    """Sort by claim, then by the text of ``json.dumps(instance, sort_keys=True)``.

    The findings go into one list per claim, and each list is sorted by
    its instance texts alone, as ``instance_json_writer`` writes them.
    The texts are made one claim at a time, and each claim's are dropped
    before the next claim's are made.  A cell keeps its own text (see
    ``_cell_writer``), so it is written once however many claims report
    it; a g instance's text is joined from its cell's template.
    """
    instance_text = instance_json_writer()
    by_claim: dict[str, list[Finding]] = {}
    for f in findings:
        bucket = by_claim.get(f.claim)
        if bucket is None:
            bucket = by_claim[f.claim] = []
        bucket.append(f)
    findings.clear()
    for claim in sorted(by_claim):
        bucket = by_claim.pop(claim)
        bucket.sort(key=lambda f: instance_text(f.instance))
        findings.extend(bucket)


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
def _ratio_texts_shared() -> Iterator[None]:
    """Share ``_ratio``'s texts through one table, dropped on exit."""
    token = _RATIO_TEXTS.set({})
    try:
        yield
    finally:
        _RATIO_TEXTS.reset(token)


def run_battery(config: AuditConfig) -> AuditReport:
    """Execute every selected check on every instance the config describes.

    Each instance shape of a group is walked once, calling every selected
    check of that shape (see the module docstring).  The checks on one
    (H, K, n, m) cell report one instance dict: R1, P3, C4 and C6 the
    ``_Cell`` itself, and P2, T2_CHAIN, T3 and C5 the instances that the
    cell's g list carries, one per g; P4 gets a g list of its own over the
    same cell.  Instance generation is fully deterministic (ordering comes
    from the config and from element ids), so a fixed config yields a
    byte-identical serialized report; per-finding timings are measured but
    excluded from serialization unless explicitly requested.
    """
    config.validate()
    selected = set(config.claims)
    active = {
        name for name, tags in _CHECK_CLAIMS.items() if selected.intersection(tags)
    }
    per_g = [name for name in _G_CHECKS if name in active]
    cells = [(n, m) for n in config.n_values for m in config.m_values]
    # C5 reads the cells at m = 1, which ``cells`` lacks when 1 is no m value.
    cell_keys = list(dict.fromkeys(cells + [(n, 1) for n in config.n_values]))
    findings: list[Finding] = []

    def run(name: str, *args, instance: Optional[dict] = None) -> None:
        if name not in active:
            return
        # Looked up on the module at each call, so a check replaced there
        # (as perfbench's tracer does) sees every call.
        check = globals()[name]
        start = time.perf_counter()
        produced = check(*args)
        elapsed = (time.perf_counter() - start) * 1000.0
        batch = produced if isinstance(produced, list) else [produced]
        share = elapsed / len(batch)
        for f in batch:
            f.runtime_ms = share
            if instance is not None and f.instance == instance:
                # The check built its own copy of the cell's dict.
                f.instance = instance
            if f.claim in selected:
                findings.append(f)

    # Findings accumulate for the whole walk and form no reference cycles,
    # so full cyclic collections during it only re-traverse them: about a
    # tenth of the default battery's time.  The few cycles the walk does
    # leave are standard-library closures (``ast.literal_eval``,
    # ``inspect``), a few hundred objects on the default battery, freed by
    # the first collection after the pause.
    with _collector_paused(), _ratio_texts_shared():
        for spec in config.groups:
            G = groupspec.parse_group_spec(spec, max_order=config.max_order)
            pool = _subgroup_pool(G, config)
            full = groups.full_subgroup(G)
            for H in pool:
                for K in pool:
                    hk = {
                        (n, m): _Cell(_inst(G, H=_mem(H), K=_mem(K), n=n, m=m))
                        for n, m in cell_keys
                    }
                    g_lists: dict[tuple[int, int], _CellGs] = {}
                    for n, m in cells:
                        cell = hk[n, m]
                        for name in _CELL_CHECKS:
                            run(name, H, K, n, m, instance=cell)
                        if per_g:
                            gs = g_lists[n, m] = cell.g_list(
                                _g_values(H, K, n, m, config)
                            )
                            for name in per_g:
                                run(name, H, K, n, m, gs)
                    nested = set(H.members) <= set(K.members)
                    if "check_monotonicity" in active and nested:
                        for n, m in cells:
                            gs = hk[n, m].g_list(_g_values(H, full, n, m, config))
                            run("check_monotonicity", H, K, n, m, gs)
                    if "check_c5" in active:
                        for n in config.n_values:
                            gs = g_lists.get((n, 1))
                            if gs is None:
                                gs = hk[n, 1].g_list(_g_values(H, K, n, 1, config))
                            run("check_c5", H, K, n, gs)
            if "check_quotient" in active:
                for N in pool:
                    if not groups.is_normal(G, N):
                        continue
                    quotient = groups.quotient_group(G, N)
                    for H in pool:
                        if set(H.members) <= set(N.members):
                            for n, m in cells:
                                gs = _g_values(H, full, n, m, config)
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

        if "check_multiplicativity" in active:
            for left_spec, right_spec in config.product_pairs:
                E = groupspec.parse_group_spec(left_spec, max_order=config.max_order)
                F = groupspec.parse_group_spec(right_spec, max_order=config.max_order)
                product = groups.direct_product(E, F, max_order=config.max_order)
                full_e, full_f = groups.full_subgroup(E), groups.full_subgroup(F)
                combos = [(full_e, full_e, full_f, full_f)]
                prop_e, prop_f = _first_proper(E), _first_proper(F)
                if prop_e is not None or prop_f is not None:
                    combos.append(
                        (prop_e or full_e, full_e, full_f, prop_f or full_f)
                    )
                for A, B, C, D in combos:
                    block_x = _product_subgroup(product, A, C)
                    block_y = _product_subgroup(product, B, D)
                    for n, m in cells:
                        gs = _g_values(block_x, block_y, n, m, config)
                        run(
                            "check_multiplicativity",
                            E, F, A, B, C, D, n, m, gs, product,
                        )

        _sort_findings(findings)
    summary: dict[str, dict[str, int]] = {}
    for f in findings:
        per_claim = summary.setdefault(f.claim, {})
        per_claim[f.verdict] = per_claim.get(f.verdict, 0) + 1
    return AuditReport(config=config, summary=summary, findings=findings)
