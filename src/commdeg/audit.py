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
shape:

- per (H, K, n, m) cell of the subgroup pool: R1, P3, C4, C6;
- per g of that cell: P2, T2_CHAIN, T3;
- per nested pair H <= K, and per g of (H, G, n, m): P4;
- per normal N and H <= N, and per g of (H, G, n, m): P5;
- per n at m = 1, and per g of (H, K, n, 1): C5;
- per subgroup, with the group's character table: FROB_BOUND, ZETA_CHAR
  (per (n, m)), EQ7 (normal subgroups only);
- per group: EQ3, EQ4, PSI;

then P1 on the configured product pairs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import chartab, engine, groups, groupspec, jsontext, lattice
from .engine import CommParams
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


@dataclass
class Finding:
    """One checked instance: what was tested, the verdict, and the numbers."""

    claim: str
    instance: dict
    verdict: str
    witness: dict
    runtime_ms: float = 0.0

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


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _mem(S: SubgroupRef) -> list[int]:
    return [int(x) for x in S.members]


def _inst(G: GroupTable, **kw) -> dict:
    base: dict = {"group": G.name}
    base.update(kw)
    return base


def _p(H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int) -> Fraction:
    return engine.prob_fast(CommParams(H, K, n, m, g)).value


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


def check_multiplicativity(
    E: GroupTable,
    F: GroupTable,
    A: SubgroupRef,
    B: SubgroupRef,
    C: SubgroupRef,
    D: SubgroupRef,
    n: int,
    m: int,
    e: int,
    f: int,
    product: Optional[GroupTable] = None,
) -> Finding:
    """p_(e,f)(A x C, B x D) on E x F against p_e(A, B) * p_f(C, D).

    A and B live in E, C and D in F (the x-block is A x C, the y-block
    B x D); (a, c) has id a*|F| + c in the product.
    """
    if product is None:
        product = groups.direct_product(E, F)
    block_x = _product_subgroup(product, A, C)
    block_y = _product_subgroup(product, B, D)
    lhs = _p(block_x, block_y, n, m, e * F.order + f)
    left = _p(A, B, n, m, e)
    right = _p(C, D, n, m, f)
    inst = {
        "group": product.name,
        "left_group": E.name,
        "right_group": F.name,
        "A": _mem(A),
        "B": _mem(B),
        "C": _mem(C),
        "D": _mem(D),
        "n": n,
        "m": m,
        "e": e,
        "f": f,
    }
    witness = {
        "product_prob": _frac(lhs),
        "left_prob": _frac(left),
        "right_prob": _frac(right),
        "factor_product": _frac(left * right),
    }
    return Finding("P1", inst, HOLDS if lhs == left * right else VIOLATED, witness)


def check_symmetry(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int
) -> list[Finding]:
    """Swap symmetry, plus the extra equalities when H or K is normal.

    The headline verdict keeps the block lengths as written (n stays with
    the x-block after the swap); the reading that also swaps the exponents
    is evaluated into the witness since the two differ for n != m.
    """
    G = H.parent
    ginv = G.inverse(g)
    lhs = _p(H, K, n, m, g)
    as_written = _p(K, H, n, m, ginv)
    exp_swapped = _p(K, H, m, n, ginv)
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m, g=g)
    f_a = Finding(
        "P2a",
        inst,
        HOLDS if lhs == as_written else VIOLATED,
        {
            "lhs": _frac(lhs),
            "swapped_same_exponents": _frac(as_written),
            "swapped_exponents_too": _frac(exp_swapped),
            "exponent_swapped_equal": lhs == exp_swapped,
        },
    )
    h_normal = groups.is_normal(G, H)
    k_normal = groups.is_normal(G, K)
    if not (h_normal or k_normal):
        f_b = Finding(
            "P2b", inst, VACUOUS, {"H_normal": h_normal, "K_normal": k_normal}
        )
    else:
        swapped = _p(K, H, n, m, g)
        inverted = _p(H, K, n, m, ginv)
        ok = lhs == swapped and lhs == inverted
        f_b = Finding(
            "P2b",
            inst,
            HOLDS if ok else VIOLATED,
            {
                "H_normal": h_normal,
                "K_normal": k_normal,
                "lhs": _frac(lhs),
                "swapped_subgroups": _frac(swapped),
                "inverted_element": _frac(inverted),
            },
        )
    return [f_a, f_b]


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
    size = H.order**n * K.order**m
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
            "formula_value": _frac(Fraction(formula[g], size)),
            "exact_value": _frac(Fraction(exact_counts[g], size)),
        }
    )
    if counts[g] != exact_counts[g]:
        witness["histogram_value"] = _frac(Fraction(counts[g], size))
    return Finding(tag, inst, VIOLATED, witness)


def check_c4(H: SubgroupRef, K: SubgroupRef, n: int, m: int) -> Finding:
    """Closed form for the identity probability under trivial centralizers.

    Hypothesis reading: the x-block support contains at least one
    non-identity value and every such value has |C_K(w)| = 1 (the identity
    is exempt, since its centralizer is all of K).  Anything else is
    vacuous.
    """
    G = H.parent
    dist = engine.comm_distribution(H, n)
    info = engine.conjugacy_info(K)
    nontrivial = [w for w in dist.support() if w != 0]
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
    lhs = _p(H, K, n, m, 0)
    rhs = (
        Fraction(1, H.order**n)
        + Fraction(1, K.order**m)
        - Fraction(1, H.order**n * K.order**m)
    )
    return Finding(
        "C4",
        inst,
        HOLDS if lhs == rhs else VIOLATED,
        {"hypothesis": True, "lhs": _frac(lhs), "rhs": _frac(rhs)},
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
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int
) -> Finding:
    """p_g(H, G) >= p_g(K, G) for H <= K, with the equality condition.

    On equality instances the witness records whether H- and K-conjugation
    partition the parent identically (the stated criterion), canonicalized
    by first occurrence so the class indexings do not matter.
    """
    G = H.parent
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m, g=g)
    if not set(H.members) <= set(K.members):
        return Finding(
            "P4", inst, PRECONDITION_FAILED, {"reason": "H is not contained in K"}
        )
    full = groups.full_subgroup(G)
    lhs = _p(H, full, n, m, g)
    rhs = _p(K, full, n, m, g)
    witness = {
        "smaller_subgroup_prob": _frac(lhs),
        "larger_subgroup_prob": _frac(rhs),
    }
    if lhs == rhs:
        same = _canonical_partition(
            engine.conjugacy_info(H).class_of
        ) == _canonical_partition(engine.conjugacy_info(K).class_of)
        witness["class_partitions_match"] = same
    return Finding("P4", inst, HOLDS if lhs >= rhs else VIOLATED, witness)


def check_quotient(
    H: SubgroupRef,
    N: SubgroupRef,
    n: int,
    m: int,
    g: int,
    quotient: Optional[tuple[GroupTable, np.ndarray]] = None,
) -> Finding:
    """p_g(H, G) <= p at the image (g to its coset, H to its projection).

    When N meets the nested commutator subgroup trivially, equality is
    required as well; a strict inequality there counts as a violation.
    """
    G = H.parent
    inst = _inst(G, H=_mem(H), N=_mem(N), n=n, m=m, g=g)
    if not groups.is_normal(G, N):
        return Finding("P5", inst, PRECONDITION_FAILED, {"reason": "N is not normal"})
    if not set(H.members) <= set(N.members):
        return Finding(
            "P5", inst, PRECONDITION_FAILED, {"reason": "H is not contained in N"}
        )
    Q, proj = quotient if quotient is not None else groups.quotient_group(G, N)
    full = groups.full_subgroup(G)
    lhs = _p(H, full, n, m, g)
    h_image = SubgroupRef(Q, {int(proj[x]) for x in H.members})
    rhs = _p(h_image, groups.full_subgroup(Q), n, m, int(proj[g]))
    nested = engine.nested_commutator_subgroup(H, full, n, m)
    intersection = sorted(set(N.members) & set(nested.members))
    equality_required = intersection == [0]
    ok = lhs <= rhs and (not equality_required or lhs == rhs)
    witness = {
        "subgroup_prob": _frac(lhs),
        "quotient_prob": _frac(rhs),
        "intersection_order": len(intersection),
        "equality_required": equality_required,
    }
    return Finding("P5", inst, HOLDS if ok else VIOLATED, witness)


def check_chain(H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int) -> Finding:
    """The four-link probability chain, each link witnessed separately."""
    G = H.parent
    full = groups.full_subgroup(G)
    whole = _p(full, full, n, m, g)
    pair = _p(H, K, n, m, g)
    pair_id = _p(H, K, n, m, 0)
    ambient_id = _p(H, full, n, m, 0)
    self_id = _p(H, H, n, m, 0)
    links = [whole <= pair, pair <= pair_id, pair_id <= ambient_id, ambient_id <= self_id]
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m, g=g)
    witness = {
        "whole_group": _frac(whole),
        "pair": _frac(pair),
        "pair_identity": _frac(pair_id),
        "ambient_identity": _frac(ambient_id),
        "self_identity": _frac(self_id),
        "links_hold": links,
    }
    return Finding("T2_CHAIN", inst, HOLDS if all(links) else VIOLATED, witness)


def check_c5(H: SubgroupRef, K: SubgroupRef, n: int, g: int) -> Finding:
    """(2^n - 1)/2^n bound at m = 1 under a trivial ambient center.

    Tested as stated (hypothesis on Z(G), taken as C_G(G)); the witness
    also evaluates the variant hypothesis Z(H) = 1, which the surrounding
    results suggest, without letting it influence the verdict.
    """
    G = H.parent
    full = groups.full_subgroup(G)
    z_g = _mutual_centralizer(full, full)
    z_h = _mutual_centralizer(H, H)
    lhs = _p(H, K, n, 1, g)
    bound = Fraction(2**n - 1, 2**n)
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=1, g=g)
    witness = {
        "lhs": _frac(lhs),
        "bound": _frac(bound),
        "center_order": z_g.order,
        "subgroup_center_order": z_h.order,
    }
    if z_h.is_trivial:
        witness["variant_subgroup_center_holds"] = bool(lhs <= bound)
    if not z_g.is_trivial:
        return Finding("C5", inst, VACUOUS, witness)
    return Finding("C5", inst, HOLDS if lhs <= bound else VIOLATED, witness)


def check_t3(
    H: SubgroupRef, K: SubgroupRef, n: int, m: int, g: int
) -> list[Finding]:
    """Both smallest-prime bounds on one instance."""
    G = H.parent
    inst = _inst(G, H=_mem(H), K=_mem(K), n=n, m=m, g=g)
    if G.order == 1:
        reason = {"reason": "no prime divides the trivial group order"}
        return [
            Finding("T3i", inst, PRECONDITION_FAILED, dict(reason)),
            Finding("T3ii", inst, PRECONDITION_FAILED, dict(reason)),
        ]
    p = groups.smallest_prime_divisor(G)
    lhs = _p(H, K, n, m, g)
    upper = Fraction(2 * p**n + p - 2, p ** (m + n))
    f_upper = Finding(
        "T3i",
        inst,
        HOLDS if lhs <= upper else VIOLATED,
        {"lhs": _frac(lhs), "bound": _frac(upper), "prime": p},
    )
    y = engine.y_set_size(H, K, n)
    c = _mutual_centralizer(H, K).order
    lower = Fraction(
        (1 - p) * y + p * H.order**n - (K.order + p) * c**n,
        H.order**n * K.order**m,
    )
    f_lower = Finding(
        "T3ii",
        inst,
        HOLDS if lhs >= lower else VIOLATED,
        {
            "lhs": _frac(lhs),
            "bound": _frac(lower),
            "prime": p,
            "y_tuple_count": y,
            "mutual_centralizer_order": c,
        },
    )
    return [f_upper, f_lower]


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
    upper = Fraction(2 * p**n + p - 2, p ** (m + n))
    size = H.order**n * K.order**m
    counts = engine.final_counts(H, K, n, m)
    equality_gs = [
        g for g in range(G.order) if Fraction(counts[g], size) == upper
    ]
    if not equality_gs:
        return Finding(
            "C6", inst, VACUOUS, {"bound": _frac(upper), "equality_elements": []}
        )
    index = H.order // _mutual_centralizer(H, K).order
    rhs = Fraction(2 * (p ** (n + 1) - p**3 + p) - p**2, 2 * (2 * p**2 + p - 2))
    holds = Fraction(index**n) <= rhs
    return Finding(
        "C6",
        inst,
        HOLDS if holds else VIOLATED,
        {
            "bound": _frac(upper),
            "equality_elements": equality_gs[:8],
            "index": index,
            "index_power": index**n,
            "rhs_power": _frac(rhs),
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
    bound = index * engine.commutativity_degree(G).value
    counts = engine.final_counts(H, full, 1, 1)
    size = H.order * G.order
    values = [Fraction(c, size) for c in counts]
    violating = [g for g, v in enumerate(values) if v > bound]
    equality_gs = [g for g, v in enumerate(values) if v == bound]
    all_vanish = all(
        chartab.vanishes_outside(table, i, H) for i in range(table.n_classes)
    )
    inst = _inst(G, H=_mem(H))
    witness = {
        "bound": _frac(bound),
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

    The value set is recomputed by plain set reachability (element-by-
    element commutators, no counting), so the comparison does not share
    the histogram recurrence with the side being tested.
    """
    G = H.parent
    counts = engine.final_counts(H, K, n, m)
    support = {g for g, c in enumerate(counts) if c}
    reach = set(H.members)
    for pool in [H.members] * (n - 1) + [K.members] * m:
        reach = {engine.commutator(G, w, x) for w in reach for x in pool}
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
    p_identity = Fraction(counts[0], H.order**n * K.order**m)
    value_subgroup = engine.nested_commutator_subgroup(H, K, n, m)
    ok = (p_identity == 1) == value_subgroup.is_trivial
    f_trivial = Finding(
        "R1b",
        inst,
        HOLDS if ok else VIOLATED,
        {
            "prob_identity": _frac(p_identity),
            "value_subgroup_order": value_subgroup.order,
        },
    )
    return [f_support, f_trivial]


def check_eq3(table: chartab.CharacterTable) -> Finding:
    """Degree-weighted character sum against the exact probability, all g."""
    G = table.group
    full = groups.full_subgroup(G)
    counts = engine.final_counts(full, full, 1, 1)
    size = G.order**2
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
    k = len(engine.conjugacy_info(groups.full_subgroup(G)).classes)
    degree = engine.commutativity_degree(G).value
    ok = table.n_classes == k and degree == Fraction(k, G.order)
    return Finding(
        "EQ4",
        {"group": G.name},
        HOLDS if ok else VIOLATED,
        {
            "irreducible_count": table.n_classes,
            "class_count": k,
            "commuting_probability": _frac(degree),
            "class_ratio": _frac(Fraction(k, G.order)),
        },
    )


def check_eq7(H: SubgroupRef, table: chartab.CharacterTable) -> Finding:
    """Restriction-weighted character formula against exact counts, all g."""
    G = table.group
    inst = _inst(G, H=_mem(H))
    if not groups.is_normal(G, H):
        return Finding("EQ7", inst, PRECONDITION_FAILED, {"reason": "H is not normal"})
    denom = H.order * G.order
    counts = engine.final_counts(H, groups.full_subgroup(G), 1, 1)
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
    specs = [f"C{i}" for i in range(1, max_order + 1)]
    specs += [f"D{i}" for i in range(1, max_order // 2 + 1)]
    i = 1
    while math.factorial(i) <= max_order:
        specs.append(f"S{i}")
        i += 1
    i = 1
    while max(1, math.factorial(i) // 2) <= max_order:
        specs.append(f"A{i}")
        i += 1
    if max_order >= 8:
        specs.append("Q8")
    return tuple(specs)


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
    """Aggregated findings with per-claim verdict counts."""

    config: AuditConfig
    summary: dict
    findings: list[Finding]

    def hard_violations(self) -> list[Finding]:
        return [
            f
            for f in self.findings
            if f.claim in HARD_CLAIMS and f.verdict == VIOLATED
        ]

    def to_json(self, include_runtime: bool = False) -> dict:
        present = sorted({f.claim for f in self.findings})
        return {
            "config_echo": self.config.to_json(),
            "seed": self.config.seed,
            "legend": {c: CLAIM_INFO[c] for c in present},
            "summary": self.summary,
            "findings": [f.to_json(include_runtime) for f in self.findings],
        }

    def dumps(self, include_runtime: bool = False) -> str:
        """The report as ``jsontext`` writes it: each finding becomes one
        string at depth 2, and the findings are joined once."""
        return jsontext.dumps(self.to_json(include_runtime))


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

# Findings sort by claim, then by this compact encoding of the instance
# (the bytes of ``json.dumps(instance, sort_keys=True)``).
_INSTANCE_KEY = json.JSONEncoder(sort_keys=True)


def run_battery(config: AuditConfig) -> AuditReport:
    """Execute every selected check on every instance the config describes.

    Each instance shape of a group is walked once, calling every selected
    check of that shape (see the module docstring).  Instance generation
    is fully deterministic (ordering comes from the config and from
    element ids), so a fixed config yields a byte-identical serialized
    report; per-finding timings are measured but excluded from
    serialization unless explicitly requested.
    """
    config.validate()
    selected = set(config.claims)
    active = {
        name for name, tags in _CHECK_CLAIMS.items() if selected.intersection(tags)
    }
    per_g = [name for name in _G_CHECKS if name in active]
    cells = [(n, m) for n in config.n_values for m in config.m_values]
    findings: list[Finding] = []

    def run(name: str, *args) -> None:
        if name not in active:
            return
        # Looked up on the module at each call, so a check replaced there
        # (as perfbench's tracer does) sees every call.
        check = globals()[name]
        start = time.perf_counter()
        produced = check(*args)
        elapsed = (time.perf_counter() - start) * 1000.0
        batch = produced if isinstance(produced, list) else [produced]
        for f in batch:
            f.runtime_ms = elapsed / len(batch)
            if f.claim in selected:
                findings.append(f)

    for spec in config.groups:
        G = groupspec.parse_group_spec(spec, max_order=config.max_order)
        pool = _subgroup_pool(G, config)
        full = groups.full_subgroup(G)
        for H in pool:
            for K in pool:
                for n, m in cells:
                    for name in _CELL_CHECKS:
                        run(name, H, K, n, m)
                    if per_g:
                        for g in _g_values(H, K, n, m, config):
                            for name in per_g:
                                run(name, H, K, n, m, g)
                if "check_monotonicity" in active and set(H.members) <= set(K.members):
                    for n, m in cells:
                        for g in _g_values(H, full, n, m, config):
                            run("check_monotonicity", H, K, n, m, g)
                if "check_c5" in active:
                    for n in config.n_values:
                        for g in _g_values(H, K, n, 1, config):
                            run("check_c5", H, K, n, g)
        if "check_quotient" in active:
            for N in pool:
                if not groups.is_normal(G, N):
                    continue
                quotient = groups.quotient_group(G, N)
                for H in pool:
                    if set(H.members) <= set(N.members):
                        for n, m in cells:
                            for g in _g_values(H, full, n, m, config):
                                run("check_quotient", H, N, n, m, g, quotient)
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
                    for gid in _g_values(block_x, block_y, n, m, config):
                        e, f = divmod(gid, F.order)
                        run(
                            "check_multiplicativity",
                            E, F, A, B, C, D, n, m, e, f, product,
                        )

    # P2a/P2b and T3i/T3ii share one instance dict: encode each dict once.
    instance_keys: dict[int, str] = {}

    def sort_key(f: Finding) -> tuple[str, str]:
        key = instance_keys.get(id(f.instance))
        if key is None:
            key = instance_keys[id(f.instance)] = _INSTANCE_KEY.encode(f.instance)
        return (f.claim, key)

    findings.sort(key=sort_key)
    summary: dict[str, dict[str, int]] = {}
    for f in findings:
        per_claim = summary.setdefault(f.claim, {})
        per_claim[f.verdict] = per_claim.get(f.verdict, 0) + 1
    return AuditReport(config=config, summary=summary, findings=findings)
