"""Complex character tables and the character-side probability formulas.

Tables are built numerically: the conjugacy-class multiplication matrices
commute, so a random real combination of them is diagonalized once and its
eigenvectors are refined into central characters, from which degrees and
character values follow (Dixon 1967; Schneider 1990).  Every downstream
quantity is tolerance-gated.

Cost for a group with k classes: the float64 structure tensor takes
O(k |G|) time and k^3 * 8 bytes, built once; each draw (eigensolve plus
central characters) takes O(k^3).  Tables whose tensor would exceed
TENSOR_BYTES_MAX (1 GiB, so k <= 512) raise ResourceLimit before
anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import engine, groups
from .errors import (
    DegenerateEigenbasis,
    ForeignSubgroup,
    ImaginaryResidue,
    NotClassConstant,
    NotNormal,
    ResourceLimit,
    ToleranceExceeded,
)
from .groups import GroupTable, SubgroupRef

CONSTRUCTION_TOL = 1e-8
ROUNDING_TOL = 1e-6
FORMULA_TOL = 1e-8
MAX_RETRIES = 20
TENSOR_BYTES_MAX = 1 << 30

__all__ = [
    "CONSTRUCTION_TOL",
    "ROUNDING_TOL",
    "FORMULA_TOL",
    "MAX_RETRIES",
    "TENSOR_BYTES_MAX",
    "CharacterTable",
    "OrthogonalityReport",
    "character_table",
    "verify_orthogonality",
    "prob_char_pg",
    "pair_count_class_function",
    "class_function_from_counts",
    "decompose",
    "is_character",
    "restriction_norm",
    "prob_char_relative",
    "vanishes_outside",
    "table_to_json",
]


class CharacterTable:
    """Irreducible complex characters of a finite group, by conjugacy class.

    Classes are ordered by (size, least member id); irreducibles by
    (degree, values).  ``values[i, k]`` is character i on class k, and
    class 0 is the identity class, so ``values[i, 0] == degrees[i]``.
    A class function is an array with one value per class in this order.
    """

    def __init__(
        self,
        group: GroupTable,
        class_reps: Sequence[int],
        class_sizes: Sequence[int],
        class_of: np.ndarray,
        values: np.ndarray,
        degrees: Sequence[int],
        tolerance: float,
    ) -> None:
        self.group = group
        self.class_reps = tuple(int(r) for r in class_reps)
        self.class_sizes = tuple(int(s) for s in class_sizes)
        class_of = np.ascontiguousarray(class_of, dtype=np.int32)
        class_of.setflags(write=False)
        self.class_of = class_of
        values = np.ascontiguousarray(values, dtype=np.complex128)
        values.setflags(write=False)
        self.values = values
        self.degrees = tuple(int(d) for d in degrees)
        self.tolerance = float(tolerance)

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def __repr__(self) -> str:
        return (
            f"<CharacterTable {self.group.name}: {self.n_classes} classes, "
            f"degrees {self.degrees}>"
        )


@dataclass(frozen=True)
class OrthogonalityReport:
    max_row_deviation: float
    max_column_deviation: float
    passed: bool


def _class_layout(G: GroupTable) -> tuple[list[int], list[int], np.ndarray]:
    """Conjugacy classes ordered by (size, least member id)."""
    info = groups.conjugacy(G, groups.full_subgroup(G))
    order = sorted(
        range(len(info.classes)),
        key=lambda i: (len(info.classes[i]), info.classes[i][0]),
    )
    reps = [info.classes[i][0] for i in order]
    sizes = [len(info.classes[i]) for i in order]
    remap = np.empty(len(info.classes), dtype=np.int32)
    for new, old in enumerate(order):
        remap[old] = new
    class_of = remap[info.class_of]
    return reps, sizes, class_of


def _structure_tensor(
    G: GroupTable, reps: Sequence[int], class_of: np.ndarray
) -> np.ndarray:
    """a[i, j, t] = #{(x, y) in C_i x C_j : x*y = rep_t}, as float64.

    Every count is at most |G| < 2^53, so float64 holds it exactly.
    """
    k = len(reps)
    a = np.empty((k, k, k), dtype=np.float64)
    cls64 = class_of.astype(np.int64)
    for t, z in enumerate(reps):
        y = G.mul[G.inv, z]
        pairs = cls64 * k + cls64[y]
        a[:, :, t] = np.bincount(pairs, minlength=k * k).reshape(k, k)
    return a


def character_table(G: GroupTable, seed: int = 0) -> CharacterTable:
    """Build the table of irreducible complex characters of G.

    The class-sum structure tensor is contracted with a seeded random
    real vector; the resulting matrix has the central characters as
    eigenvectors whenever its eigenvalues separate.  Draws with an
    eigenvalue gap under the construction tolerance are retried (a fresh
    vector from the same generator) up to MAX_RETRIES times before
    DegenerateEigenbasis is raised; degree rounding and row orthogonality
    failures raise ToleranceExceeded.

    Building the k x k x k tensor costs O(k |G|) time and k^3 * 8 bytes;
    each draw costs O(k^3), since a central character needs only the
    pivot row of each class matrix.  A tensor over TENSOR_BYTES_MAX
    raises ResourceLimit before it is allocated.
    """
    reps, sizes, class_of = _class_layout(G)
    k = len(reps)
    if k**3 * 8 > TENSOR_BYTES_MAX:
        raise ResourceLimit(
            f"{G.name} has {k} classes; its structure tensor needs "
            f"{k**3 * 8} bytes, over the {TENSOR_BYTES_MAX}-byte limit"
        )
    a = _structure_tensor(G, reps, class_of)
    rng = np.random.default_rng(seed)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    last_error: Optional[Exception] = None
    for _ in range(MAX_RETRIES):
        coeffs = rng.standard_normal(k)
        combo = np.tensordot(coeffs, a, axes=(0, 0))
        eigvals, eigvecs = np.linalg.eig(combo)
        scale = max(1.0, float(np.abs(eigvals).max()))
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < CONSTRUCTION_TOL * scale:
            last_error = DegenerateEigenbasis(
                f"eigenvalue gap {gaps.min():.3e} below tolerance"
            )
            continue
        omegas = np.empty((k, k), dtype=np.complex128)
        for p in range(k):
            v = eigvecs[:, p]
            pivot = int(np.argmax(np.abs(v)))
            omegas[p] = (a[:, pivot, :] @ v) / v[pivot]
        degs_float = np.sqrt(
            G.order / np.sum(np.abs(omegas) ** 2 / sizes_arr, axis=1)
        )
        degs = np.rint(degs_float).astype(np.int64)
        if np.any(np.abs(degs_float - degs) > ROUNDING_TOL) or np.any(degs < 1):
            last_error = ToleranceExceeded(
                "character degrees did not round to positive integers"
            )
            continue
        if int(np.sum(degs**2)) != G.order:
            last_error = ToleranceExceeded(
                "squared degrees do not sum to the group order"
            )
            continue
        values = omegas * (degs[:, None] / sizes_arr[None, :])
        key = sorted(
            range(k),
            key=lambda p: (
                int(degs[p]),
                tuple(
                    (round(float(values[p, i].real), 6) + 0.0,
                     round(float(values[p, i].imag), 6) + 0.0)
                    for i in range(k)
                ),
            ),
        )
        values = values[key]
        degs = degs[key]
        table = CharacterTable(
            G, reps, sizes, class_of, values, degs, CONSTRUCTION_TOL
        )
        report = verify_orthogonality(table)
        if not report.passed:
            last_error = ToleranceExceeded(
                f"orthogonality deviation "
                f"{max(report.max_row_deviation, report.max_column_deviation):.3e}"
            )
            continue
        return table
    assert last_error is not None
    raise last_error


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Max deviations of the row and column orthogonality relations."""
    n = table.group.order
    sizes = np.asarray(table.class_sizes, dtype=np.float64)
    vals = table.values
    gram = (vals * sizes) @ vals.conj().T / n
    row_dev = float(np.abs(gram - np.eye(table.n_classes)).max())
    col = vals.conj().T @ vals
    expect = np.diag(n / sizes)
    col_dev = float(np.abs(col - expect).max())
    return OrthogonalityReport(row_dev, col_dev, max(row_dev, col_dev) < ROUNDING_TOL)


def _require_table_group(table: CharacterTable, G: GroupTable) -> None:
    if table.group is not G:
        raise ValueError("character table belongs to a different group")


def prob_char_pg(G: GroupTable, table: CharacterTable, g: int) -> float:
    """(1/|G|) sum over irreducibles of value(g) / degree."""
    _require_table_group(table, G)
    degs = np.asarray(table.degrees, dtype=np.float64)
    s = complex(np.sum(table.values[:, table.class_of[g]] / degs) / G.order)
    if abs(s.imag) > FORMULA_TOL:
        raise ImaginaryResidue(f"imaginary residue {s.imag:.3e} in probability sum")
    return s.real


def class_function_from_counts(
    table: CharacterTable, counts: Sequence[int]
) -> np.ndarray:
    """Exact per-element counts as a class function, one value per class.

    Counts must be exactly constant on every conjugacy class; a mismatch
    raises NotClassConstant naming the offending class.
    """
    values = np.empty(table.n_classes, dtype=np.complex128)
    info = table.class_of
    seen: dict[int, int] = {}
    for x, c in enumerate(counts):
        cls = int(info[x])
        if cls not in seen:
            seen[cls] = int(c)
            values[cls] = complex(c)
        elif seen[cls] != int(c):
            raise NotClassConstant(
                f"counts differ within class {cls}: {seen[cls]} vs {c} at id {x}"
            )
    return values


def decompose(f: np.ndarray, table: CharacterTable) -> np.ndarray:
    """Inner products of f with each irreducible, in table order."""
    sizes = np.asarray(table.class_sizes, dtype=np.float64)
    return (table.values.conj() * sizes) @ f / table.group.order


def is_character(
    f: np.ndarray, table: CharacterTable, tol: float = ROUNDING_TOL
) -> tuple[bool, dict]:
    """Whether f decomposes with non-negative integer multiplicities."""
    mults = decompose(f, table)
    rounded = np.rint(mults.real).astype(np.int64)
    int_dev = float(np.abs(mults - rounded).max())
    nonneg = bool(np.all(rounded >= 0))
    recon = rounded @ table.values
    recon_dev = float(np.abs(recon - f).max())
    ok = int_dev <= tol and nonneg and recon_dev <= tol
    report = {
        "multiplicities": [complex(v) for v in mults],
        "rounded": [int(v) for v in rounded],
        "max_integrality_deviation": int_dev,
        "max_reconstruction_deviation": recon_dev,
        "nonnegative": nonneg,
    }
    return ok, report


def pair_count_class_function(
    table: CharacterTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of [x, y] = g over G x G as a class function, decomposed.

    The counts come from the exact engine; the decomposition against the
    irreducibles is returned alongside so callers can compare it with
    |G| / degree.
    """
    G = table.group
    full = groups.full_subgroup(G)
    counts = engine.final_counts(full, full, 1, 1)
    cf = class_function_from_counts(table, counts)
    return cf, decompose(cf, table)


def restriction_norm(table: CharacterTable, index: int, H: SubgroupRef) -> float:
    """(1/|H|) sum over h in H of |value(h)|^2 for character ``index``."""
    if H.parent is not table.group:
        raise ForeignSubgroup("H must be a subgroup of the table's group")
    vals = table.values[index, table.class_of[np.asarray(H.members)]]
    return float(np.sum(np.abs(vals) ** 2) / H.order)


def prob_char_relative(
    G: GroupTable, table: CharacterTable, H: SubgroupRef, g: int
) -> float:
    """Character formula for the weight-2 probability with x drawn from normal H."""
    _require_table_group(table, G)
    if not groups.is_normal(G, H):
        raise NotNormal(f"subgroup of order {H.order} is not normal in {G.name}")
    degs = np.asarray(table.degrees, dtype=np.float64)
    norms = np.asarray(
        [restriction_norm(table, i, H) for i in range(table.n_classes)]
    )
    coeffs = H.order * norms / degs
    s = complex(
        np.sum(coeffs * table.values[:, table.class_of[g]]) / (H.order * G.order)
    )
    if abs(s.imag) > FORMULA_TOL:
        raise ImaginaryResidue(f"imaginary residue {s.imag:.3e} in probability sum")
    return s.real


def vanishes_outside(table: CharacterTable, index: int, H: SubgroupRef) -> bool:
    """Whether character ``index`` is numerically zero off H."""
    if H.parent is not table.group:
        raise ForeignSubgroup("H must be a subgroup of the table's group")
    outside = np.asarray(
        [x for x in range(table.group.order) if x not in H], dtype=np.int64
    )
    if outside.size == 0:
        return True
    vals = table.values[index, table.class_of[outside]]
    return bool(np.abs(vals).max() < FORMULA_TOL)


def table_to_json(table: CharacterTable) -> dict:
    return {
        "order": table.group.order,
        "classes": [
            {"size": s, "rep": r}
            for s, r in zip(table.class_sizes, table.class_reps)
        ],
        "irreducibles": [
            {
                "degree": table.degrees[i],
                "values": [
                    [float(v.real), float(v.imag)] for v in table.values[i]
                ],
            }
            for i in range(table.n_classes)
        ],
    }
