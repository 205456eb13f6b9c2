"""Complex character tables and the character-side probability formulas.

Tables are built numerically: the conjugacy-class multiplication matrices
commute, so a random real combination of them is diagonalized once and its
eigenvectors are refined into central characters, from which degrees and
character values follow (Dixon 1967; Schneider 1990).  Every downstream
quantity is tolerance-gated.

Cost for a group with k classes: the class-sum structure constants
a[i, j, t] are read from the table a few k x k slices at a time and never
held as a k x k x k array, so a draw (its matrix, the eigensolve and the
central characters) takes O(k |G|) table reads and O(k^3) arithmetic in
O(k^2) memory.  Tables whose k x k working set would exceed
WORKING_SET_BYTES_MAX (512 MiB at WORKING_SET_BYTES_PER_ENTRY bytes per
class pair, so k <= 1024) raise ResourceLimit before any k x k array is
allocated.  ``table_to_json`` writes the JSON one irreducible at a time,
so the rows no longer hold the whole text: C1024, at the limit, takes
6.7-8.4 s of wall time, and as much CPU time, and peaks at 215 MB RSS as
``chartab -o json`` on a 2-core x86-64 machine (16 s and 443 MB when the
rows were built whole).

BLAS threads: the k x k products and the eigensolve here are too small
to share, so the CLI runs with one OpenBLAS thread unless its caller set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS (see
``cli.main``); with a thread per core the extra threads busy-wait
between calls and about double the CPU time.  Importing this module
leaves numpy's pool as it is.  The thread count can change the last
bits of the eigenvectors, so a count other than one can change the last
bits of ``table_to_json`` for k >= 256.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, TextIO

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
# Bytes per (class, class) pair at the peak of ``chartab -o json``: the
# float64 and complex128 k x k arrays of a draw and of the orthogonality
# check, then the distinct float texts of the JSON rows.  Measured as
# peak RSS, interpreter included, that is about 300 bytes per pair at
# k = 600 and 210 at k = 1024 (380 to 480 when the JSON text was built
# whole); the bound is kept, so the limit stays at k = 1024.
WORKING_SET_BYTES_PER_ENTRY = 512
WORKING_SET_BYTES_MAX = 1 << 29
# Structure-constant slices per matrix-vector product in a draw.
_SLICES_PER_PRODUCT = 4
# The double x * 1e6 is within |x * 1e6| * 2**-53 of the exact product;
# rounded_parts hands an entry to Python's round when it lies within eight
# times that of a half-integer.
_HALF_SLACK = 2.0**-50

__all__ = [
    "CONSTRUCTION_TOL",
    "ROUNDING_TOL",
    "FORMULA_TOL",
    "MAX_RETRIES",
    "WORKING_SET_BYTES_MAX",
    "WORKING_SET_BYTES_PER_ENTRY",
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
    "rounded_parts",
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
    info = engine.conjugacy_info(groups.full_subgroup(G))
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


def _class_members(class_of: np.ndarray, sizes: Sequence[int]) -> list[np.ndarray]:
    """The member ids of each class, in class order."""
    order = np.argsort(class_of, kind="stable")
    return np.split(order, np.cumsum(sizes)[:-1])


def _draw_matrix(
    G: GroupTable, reps: np.ndarray, cls: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """combo[j, t] = sum_i coeffs[i] a[i, j, t], a few slices a[:, :, t] at a time.

    a[i, j, t] = #{x in C_i : x^-1 rep_t in C_j}.  A slice is the bincount
    of (class of x, class of x^-1 rep_t) over G, read off the row of
    rep_t^-1 (x^-1 rep_t is the inverse of rep_t^-1 x).  Every count is at
    most |G| < 2^53, so the float64 slab is exact.

    _SLICES_PER_PRODUCT slices share one slab laid out as a[i, j, t] with t
    fastest, and one product with coeffs.  OpenBLAS's x86-64 matrix-vector
    kernels sum the last (rows mod 4) output rows apart from the others;
    with four slices per product every entry falls on the same side of
    that split as in one contraction of a whole k x k x k array, so the
    tables of small groups keep their bits.
    """
    k = len(reps)
    step = _SLICES_PER_PRODUCT
    row = cls * k
    cls_of_inverse = cls[G.inv]
    combo = np.empty((k, k), dtype=np.float64)
    idx = np.empty((step, G.order), dtype=np.int64)
    ones = np.ones(step * G.order)
    for t0 in range(0, k, step):
        zs = reps[t0 : t0 + step]
        w = len(zs)
        for s, z in enumerate(zs):
            np.add(row, cls_of_inverse[G.mul[G.inv[z]]], out=idx[s])
            idx[s] *= w
            idx[s] += s
        slab = np.bincount(
            idx[:w].ravel(), weights=ones[: w * G.order], minlength=k * k * w
        ).reshape(k, k * w)
        combo[:, t0 : t0 + w] = (coeffs @ slab).reshape(k, w)
    return combo


def _pivot_slice(
    G: GroupTable,
    reps: np.ndarray,
    cls: np.ndarray,
    members: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out[i, t]`` with a[i, j, t] for the class C_j of ``members``.

    a[i, j, t] counts the y in C_j with rep_t y^-1 in C_i, so the slice is
    the bincount of (class of rep_t y^-1, t) over y in C_j and every t,
    read from the columns y^-1 of the rows rep_t.  Members are taken in
    chunks so no temporary exceeds max(k^2, |G|) entries.
    """
    k = len(reps)
    cols = np.arange(k)[:, None]
    step = max(1, max(k * k, G.order) // k)
    flat = out.reshape(-1)
    flat[...] = 0
    for lo in range(0, len(members), step):
        y_inv = G.inv[members[lo : lo + step]]
        idx = cls[G.mul[reps[:, None], y_inv[None, :]]] * k + cols
        flat += np.bincount(idx.ravel(), minlength=k * k)
    return out


def rounded_parts(values: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of ``values``, each rounded as ``round(x, 6)``.

    The parts interleave along the last axis, ``re_0, im_0, re_1, im_1,
    ...``, so the last axis is twice as long as that of ``values``.
    ``rint(x * 1e6) / 1e6`` is ``round(x, 6)`` wherever x * 1e6 is a
    finite double under 2**52 whose rounding error cannot carry it across
    a half-integer (the division is correctly rounded, as is Python's
    conversion of the six-place decimal); the other entries, normally
    few, go through ``round`` itself.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    parts = values.view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = parts * 1e6
        rounded = np.rint(scaled) / 1e6
        mag = np.abs(scaled)
        near_half = np.abs(mag - np.floor(mag) - 0.5) <= mag * _HALF_SLACK
        unsure = np.flatnonzero(near_half | ~(mag < 2.0**52))
    if unsure.size:
        rounded.flat[unsure] = [round(x, 6) for x in parts.flat[unsure].tolist()]
    return rounded


def _row_order(values: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Stable order of the rows by (degree, re_0, im_0, re_1, im_1, ...).

    Each value is rounded by ``rounded_parts``, so rows that agree to six
    places keep their order; a rounded -0.0 compares equal to 0.0.
    """
    rounded = rounded_parts(values)
    # lexsort takes its primary key last.
    return np.lexsort(np.vstack([rounded[:, ::-1].T, degs]))


def character_table(G: GroupTable, seed: int = 0) -> CharacterTable:
    """Build the table of irreducible complex characters of G.

    The class-sum structure constants a[i, j, t] are contracted with a
    seeded random real vector; the resulting k x k matrix has the central
    characters as eigenvectors whenever its eigenvalues separate.  Draws
    with an eigenvalue gap under the construction tolerance are retried (a
    fresh vector from the same generator) up to MAX_RETRIES times before
    DegenerateEigenbasis is raised; degree rounding and row orthogonality
    failures raise ToleranceExceeded.

    The constants are never held as a k x k x k array.  A draw builds its
    matrix from a few k x k slices a[:, :, t] at a time, and each central
    character reads the slice a[:, pivot, :] of its pivot class, built
    once per distinct pivot into one reused buffer.  So a draw costs
    O(k |G|) table reads plus O(k^3) arithmetic in O(k^2) memory.  A group
    whose k x k working set, the JSON text of ``table_to_json`` included,
    would exceed WORKING_SET_BYTES_MAX (k > 1024) raises ResourceLimit
    before any k x k array is allocated.
    """
    reps, sizes, class_of = _class_layout(G)
    k = len(reps)
    need = k * k * WORKING_SET_BYTES_PER_ENTRY
    if need > WORKING_SET_BYTES_MAX:
        raise ResourceLimit(
            f"{G.name} has {k} classes; its character table needs about "
            f"{need} bytes, over the {WORKING_SET_BYTES_MAX}-byte limit"
        )
    reps_arr = np.asarray(reps, dtype=np.int64)
    cls = class_of.astype(np.int64)
    members = _class_members(class_of, sizes)
    pivot_buf = np.empty((k, k), dtype=np.float64)
    rng = np.random.default_rng(seed)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    last_error: Optional[Exception] = None
    for _ in range(MAX_RETRIES):
        coeffs = rng.standard_normal(k)
        combo = _draw_matrix(G, reps_arr, cls, coeffs)
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
        pivots = np.argmax(np.abs(eigvecs), axis=0)
        for pivot in groups._distinct_ids(pivots, k):
            piv = _pivot_slice(G, reps_arr, cls, members[pivot], pivot_buf)
            for p in np.flatnonzero(pivots == pivot):
                v = eigvecs[:, p]
                omegas[p] = (piv @ v) / v[pivot]
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
        key = _row_order(values, degs)
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


@lru_cache(maxsize=8)
def _relative_coeffs(table: CharacterTable, H: SubgroupRef) -> np.ndarray:
    """|H| * restriction_norm / degree per irreducible, the g-free factor.

    Computed once per (table, H), so a sweep over every g of G costs k
    restriction norms, not k per g; the small cache pins few tables.
    """
    degs = np.asarray(table.degrees, dtype=np.float64)
    norms = np.asarray(
        [restriction_norm(table, i, H) for i in range(table.n_classes)]
    )
    coeffs = H.order * norms / degs
    coeffs.setflags(write=False)
    return coeffs


def prob_char_relative(
    G: GroupTable, table: CharacterTable, H: SubgroupRef, g: int
) -> float:
    """Character formula for the weight-2 probability with x drawn from normal H."""
    _require_table_group(table, G)
    if not groups.is_normal(G, H):
        raise NotNormal(f"subgroup of order {H.order} is not normal in {G.name}")
    coeffs = _relative_coeffs(table, H)
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


def table_to_json(table: CharacterTable, fp: TextIO) -> None:
    """Write the table as JSON to ``fp``, one irreducible at a time.

    The text is that of ``jsontext.dumps`` of the object with ``order``,
    ``classes`` (``{"rep", "size"}`` per class) and ``irreducibles``
    (``{"degree", "values"}`` per row, each value a ``[re, im]`` pair of
    floats), with no trailing newline.  Each distinct float, told apart
    by its bits so that -0.0 keeps its own text, is written once with
    ``float.__repr__``.  Each irreducible is written by ``%`` from one
    ``jsontext.template`` per table, an item of ``irreducibles`` with a
    hole for its degree and each value.  A verified table is finite, so
    no value needs ``NaN`` or ``Infinity``.
    """
    from . import jsontext  # here, so that only `-o json` loads json

    k = table.n_classes
    classes = [
        {"size": s, "rep": r} for s, r in zip(table.class_sizes, table.class_reps)
    ]
    bits = table.values.view(np.float64).view(np.int64)
    distinct, which = np.unique(bits, return_inverse=True)
    texts = np.array(
        list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object
    )
    which = which.reshape(k, 2 * k)
    irreducible = {"degree": jsontext.HOLE, "values": [[jsontext.HOLE] * 2] * k}
    row = "%s".join(jsontext.template(irreducible, "\n  "))
    rows = (row % (d, *texts[which[i]]) for i, d in enumerate(table.degrees))
    fields = {"classes": classes, "order": table.group.order}
    fp.writelines(jsontext.document(fields, "irreducibles", rows))
