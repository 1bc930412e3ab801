"""Skew-symmetric GF(2) matrices, the delta-matroid of nonsingular
principal submatrices, and the binary-representability classifier."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .bitset import iter_bits, masks_without_bit
from .catalog import binary_twist_classes
from .errors import FormatError, NotADeltaMatroidError
from .matroid import Matroid
from .minorscan import MinorWitness, has_minor_from, no_minor_bits
from .setsystem import SetSystem, decode_json


@dataclass(frozen=True)
class SkewSymMatrixGF2:
    """Square GF(2) matrix, symmetric off the diagonal (skew-symmetric in
    characteristic two; the diagonal is unrestricted)."""

    labels: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.rows) != n:
            raise FormatError("row count differs from label count")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> n:
                raise FormatError(f"row {i} wider than the matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise FormatError(f"entries ({i},{j}) and ({j},{i}) differ")

    @property
    def n(self) -> int:
        return len(self.labels)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) by elimination on bitmask rows, lowest column first."""
    work = list(rows)
    ncols = max((r.bit_length() for r in work), default=0)
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        pivot = None
        for i in range(rank, len(work)):
            if work[i] & bit:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= prow
        rank += 1
        if rank == len(work):
            break
    return rank


def principal_nonsingular(matrix: SkewSymMatrixGF2, subset: int) -> bool:
    """True when the principal submatrix on the subset mask has full rank."""
    k = subset.bit_count()
    if k == 0:
        return True
    cols = list(iter_bits(subset))
    rows = []
    for i in cols:
        r = matrix.rows[i]
        rows.append(sum(((r >> c) & 1) << j for j, c in enumerate(cols)))
    return gf2_rank(rows) == k


def _feasible_bitmap(rows: Sequence[int], n: int) -> int:
    """Family bitmap of the subsets of range(n) whose principal submatrix
    of the matrix with the given rows is nonsingular over GF(2).

    Write C = A + D with D the diagonal.  Then det C[X] is the sum over
    S within X of det A[S] times the product of the diagonal entries on
    X - S, and A is alternating, so det A[S] is the parity of the perfect
    matchings of A's graph on S.  The first pass builds that parity
    family one element at a time: a set containing k is matched by
    pairing k with a neighbour j < k and matching the rest.  The second
    is one GF(2) zeta step per element with a 1 on the diagonal.
    """
    without = [masks_without_bit(n, i) for i in range(n)]
    fam = 1
    for k in range(1, n):
        half = 0
        for j in iter_bits(rows[k] & ((1 << k) - 1)):
            half ^= (fam & without[j]) << (1 << j)
        fam |= half << (1 << k)
    for i in range(n):
        if rows[i] >> i & 1:
            fam ^= (fam & without[i]) << (1 << i)
    return fam


def d_of_c(matrix: SkewSymMatrixGF2) -> SetSystem:
    """Feasible sets are the index sets of nonsingular principal
    submatrices; the empty set is always feasible."""
    return SetSystem.from_bitmap(matrix.labels, _feasible_bitmap(matrix.rows, matrix.n))


def representation_twist(
    a_rows: Sequence[int], basis_labels: Sequence[str], other_labels: Sequence[str]
) -> SkewSymMatrixGF2:
    """Block matrix ((0, A), (A^T, 0)) for a standard representation (I|A).

    Rows of A correspond to the basis labels (columns of I), columns to
    the remaining labels; over GF(2), -A^T = A^T.
    """
    r = len(basis_labels)
    s = len(other_labels)
    if len(a_rows) != r:
        raise FormatError(f"A has {len(a_rows)} rows for {r} basis elements")
    for row in a_rows:
        if row < 0 or row >> s:
            raise FormatError("A row wider than the non-basis column count")
    labels = tuple(basis_labels) + tuple(other_labels)
    rows = []
    for i in range(r):
        rows.append(a_rows[i] << r)
    for j in range(s):
        col = sum(((a_rows[i] >> j) & 1) << i for i in range(r))
        rows.append(col)
    return SkewSymMatrixGF2(labels, tuple(rows))


def column_matroid(rows: Sequence[int], labels: Sequence[str]) -> Matroid:
    """Binary matroid of the columns of a GF(2) matrix given as row masks."""
    labels = tuple(labels)
    n = len(labels)
    width = max((r.bit_length() for r in rows), default=0)
    if width > n:
        raise FormatError("matrix wider than the label list")
    cols = [sum(((rows[i] >> j) & 1) << i for i in range(len(rows))) for j in range(n)]
    rank = gf2_rank(cols)
    masks = frozenset(
        a
        for a in range(1 << n)
        if a.bit_count() == rank and gf2_rank([cols[j] for j in iter_bits(a)]) == rank
    )
    return Matroid(SetSystem(labels, masks))


def is_binary_dm(system: SetSystem) -> tuple[bool, MinorWitness | None]:
    """Binary delta-matroid test by excluded-minor scan.

    Only the twists of the five binary excluded minors, the head of the
    binary list, need scanning: the rest of that list is the delta-matroid
    list, which never occurs inside a delta-matroid.
    """
    if not system.is_delta_matroid():
        raise NotADeltaMatroidError("binary test is defined for delta-matroids")
    witness = has_minor_from(system, binary_twist_classes(system.n))
    return witness is None, witness


def binary_dm_bits(indices: Sequence[int], n: int) -> int:
    """The index form of is_binary_dm for the family indices of
    delta-matroids on n elements: the bitmask of the binary ones."""
    return no_minor_bits(indices, n, binary_twist_classes(n))


# -- matrix file format -------------------------------------------------


def parse_matrix(text: str) -> SkewSymMatrixGF2:
    """JSON form {"labels": [...], "rows": ["0110", ...]} with row bit
    strings in label order."""
    doc = decode_json(text)
    if not isinstance(doc, dict) or "labels" not in doc or "rows" not in doc:
        raise FormatError('matrix JSON needs "labels" and "rows"')
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(e, str) for e in labels):
        raise FormatError('"labels" must be a list of strings')
    if not isinstance(doc["rows"], list):
        raise FormatError('"rows" must be a list of bit strings')
    rows = []
    for s in doc["rows"]:
        if not isinstance(s, str) or len(s) != len(labels) or set(s) - {"0", "1"}:
            raise FormatError(f"bad row bit string {s!r}")
        rows.append(sum(1 << j for j, ch in enumerate(s) if ch == "1"))
    return SkewSymMatrixGF2(tuple(labels), tuple(rows))


def serialize_matrix(matrix: SkewSymMatrixGF2) -> str:
    rows = [
        "".join("1" if matrix.rows[i] >> j & 1 else "0" for j in range(matrix.n))
        for i in range(matrix.n)
    ]
    return json.dumps({"labels": list(matrix.labels), "rows": rows}, separators=(", ", ": "))
