"""GF(2) linear algebra on int bitsets.

Vectors are Python ints used as bit masks over a fixed ordered basis
(bit i = basis element i), so addition is a single XOR. A subspace is the
plain list of its RREF rows: a row's pivot is its lowest set bit, the rows
are sorted by pivot, and every row is zero at the pivots of the others.
Such a list is unique for its span, so every routine here returns the same
answer however the span was generated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def reduce(v: int, rows: Sequence[int]) -> int:
    """Canonical representative of v modulo span(rows): zero at every pivot."""
    for row in rows:
        if v & row & -row:
            v ^= row
    return v


def insert(rows: List[int], v: int) -> int:
    """Add v to the span held in ``rows``, in place.

    Returns v reduced modulo the span before the insertion: 0 when v was
    already in it, otherwise the new row.
    """
    v = reduce(v, rows)
    if v:
        low = v & -v
        at = len(rows)
        for k, row in enumerate(rows):
            if row & low:
                rows[k] = row ^ v
            if at == len(rows) and row & -row > low:
                at = k
        rows.insert(at, v)
    return v


def rref(rows: Sequence[int]) -> List[int]:
    """The RREF rows of span(rows)."""
    out: List[int] = []
    for v in rows:
        insert(out, v)
    return out


def solve(columns: Sequence[int], rhs: int) -> Tuple[Optional[int], List[int]]:
    """Solve XOR of the chosen columns = rhs; returns (solution, kernel basis).

    Columns are eliminated in order, each carrying its combination of the
    input columns in the bits above the vector bits. The solution is a
    bitmask over the columns that uses only columns independent of the ones
    before them (None when rhs is outside the span). The kernel has one
    vector per column that depends on the ones before it: that column plus
    the earlier independent columns summing to it, in column order.
    """
    shift = max([rhs.bit_length()] + [c.bit_length() for c in columns])
    vector_bits = (1 << shift) - 1
    rows: List[int] = []
    kernel: List[int] = []
    for i, c in enumerate(columns):
        v = reduce(c | 1 << (shift + i), rows)
        if v & vector_bits:
            insert(rows, v)
        else:
            kernel.append(v >> shift)
    v = reduce(rhs, rows)
    return (None if v & vector_bits else v >> shift), kernel


def subquotient_basis(cycles: Sequence[int], boundaries: Sequence[int]) -> List[int]:
    """Representatives of a basis of span(cycles)/span(boundaries).

    ``boundaries`` is a subspace (RREF rows). Each cycle, smallest first, is
    reduced modulo the boundaries and the representatives already chosen;
    what is left nonzero is chosen. Returned sorted.
    """
    rows = list(boundaries)
    reps = []
    for c in sorted(cycles):
        v = insert(rows, c)
        if v:
            reps.append(v)
    return sorted(reps)
