import random

from blregion.gf2 import insert, reduce, rref, solve, subquotient_basis

# --- reference implementations: the routines the RREF-row API replaced ---------


def ref_rref(rows, n_cols):
    """Column-by-column elimination; returns (reduced nonzero rows, pivot columns)."""
    work = [r for r in rows if r]
    reduced, pivots = [], []
    for col in range(n_cols):
        pivot_row = next((i for i, r in enumerate(work) if (r >> col) & 1), None)
        if pivot_row is None:
            continue
        piv = work.pop(pivot_row)
        work = [r ^ piv if (r >> col) & 1 else r for r in work]
        reduced = [r ^ piv if (r >> col) & 1 else r for r in reduced]
        reduced.append(piv)
        pivots.append(col)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [reduced[i] for i in order], sorted(pivots)


def ref_reduce(v, rows, pivots):
    for row, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v


def ref_kernel(columns, n_rows):
    """Gaussian elimination on the columns, mirrored on an identity block."""
    cols = list(columns)
    n = len(cols)
    record = [1 << i for i in range(n)]
    for row in range(n_rows):
        pivot = next((i for i in range(n) if cols[i] is not None and (cols[i] >> row) & 1), None)
        if pivot is None:
            continue
        for i in range(n):
            if i != pivot and cols[i] is not None and (cols[i] >> row) & 1:
                cols[i] ^= cols[pivot]
                record[i] ^= record[pivot]
        cols[pivot] = None  # consumed as a pivot column
    return sorted(record[i] for i in range(n) if cols[i] == 0)


def ref_solve(columns, rhs):
    """Incremental low-bit-pivot basis with combination tracking."""
    pivots = {}

    def reduce_rec(v, rec):
        while v:
            hit = pivots.get(v & -v)
            if hit is None:
                return v, rec
            v, rec = v ^ hit[0], rec ^ hit[1]
        return 0, rec

    for i, c in enumerate(columns):
        v, rec = reduce_rec(c, 1 << i)
        if v:
            pivots[v & -v] = (v, rec)
    v, rec = reduce_rec(rhs, 0)
    return None if v else rec


def ref_subquotient(cycles, boundaries, n):
    rows, pivots = ref_rref(boundaries, n)
    reps = []
    for v in sorted(cycles):
        v = ref_reduce(v, rows, pivots)
        if v:
            reps.append(v)
            rows, pivots = ref_rref(rows + [v], n)
    return sorted(reps)


def apply(columns, v):
    out = 0
    for i, c in enumerate(columns):
        if (v >> i) & 1:
            out ^= c
    return out


def brute_force_kernel(columns):
    """Enumerate the whole domain; the oracle for small matrices."""
    return [v for v in range(1, 1 << len(columns)) if apply(columns, v) == 0]


def random_matrix(rng, sparse):
    n_cols, n_rows = rng.randint(0, 9), rng.randint(1, 9)
    if sparse:
        return [sum(1 << b for b in range(n_rows) if rng.random() < 0.2)
                for _ in range(n_cols)], n_rows
    return [rng.getrandbits(n_rows) for _ in range(n_cols)], n_rows


# --- tests ----------------------------------------------------------------------


def test_kernel_identity_injective():
    assert solve([0b01, 0b10], 0)[1] == []


def test_kernel_zero_map():
    assert len(solve([0, 0], 0)[1]) == 2


def test_kernel_one_by_two():
    # the map (x, y) -> x + y; kernel spanned by (1,1)
    assert solve([1, 1], 0)[1] == [0b11]
    # exhaustive check over all four vectors of F2^2
    assert brute_force_kernel([1, 1]) == [0b11]


def test_rank_plus_nullity_random():
    rng = random.Random(7)
    for _ in range(300):
        n_cols = rng.randint(1, 8)
        n_rows = rng.randint(1, 8)
        cols = [rng.getrandbits(n_rows) for _ in range(n_cols)]
        _, ker = solve(cols, 0)
        assert len(rref(cols)) + len(ker) == n_cols
        # kernel really is the kernel, against brute-force enumeration
        spanned = set()
        for bits in range(1, 1 << len(ker)):
            v = 0
            for i, kv in enumerate(ker):
                if (bits >> i) & 1:
                    v ^= kv
            spanned.add(v)
        assert spanned == set(brute_force_kernel(cols))


def test_matches_reference_routines():
    # each old result is unique, so the new routines must reproduce it exactly
    rng = random.Random(11)
    for trial in range(4000):
        cols, n_rows = random_matrix(rng, sparse=trial % 2 == 0)
        rows, pivots = ref_rref(cols, n_rows)
        assert rref(cols) == rows
        assert solve(cols, 0)[1] == ref_kernel(cols, n_rows)
        rhs = rng.getrandbits(n_rows)
        assert solve(cols, rhs)[0] == ref_solve(cols, rhs)
        assert reduce(rhs, rref(cols)) == ref_reduce(rhs, rows, pivots)
        boundaries = cols[: len(cols) // 2]
        cycles = ref_rref(cols, n_rows)[0]
        assert subquotient_basis(cycles, rref(boundaries)) == ref_subquotient(
            cycles, boundaries, n_rows)


def test_insert_reports_new_rows():
    rows = []
    assert insert(rows, 0b110) == 0b110
    assert insert(rows, 0b011) == 0b101  # reduced: pivot bit 1 cleared
    assert rows == [0b101, 0b110]  # sorted by pivot, zero at each other's pivot
    assert insert(rows, 0b011) == 0  # already in the span
    assert rows == [0b101, 0b110] == rref([0b011, 0b110])


def test_self_inverse_addition():
    rng = random.Random(3)
    for _ in range(50):
        v = rng.getrandbits(12)
        assert v ^ v == 0


def full(n):
    return [1 << i for i in range(n)]


def test_quotient_by_zero_subspace():
    assert subquotient_basis(full(1), []) == [1]


def test_quotient_of_full_subspace():
    assert subquotient_basis(full(2), rref([0b01, 0b10])) == []


def test_quotient_tie_break():
    # sub spanned by (1,1): both cosets {00,11} and {10,01}; the chosen
    # representative of the nonzero coset is (0,1), bit 1 set
    reps = subquotient_basis(full(2), rref([0b11]))
    assert reps == [0b10]
    # enumerate both candidates of the coset and confirm the rule picks
    # the lexicographically smallest under the bit-0-first ordering
    coset = sorted({0b10, 0b10 ^ 0b11})
    assert reps[0] == min(coset, key=lambda v: tuple((v >> i) & 1 for i in range(2)))


def test_subquotient_and_reduce():
    cycles = [0b001, 0b110]
    boundaries = [0b110]
    reps = subquotient_basis(cycles, boundaries)
    assert reps == [0b001]
    rows = rref(boundaries)
    assert reduce(0b111, rows) == 0b001
    assert reduce(0b110, rows) == 0
