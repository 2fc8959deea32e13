"""Tests for the mod-2 and mod-4 linear algebra layer."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import augmented_elimination, gf2_span, z4_row_module
from pinlef import finite_linalg as fl
from pinlef.errors import InputError

bits = st.integers(0, 1)
residues = st.integers(0, 3)


def bit_matrices(max_rows=6, max_cols=6):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(bits, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def z4_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(residues, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


def test_rref_identity():
    rank, reduced, pivots = fl.rref_gf2(np.eye(2, dtype=np.uint8))
    assert rank == 2
    assert pivots == [0, 1]
    assert reduced.tolist() == [[1, 0], [0, 1]]


def test_rref_equal_rows():
    rank, reduced, _ = fl.rref_gf2([[1, 1], [1, 1]])
    assert rank == 1
    assert reduced.tolist() == [[1, 1], [0, 0]]


def test_rref_rank_matches_row_span_oracle():
    rng = random.Random(61)
    for _ in range(60):
        m = [[rng.randint(0, 1) for _ in range(6)] for _ in range(6)]
        rank, _, _ = fl.rref_gf2(m)
        assert len(gf2_span(m)) == 2**rank


@given(bit_matrices())
def test_rref_idempotent(data):
    rank1, reduced1, piv1 = fl.rref_gf2(data)
    rank2, reduced2, piv2 = fl.rref_gf2(reduced1)
    assert rank1 == rank2
    assert piv1 == piv2
    assert np.array_equal(reduced1, reduced2)


@given(bit_matrices())
def test_rref_preserves_row_space(data):
    _, reduced, _ = fl.rref_gf2(data)
    assert gf2_span(data) == gf2_span(reduced.tolist())


# ---------------------------------------------------------------------------
# affine systems
# ---------------------------------------------------------------------------


def test_solve_zero_equals_one_unsolvable():
    assert fl.solve_affine_gf2([[0]], [1]) is None


def test_solve_identity_unique():
    sol = fl.solve_affine_gf2(np.eye(2, dtype=np.uint8), [1, 0])
    assert sol is not None
    assert sol.particular.tolist() == [1, 0]
    assert sol.kernel_basis == ()
    assert sol.count == 1


def test_solve_free_variable():
    sol = fl.solve_affine_gf2([[0]], [0])
    assert sol is not None
    assert len(sol.kernel_basis) == 1
    assert sol.count == 2
    assert sorted(v.tolist() for v in sol.enumerate_solutions()) == [[0], [1]]


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        fl.solve_affine_gf2([[1, 0]], [1, 0])


@given(bit_matrices(max_rows=4, max_cols=5), st.lists(bits, min_size=4, max_size=4))
@settings(max_examples=150)
def test_solve_matches_exhaustive_search(mat, rhs):
    rows = len(mat)
    rhs = rhs[:rows]
    if len(rhs) < rows:
        rhs = rhs + [0] * (rows - len(rhs))
    cols = len(mat[0])
    C = np.array(mat, dtype=np.uint8)
    A = np.array(rhs, dtype=np.uint8)
    expected = {
        x
        for x in product((0, 1), repeat=cols)
        if np.array_equal(C.dot(x) % 2, A)
    }
    sol = fl.solve_affine_gf2(C, A)
    if sol is None:
        assert not expected
        witness = fl.inconsistency_witness_gf2(C, A)
        assert witness is not None
        assert not (witness.dot(C) % 2).any()
        assert witness.dot(A) % 2 == 1
    else:
        got = {tuple(int(b) for b in v) for v in sol.enumerate_solutions()}
        assert got == expected
        assert sol.count == len(expected)
        assert np.array_equal(C.dot(sol.particular) % 2, A)
        # canonical description: lex-smallest particular, independent kernel
        assert tuple(int(b) for b in sol.particular) == min(expected)
        for k in sol.kernel_basis:
            assert not (C.dot(k) % 2).any()
        if sol.kernel_basis:
            kmat = np.array(sol.kernel_basis)
            krank, _, _ = fl.rref_gf2(kmat)
            assert krank == len(sol.kernel_basis)
        assert fl.inconsistency_witness_gf2(C, A) is None


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def test_annihilator_zero_matrix():
    basis = fl.annihilator_gf2(np.zeros((2, 3), dtype=np.uint8))
    assert len(basis) == 3


def test_annihilator_identity():
    assert fl.annihilator_gf2(np.eye(3, dtype=np.uint8)) == []


def test_annihilator_single_row_exhaustive():
    basis = fl.annihilator_gf2([[1, 1, 0]])
    assert len(basis) == 2
    annihilated = {
        v for v in product((0, 1), repeat=3) if (v[0] + v[1]) % 2 == 0
    }
    spanned = gf2_span([b.tolist() for b in basis])
    assert spanned == annihilated


@given(bit_matrices())
def test_annihilator_dimension(data):
    rank, _, _ = fl.rref_gf2(data)
    basis = fl.annihilator_gf2(data)
    cols = len(data[0])
    assert len(basis) == cols - rank
    for b in basis:
        assert not (np.array(data).dot(b) % 2).any()


# ---------------------------------------------------------------------------
# Howell form over Z4
# ---------------------------------------------------------------------------


def test_howell_identity():
    h = fl.howell_z4(np.eye(3, dtype=np.uint8))
    assert h.tolist() == np.eye(3, dtype=int).tolist()


def test_howell_two_two_membership():
    h = fl.howell_z4([[2, 2]])
    multiples = {tuple((k * 2 % 4, k * 2 % 4)) for k in range(4)}
    assert (2, 2) in multiples
    assert fl.in_row_module_z4(h, [2, 2])
    assert not fl.in_row_module_z4(h, [0, 2])
    for v in product(range(4), repeat=2):
        assert fl.in_row_module_z4(h, v) == (v in multiples)


def test_howell_diagonal_membership():
    h = fl.howell_z4([[2, 0], [0, 2]])
    assert fl.in_row_module_z4(h, [2, 2])
    assert not fl.in_row_module_z4(h, [1, 0])


@given(z4_matrices())
def test_howell_idempotent(data):
    h = fl.howell_z4(data)
    again = fl.howell_z4(h)
    assert np.array_equal(h, again)


@given(z4_matrices(max_rows=3, max_cols=3))
@settings(max_examples=150)
def test_howell_membership_sound(data):
    h = fl.howell_z4(data)
    module = z4_row_module(data)
    cols = len(data[0])
    for v in product(range(4), repeat=cols):
        assert fl.in_row_module_z4(h, v) == (v in module)


def test_howell_is_canonical_for_the_row_module():
    # exhaustive over all 1- and 2-row matrices with 2 columns: matrices
    # spanning the same row module must share their Howell form
    by_module: dict[frozenset, list] = {}
    rows_iter = list(product(range(4), repeat=2))
    mats = [[list(r)] for r in rows_iter]
    mats += [[list(r), list(s)] for r in rows_iter for s in rows_iter]
    for m in mats:
        key = frozenset(z4_row_module(m))
        by_module.setdefault(key, []).append(fl.howell_z4(m))
    for forms in by_module.values():
        first = forms[0]
        for other in forms[1:]:
            assert np.array_equal(first, other)


@given(z4_matrices(max_rows=3, max_cols=3))
@settings(max_examples=100)
def test_howell_canonical_under_row_shuffling(data):
    h = fl.howell_z4(data)
    rng = random.Random(sum(sum(r) for r in data))
    shuffled = list(data)
    rng.shuffle(shuffled)
    # appending a combination of rows leaves the row module unchanged
    combo = [0] * len(data[0])
    for row in data:
        c = rng.randrange(4)
        combo = [(x + c * y) % 4 for x, y in zip(combo, row)]
    assert np.array_equal(h, fl.howell_z4(shuffled + [combo]))


@pytest.mark.parametrize(
    "m, expected",
    [
        ([[3, 1]], [[1, 3]]),  # a unit pivot 3 is negated
        ([[2, 1]], [[2, 1], [0, 2]]),  # a 2-pivot appends 2 * row
        ([[1, 3], [0, 2]], [[1, 1], [0, 2]]),  # entry above a 2-pivot in {0,1}
        ([[2, 3, 1], [0, 2, 2]], [[2, 1, 3], [0, 2, 2]]),
        ([[0, 0]], np.zeros((0, 2), dtype=int)),
        ([[1, 2, 3], [3, 2, 1], [2, 0, 2]], [[1, 2, 3]]),
    ],
)
def test_howell_exact_form(m, expected):
    h = fl.howell_z4(m)
    assert h.dtype == np.uint8 and not h.flags.writeable
    assert h.shape == np.shape(expected)
    assert h.tolist() == np.asarray(expected).tolist()


def test_reduce_by_non_howell_rows_keeps_the_even_branch():
    # A pivot 3 is not a Howell pivot; an odd entry under it is left alone.
    assert fl.reduce_by_howell_z4([[3, 1]], [1, 1]).tolist() == [1, 1]
    assert fl.reduce_by_howell_z4([[2, 1]], [3, 1]).tolist() == [3, 1]


def test_reduce_skips_zero_rows():
    # A zero row spans nothing, so reducing by it changes nothing.
    reduced = fl.reduce_by_howell_z4([[0, 0], [1, 2]], [3, 1])
    assert reduced.dtype == np.int64 and reduced.tolist() == [0, 3]
    assert fl.in_row_module_z4([[0, 0], [1, 2]], [3, 2])


def test_howell_rows_wider_than_a_machine_word():
    rng = random.Random(65)
    ncols, even_col = 70, 66
    m = [[rng.randrange(4) for _ in range(ncols)] for _ in range(6)]
    for row in m:
        row[even_col] &= 2
    h = fl.howell_z4(m)
    assert h.shape[1] == ncols and h.shape[0] >= 6
    assert np.array_equal(h, fl.howell_z4(h))

    shuffled = list(m)
    rng.shuffle(shuffled)
    combo = [0] * ncols
    for row in m:
        c = rng.randrange(4)
        combo = [(x + c * y) % 4 for x, y in zip(combo, row)]
    assert np.array_equal(h, fl.howell_z4(shuffled + [combo]))

    for _ in range(20):
        v = [0] * ncols
        for row in m:
            c = rng.randrange(4)
            v = [(x + c * y) % 4 for x, y in zip(v, row)]
        assert fl.in_row_module_z4(h, v)
    unit = [0] * ncols
    unit[even_col] = 1
    assert not fl.in_row_module_z4(h, unit)


@pytest.mark.parametrize(
    "convert, entries",
    [
        (fl.mat_gf2, [[1.7, 0.2]]),
        (fl.vec_gf2, [0.9]),
        (fl.mat_z4, [[3.5]]),
        (fl.mat_gf2, [["1"]]),
        (fl.mat_gf2, [[1.0, 0.0]]),
    ],
)
def test_non_integer_entries_are_rejected(convert, entries):
    with pytest.raises(InputError):
        convert(entries)


def test_non_integer_vector_is_rejected_by_membership():
    with pytest.raises(InputError):
        fl.in_row_module_z4([[1, 0]], [0.5, 0])
    # integer vectors are still read mod 4, and empty input is accepted
    assert fl.reduce_by_howell_z4([[1, 0]], [5, -2]).tolist() == [0, 2]
    assert fl.mat_gf2([]).size == 0 and fl.mat_z4([[]]).size == 0
    assert fl.vec_gf2([]).shape == (0,)
    assert fl.mat_gf2([[True, False]]).tolist() == [[1, 0]]


def test_input_validation():
    with pytest.raises(InputError):
        fl.mat_gf2([[0, 2]])
    with pytest.raises(InputError):
        fl.vec_gf2([3])
    with pytest.raises(InputError):
        fl.mat_z4([[4]])
    frozen = fl.mat_gf2([[1, 0]])
    with pytest.raises(ValueError):
        frozen[0, 0] = 0


# ---------------------------------------------------------------------------
# packed rows
# ---------------------------------------------------------------------------


def bit_rows(max_rows=6, max_cols=8):
    """(rows, ncols) with zero rows and zero columns allowed."""
    return st.integers(0, max_rows).flatmap(
        lambda r: st.integers(0, max_cols).flatmap(
            lambda c: st.tuples(
                st.lists(
                    st.lists(bits, min_size=c, max_size=c), min_size=r, max_size=r
                ),
                st.just(c),
            )
        )
    )


def _reference_rref(rows, ncols):
    """Textbook Gauss-Jordan on lists: first row with a 1 in the leftmost
    column still open becomes the pivot row."""
    work = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(work)) if work[i][c]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return r, work, pivots


@given(bit_rows())
def test_packed_rref_matches_array_rref(data):
    rows, ncols = data
    rank, reduced, pivots = _reference_rref(rows, ncols)
    packed = fl.BitRows(tuple(fl.pack_bits(row) for row in rows), ncols)
    p_rank, p_reduced, p_pivots = fl.rref_gf2(packed)
    assert isinstance(p_reduced, fl.BitRows)
    assert p_reduced.shape == packed.shape
    assert (p_rank, p_pivots) == (rank, pivots)
    assert [fl.unpack_bits(x, ncols) for x in p_reduced.rows] == [
        bytes(row) for row in reduced
    ]
    array = np.array(rows, dtype=np.uint8).reshape(len(rows), ncols)
    a_rank, a_reduced, a_pivots = fl.rref_gf2(array)
    assert (a_rank, a_pivots) == (rank, pivots)
    assert a_reduced.shape == array.shape
    assert a_reduced.tolist() == reduced


@pytest.mark.parametrize("ncols", [0, 1, 4096])
def test_bit_packing_round_trips(ncols):
    rng = random.Random(ncols)
    rows = [[0] * ncols, [1] * ncols, [rng.randint(0, 1) for _ in range(ncols)]]
    for row in rows:
        x = fl.pack_bits(row)
        assert 0 <= x < 2**ncols
        assert fl.unpack_bits(x, ncols) == bytes(row)
        assert fl.pack_bits(fl.unpack_bits(x, ncols)) == x
    m = fl.BitRows.from_array(np.array(rows, dtype=np.uint8).reshape(3, ncols))
    assert m.shape == (3, ncols)
    assert m.to_array().tolist() == rows
    assert fl.BitRows.from_array(m.to_array()) == m


def test_bit_packing_order_and_parity():
    # The first column is the most significant bit; residues pack by parity.
    assert fl.pack_bits([1, 0, 0]) == 0b100
    assert fl.pack_bits((3, 2, 1, 0)) == 0b1010
    assert fl.pack_bits(b"\x01\x01") == 0b11
    assert fl.set_columns(0b1011, 5) == [1, 3, 4]
    assert fl.set_columns(0, 0) == []


def test_bit_rows_shape():
    assert fl.BitRows((), 5).shape == (0, 5)
    assert fl.BitRows((0b10, 0b01, 0b11), 2).shape == (3, 2)
    empty = fl.BitRows.from_array(np.zeros((0, 3), dtype=np.uint8))
    assert empty.shape == (0, 3)
    assert empty.to_array().shape == (0, 3)
    assert fl.rref_gf2(empty) == (0, empty, [])
    with pytest.raises(InputError):
        fl.BitRows.from_array([[0, 2]])
    with pytest.raises(InputError):
        fl.eliminate_bits(fl.BitRows((0b1,), 1), [])


@given(bit_matrices(max_rows=4, max_cols=5), st.lists(bits, min_size=4, max_size=4))
@settings(max_examples=150)
def test_packed_eliminate_certifies_unsolvable_systems(mat, rhs):
    # The same systems as test_solve_matches_exhaustive_search.
    rows = len(mat)
    rhs = (rhs + [0] * rows)[:rows]
    cols = len(mat[0])
    solvable = any(
        all(sum(a * b for a, b in zip(row, x)) % 2 == t for row, t in zip(mat, rhs))
        for x in product((0, 1), repeat=cols)
    )
    C = fl.BitRows(tuple(fl.pack_bits(row) for row in mat), cols)
    rank, particular, kernel, y = fl.eliminate_bits(C, rhs)
    assert rank == fl.rref_gf2(C)[0]
    if solvable:
        assert y is None and particular is not None
        assert len(kernel) == cols - rank
        return
    assert particular is None and kernel == ()
    picked = fl.set_columns(y, rows)
    combination = 0
    for i in picked:
        combination ^= C.rows[i]
    assert combination == 0  # y.C = 0
    assert sum(rhs[i] for i in picked) % 2 == 1  # y.A = 1


@given(bit_rows(max_rows=5, max_cols=7), st.lists(bits, min_size=5, max_size=5))
@settings(max_examples=200)
def test_eliminate_bits_matches_exhaustive_solutions(data, rhs):
    rows, ncols = data
    nrows = len(rows)
    rhs = rhs[:nrows]
    C = fl.BitRows(tuple(fl.pack_bits(row) for row in rows), ncols)

    def solutions(targets):
        return [
            x
            for x in range(1 << ncols)
            if all((row & x).bit_count() % 2 == t for row, t in zip(C.rows, targets))
        ]

    rank, particular, kernel, y = fl.eliminate_bits(C, rhs)
    homogeneous = solutions([0] * nrows)
    dim, reduced, _ = fl.rref_gf2(fl.BitRows(tuple(homogeneous), ncols))
    found = solutions(rhs)
    # y: the identity part of the A-pivot row of rref([C | A | I]).
    aug = fl.BitRows(
        tuple(
            (row << 1 | a) << nrows | 1 << (nrows - 1 - i)
            for i, (row, a) in enumerate(zip(C.rows, rhs))
        ),
        ncols + 1 + nrows,
    )
    _, aug_reduced, pivots = fl.rref_gf2(aug)
    at_a = [i for i, p in enumerate(pivots) if p == ncols]
    assert rank == ncols - dim
    if found:
        assert particular == min(found)
        assert kernel == reduced.rows[:dim]
        assert y is None and not at_a
    else:
        assert (particular, kernel) == (None, ())
        assert y == aug_reduced.rows[at_a[0]] & ((1 << nrows) - 1)


def _random_systems(seed, count):
    """Seeded systems C x = A of up to 14 x 14, zero rows and zero columns
    included; low-rank C (rows summing a few random rows) makes most of
    them unsolvable, with a left null space of dimension two or more."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nrows, ncols = rng.randint(0, 14), rng.randint(0, 14)
        basis = [rng.getrandbits(ncols) for _ in range(rng.randint(0, ncols))]
        rows = []
        for _ in range(nrows):
            row = 0
            for b in basis:
                row ^= b * rng.getrandbits(1)
            rows.append(row)
        targets = [rng.getrandbits(1) for _ in range(nrows)]
        out.append((fl.BitRows(tuple(rows), ncols), targets))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eliminate_bits_is_the_augmented_elimination(seed):
    # One pass over [C' | I] and a read of A give exactly what a pass over
    # [C' | A | I] for that A gives, the witness y of a NO included.
    systems = _random_systems(seed, 700)
    shapes = [C.shape for C, _ in systems]
    assert any(n == 0 for n, _ in shapes) and any(m == 0 < n for n, m in shapes)
    outcomes = []
    for C, targets in systems:
        got = fl.eliminate_bits(C, targets)
        assert got == augmented_elimination(C, targets)
        outcomes.append((got[1] is None, len(C.rows) - got[0]))
    # NO cases whose null space has a basis of two or more rows, where y
    # is a combination of them, not the first one with target 1.
    assert sum(no and d >= 2 for no, d in outcomes) > 100
    assert sum(not no for no, _ in outcomes) > 100


def test_one_echelon_serves_every_target():
    C = fl.BitRows((0b110, 0b011, 0b101, 0b000), 3)
    echelon = fl.echelon_bits(C)
    for want in range(16):
        targets = [want >> (3 - i) & 1 for i in range(4)]
        assert echelon.solve(want) == augmented_elimination(C, targets)


def _rank_256_systems(seed):
    """Seeded random C of rank 256 or more, with a few free columns (d much
    below the rank) and with about as many free columns as the rank."""
    rng = random.Random(seed)
    shapes = [(300, 300), (260, 264), (256, 512), (300, 560)]
    return [
        fl.BitRows(tuple([rng.getrandbits(m) for _ in range(n)]), m) for n, m in shapes
    ]


def _count_kernel_reads(monkeypatch) -> list[str]:
    """Patch both kernel reads of Echelon to log which one runs."""
    reads = []
    for name in ("_read_kernel", "_reduced_kernel"):

        def logged(self, read=getattr(fl.Echelon, name), name=name):
            reads.append(name)
            return read(self)

        monkeypatch.setattr(fl.Echelon, name, logged)
    return reads


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_read_off_is_the_back_substituted_kernel(seed):
    # Reading each free column's solution off the echelon gives the kernel
    # that back substitution gives, row for row.
    systems = [C for C, _ in _random_systems(seed, 700)] + _rank_256_systems(seed)
    for C in systems:
        echelon = fl.echelon_bits(C)
        kernel = echelon._read_kernel()
        assert kernel == echelon._reduced_kernel()
        assert len(kernel) == C.ncols - echelon.rank
    for C in _rank_256_systems(seed):
        kernel = fl.echelon_bits(C)._read_kernel()
        assert all((row & k).bit_count() % 2 == 0 for row in C.rows for k in kernel)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_wide_and_narrow_kernels_are_the_augmented_elimination(monkeypatch, seed):
    # Solvable targets at rank 256 and more: the kernel is read off when
    # it is narrow and back-substituted when it is wide.
    reads = _count_kernel_reads(monkeypatch)
    rng = random.Random(seed)
    for C in _rank_256_systems(seed):
        x = rng.getrandbits(C.ncols)
        targets = [(row & x).bit_count() & 1 for row in C.rows]
        assert fl.eliminate_bits(C, targets) == augmented_elimination(C, targets)
    assert reads == ["_read_kernel"] * 2 + ["_reduced_kernel"] * 2


@pytest.mark.parametrize("seed", [1, 2])
def test_every_solvable_target_shares_one_kernel_read(monkeypatch, seed):
    # Both kinds of a subject solve on one echelon; the kernel is read
    # once, on the first solvable target, and every later one returns it.
    reads = _count_kernel_reads(monkeypatch)
    rng = random.Random(seed)
    for C in _rank_256_systems(seed):
        echelon = fl.echelon_bits(C)
        kernels = []
        for _ in range(3):
            x = rng.getrandbits(C.ncols)
            want = fl.pack_bits([(row & x).bit_count() & 1 for row in C.rows])
            kernels.append(echelon.solve(want)[2])
        assert kernels[0] is kernels[1] is kernels[2] is echelon.kernel
    assert len(reads) == 4


def test_augmented_elimination_systems_reach_both_kernel_reads(monkeypatch):
    # The systems test_eliminate_bits_is_the_augmented_elimination compares
    # read their kernels on both sides of Echelon.kernel's rule.
    reads = _count_kernel_reads(monkeypatch)
    for seed in (1, 2, 3):
        for C, targets in _random_systems(seed, 700):
            fl.eliminate_bits(C, targets)
    assert set(reads) == {"_read_kernel", "_reduced_kernel"}


@pytest.mark.parametrize(
    "call",
    [
        lambda: fl.mat_gf2([[1], [1, 0]]),
        lambda: fl.mat_z4([[1], [1, 0]]),
        lambda: fl.vec_gf2([[1], [1, 0]]),
        lambda: fl.rref_gf2([[1, 0], [1]]),
        lambda: fl.howell_z4([[1, 2, 3], [1]]),
        lambda: fl.in_row_module_z4([[1, 0], [1]], [1, 0]),
        lambda: fl.in_row_module_z4([[1, 0]], [[1], [1, 0]]),
        lambda: fl.reduce_by_howell_z4([[1, 0]], [1, [0]]),
    ],
    ids=["mat", "mat_z4", "vec", "rref", "howell", "h", "v", "reduce"],
)
def test_ragged_input_is_an_input_error(call):
    with pytest.raises(InputError, match="rectangular"):
        call()


def test_membership_reads_each_howell_form_by_its_content():
    # Consecutive forms alike in bytes or in object, but not in content.
    square = fl.howell_z4([[1, 0], [0, 2]])  # entries 1, 0, 0, 2
    flat = np.array([[1, 0, 0, 2]], dtype=np.uint8)  # the same bytes
    assert fl.in_row_module_z4(square, [0, 2])
    assert not fl.in_row_module_z4(square, [0, 1])
    assert fl.in_row_module_z4(flat, [3, 0, 0, 2])
    assert not fl.in_row_module_z4(flat, [1, 0, 0, 0])
    wide = np.array([[1, 0], [0, 2]], dtype=np.int64)  # the same values
    assert fl.in_row_module_z4(wide, [0, 2])
    h = np.array([[1, 0]], dtype=np.int64)
    assert not fl.in_row_module_z4(h, [0, 1])
    h[0, 1] = 1  # the same object, changed in place
    assert fl.in_row_module_z4(h, [1, 1])
    assert not fl.in_row_module_z4(h, [1, 0])
    h[0, 1] = 4  # now out of range: validated again
    with pytest.raises(InputError):
        fl.in_row_module_z4(h, [1, 0])
    with pytest.raises(InputError):
        fl.in_row_module_z4(square, [1, 0, 0])
    assert fl.in_row_module_z4(square, [2, 2])


@pytest.mark.parametrize("call", [fl.mat_gf2, fl.mat_z4, fl.rref_gf2])
def test_three_dimensional_input_is_an_input_error(call):
    with pytest.raises(InputError) as err:
        call(np.zeros((2, 2, 2), dtype=np.uint8))
    assert str(err.value) == "matrix must be two-dimensional"
