"""Exact linear algebra over Z2 and Z4.

Mod-2 elimination works on :class:`BitRows`: one Python int per row, one
bit per column with the first column most significant, so a row operation
is one XOR and a row's leading column comes from ``bit_length()`` (the
packed-row layout of M4RI).  Elimination runs only on this form and always
ends in the reduced row-echelon form, which is unique for the row space,
so reduced forms (and everything derived from them: kernels, particular
solutions, reported certificates) are reproducible bit-exactly.

The array API (``mat_gf2``, ``vec_gf2``, ``rref_gf2`` on array-likes, the
affine solvers, ``annihilator_gf2`` and the Z4 routines) takes and returns
read-only numpy ``uint8`` arrays: it validates, packs, eliminates and
unpacks.  numpy is imported inside those functions only, so callers that
stay with BitRows, such as every decider and the command line, never load
it.  Over Z4 plain echelon forms are not canonical, so the row-module
routines compute the Howell form instead, which makes membership in a row
module decidable by reduction to zero.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

    # A MatGF2/VecGF2 is a read-only uint8 array with entries in {0,1}; a
    # MatZ4 has entries in {0,1,2,3}.
    MatGF2 = np.ndarray
    VecGF2 = np.ndarray
    MatZ4 = np.ndarray

# Residue bytes 0..3 to the ASCII digit of their parity, and 0/1 digits back.
_PARITY_DIGITS = bytes.maketrans(bytes(range(4)), b"0101")
_DIGIT_BITS = bytes.maketrans(b"01", bytes(range(2)))


def pack_bits(residues) -> int:
    """Parities of a row of residues in 0..3 (bytes, or ints) as one int,
    the first entry most significant."""
    if not isinstance(residues, (bytes, tuple, list)):
        residues = list(residues)  # an array's entries, not its raw buffer
    digits = bytes(residues).translate(_PARITY_DIGITS)
    return int(digits, 2) if digits else 0


def unpack_bits(x: int, ncols: int) -> bytes:
    """Inverse of :func:`pack_bits` on 0/1 rows: one 0/1 byte per column."""
    return format(x, f"0{ncols}b").encode().translate(_DIGIT_BITS) if ncols else b""


def set_columns(x: int, ncols: int) -> list[int]:
    """Columns of the 1 bits of a packed row, left to right."""
    return [j for j, bit in enumerate(unpack_bits(x, ncols)) if bit]


@dataclass(frozen=True)
class BitRows:
    """A mod-2 matrix as one int per row; column j is bit ncols - 1 - j."""

    rows: tuple[int, ...]
    ncols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.ncols

    @classmethod
    def from_array(cls, entries) -> BitRows:
        """Validate a {0,1} array-like (see :func:`mat_gf2`) and pack it."""
        m = mat_gf2(entries)
        return cls(tuple(pack_bits(row.tobytes()) for row in m), m.shape[1])

    def to_array(self) -> MatGF2:
        """The matrix as a read-only uint8 array."""
        import numpy as np

        data = b"".join(unpack_bits(x, self.ncols) for x in self.rows)
        return _freeze(np.frombuffer(data, dtype=np.uint8).reshape(self.shape))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _vector(x: int, ncols: int) -> VecGF2:
    import numpy as np

    return _freeze(np.frombuffer(unpack_bits(x, ncols), dtype=np.uint8))


def mat_gf2(entries) -> MatGF2:
    """Validate and freeze a {0,1} matrix.

    Accepts any nested sequence or array; returns a read-only uint8 array
    of shape (rows, cols).
    """
    import numpy as np

    m = np.atleast_2d(np.asarray(entries, dtype=np.int64))
    if m.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    if m.size and not ((m == 0) | (m == 1)).all():
        raise InputError("mod-2 matrix entries must be 0 or 1")
    return _freeze(m.astype(np.uint8))


def vec_gf2(entries) -> VecGF2:
    """Validate and freeze a {0,1} vector."""
    import numpy as np

    v = np.asarray(entries, dtype=np.int64).reshape(-1)
    if v.size and not ((v == 0) | (v == 1)).all():
        raise InputError("mod-2 vector entries must be 0 or 1")
    return _freeze(v.astype(np.uint8))


def mat_z4(entries) -> MatZ4:
    """Validate and freeze a matrix with entries in {0,1,2,3}."""
    import numpy as np

    m = np.atleast_2d(np.asarray(entries, dtype=np.int64))
    if m.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    if m.size and not ((m >= 0) & (m <= 3)).all():
        raise InputError("mod-4 matrix entries must lie in 0..3")
    return _freeze(m.astype(np.uint8))


def rref_gf2(m) -> tuple[int, BitRows | MatGF2, list[int]]:
    """Reduced row-echelon form over Z2.

    Args:
        m: a :class:`BitRows`, or any {0,1} array-like.

    Returns:
        (rank, reduced, pivot_cols) where ``reduced`` is in reduced
        row-echelon form with the same row space and shape as ``m`` (zero
        rows last), and ``pivot_cols`` lists the pivot columns left to
        right.  ``reduced`` is a BitRows when ``m`` is one, otherwise a
        read-only uint8 array.
    """
    if isinstance(m, BitRows):
        return _rref_bits(m)
    rank, reduced, pivot_cols = _rref_bits(BitRows.from_array(m))
    return rank, reduced.to_array(), pivot_cols


def _rref_bits(m: BitRows) -> tuple[int, BitRows, list[int]]:
    # Echelon form: insert each row into a basis keyed by leading bit; a row
    # takes a basis row's XOR only while their bit_length()s agree.
    basis: dict[int, int] = {}
    for row in m.rows:
        while row:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    # Back substitution, rightmost pivot first: every row done so far is zero
    # at the other pivot columns, so the pivot bits a row still holds name
    # exactly the rows to add to it.
    leads = sorted(basis)
    done = 0
    for lead in leads:
        row = basis[lead]
        hits = row & done
        while hits:
            h = hits.bit_length()
            row ^= basis[h]
            hits ^= 1 << (h - 1)
        basis[lead] = row
        done |= 1 << (lead - 1)
    leads.reverse()
    rows = tuple(basis[lead] for lead in leads) + (0,) * (len(m.rows) - len(leads))
    return len(leads), BitRows(rows, m.ncols), [m.ncols - lead for lead in leads]


def eliminate_bits(
    C: BitRows, targets: Sequence[int]
) -> tuple[int, int | None, tuple[int, ...], int | None]:
    """Decide C x = A over Z2 with one Gauss-Jordan pass over [C | A | I].

    ``targets`` holds A, one bit per row of C.  Returns
    (rank(C), particular, kernel, y), packed like BitRows rows.  When the
    system is solvable, ``particular`` is its lexicographically smallest
    solution and ``kernel`` the RREF basis of the homogeneous solutions
    (both over C's columns), and y is None.  Otherwise ``particular`` is
    None, ``kernel`` is empty and y (over C's rows, row 0 most
    significant) picks rows with y.C = 0 and y.A = 1.

    Gauss-Jordan elimination settles each column before looking at later
    ones, and a row whose pivot lies further right never changes earlier
    columns, so the C and A columns of rref([C | A | I]) are
    rref([C | A]).  A pivot in the A column means the system is
    unsolvable, and that row's identity part names the rows of C that sum
    to zero while their targets sum to one.

    Raises:
        InputError: row count of C and length of targets disagree.
    """
    nrows, ncols = C.shape
    if len(targets) != nrows:
        raise InputError(
            f"system has {nrows} rows but right-hand side has length {len(targets)}"
        )
    aug = BitRows(
        tuple(
            (row << 1 | a) << nrows | 1 << (nrows - 1 - i)
            for i, (row, a) in enumerate(zip(C.rows, targets))
        ),
        ncols + 1 + nrows,
    )
    _, reduced, pivot_cols = rref_gf2(aug)
    rank = bisect_left(pivot_cols, ncols)
    if rank < len(pivot_cols) and pivot_cols[rank] == ncols:
        return rank, None, (), reduced.rows[rank] & ((1 << nrows) - 1)

    # Free column f spans one homogeneous solution: bit f, plus each pivot
    # column whose row has f set.  Re-reduced, the basis is unique.
    free = set(range(ncols)) - set(pivot_cols[:rank])
    vectors = {ncols - 1 - f: 1 << (ncols - 1 - f) for f in free}
    particular = 0
    for p, row in zip(pivot_cols, reduced.rows[:rank]):
        pivot_bit = 1 << (ncols - 1 - p)
        if row >> nrows & 1:
            particular |= pivot_bit
        rest = row >> (nrows + 1) ^ pivot_bit
        while rest:
            b = rest.bit_length() - 1
            vectors[b] |= pivot_bit
            rest ^= 1 << b
    kernel = ()
    if vectors:
        ordered = (vectors[b] for b in sorted(vectors, reverse=True))
        kernel = rref_gf2(BitRows(tuple(ordered), ncols))[1].rows
    # Reducing by the canonical kernel rows at their pivot positions yields
    # the lexicographically smallest element of the solution coset.
    for row in kernel:
        if particular >> (row.bit_length() - 1) & 1:
            particular ^= row
    return rank, particular, kernel, None


def annihilator_gf2(rows: MatGF2) -> list[VecGF2]:
    """Basis of the common annihilator of a set of row vectors.

    Returns a canonical basis of {v : row . v = 0 for every row} under the
    mod-2 dot pairing; its size is cols - rank(rows).
    """
    C = BitRows.from_array(rows)
    _, _, kernel, _ = eliminate_bits(C, (0,) * len(C.rows))
    return [_vector(k, C.ncols) for k in kernel]


@dataclass(frozen=True, eq=False)
class AffineSolutionGF2:
    """Full solution set of a solvable mod-2 affine system C x = A.

    ``particular`` is the lexicographically smallest solution vector and
    ``kernel_basis`` is the canonical (RREF) basis of the homogeneous
    solutions, so the whole description is deterministic.  The set has
    exactly ``2 ** len(kernel_basis)`` elements.
    """

    particular: VecGF2
    kernel_basis: tuple[VecGF2, ...]

    @property
    def count(self) -> int:
        return 1 << len(self.kernel_basis)

    def enumerate_solutions(self) -> Iterator[VecGF2]:
        """Yield every solution, ordered lexicographically by the
        coefficient vector over ``kernel_basis``."""
        for bits in product((0, 1), repeat=len(self.kernel_basis)):
            v = self.particular.copy()
            for bit, k in zip(bits, self.kernel_basis):
                if bit:
                    v ^= k
            yield v


def eliminate_affine_gf2(
    C: MatGF2, A: VecGF2
) -> tuple[int, AffineSolutionGF2 | None, VecGF2 | None]:
    """Array form of :func:`eliminate_bits`.

    Returns (rank(C), solution, y): exactly one of the full solution set
    and a row combination y with y.C = 0 and y.A = 1 is not None.

    Raises:
        InputError: row count of C and length of A disagree.
    """
    C = BitRows.from_array(C)
    rank, particular, kernel, y = eliminate_bits(C, vec_gf2(A).tolist())
    if particular is None:
        return rank, None, _vector(y, C.shape[0])
    n = C.ncols
    solution = AffineSolutionGF2(
        _vector(particular, n), tuple(_vector(k, n) for k in kernel)
    )
    return rank, solution, None


def solve_affine_gf2(C: MatGF2, A: VecGF2) -> AffineSolutionGF2 | None:
    """Solve C x = A over Z2, describing the whole solution space.

    Returns None when the system is unsolvable, i.e. when
    rank(C) < rank(C | A).

    Raises:
        InputError: row count of C and length of A disagree.
    """
    return eliminate_affine_gf2(C, A)[1]


def inconsistency_witness_gf2(C: MatGF2, A: VecGF2) -> VecGF2 | None:
    """Row combination certifying unsolvability of C x = A, if any.

    Returns y with y.C = 0 and y.A = 1 when the system is unsolvable,
    None when it is solvable.
    """
    return eliminate_affine_gf2(C, A)[2]


_Z4_INVERSE = {1: 1, 3: 3}


def howell_z4(m: MatZ4) -> MatZ4:
    """Canonical Howell form of the row module of ``m`` over Z4.

    The output spans the same row module, is unique for that module, and
    supports membership testing by reduction (see
    :func:`in_row_module_z4`).  Zero rows are dropped.
    """
    import numpy as np

    m = mat_z4(m)
    ncols = m.shape[1]
    work = [row.astype(np.int64) for row in np.array(m)]
    r = 0
    for c in range(ncols):
        # Pivot selection: a unit entry if one exists (odd residues are the
        # units of Z4), otherwise a 2.  A 2-pivot cannot clear odd entries,
        # so units must win.
        pivot_at = None
        for j in range(r, len(work)):
            if work[j][c] % 2 == 1:
                pivot_at = j
                break
        if pivot_at is None:
            for j in range(r, len(work)):
                if work[j][c] % 4 != 0:
                    pivot_at = j
                    break
        if pivot_at is None:
            continue
        if pivot_at != r:
            work[r], work[pivot_at] = work[pivot_at], work[r]
        pivot = int(work[r][c] % 4)
        if pivot % 2 == 1:
            work[r] = (work[r] * _Z4_INVERSE[pivot]) % 4
            for i in range(len(work)):
                if i != r and work[i][c] % 4:
                    work[i] = (work[i] - work[i][c] * work[r]) % 4
        else:  # pivot == 2; every other entry in this column is 0 or 2
            work[r] = work[r] % 4
            for i in range(len(work)):
                if i == r:
                    continue
                if work[i][c] % 4 >= 2:
                    work[i] = (work[i] - work[r]) % 4
            # Howell condition: the annihilator multiple 2*row starts in a
            # later column and must stay representable by later rows.
            extra = (2 * work[r]) % 4
            if extra.any():
                work.append(extra)
        r += 1
    rows = [row % 4 for row in work[:r] if (row % 4).any()]
    if not rows:
        return _freeze(np.zeros((0, ncols), dtype=np.uint8))
    return _freeze(np.array(rows, dtype=np.uint8))


def reduce_by_howell_z4(h: MatZ4, v) -> np.ndarray:
    """Reduce a vector by a Howell-form matrix; residue 0 means membership."""
    import numpy as np

    h = mat_z4(h)
    v = np.asarray(v, dtype=np.int64).reshape(-1) % 4
    if v.shape[0] != h.shape[1]:
        raise InputError(
            f"vector length {v.shape[0]} does not match {h.shape[1]} columns"
        )
    for row in h:
        row = row.astype(np.int64)
        c = int(np.nonzero(row)[0][0])
        pivot = int(row[c])
        if pivot == 1:
            v = (v - v[c] * row) % 4
        elif v[c] % 2 == 0:
            v = (v - (v[c] // 2) * row) % 4
    return v


def in_row_module_z4(h: MatZ4, v) -> bool:
    """Membership of ``v`` in the row module spanned by Howell form ``h``."""
    return not reduce_by_howell_z4(h, v).any()
