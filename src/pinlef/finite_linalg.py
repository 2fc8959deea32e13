"""Exact linear algebra over Z2 and Z4.

Rows are packed into Python ints, one bit per column with the first column
most significant (the packed-row layout of M4RI): a mod-2 row is one int
and a mod-4 row a pair of bit planes, its parities and its high bits
(:func:`pack_bits`, :func:`high_bits`), so an entry reads low + 2 * high.
A row operation is a few XORs and ANDs, and a leading column comes from
``bit_length()``.  Mod-2 elimination ends in the reduced row-echelon form,
unique for the row space; a decision stops at an echelon form and reads
off it what the reduced form gives, so kernels, particular solutions and
certificates are bit-exactly reproducible.  Over Z4 echelon forms are not
canonical, so the row-module routines compute the Howell form, which
decides membership in a row module by reduction to zero.

The array API (``mat_gf2``, ``vec_gf2``, ``rref_gf2`` on array-likes, the
affine solvers, ``annihilator_gf2`` and the Z4 routines) validates, packs,
works on packed rows and returns read-only numpy ``uint8`` arrays.  It
needs numpy, the ``pinlef[arrays]`` extra, and gets it from
:func:`load_numpy` alone; callers that stay with packed rows, such as
every decider and the command line, need no third-party package.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import TYPE_CHECKING, Annotated, ForwardRef, Iterator, Sequence

from ._record import Record
from .errors import InputError

# A MatGF2/VecGF2 is a read-only uint8 array with entries in {0,1}; a
# MatZ4 has entries in {0,1,2,3}.
if TYPE_CHECKING:
    import numpy as np

    MatGF2 = np.ndarray
    VecGF2 = np.ndarray
    MatZ4 = np.ndarray
else:

    class _Numpy:
        """numpy, loaded when a name is first read from it."""

        def __getattr__(self, name):
            return getattr(load_numpy(), name)

    # typing.get_type_hints resolves np.ndarray here from any module's
    # annotations, loading numpy only then; Annotated makes the aliases
    # usable in X | Y on Python 3.10, whose ForwardRef has no __or__.
    np = _Numpy()
    _ARRAY = ForwardRef("np.ndarray", module=__name__)
    MatGF2 = VecGF2 = Annotated[_ARRAY, "entries in {0,1}"]
    MatZ4 = Annotated[_ARRAY, "entries in {0,1,2,3}"]

# Bytes to the ASCII digit of their bit 0 or bit 1, and 0/1 digits back.
_PARITY_DIGITS = bytes.maketrans(bytes(range(256)), b"01" * 128)
_HIGH_DIGITS = bytes.maketrans(bytes(range(256)), b"0011" * 64)
_DIGIT_BITS = bytes.maketrans(b"01", bytes(range(2)))
# Each byte to the byte of its bits in reverse order, nibble by nibble.
_NIBBLES = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)
_REVERSED = bytes([_NIBBLES[b & 15] << 4 | _NIBBLES[b >> 4] for b in range(256)])


def _pack(residues, digits: bytes) -> int:
    if not isinstance(residues, (bytes, tuple, list)):
        residues = list(residues)  # an array's entries, not its raw buffer
    return int(bytes(residues).translate(digits) or b"0", 2)


def pack_bits(residues) -> int:
    """Parities of a row of residues in 0..3 (bytes, or ints) as one int,
    the first entry most significant."""
    return _pack(residues, _PARITY_DIGITS)


def high_bits(residues) -> int:
    """High bits of a row of residues in 0..3, packed like :func:`pack_bits`."""
    return _pack(residues, _HIGH_DIGITS)


def planes(residues: bytes) -> tuple[int, int]:
    """:func:`pack_bits` and :func:`high_bits` of a bytes row of residues."""
    return (
        int(residues.translate(_PARITY_DIGITS) or b"0", 2),
        int(residues.translate(_HIGH_DIGITS) or b"0", 2),
    )


def unpack_bits(x: int, ncols: int) -> bytes:
    """Inverse of :func:`pack_bits` on 0/1 rows: one 0/1 byte per column."""
    return format(x, f"0{ncols}b").encode().translate(_DIGIT_BITS) if ncols else b""


def set_columns(x: int, ncols: int) -> list[int]:
    """Columns of the 1 bits of a packed row, left to right."""
    return [j for j, bit in enumerate(unpack_bits(x, ncols)) if bit]


class BitRows(Record):
    """A mod-2 matrix as one int per row; column j is bit ncols - 1 - j."""

    def __init__(self, rows: tuple[int, ...], ncols: int) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ncols", ncols)

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
        return _array(self.shape, self.rows)


def load_numpy():
    """The numpy module, which the array API needs; when it is missing, an
    ImportError that names the ``pinlef[arrays]`` extra installing it."""
    try:
        import numpy
    except ImportError as exc:
        msg = "the array API needs numpy: pip install 'pinlef[arrays]'"
        raise ImportError(msg) from exc
    return numpy


def _array(shape: tuple[int, ...], low=(), high=()) -> np.ndarray:
    """Rows packed as bit planes, as a read-only uint8 array of the residues
    low + 2 * high.  Each unpacked plane is one 0/1 byte per entry, so the
    planes add as ints without carries."""
    np = load_numpy()
    data = b"".join(unpack_bits(x, shape[-1]) for x in low)
    if high:
        twos = b"".join(unpack_bits(x, shape[-1]) for x in high)
        total = int.from_bytes(data, "big") + 2 * int.from_bytes(twos, "big")
        data = total.to_bytes(len(data), "big")
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def _vector(x: int, ncols: int) -> VecGF2:
    return _array((ncols,), (x,))


def _asarray(entries) -> np.ndarray:
    np = load_numpy()
    try:
        return np.asarray(entries)
    except ValueError:  # numpy refuses rows of different lengths
        raise InputError("entries must form a rectangular array") from None


def _residues(entries, modulus: int | None, ndim: int = 2) -> np.ndarray:
    """Integer or bool entries in 0..modulus-1 (without one, kept mod 256)
    as a read-only uint8 array; an empty input of any dtype is accepted."""
    np = load_numpy()
    a = _asarray(entries)
    if a.size and a.dtype.kind not in "biu":
        raise InputError(f"entries must be integers, not {a.dtype}")
    a = np.atleast_2d(a) if ndim == 2 else a.reshape(-1)
    if a.ndim != ndim:
        raise InputError("matrix must be two-dimensional")
    if modulus and a.size:
        if a.max() >= modulus or a.dtype.kind == "i" and a.min() < 0:
            raise InputError(f"mod-{modulus} entries must lie in 0..{modulus - 1}")
    a = a.astype(np.uint8)
    a.flags.writeable = False
    return a


def mat_gf2(entries) -> MatGF2:
    """Validate and freeze a {0,1} matrix.

    Accepts any nested sequence or array of integers or bools; returns a
    read-only uint8 array of shape (rows, cols).
    """
    return _residues(entries, 2)


def vec_gf2(entries) -> VecGF2:
    """Validate and freeze a {0,1} vector."""
    return _residues(entries, 2, ndim=1)


def mat_z4(entries) -> MatZ4:
    """Validate and freeze a matrix with entries in {0,1,2,3}."""
    return _residues(entries, 4)


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
    basis = _insert(m.rows)
    leads = _back_substitute(basis)
    leads.reverse()
    rows = tuple([basis[lead] for lead in leads]) + (0,) * (len(m.rows) - len(leads))
    return len(leads), BitRows(rows, m.ncols), [m.ncols - lead for lead in leads]


def _insert(rows) -> dict[int, int]:
    """Echelon form of the rows, keyed by leading bit: a row takes a basis
    row's XOR only while their bit_length()s agree."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            row ^= pivot
    return basis


def _back_substitute(basis: dict[int, int]) -> list[int]:
    """Reduce an echelon keyed by leading bit in place; its leads, ascending.

    Rightmost pivot first: every row done so far is zero at the other
    pivot columns, so the pivot bits a row still holds name exactly the
    rows to add to it."""
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
    return leads


class Echelon(Record):
    """The targets-free half of :func:`eliminate_bits` for a mod-2 matrix C
    of ``shape``: an echelon form of [C' | I], C' being C with its columns
    reversed, one int per row of C, not back-substituted.

    The I block, bit nrows - 1 - i for row i of C, records which rows of
    C each echelon row sums.  ``rows[:rank]`` lead in C' at
    ``pivot_cols``, left to right, and hold other bits only to the right
    of their lead; the other rows are zero in C', and their I parts are
    a basis of {y : y.C = 0}.  One echelon serves every right-hand side:
    :meth:`solve` reads each one off it, and every solvable one shares
    the :attr:`kernel`.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        rank: int,
        rows: tuple[int, ...],
        pivot_cols: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivot_cols", pivot_cols)
        # The kernel, once read.  Set here, so every instance dict has the
        # same keys, and filled by the first read: cached_property takes a
        # lock on that read.
        object.__setattr__(self, "_kernel", None)

    def solve(
        self, want: int
    ) -> tuple[int, int | None, tuple[int, ...], int | None]:
        """:func:`eliminate_bits` for the targets packed in ``want``, the
        target of row i at bit nrows - 1 - i.

        An echelon row's target is the parity of the targets of the rows
        it sums, ``(row & want).bit_count() & 1``.  When a zero-C' row has
        target 1, those rows with their targets prepended span
        {(y.A, y) : y.C = 0}, whose RREF is the zero-C' block of
        [C' | A | I]'s: its first row leads at A, and its I part is y.
        Otherwise the particular solution, zero at every free column, is
        read off the pivot rows from the rightmost up: a row's target is
        its pivot's value plus its other C' bits' values, all of them
        free or settled already.
        """
        nrows, rank = self.shape[0], self.rank
        null = [(row & want).bit_count() & 1 for row in self.rows[rank:]]
        if any(null):
            rows = tuple([a << nrows | row for a, row in zip(null, self.rows[rank:])])
            _, reduced, _ = _rref_bits(BitRows(rows, nrows + 1))
            return rank, None, (), reduced.rows[0] & ((1 << nrows) - 1)
        return rank, self._read_off(want), self.kernel, None

    def _read_off(self, known: int) -> int:
        """The solution read off the pivot rows from the rightmost up, for
        the targets in known's I part and the free columns set in its C'
        part.  Pivot p of C', bit ncols - 1 - p + nrows of its row, is bit
        p of the solution; known gains each pivot set."""
        nrows, ncols = self.shape
        x = 0
        for p, row in zip(reversed(self.pivot_cols), reversed(self.rows[: self.rank])):
            if (row & known).bit_count() & 1:
                known |= 1 << (ncols - 1 - p + nrows)
                x |= 1 << p
        return x

    @property
    def kernel(self) -> tuple[int, ...]:
        """The RREF basis of {x : C x = 0}, packed like C's rows: for each
        free column, left to right, the solution that is 1 there and 0 at
        every other free column.

        Read off like a particular solution, each row costs about rank
        steps; back substitution costs about rank**2 / 4 steps, after
        which every row is read from the reduced pivot rows.  The rows are
        read off when (d + 2) * rank, for d free columns and two
        particular solutions, is the smaller.  The first read keeps it."""
        kernel = self._kernel
        if kernel is None:
            (_, ncols), rank = self.shape, self.rank
            if 4 * (ncols - rank + 2) < rank:
                kernel = self._read_kernel()
            else:
                kernel = self._reduced_kernel()
            object.__setattr__(self, "_kernel", kernel)
        return kernel

    def _read_kernel(self) -> tuple[int, ...]:
        nrows, ncols = self.shape
        pivots = set(self.pivot_cols)
        return tuple([
            1 << p | self._read_off(1 << (ncols - 1 - p + nrows))
            for p in reversed(range(ncols))
            if p not in pivots
        ])

    def _reduced_kernel(self) -> tuple[int, ...]:
        # The pivot rows' C' parts, keyed by leading bit: C's column f is
        # bit f, and a solution's bit ncols - 1 - f.
        nrows, ncols = self.shape
        pivot_rows = self.rows[: self.rank]
        basis = {row.bit_length() - nrows: row >> nrows for row in pivot_rows}
        _back_substitute(basis)
        vectors = {f: 1 << (ncols - 1 - f) for f in range(ncols) if f + 1 not in basis}
        for lead, row in basis.items():
            rest = row ^ 1 << (lead - 1)
            while rest:
                f = rest.bit_length() - 1
                vectors[f] |= 1 << (ncols - lead)
                rest ^= 1 << f
        return tuple(vectors.values())


def echelon_bits(C: BitRows) -> Echelon:
    """One insertion pass over [C' | I], the :class:`Echelon` of C."""
    nrows, ncols = C.shape
    # C' holds C's column j at bit j: each row's bits in reverse order.
    nbytes, pad = -(-ncols // 8), -ncols % 8
    flipped = [
        int.from_bytes(row.to_bytes(nbytes, "little").translate(_REVERSED), "big")
        >> pad
        for row in C.rows
    ]
    basis = _insert([x << nrows | 1 << (nrows - 1 - i) for i, x in enumerate(flipped)])
    leads = sorted(basis)
    rank = len(leads) - bisect_right(leads, nrows)
    leads.reverse()
    pivot_cols = tuple([ncols + nrows - lead for lead in leads[:rank]])
    return Echelon(C.shape, rank, tuple([basis[lead] for lead in leads]), pivot_cols)


def eliminate_bits(
    C: BitRows, targets: Sequence[int]
) -> tuple[int, int | None, tuple[int, ...], int | None]:
    """Decide C x = A over Z2: :func:`echelon_bits` eliminates C once, and
    :meth:`Echelon.solve` reads A off it.

    ``targets`` holds A, one bit per row of C.  Returns
    (rank(C), particular, kernel, y), packed like BitRows rows.  When the
    system is solvable, ``particular`` is its lexicographically smallest
    solution and ``kernel`` the RREF basis of the homogeneous solutions
    (both over C's columns), and y is None.  Otherwise ``particular`` is
    None, ``kernel`` is empty and y (over C's rows, row 0 most
    significant) picks rows with y.C = 0 and y.A = 1.

    The result is that of one Gauss-Jordan pass over [C' | A | I].  C' is
    C with its columns reversed, so the pass settles C's columns right to
    left: column f is free exactly when it is a sum of columns to its
    right, that is when a homogeneous solution leads at f, so the free
    columns are the pivots of the kernel's RREF.  Free f gives the kernel
    row f plus the pivots whose rows have f set; a pivot row's other bits
    lie left of its pivot, so these rows are that RREF already, and the
    particular solution, zero at every free column, is the smallest of
    its coset.  Elimination settles each column before later ones, so the
    rows with a zero C' part are the RREF of {(y.A, y) : y.C = 0} for any
    order of C's columns: a pivot in the A column means no solution, and
    its row's identity part is y, the same as for [C | A | I].

    Raises:
        InputError: row count of C and length of targets disagree.
    """
    nrows = len(C.rows)
    if len(targets) != nrows:
        raise InputError(
            f"system has {nrows} rows but right-hand side has length {len(targets)}"
        )
    return echelon_bits(C).solve(pack_bits(targets))


def annihilator_gf2(rows: MatGF2) -> list[VecGF2]:
    """Basis of the common annihilator of a set of row vectors.

    Returns a canonical basis of {v : row . v = 0 for every row} under the
    mod-2 dot pairing; its size is cols - rank(rows).
    """
    C = BitRows.from_array(rows)
    _, _, kernel, _ = eliminate_bits(C, (0,) * len(C.rows))
    return [_vector(k, C.ncols) for k in kernel]


class AffineSolutionGF2(Record):
    """Full solution set of a solvable mod-2 affine system C x = A.

    ``particular`` is the lexicographically smallest solution vector and
    ``kernel_basis`` is the canonical (RREF) basis of the homogeneous
    solutions, so the whole description is deterministic.  The set has
    exactly ``2 ** len(kernel_basis)`` elements.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, particular: VecGF2, kernel_basis: tuple[VecGF2, ...]) -> None:
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "kernel_basis", kernel_basis)

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


def _z4_rows(m: np.ndarray) -> list[tuple[int, int]]:
    """A uint8 array's rows as (low, high) plane pairs, one pass per plane."""
    n = m.shape[1]
    low, high = (m.tobytes().translate(t) for t in (_PARITY_DIGITS, _HIGH_DIGITS))
    rows = [slice(i * n, i * n + n) for i in range(len(m))]
    return [(int(low[r] or b"0", 2), int(high[r] or b"0", 2)) for r in rows]


def _entry(row: tuple[int, int], bit: int) -> int:
    """The residue of a plane pair at the column of ``bit``."""
    return bool(row[0] & bit) + 2 * bool(row[1] & bit)


def _sub_mul(a: tuple[int, int], k: int, b: tuple[int, int]) -> tuple[int, int]:
    """a - k*b over Z4, as a + (-k)*b: -b flips b's high plane where its low
    plane is set, 2*b moves the low plane up, and ANDed low planes carry."""
    low, high = ((0, 0), b, (0, b[0]), (b[0], b[1] ^ b[0]))[-k % 4]
    return a[0] ^ low, a[1] ^ high ^ (a[0] & low)


def howell_z4(m: MatZ4) -> MatZ4:
    """Canonical Howell form of the row module of ``m`` over Z4.

    The output spans the same row module, is unique for that module, and
    supports membership testing by reduction (see
    :func:`in_row_module_z4`).  Zero rows are dropped.
    """
    m = mat_z4(m)
    ncols = m.shape[1]
    work = _z4_rows(m)
    r = 0
    for bit in (1 << s for s in reversed(range(ncols))):  # columns left to right
        # The pivot is the first unit entry (odd residues are the units of
        # Z4), else the first 2: a 2-pivot cannot clear odd entries.
        rest = [j for j in range(r, len(work)) if _entry(work[j], bit)]
        if not rest:
            continue
        pivot_at = next((j for j in rest if work[j][0] & bit), rest[0])
        work[r], work[pivot_at] = work[pivot_at], work[r]
        low, high = work[r]
        unit = low & bit
        if unit and high & bit:  # pivot 3 = -1: negate the row
            work[r] = low, high ^ low
        # A unit pivot clears its column; a 2-pivot turns 2, 3 into 0, 1.
        for i, row in enumerate(work):
            if i != r:
                k = _entry(row, bit)
                work[i] = _sub_mul(row, k if unit else k >> 1, work[r])
        # Howell condition: the annihilator multiple 2*row of a 2-pivot row
        # starts in a later column and must stay representable by later rows.
        if not unit and low:
            work.append((0, low))
        r += 1
    rows = [row for row in work[:r] if row != (0, 0)]
    return _array((len(rows), ncols), *zip(*rows))


# (key, (column count, plane pairs)) of the last Howell form reduced by: a
# membership loop passes the same h for every vector.  The key is the array's
# shape, dtype and bytes, all that its validation depends on.
_last_howell: tuple = (None, None)


def _howell_rows(h: MatZ4) -> tuple[int, list[tuple[int, int]]]:
    global _last_howell
    a = _asarray(h)
    key = (a.shape, a.dtype.str, a.tobytes())
    seen, packed = _last_howell
    if key != seen:
        m = mat_z4(a)
        packed = m.shape[1], _z4_rows(m)
        _last_howell = key, packed
    return packed


def _reduce_z4(h: MatZ4, v) -> tuple[tuple[int, int], int]:
    """``v`` reduced by the rows of ``h``, as a plane pair, and its length."""
    ncols, rows = _howell_rows(h)
    v = _residues(v, None, ndim=1)
    if v.shape[0] != ncols:
        raise InputError(f"vector length {v.shape[0]} does not match {ncols} columns")
    x = pack_bits(v.tobytes()), high_bits(v.tobytes())
    for low, high in rows:
        bit = 1 << (low | high).bit_length() >> 1  # the pivot column
        k = _entry(x, bit)
        if high & bit or not low & bit:  # a 2-pivot clears only an even entry
            k = 0 if k & 1 else k >> 1
        x = _sub_mul(x, k, (low, high))
    return x, ncols


def reduce_by_howell_z4(h: MatZ4, v) -> np.ndarray:
    """Reduce a vector by a Howell-form matrix; residue 0 means membership."""
    x, ncols = _reduce_z4(h, v)
    return _array((ncols,), [x[0]], [x[1]]).astype("int64")


def in_row_module_z4(h: MatZ4, v) -> bool:
    """Membership of ``v`` in the row module spanned by Howell form ``h``."""
    return _reduce_z4(h, v)[0] == (0, 0)
