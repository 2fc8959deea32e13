"""Exact dense linear algebra over Z2 and Z4.

Matrices and vectors are numpy ``uint8`` arrays; constructors validate the
residue range and return read-only views so values can be shared freely.
The mod-2 routines use Gauss-Jordan elimination with leftmost-pivot
selection, so reduced forms (and everything derived from them: kernels,
particular solutions, reported certificates) are reproducible bit-exactly.
Over Z4 plain echelon forms are not canonical, so the row-module routines
compute the Howell form instead, which makes membership in a row module
decidable by reduction to zero.  Nothing is optimized for large or sparse
inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .errors import InputError

# Aliases for readability in signatures: a MatGF2/VecGF2 is a read-only
# uint8 array with entries in {0,1}; a MatZ4 has entries in {0,1,2,3}.
MatGF2 = np.ndarray
VecGF2 = np.ndarray
MatZ4 = np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def mat_gf2(entries) -> MatGF2:
    """Validate and freeze a {0,1} matrix.

    Accepts any nested sequence or array; returns a read-only uint8 array
    of shape (rows, cols).
    """
    m = np.atleast_2d(np.asarray(entries, dtype=np.int64))
    if m.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    if m.size and not np.isin(m, (0, 1)).all():
        raise InputError("mod-2 matrix entries must be 0 or 1")
    return _freeze(m.astype(np.uint8))


def vec_gf2(entries) -> VecGF2:
    """Validate and freeze a {0,1} vector."""
    v = np.asarray(entries, dtype=np.int64).reshape(-1)
    if v.size and not np.isin(v, (0, 1)).all():
        raise InputError("mod-2 vector entries must be 0 or 1")
    return _freeze(v.astype(np.uint8))


def mat_z4(entries) -> MatZ4:
    """Validate and freeze a matrix with entries in {0,1,2,3}."""
    m = np.atleast_2d(np.asarray(entries, dtype=np.int64))
    if m.ndim != 2:
        raise InputError("matrix must be two-dimensional")
    if m.size and not np.isin(m, (0, 1, 2, 3)).all():
        raise InputError("mod-4 matrix entries must lie in 0..3")
    return _freeze(m.astype(np.uint8))


def rref_gf2(m: MatGF2) -> tuple[int, MatGF2, list[int]]:
    """Reduced row-echelon form over Z2.

    Args:
        m: binary matrix (any {0,1} array-like).

    Returns:
        (rank, reduced, pivot_cols) where ``reduced`` is read-only, in
        reduced row-echelon form with the same row space as ``m``, and
        ``pivot_cols`` lists the pivot columns left to right.
    """
    reduced = np.array(mat_gf2(m), dtype=np.uint8)  # writable copy
    nrows, ncols = reduced.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hits = np.nonzero(reduced[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            reduced[[r, p]] = reduced[[p, r]]
        for i in range(nrows):
            if i != r and reduced[i, c]:
                reduced[i] ^= reduced[r]
        pivot_cols.append(c)
        r += 1
    return r, _freeze(reduced), pivot_cols


def annihilator_gf2(rows: MatGF2) -> list[VecGF2]:
    """Basis of the common annihilator of a set of row vectors.

    Returns a canonical basis of {v : row . v = 0 for every row} under the
    mod-2 dot pairing; its size is cols - rank(rows).
    """
    rows = mat_gf2(rows)
    _, solution, _ = eliminate_affine_gf2(rows, np.zeros(rows.shape[0], np.uint8))
    return list(solution.kernel_basis)


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
    """Decide C x = A over Z2 with one Gauss-Jordan pass over [C | A | I].

    Returns (rank(C), solution, y): exactly one of the full solution set
    and a row combination y with y.C = 0 and y.A = 1 is not None.

    Leftmost-pivot elimination settles each column before looking at later
    ones, and a row whose pivot lies further right never changes earlier
    columns, so the C and A columns of the result are rref([C | A]).  A
    pivot in the A column means the system is unsolvable, and that row's
    identity part names the rows of C that sum to zero while their targets
    sum to one.

    Raises:
        InputError: row count of C and length of A disagree.
    """
    C = mat_gf2(C)
    A = vec_gf2(A)
    if C.shape[0] != A.shape[0]:
        raise InputError(
            f"system has {C.shape[0]} rows but right-hand side has length {A.shape[0]}"
        )
    nrows, ncols = C.shape
    aug = np.hstack([C, A[:, None], np.eye(nrows, dtype=np.uint8)])
    _, reduced, pivot_cols = rref_gf2(aug)
    rank = bisect_left(pivot_cols, ncols)
    if rank < len(pivot_cols) and pivot_cols[rank] == ncols:
        return rank, None, _freeze(reduced[rank, ncols + 1 :].copy())

    # Kernel basis from the free columns, re-reduced so that the basis
    # itself is in RREF (unique for the subspace).
    pivots = pivot_cols[:rank]
    free_cols = sorted(set(range(ncols)) - set(pivots))
    vectors = np.zeros((len(free_cols), ncols), dtype=np.uint8)
    vectors[np.arange(len(free_cols)), free_cols] = 1
    vectors[:, pivots] = reduced[:rank][:, free_cols].T
    kernel = ()
    if free_cols:
        _, canon, _ = rref_gf2(vectors)
        kernel = tuple(_freeze(row.copy()) for row in canon)
    particular = np.zeros(ncols, dtype=np.uint8)
    particular[pivots] = reduced[:rank, ncols]
    # Reducing by the canonical kernel rows at their pivot positions yields
    # the lexicographically smallest element of the solution coset.
    for row in kernel:
        p = int(np.nonzero(row)[0][0])
        if particular[p]:
            particular ^= row
    return rank, AffineSolutionGF2(_freeze(particular), kernel), None


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
