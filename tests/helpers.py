"""Shared fiber lists and instance generators for the decision tests."""

from __future__ import annotations

from itertools import combinations_with_replacement, product

import pinlef as P
from pinlef import constraints as cs
from pinlef import finite_linalg as fl
from pinlef import surfaces as sf

# Representative fibers, grouped by mod-2 homology rank.
RANK_LE_2_FIBERS = [
    P.orientable_surface(0, 1),  # disk, rank 0
    P.orientable_surface(0, 2),  # annulus, rank 1
    P.non_orientable_surface(1, 1),  # Moebius band, rank 1
    P.orientable_surface(1, 0),  # torus, rank 2
    P.non_orientable_surface(2, 0),  # Klein bottle, rank 2
    P.non_orientable_surface(1, 2),  # rank 2
]

RANK_3_4_FIBERS = [
    P.non_orientable_surface(3, 0),  # rank 3
    P.non_orientable_surface(2, 1),  # rank 3
    P.non_orientable_surface(1, 3),  # rank 3
    P.orientable_surface(1, 2),  # rank 3
    P.non_orientable_surface(2, 2),  # rank 3
    P.non_orientable_surface(4, 0),  # rank 4
    P.orientable_surface(2, 0),  # rank 4
    P.non_orientable_surface(3, 1),  # rank 4
    P.non_orientable_surface(1, 4),  # rank 4
]

_POOLS: dict[P.SurfaceModel, tuple[P.HomologyClass, ...]] = {}


def two_sided_pool(surface: P.SurfaceModel) -> tuple[P.HomologyClass, ...]:
    """Every Z4 coordinate vector whose reduction has even self-intersection."""
    if surface not in _POOLS:
        pres = P.homology_presentation(surface)
        pool = tuple(
            P.z4_class(coords)
            for coords in product(range(4), repeat=pres.z2_rank)
            if sf.self_intersection_mod2(pres, coords) == 0
        )
        _POOLS[surface] = pool
    return _POOLS[surface]


def iter_exhaustive_instances(fibers, max_cycles=4):
    """All fibrations over the given fibers with cycle multisets up to size 4."""
    for s in fibers:
        pool = two_sided_pool(s)
        for size in range(max_cycles + 1):
            for cycles in combinations_with_replacement(pool, size):
                yield P.LefschetzFibration(s, cycles)


def sample_instances(rng, fibers, count, max_cycles=4):
    """Seeded random fibrations drawn from the two-sided class pools."""
    out = []
    for _ in range(count):
        s = rng.choice(fibers)
        pool = two_sided_pool(s)
        size = rng.randint(0, max_cycles)
        cycles = tuple(rng.choice(pool) for _ in range(size))
        out.append(P.LefschetzFibration(s, cycles))
    return out


def random_two_sided_row(rng, width):
    """Random Z4 coordinate row with even mod-2 weight (hence two-sided)."""
    while True:
        row = [rng.randrange(4) for _ in range(width)]
        if sum(a % 2 for a in row) % 2 == 0:
            return row


def random_decomposition(rng, genus) -> P.HandlebodyDecomposition3:
    """Random homologically sound handlebody data of the given genus."""
    width = 2 * genus
    attach = tuple(
        P.z4_class(random_two_sided_row(rng, width)) for _ in range(genus)
    )
    belt = tuple(P.z4_class(random_two_sided_row(rng, width)) for _ in range(genus))
    return P.HandlebodyDecomposition3(genus, attach, belt)


def gf2_span(rows) -> set[tuple[int, ...]]:
    """Brute-force mod-2 row span (independent of any package routine)."""
    rows = [tuple(int(x) % 2 for x in row) for row in rows]
    if not rows:
        return {()}
    n = len(rows[0])
    out = set()
    for bits in product((0, 1), repeat=len(rows)):
        v = [0] * n
        for bit, row in zip(bits, rows):
            if bit:
                v = [a ^ b for a, b in zip(v, row)]
        out.add(tuple(v))
    return out


def z4_row_module(rows) -> set[tuple[int, ...]]:
    """Brute-force Z4 row module (independent of the Howell routine)."""
    rows = [tuple(int(x) % 4 for x in row) for row in rows]
    if not rows:
        return {()}
    n = len(rows[0])
    out = set()
    for coeffs in product(range(4), repeat=len(rows)):
        v = [0] * n
        for a, row in zip(coeffs, rows):
            v = [(x + a * y) % 4 for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


def intersection_mod2(pres, u, v) -> int:
    """u.v mod 2 of two coordinate rows, read off the presentation's
    ``diagonal`` and ``partner`` tables alone."""
    total = 0
    for i, a in enumerate(u):
        if a % 2:
            j = pres.partner[i]
            total += pres.diagonal[i] * v[i] + (v[j] if j >= 0 else 0)
    return total % 2


def twist(pres, c, x) -> tuple[int, ...]:
    """T_c(x) = x + (x.c) c on Z4 coordinate rows: the action of the Dehn
    twist along c, exact mod 2."""
    if not intersection_mod2(pres, x, c):
        return tuple(x)
    return tuple((a + b) % 4 for a, b in zip(x, c))


def hurwitz_move(pres, cycles, i) -> list[tuple[int, ...]]:
    """The cycle list with (c_i, c_{i+1}) replaced by (T_{c_i}(c_{i+1}), c_i);
    the product of the twists, and so the fibration, does not change."""
    out = [tuple(c) for c in cycles]
    out[i], out[i + 1] = twist(pres, out[i], out[i + 1]), out[i]
    return out


def pulled_back(q, d):
    """q o T_d, the enhancement whose value on each generator e is
    q(T_d(e)); T_d keeps the mod-2 form, so this is an enhancement too."""
    pres = P.homology_presentation(q.surface)
    if isinstance(q, P.EnhancementMinus):
        evaluate, make = P.eval_qminus, P.z2_class
    else:
        evaluate, make = P.eval_qplus, P.z4_class
    r = pres.z2_rank
    units = [[int(i == k) for k in range(r)] for i in range(r)]
    values = tuple(evaluate(q, make(twist(pres, d, e))) for e in units)
    return type(q)(q.surface, values)


def handle_slide(classes, i, j, times) -> list[tuple[int, ...]]:
    """The classes with a_i replaced by a_i + times * a_j mod 4; when
    a_i.a_j is even this slides handle i over handle j, which keeps the
    manifold."""
    out = [tuple(c) for c in classes]
    out[i] = tuple((a + times * b) % 4 for a, b in zip(out[i], out[j]))
    return out


def candidate_hit_rows(system) -> list[int]:
    """The bit rows ``system.hit_rows()`` lists, one candidate at a time:
    candidate t moves q0's value on a class c by step * popcount(c & t),
    so each class is a parity test on t, tried until t's first miss."""
    s = system.surface
    if system.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
        return []
    cls, evaluate = cs._KINDS[system.kind]
    pres, tests = sf.homology_presentation(s), []
    for c in system.classes:
        gap, odd = divmod(system.target - evaluate(0, c, pres), cls.step)
        if odd:  # no candidate meets c
            return []
        tests.append((c._bits, gap % 2))
    hits = []
    for t in range(1 << s.z2_rank):
        for mask, parity in tests:
            if (mask & t).bit_count() & 1 != parity:
                break
        else:
            hits.append(t)
    return hits


def augmented_elimination(C, targets):
    """``fl.eliminate_bits(C, targets)`` as one Gauss-Jordan pass over
    [C' | A | I] for this one right-hand side, C' being C with its columns
    reversed: the pivot rows give the particular solution and the kernel,
    and a pivot in the A column gives y, its row's I part."""
    nrows, ncols = C.shape
    flipped = [int(format(row, f"0{ncols}b")[::-1] or "0", 2) for row in C.rows]
    aug = fl.BitRows(
        tuple(
            (x << 1 | a) << nrows | 1 << (nrows - 1 - i)
            for i, (x, a) in enumerate(zip(flipped, targets))
        ),
        ncols + 1 + nrows,
    )
    _, reduced, pivot_cols = fl.rref_gf2(aug)
    rank = sum(p < ncols for p in pivot_cols)
    if rank < len(pivot_cols) and pivot_cols[rank] == ncols:
        return rank, None, (), reduced.rows[rank] & ((1 << nrows) - 1)
    pivots = {ncols - 1 - p for p in pivot_cols[:rank]}
    vectors = {f: 1 << (ncols - 1 - f) for f in range(ncols) if f not in pivots}
    particular = 0
    for p, row in zip(pivot_cols, reduced.rows[:rank]):
        if row >> nrows & 1:
            particular |= 1 << p
        rest = row >> (nrows + 1) ^ 1 << (ncols - 1 - p)
        for f in range(ncols):
            if rest >> f & 1:
                vectors[f] |= 1 << p
    return rank, particular, tuple(vectors.values()), None
