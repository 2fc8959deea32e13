"""Seeded input documents for the benchmark workloads.

Each workload's pool is a fixed grid of shapes (surface, cycle counts,
annihilator dimension, intended verdicts and, where given, class weight);
the seed only draws the coordinates.  Every instance is serialised in pinlef's document format,
which is all pinlef receives.  Verdicts are chosen by rejection sampling
against the reference, so every pool has the same mix of YES and NO on
every seed and per-decision counts repeat exactly between runs.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference

YES, NO = True, False


def surface_block(kind: str, count: int, boundary: int) -> str:
    word = "genus" if kind == "orientable" else "crosscaps"
    return f"[surface]\nkind = {kind}\n{word} = {count}\nboundary = {boundary}\n"


def fibration_text(kind: str, count: int, boundary: int, cycles) -> str:
    rows = "".join(",".join(map(str, c)) + "\n" for c in cycles)
    return surface_block(kind, count, boundary) + "\n[cycles]\n" + rows


def threefold_text(genus: int, attach, belt) -> str:
    lines = [f"attach = {','.join(map(str, c))}" for c in attach]
    lines += [f"belt = {','.join(map(str, c))}" for c in belt]
    return (
        surface_block("non-orientable", 2 * genus, 0)
        + f"\n[threefold]\ngenus = {genus}\n"
        + "\n".join(lines)
        + "\n"
    )


def _two_sided_bits(rng: random.Random, n_cross: int, rank: int, weight=None) -> list[int]:
    """A nonzero mod-2 class with even self-intersection (even crosscap weight),
    with exactly ``weight`` nonzero coordinates when that is given."""
    while weight is not None:
        ones = set(rng.sample(range(rank), weight))
        if len(ones & set(range(n_cross))) % 2 == 0:
            return [int(i in ones) for i in range(rank)]
    while True:
        bits = [rng.randrange(2) for _ in range(rank)]
        if sum(bits[:n_cross]) % 2:
            bits[rng.randrange(n_cross)] ^= 1
        if any(bits):
            return bits


def _lift(rng: random.Random, bits) -> tuple[int, ...]:
    return tuple(b + 2 * rng.randrange(2) for b in bits)


def _independent_rows(rng, n_cross, rank, n, weight=None):
    basis: dict[int, int] = {}
    rows = []
    while len(rows) < n:
        bits = _two_sided_bits(rng, n_cross, rank, weight)
        m = int("".join(map(str, bits)), 2)
        while m and (m.bit_length() - 1) in basis:
            m ^= basis[m.bit_length() - 1]
        if m:
            basis[m.bit_length() - 1] = m
            rows.append(bits)
    return rows


def _dependent_row(rng, rows, rank, weight=None):
    """The sum of a random subset of at least two rows; with ``weight``, the
    first such sum with that many nonzero coordinates (None after 1000 draws)."""
    for _ in range(1000):
        subset = rng.sample(range(len(rows)), rng.randint(min(2, len(rows)), len(rows)))
        dep = [0] * rank
        for i in subset:
            dep = [a ^ b for a, b in zip(dep, rows[i])]
        if weight is None or sum(dep) == weight:
            return dep
    return None


def _designed(rng, n_cross, rank, n_ind, n_dep, verdict, make_text, weight=None):
    """Rows spanning an n_ind-dimensional space plus n_dep dependent rows,
    redrawn until the reference gives the intended (minus, plus) verdict.

    ``weight`` fixes the number of nonzero mod-2 coordinates of every row.
    The exhaustive scan evaluates each enhancement on the rows in turn, at
    a cost that grows with the square of that number, so fixing it keeps
    the scan's cost from depending on the seed."""
    for _ in range(2000):
        rows = _independent_rows(rng, n_cross, rank, n_ind, weight)
        deps = [_dependent_row(rng, rows, rank, weight) for _ in range(n_dep)]
        if None in deps:
            continue
        rows += deps
        classes = [_lift(rng, r) for r in rows]
        rng.shuffle(classes)
        text = make_text(classes)
        exp = reference.expected_for(text)
        if (exp.answers["minus"].exists, exp.answers["plus"].exists) == verdict:
            return text
    raise RuntimeError(f"no instance with verdict {verdict} after 2000 draws")


def fibration(rng, kind, count, boundary, n_ind, n_dep=0, verdict=(YES, YES), weight=None) -> str:
    n_cross = count if kind == "non-orientable" else 0
    rank = (2 * count if kind == "orientable" else count) + max(boundary - 1, 0)
    return _designed(
        rng, n_cross, rank, n_ind, n_dep, verdict,
        lambda cs: fibration_text(kind, count, boundary, cs), weight,
    )


def threefold(rng, genus, dim, verdict, weight=None) -> str:
    """2g attaching and belt classes of rank 2g - dim on 2g crosscaps."""
    rank = 2 * genus
    return _designed(
        rng, rank, rank, rank - dim, dim, verdict,
        lambda cs: threefold_text(genus, cs[:genus], cs[genus:]), weight,
    )


def dense_pool(rng) -> list[str]:
    """Near-full-rank systems: about as many cycles as the rank, 1-4 structures."""
    verdicts = [(YES, YES), (NO, YES), (YES, NO), (NO, NO), (YES, YES)]
    dims = [1, 2, 1, 2, 1]
    pool = []
    # On an orientable fiber the minus and plus systems coincide, so both
    # verdicts agree there.
    same = [(YES, YES), (NO, NO), (YES, YES), (NO, NO), (YES, YES)]
    for g, d, v in zip((8, 11, 14, 17, 20), dims, same):
        pool.append(fibration(rng, "orientable", g, 1, 2 * g - d, 1, v))
    # Odd crosscap counts carry no Pin+ at all, so their plus verdict is NO.
    closed = [(16, (YES, YES)), (21, (YES, NO)), (28, (NO, YES)), (33, (NO, NO)), (40, (YES, NO))]
    for (k, v), d in zip(closed, dims):
        pool.append(fibration(rng, "non-orientable", k, 0, k - d, 1, v))
    for g, d, v in zip((4, 5, 7, 8, 10), dims, verdicts):
        pool.append(threefold(rng, g, d, v))
    return pool


def wide_pool(rng) -> list[str]:
    """1-3 independent cycles on orientable genus 5-8, boundary 1:
    annihilator dimension 8..13, so 2^8..2^13 structures per kind.

    Three light documents (dim 8, 10, 11), three of dim 12 and three of
    dim 13.  The median falls in the middle of the dim-12 cluster and
    op_tail_ms inside the dim-13 cluster, which holds more than the ten
    samples the tail leaves above it on a fast host and a slow one alike
    (see README.md, "Noise")."""
    shapes = [(5, 2), (6, 2), (6, 1), (7, 2), (7, 2), (7, 2), (7, 1), (8, 3), (8, 3)]
    return [fibration(rng, "orientable", g, 1, n) for g, n in shapes]


def oracle_pool(rng) -> list[str]:
    """Fibers and threefold boundaries of z2 rank 6..10 for the exhaustive scan.

    The three heaviest documents, all on the closed surface with 10
    crosscaps, draw classes of mod-2 weight 6, so they cost about the same
    on every seed and op_tail_ms falls inside their shared cluster (see
    README.md, "Noise")."""
    w = 6
    return [
        fibration(rng, "orientable", 3, 1, 2, 1, (YES, YES)),  # rank 6
        fibration(rng, "non-orientable", 7, 1, 3, 1, (NO, YES)),  # rank 7
        fibration(rng, "orientable", 3, 3, 3, 1, (NO, NO)),  # rank 8
        fibration(rng, "non-orientable", 8, 2, 3, 1, (YES, YES)),  # rank 9
        threefold(rng, 3, 1, (YES, YES)),  # rank 6
        threefold(rng, 4, 2, (NO, YES)),  # rank 8
        threefold(rng, 5, 1, (YES, NO), w),  # rank 10
        threefold(rng, 5, 2, (NO, YES), w),  # rank 10
        fibration(rng, "non-orientable", 10, 0, 4, 1, (YES, YES), w),  # rank 10, closed
    ]


def cli_docs(rng, bundled_dir: Path) -> list[str]:
    """The three bundled examples plus seeded documents of rank <= 8."""
    docs = [(bundled_dir / name).read_text(encoding="utf-8")
            for name in ("rp4.pinlef", "s2xtrp2.pinlef", "s2xrp2.pinlef")]
    docs.append(fibration(rng, "orientable", 3, 1, 2, 1, (YES, YES)))
    docs.append(fibration(rng, "non-orientable", 5, 3, 3, 1, (NO, YES)))
    docs.append(threefold(rng, 4, 1, (YES, YES)))
    return docs
