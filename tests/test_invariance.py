"""Moves that keep the manifold keep every verdict, count and structure set.

A Hurwitz move replaces (c_i, c_{i+1}) by (T_{c_i}(c_{i+1}), c_i) and
leaves the product of the twists, so the fibration, unchanged (Gompf and
Stipsicz, *4-Manifolds and Kirby Calculus*, ch. 8).  Mod 2 it is exact for
Pin- on every fiber, whose systems read only the cycles' mod-2 classes, and
for Pin+ on orientable fibers, whose values do too.  On orientable fibers
Pin- and Pin+ agree (Stipsicz, "Spin structures on Lefschetz fibrations",
Bull. London Math. Soc. 33, 2001).  Twisting every cycle along one
two-sided class d conjugates the monodromy, so it keeps verdicts and
counts, and q -> q o T_d carries each structure to one of the conjugated
fibration.  Sliding attaching handle i over handle j, a_i -> a_i + a_j or
a_i + 3 a_j mod 4 with a_i.a_j even, keeps a threefold and both kinds'
solution sets.  The reports are compared by their rows, so no structure is
ever listed, and no array API is used.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pinlef as P
from pinlef import lefschetz as lf
from pinlef import threefolds as tf
from helpers import handle_slide, hurwitz_move, intersection_mod2, pulled_back, twist

MAX_RANK = 64


def _summary(report):
    s = report.structures
    return (
        report.exists,
        report.structure_count,
        report.h1_annihilator_dim,
        s.first,
        s.kernel,
    )


@st.composite
def fibers(draw, orientable=None):
    """A fiber of z2 rank at most MAX_RANK."""
    if orientable is None:
        orientable = draw(st.booleans())
    boundary = draw(st.integers(0, 3))
    room = MAX_RANK - max(boundary - 1, 0)
    if orientable:
        return P.orientable_surface(draw(st.integers(0, room // 2)), boundary)
    return P.non_orientable_surface(draw(st.integers(1, room)), boundary)


@st.composite
def cycle_lists(draw, surface, least=0):
    """From ``least`` to six two-sided Z4 cycles."""
    return draw(class_rows(surface, draw(st.integers(least, 6))))


@st.composite
def class_rows(draw, surface, count):
    """``count`` two-sided Z4 rows; about one in four is the sum of a drawn
    pair of earlier ones, so dependent families, and NO, occur."""
    pres = P.homology_presentation(surface)
    r = surface.z2_rank
    cycles = []
    for _ in range(count):
        if len(cycles) >= 2 and not draw(st.integers(0, 3)):
            pick = st.integers(0, len(cycles) - 1)
            i, j = draw(pick), draw(pick)
            cycles.append(tuple((a + b) % 4 for a, b in zip(cycles[i], cycles[j])))
            continue
        n = draw(st.integers(0, 4**r - 1))
        coords = [n >> 2 * k & 3 for k in range(r)]
        if r and intersection_mod2(pres, coords, coords):
            coords[0] = (coords[0] + 1) % 4  # generator 0 is one-sided
        cycles.append(tuple(coords))
    return cycles


def _fibration(surface, cycles):
    return P.LefschetzFibration(surface, tuple(P.z4_class(c) for c in cycles))


def _moved(surface, cycles, moves):
    pres = P.homology_presentation(surface)
    for m in moves:
        if len(cycles) >= 2:
            cycles = hurwitz_move(pres, cycles, m % (len(cycles) - 1))
    return cycles


@st.composite
def moved_fibrations(draw, orientable=None):
    """(fibration, the same after one to eight drawn Hurwitz moves)."""
    surface = draw(fibers(orientable))
    cycles = draw(cycle_lists(surface, least=2))
    moves = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    moved = _moved(surface, cycles, moves)
    return _fibration(surface, cycles), _fibration(surface, moved)


@given(moved_fibrations())
@settings(max_examples=60, deadline=None)
def test_hurwitz_moves_keep_pin_minus(pair):
    f, g = pair
    assert _summary(lf.decide_pin_minus(f)) == _summary(lf.decide_pin_minus(g))


@given(moved_fibrations(orientable=True))
@settings(max_examples=60, deadline=None)
def test_hurwitz_moves_keep_pin_plus_on_orientable_fibers(pair):
    f, g = pair
    assert _summary(lf.decide_pin_plus(f)) == _summary(lf.decide_pin_plus(g))


@given(moved_fibrations(orientable=True))
@settings(max_examples=60, deadline=None)
def test_pin_minus_and_pin_plus_agree_on_orientable_fibers(pair):
    for f in pair:
        assert _summary(lf.decide_pin_minus(f)) == _summary(lf.decide_pin_plus(f))


@st.composite
def conjugated_fibrations(draw, orientable=None):
    """(fibration, the same with every cycle twisted along a drawn
    two-sided class d, d)."""
    surface = draw(fibers(orientable))
    cycles = draw(cycle_lists(surface))
    (d,) = draw(class_rows(surface, 1))
    pres = P.homology_presentation(surface)
    moved = [twist(pres, d, c) for c in cycles]
    return _fibration(surface, cycles), _fibration(surface, moved), d


def _check_conjugation(decide, triple):
    f, g, d = triple
    before, after = decide(f), decide(g)
    assert _summary(before)[:3] == _summary(after)[:3]
    if before.exists:
        assert pulled_back(before.structures[0], d) in after.structures


@given(conjugated_fibrations())
@settings(max_examples=20, deadline=None)
def test_global_conjugation_keeps_pin_minus(triple):
    _check_conjugation(lf.decide_pin_minus, triple)


@given(conjugated_fibrations(orientable=True))
@settings(max_examples=20, deadline=None)
def test_global_conjugation_keeps_pin_plus_on_orientable_fibers(triple):
    _check_conjugation(lf.decide_pin_plus, triple)


@st.composite
def slid_threefolds(draw):
    """(decomposition, the same after one to eight drawn handle slides of
    attaching classes whose pairing is even), of boundary rank at most
    MAX_RANK."""
    genus = draw(st.integers(2, MAX_RANK // 2))
    boundary = P.non_orientable_surface(2 * genus, 0)
    pres = P.homology_presentation(boundary)
    attach = draw(class_rows(boundary, genus))
    belt = draw(class_rows(boundary, genus))
    slid = attach
    pick = st.integers(0, genus - 1)
    for _ in range(draw(st.integers(1, 8))):
        i, j, times = draw(pick), draw(pick), draw(st.sampled_from([1, 3]))
        if i != j and not intersection_mod2(pres, slid[i], slid[j]):
            slid = handle_slide(slid, i, j, times)
    return _threefold(genus, attach, belt), _threefold(genus, slid, belt)


def _threefold(genus, attach, belt):
    classes = [tuple(P.z4_class(c) for c in rows) for rows in (attach, belt)]
    return P.HandlebodyDecomposition3(genus, *classes)


@given(slid_threefolds())
@settings(max_examples=20, deadline=None)
def test_handle_slides_keep_both_kinds(pair):
    d, e = pair
    for decide in (tf.solve_pin_minus_3mfd, tf.decide_pin_plus_3mfd):
        assert _summary(decide(d)) == _summary(decide(e))


def test_laws_hold_near_the_rank_cap():
    # Rank 4096: three seeded cycles, their sum and one of them again give
    # a YES of dimension 4093, which moves and the other kind keep.
    surface = P.orientable_surface(2048, 1)
    rng = random.Random(4096)
    base = [tuple(rng.randrange(4) for _ in range(4096)) for _ in range(3)]
    total = tuple(sum(column) % 4 for column in zip(*base))
    cycles = [*base, total, base[1]]
    moved = _moved(surface, cycles, [3, 0, 2, 1, 3, 0])
    assert moved != cycles
    f, g = _fibration(surface, cycles), _fibration(surface, moved)
    minus = _summary(lf.decide_pin_minus(f))
    assert minus[:3] == (True, 2**4093, 4093)
    assert minus == _summary(lf.decide_pin_minus(g))
    assert minus == _summary(lf.decide_pin_plus(f)) == _summary(lf.decide_pin_plus(g))
