"""Tests for surface models, presentations, and quadratic enhancements."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pinlef as P
from pinlef import surfaces as sf
from pinlef.errors import InputError, InvariantViolation

MOEBIUS = P.non_orientable_surface(1, 1)
TORUS = P.orientable_surface(1, 0)
KLEIN = P.non_orientable_surface(2, 0)
RP2 = P.non_orientable_surface(1, 0)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def test_moebius_presentation():
    pres = P.homology_presentation(MOEBIUS)
    assert pres.generators == ("e1",)
    assert pres.z2_rank == 1
    assert pres.z2_intersection.tolist() == [[1]]
    assert pres.z4_relations.shape == (0, 1)


def test_torus_presentation():
    pres = P.homology_presentation(TORUS)
    assert pres.generators == ("a1", "b1")
    assert pres.z2_intersection.tolist() == [[0, 1], [1, 0]]
    assert pres.z4_relations.shape == (0, 2)


def test_klein_bottle_presentation():
    # one homology presentation of the closed 2-crosscap surface:
    # orthonormal crosscap generators, torsion row twice their sum
    pres = P.homology_presentation(KLEIN)
    assert pres.generators == ("e1", "e2")
    assert pres.z2_intersection.tolist() == [[1, 0], [0, 1]]
    assert pres.z4_relations.tolist() == [[2, 2]]


def test_bounded_surfaces_have_free_mod4_homology():
    for s in (MOEBIUS, P.non_orientable_surface(2, 1), P.orientable_surface(1, 2)):
        assert P.homology_presentation(s).z4_relations.shape[0] == 0


@pytest.mark.parametrize(
    "surface,rank,labels",
    [
        (P.orientable_surface(0, 1), 0, ()),
        (P.orientable_surface(0, 3), 2, ("d1", "d2")),
        (P.orientable_surface(1, 2), 3, ("a1", "b1", "d1")),
        (P.non_orientable_surface(2, 1), 2, ("e1", "e2")),
        (P.non_orientable_surface(1, 6), 6, ("e1", "d1", "d2", "d3", "d4", "d5")),
    ],
)
def test_rank_and_labels(surface, rank, labels):
    pres = P.homology_presentation(surface)
    assert pres.z2_rank == rank
    assert pres.generators == labels


def test_boundary_parallel_classes_are_null():
    pres = P.homology_presentation(P.orientable_surface(1, 3))
    for j in (2, 3):  # d1, d2
        assert not pres.z2_intersection[j].any()


def test_surface_validation():
    with pytest.raises(InputError):
        P.non_orientable_surface(0, 1)
    with pytest.raises(InputError):
        P.SurfaceModel("weird", 1, 0)
    with pytest.raises(InputError):
        P.orientable_surface(-1, 0)


# ---------------------------------------------------------------------------
# Pin+ existence on the surface itself
# ---------------------------------------------------------------------------


def test_pin_plus_exists_surface():
    assert not P.pin_plus_exists_surface(RP2)
    assert P.pin_plus_exists_surface(MOEBIUS)
    assert P.pin_plus_exists_surface(P.orientable_surface(2, 0))
    assert P.pin_plus_exists_surface(KLEIN)
    assert not P.pin_plus_exists_surface(P.non_orientable_surface(3, 0))
    assert P.pin_plus_exists_surface(P.non_orientable_surface(3, 1))


# ---------------------------------------------------------------------------
# eval_qminus
# ---------------------------------------------------------------------------


def test_qminus_zero_class():
    q = P.base_enhancement_minus(TORUS)
    assert P.eval_qminus(q, P.z2_class([0, 0])) == 0


def test_qminus_disjoint_generators_sum():
    # rank-6 page: one-sided e1 and five null boundary generators; the
    # enhancement taking 2 on the two-sided generators sums to 2+2 = 0 on
    # their disjoint union
    page = P.non_orientable_surface(1, 6)
    q = P.EnhancementMinus(page, (1, 2, 2, 2, 2, 2))
    x = P.z2_class([0, 1, 0, 0, 0, 1])
    assert P.eval_qminus(q, x) == 0


def test_qminus_klein_minus_disk_expansion():
    surface = P.non_orientable_surface(2, 1)
    q = P.EnhancementMinus(surface, (1, 3))
    assert P.eval_qminus(q, P.z2_class([1, 1])) == 0
    # brute-force extension oracle: tabulate q on all classes and check the
    # defining relation on all 16 pairs
    pres = P.homology_presentation(surface)
    table = {
        x: P.eval_qminus(q, P.z2_class(x)) for x in product((0, 1), repeat=2)
    }
    for x, y in product(table, repeat=2):
        total = (x[0] ^ y[0], x[1] ^ y[1])
        pairing = sf.pairing_mod2(pres, x, y)
        assert table[total] == (table[x] + table[y] + 2 * pairing) % 4


def test_qminus_input_errors():
    q = P.base_enhancement_minus(TORUS)
    with pytest.raises(InputError):
        P.eval_qminus(q, P.z4_class([0, 0]))
    with pytest.raises(InputError):
        P.eval_qminus(q, P.z2_class([0, 0, 0]))


def test_enhancement_minus_parity_enforced():
    with pytest.raises(InvariantViolation):
        P.EnhancementMinus(MOEBIUS, (2,))  # e1 is one-sided, needs odd value
    with pytest.raises(InvariantViolation):
        P.EnhancementMinus(TORUS, (1, 0))  # a1 is two-sided, needs even value


# ---------------------------------------------------------------------------
# eval_qplus
# ---------------------------------------------------------------------------


def test_qplus_moebius_double_core():
    q = P.EnhancementPlus(MOEBIUS, (1,))
    assert P.eval_qplus(q, P.z4_class([2])) == 1


def test_qplus_zero_class():
    q = P.base_enhancement_plus(TORUS)
    assert P.eval_qplus(q, P.z4_class([0, 0])) == 0


def test_qplus_rank7_page_combination():
    # 2e1 + e2 + e6 + e7 with e1 one-sided and the others disjoint: the
    # all-ones enhancement evaluates to (2*1 + 1) + 1 + 1 + 1 = 0 mod 2
    page = P.non_orientable_surface(1, 7)
    q = P.EnhancementPlus(page, (1,) * 7)
    x = P.z4_class([2, 1, 0, 0, 0, 1, 1])
    assert P.eval_qplus(q, x) == 0


def test_qplus_ill_formed_on_odd_closed_surface():
    q = P.base_enhancement_plus(RP2)
    with pytest.raises(InvariantViolation):
        P.eval_qplus(q, P.z4_class([1]))


def test_qplus_representative_independence_on_klein():
    pres = P.homology_presentation(KLEIN)
    relation = tuple(int(a) for a in pres.z4_relations[0])
    for values in product((0, 1), repeat=2):
        q = P.EnhancementPlus(KLEIN, values)
        for coords in product(range(4), repeat=2):
            shifted = tuple((a + b) % 4 for a, b in zip(coords, relation))
            assert P.eval_qplus(q, P.z4_class(coords)) == P.eval_qplus(
                q, P.z4_class(shifted)
            )


def test_qplus_input_errors():
    q = P.base_enhancement_plus(TORUS)
    with pytest.raises(InputError):
        P.eval_qplus(q, P.z2_class([0, 0]))
    with pytest.raises(InputError):
        P.eval_qplus(q, P.z4_class([0]))


# ---------------------------------------------------------------------------
# the cohomology action
# ---------------------------------------------------------------------------


def test_act_identity():
    q = P.base_enhancement_minus(KLEIN)
    assert P.act_h1(q, (0, 0)) == q


def test_act_moebius_plus_flip():
    q = P.EnhancementPlus(MOEBIUS, (1,))
    other = P.act_h1(q, (1,))
    assert other.values == (0,)
    assert P.act_h1(other, (1,)) == q


@given(
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
def test_act_is_group_action(seed, gamma, delta):
    surface = P.non_orientable_surface(3, 1)
    base = P.base_enhancement_minus(surface)
    q = P.act_h1(base, seed)
    lhs = P.act_h1(P.act_h1(q, gamma), delta)
    rhs = P.act_h1(q, [(g + d) % 2 for g, d in zip(gamma, delta)])
    assert lhs == rhs


@pytest.mark.parametrize("kind", ["minus", "plus"])
@pytest.mark.parametrize(
    "surface", [MOEBIUS, KLEIN, TORUS, P.non_orientable_surface(3, 1)]
)
def test_orbit_is_whole_enhancement_set(surface, kind):
    everything = P.enumerate_enhancements(surface, kind)
    if not everything:
        pytest.skip("no enhancements of this kind")
    r = P.homology_presentation(surface).z2_rank
    orbit = {
        P.act_h1(everything[0], gamma) for gamma in product((0, 1), repeat=r)
    }
    assert len(orbit) == 2**r
    assert orbit == set(everything)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_moebius_minus():
    values = sorted(q.values for q in P.enumerate_enhancements(MOEBIUS, "minus"))
    assert values == [(1,), (3,)]


def test_enumerate_moebius_plus():
    values = sorted(q.values for q in P.enumerate_enhancements(MOEBIUS, "plus"))
    assert values == [(0,), (1,)]


def test_enumerate_plus_obstructed():
    assert P.enumerate_enhancements(RP2, "plus") == []
    assert sf.pin_plus_obstruction(RP2) == "closed non-orientable, odd crosscaps"


@pytest.mark.parametrize(
    "surface", [MOEBIUS, TORUS, KLEIN, P.non_orientable_surface(2, 1)]
)
def test_enumerate_counts(surface):
    r = P.homology_presentation(surface).z2_rank
    for kind in ("minus", "plus"):
        out = P.enumerate_enhancements(surface, kind)
        assert len(out) == 2**r
        assert len(set(out)) == 2**r


def test_parity_law_small_surfaces():
    for surface in (MOEBIUS, TORUS, KLEIN, P.non_orientable_surface(2, 1)):
        pres = P.homology_presentation(surface)
        for q in P.enumerate_enhancements(surface, "minus"):
            for coords in product((0, 1), repeat=pres.z2_rank):
                value = P.eval_qminus(q, P.z2_class(coords))
                assert value % 2 == sf.self_intersection_mod2(pres, coords)


def test_spin_bijection_on_orientable_surfaces():
    # minus enhancements on an orientable surface are exactly the doubles
    # of mod-2 quadratic forms
    enhancements = P.enumerate_enhancements(TORUS, "minus")
    assert all(all(v % 2 == 0 for v in q.values) for q in enhancements)
    halves = {tuple(v // 2 for v in q.values) for q in enhancements}
    assert halves == set(product((0, 1), repeat=2))


# ---------------------------------------------------------------------------
# Z4 class comparison modulo relations
# ---------------------------------------------------------------------------


def test_z4_classes_equal_on_klein():
    assert P.z4_classes_equal(KLEIN, P.z4_class([2, 2]), P.z4_class([0, 0]))
    assert P.z4_classes_equal(KLEIN, P.z4_class([1, 1]), P.z4_class([3, 3]))
    assert not P.z4_classes_equal(KLEIN, P.z4_class([0, 2]), P.z4_class([0, 0]))


def test_z4_classes_equal_free_case():
    assert not P.z4_classes_equal(MOEBIUS, P.z4_class([2]), P.z4_class([0]))
    assert P.z4_classes_equal(MOEBIUS, P.z4_class([3]), P.z4_class([3]))


def test_surface_rank_cap():
    assert P.non_orientable_surface(4096, 1).z2_rank == 4096
    for kind, count, boundary in (
        ("non-orientable", 4097, 0),
        ("orientable", 2048, 2),
        ("orientable", 10**12, 0),
        ("orientable", 1, 10**12),
    ):
        with pytest.raises(InputError, match="exceeds the limit of 4096"):
            P.SurfaceModel(kind, count, boundary)
