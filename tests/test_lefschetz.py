"""Tests for the fibration deciders, witness search, and sphere criteria."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

import pinlef as P
from pinlef import finite_linalg as fl
from pinlef import surfaces as sf
from pinlef.constraints import ConstraintSystem
from pinlef.errors import InputError, InvariantViolation
from helpers import (
    RANK_3_4_FIBERS,
    RANK_LE_2_FIBERS,
    random_two_sided_row,
    sample_instances,
)

MOEBIUS = P.non_orientable_surface(1, 1)


def rp4_fibration() -> P.LefschetzFibration:
    return P.LefschetzFibration(MOEBIUS, (P.z4_class([2]),))


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------


def test_one_sided_cycle_rejected():
    with pytest.raises(InvariantViolation):
        P.LefschetzFibration(MOEBIUS, (P.z4_class([1]),))


def test_cycle_arity_and_ring_checked():
    with pytest.raises(InputError):
        P.LefschetzFibration(MOEBIUS, (P.z4_class([0, 0]),))
    with pytest.raises(InputError):
        P.LefschetzFibration(MOEBIUS, (P.z2_class([0]),))


def test_systems_over_a_fibrations_checked_cycles():
    # The deciders pass the cycles the fibration checked; the system is the
    # one over the plain tuple, and still compares their length.
    f = P.LefschetzFibration(P.orientable_surface(1, 1), (P.z4_class([1, 0]),))
    for kind, target in (("minus", 2), ("plus", 1)):
        system = ConstraintSystem(kind, f.fiber, f._checked, target)
        assert system == ConstraintSystem(kind, f.fiber, f.cycles, target)
        assert type(system.classes) is tuple
        with pytest.raises(InputError) as err:
            ConstraintSystem(kind, P.orientable_surface(1, 2), f._checked, target)
        assert str(err.value) == "class 1 has 2 coordinates, expected 3"


def test_no_cycles_is_legal():
    f = P.LefschetzFibration(P.orientable_surface(1, 1))
    assert f.z2_cycle_matrix().shape == (0, 2)


# ---------------------------------------------------------------------------
# Pin- decisions
# ---------------------------------------------------------------------------


def test_rp4_pin_minus_fails_with_certificate():
    report = P.decide_pin_minus(rp4_fibration())
    assert not report.exists
    assert report.structure_count == 0
    assert "q-(2e1) = 0 != 2" in report.certificate
    assert report.witness == P.ObstructionWitness(lead=0, summands=(), pair_sum=0)


def test_trivial_fibration_has_full_count():
    f = P.LefschetzFibration(P.orientable_surface(1, 1))
    report = P.decide_pin_minus(f)
    assert report.exists
    assert report.structure_count == 4
    assert report.h1_annihilator_dim == 2


def test_klein_minus_disk_single_cycle():
    f = P.LefschetzFibration(
        P.non_orientable_surface(2, 1), (P.z4_class([1, 1]),)
    )
    report = P.decide_pin_minus(f)
    assert report.exists
    assert report.structure_count == 2
    assert sorted(q.values for q in report.structures) == [(1, 1), (3, 3)]
    assert sorted(q.values for q in P.brute_force_pin_minus(f)) == [(1, 1), (3, 3)]


# ---------------------------------------------------------------------------
# Pin+ decisions
# ---------------------------------------------------------------------------


def test_rp4_pin_plus_two_structures():
    report = P.decide_pin_plus(rp4_fibration())
    assert report.exists
    assert report.structure_count == 2
    assert sorted(q.values for q in report.structures) == [(0,), (1,)]
    for q in report.structures:
        assert P.eval_qplus(q, P.z4_class([2])) == 1


def test_product_subsystem_pin_plus_contradiction():
    page = P.non_orientable_surface(1, 7)
    cycles = tuple(
        P.z4_class(c)
        for c in (
            [2, 1, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 1],
        )
    )
    report = P.decide_pin_plus(P.LefschetzFibration(page, cycles))
    assert not report.exists
    assert "rank(C)" in report.certificate


def test_pin_plus_fails_on_obstructed_fiber():
    fiber = P.non_orientable_surface(3, 0)
    report = P.decide_pin_plus(P.LefschetzFibration(fiber))
    assert not report.exists
    assert "closed non-orientable, odd crosscaps" in report.certificate


def test_pin_plus_empty_system_full_count():
    fiber = P.non_orientable_surface(2, 1)
    report = P.decide_pin_plus(P.LefschetzFibration(fiber))
    assert report.exists
    assert report.structure_count == 4


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------


def test_witness_none_without_cycles():
    assert P.pin_minus_witness_search(P.LefschetzFibration(MOEBIUS)) is None


def test_witness_for_disjoint_sum_subsystem():
    page = P.non_orientable_surface(1, 6)
    cycles = tuple(
        P.z4_class(c)
        for c in ([0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1])
    )
    f = P.LefschetzFibration(page, cycles)
    witness = P.pin_minus_witness_search(f)
    assert witness == P.ObstructionWitness(lead=0, summands=(1, 2), pair_sum=0)
    assert (witness.k + witness.pair_sum) % 2 == 0
    assert not P.decide_pin_minus(f).exists


def test_duplicate_cycles_are_not_a_witness_by_themselves():
    # a repeated two-sided class sums to zero but has even size parity
    annulus = P.orientable_surface(0, 2)
    c = P.z4_class([1])
    f = P.LefschetzFibration(annulus, (c, c))
    assert P.pin_minus_witness_search(f) is None
    assert P.decide_pin_minus(f).exists


# ---------------------------------------------------------------------------
# the annihilator
# ---------------------------------------------------------------------------


def test_annihilator_trivial_fibration():
    fiber = P.non_orientable_surface(3, 1)
    assert len(P.fibration_h1_annihilator(P.LefschetzFibration(fiber))) == 3


def test_annihilator_null_cycle():
    assert len(P.fibration_h1_annihilator(rp4_fibration())) == 1


def test_annihilator_spanning_cycles():
    # on the torus every class is two-sided, so the cycles can span all of
    # mod-2 homology and force at most one structure of each kind
    torus = P.orientable_surface(1, 0)
    f = P.LefschetzFibration(torus, (P.z4_class([1, 0]), P.z4_class([0, 1])))
    assert len(P.fibration_h1_annihilator(f)) == 0
    for report in (P.decide_pin_minus(f), P.decide_pin_plus(f)):
        assert report.exists
        assert report.structure_count == 1


def test_annihilator_partial_span():
    fiber = P.non_orientable_surface(3, 1)
    cycles = (
        P.z4_class([1, 1, 0]),
        P.z4_class([0, 1, 1]),
        P.z4_class([2, 0, 0]),
    )
    f = P.LefschetzFibration(fiber, cycles)
    # mod-2 reductions (110), (011), (000) span a 2-dim subspace
    assert len(P.fibration_h1_annihilator(f)) == 1
    report = P.decide_pin_minus(f)
    if report.exists:
        assert report.structure_count == 2


@pytest.mark.parametrize("seed", [5, 17, 29])
def test_annihilator_equals_a_fresh_elimination(seed):
    # A closed fiber of 20 crosscaps with 30 cycles leaves a narrow kernel,
    # read off the echelon; the others are back-substituted.
    rng = random.Random(seed)
    fibrations = sample_instances(rng, RANK_LE_2_FIBERS + RANK_3_4_FIBERS, 100)
    closed = P.non_orientable_surface(20, 0)
    for n in (0, 5, 18, 30):
        cycles = tuple(P.z4_class(random_two_sided_row(rng, 20)) for _ in range(n))
        fibrations.append(P.LefschetzFibration(closed, cycles))
    for f in fibrations:
        got = P.fibration_h1_annihilator(f)
        want = P.annihilator_gf2(f.z2_cycle_matrix())
        assert [v.tolist() for v in got] == [v.tolist() for v in want]


def test_annihilator_reads_the_deciders_elimination(monkeypatch):
    calls = []
    original = fl.echelon_bits
    monkeypatch.setattr(fl, "echelon_bits", lambda C: calls.append(C) or original(C))
    fiber = P.non_orientable_surface(3, 1)
    f = P.LefschetzFibration(fiber, (P.z4_class([1, 1, 0]), P.z4_class([2, 0, 0])))
    P.decide_pin_minus(f)
    assert len(P.fibration_h1_annihilator(f)) == 2
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# equivariance and counting
# ---------------------------------------------------------------------------


def _span(basis, rank):
    vectors = set()
    for bits in product((0, 1), repeat=len(basis)):
        v = (0,) * rank
        for bit, b in zip(bits, basis):
            if bit:
                v = tuple(x ^ int(y) for x, y in zip(v, b))
        vectors.add(v)
    return vectors


@pytest.mark.parametrize("seed", [11, 23])
def test_equivariance_and_count_law(seed):
    rng = random.Random(seed)
    for f in sample_instances(rng, RANK_LE_2_FIBERS + RANK_3_4_FIBERS, 40):
        pres = P.homology_presentation(f.fiber)
        basis = P.fibration_h1_annihilator(f)
        inside = _span(basis, pres.z2_rank)
        for report in (P.decide_pin_minus(f), P.decide_pin_plus(f)):
            if not report.exists:
                continue
            assert report.structure_count == 2**report.h1_annihilator_dim
            solutions = set(report.structures)
            q = report.structures[0]
            for gamma in inside:
                assert P.act_h1(q, gamma) in solutions
            for _ in range(4):
                gamma = tuple(rng.randint(0, 1) for _ in range(pres.z2_rank))
                if gamma in inside:
                    continue
                assert P.act_h1(q, gamma) not in solutions


def test_counts_agree_between_kinds_when_both_exist():
    rng = random.Random(5)
    for f in sample_instances(rng, RANK_LE_2_FIBERS, 60):
        minus = P.decide_pin_minus(f)
        plus = P.decide_pin_plus(f)
        if minus.exists and plus.exists:
            assert minus.structure_count == plus.structure_count


# ---------------------------------------------------------------------------
# consistency with the mod-2 quadratic-form route on orientable fibers
# ---------------------------------------------------------------------------


def _spin_solutions(f: P.LefschetzFibration):
    # independent brute force over mod-2 quadratic forms s with
    # s(x+y) = s(x) + s(y) + x.y, demanding s = 1 on every cycle
    pres = P.homology_presentation(f.fiber)
    r = pres.z2_rank
    out = []
    for values in product((0, 1), repeat=r):
        good = True
        for c in f.cycles:
            support = [i for i, a in enumerate(c.coords) if a % 2]
            total = sum(values[i] for i in support) + sum(
                int(pres.z2_intersection[i, j]) for i, j in combinations(support, 2)
            )
            if total % 2 != 1:
                good = False
                break
        if good:
            out.append(values)
    return out


def test_orientable_fibers_match_spin_condition():
    rng = random.Random(99)
    orientable = [s for s in RANK_LE_2_FIBERS + RANK_3_4_FIBERS if s.kind == "orientable"]
    for f in sample_instances(rng, orientable, 120):
        spins = _spin_solutions(f)
        report = P.decide_pin_minus(f)
        assert report.exists == bool(spins)
        doubled = {tuple(2 * v for v in s) for s in spins}
        assert {q.values for q in report.structures} == doubled


# ---------------------------------------------------------------------------
# fibrations over the sphere
# ---------------------------------------------------------------------------


def test_sphere_criterion_all_terms_vanish():
    disk_part = P.LefschetzFibration(P.orientable_surface(1, 1))
    sigma = P.EmbeddedSurfaceData(0, 0, 0, 0, 0)
    verdicts = P.decide_pin_over_s2(disk_part, sigma)
    assert verdicts.pin_minus and verdicts.pin_plus


def test_sphere_criterion_self_intersection_blocks_minus():
    disk_part = P.LefschetzFibration(P.orientable_surface(1, 1))
    sigma = P.EmbeddedSurfaceData(0, 1, 0, 0, 0)
    verdicts = P.decide_pin_over_s2(disk_part, sigma)
    assert not verdicts.pin_minus


def test_sphere_criterion_odd_euler_cancels_square():
    disk_part = P.LefschetzFibration(P.orientable_surface(1, 1))
    sigma = P.EmbeddedSurfaceData(1, 1, 0, 0, 0)
    verdicts = P.decide_pin_over_s2(disk_part, sigma)
    # chi + [sigma]^2 + cup = 1 + 1 + 0 = 0: the dual surface does not
    # obstruct Pin+, so the disk-part verdict stands
    assert verdicts.pin_plus == P.decide_pin_plus(disk_part).exists


def _reference_witness(f):
    """The first zero-sum cycle subset, by size then lexicographically,
    whose size plus the parity of all its pairwise intersections is odd."""
    pres = P.homology_presentation(f.fiber)
    coords = [c.coords for c in f.cycles]

    def pair_parity(subset):
        pairs = combinations(subset, 2)
        return sum(sf.pairing_mod2(pres, coords[i], coords[j]) for i, j in pairs) % 2

    for size in range(1, len(coords) + 1):
        for subset in combinations(range(len(coords)), size):
            if any(sum(coords[i][g] for i in subset) % 2 for g in range(pres.rank)):
                continue
            if (size + pair_parity(subset)) % 2 == 1:
                return P.ObstructionWitness(
                    subset[0], subset[1:], pair_parity(subset[1:])
                )
    return None


def test_witness_search_returns_the_first_witness_exactly():
    rng = random.Random(2012)
    fibers = RANK_LE_2_FIBERS + RANK_3_4_FIBERS
    found = 0
    for f in sample_instances(rng, fibers, 400, max_cycles=6):
        expected = _reference_witness(f)
        assert repr(P.pin_minus_witness_search(f)) == repr(expected)
        found += expected is not None
    assert found > 100
