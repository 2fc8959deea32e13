"""Tests for the 3-manifold handlebody criteria."""

from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

import pinlef as P
from pinlef import surfaces as sf
from pinlef.errors import InputError, InvalidDecomposition, InvariantViolation
from helpers import random_decomposition


def decomposition(genus, attach, belt):
    return P.HandlebodyDecomposition3(
        genus,
        tuple(P.z4_class(row) for row in attach),
        tuple(P.z4_class(row) for row in belt),
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_boundary_surface():
    d = decomposition(2, [[0] * 4, [0] * 4], [[0] * 4, [0] * 4])
    assert d.boundary == P.non_orientable_surface(4, 0)
    assert P.pin_plus_exists_surface(d.boundary)


def test_row_order_is_attaching_then_belt():
    d = decomposition(1, [[1, 1]], [[3, 1]])
    assert d.z2_class_matrix().tolist() == [[1, 1], [1, 1]]
    assert [c.coords for c in d.listed_classes()] == [(1, 1), (3, 1)]


def test_validation_errors():
    with pytest.raises(InputError):
        decomposition(0, [], [])
    with pytest.raises(InputError):
        decomposition(1, [], [[0, 0]])
    with pytest.raises(InputError):
        decomposition(1, [[0, 0, 0]], [[0, 0]])
    with pytest.raises(InvariantViolation):
        decomposition(1, [[1, 0]], [[0, 0]])  # one-sided attaching curve


# ---------------------------------------------------------------------------
# Pin+ criterion
# ---------------------------------------------------------------------------


def test_zero_classes_are_always_solvable():
    d = decomposition(1, [[0, 0]], [[0, 0]])
    q0 = P.base_enhancement_plus(d.boundary)
    for c in d.listed_classes():
        assert P.eval_qplus(q0, c) == 0
    report = P.decide_pin_plus_3mfd(d)
    assert report.exists
    assert report.structure_count == 4
    assert q0 in report.structures


def test_full_rank_systems_solve_for_every_rhs():
    # Two-sided classes only reach the even-weight subspace, so the class
    # matrix of a decomposition never has full rank 2g; the underlying
    # linear-algebra fact is checked directly instead.
    from pinlef import finite_linalg as fl

    for rhs in product((0, 1), repeat=3):
        C = [[1, 0, 0], [0, 1, 0], [1, 1, 1]]
        assert fl.solve_affine_gf2(C, list(rhs)) is not None


@pytest.mark.parametrize("genus", [1, 2])
def test_pin_plus_matches_brute_force(genus):
    rng = random.Random(40 + genus)
    for _ in range(60):
        d = random_decomposition(rng, genus)
        report = P.decide_pin_plus_3mfd(d)
        brute = P.brute_force_pin_plus_3mfd(d)
        assert report.exists == bool(brute)
        assert {q.values for q in report.structures} == {q.values for q in brute}
        for q in report.structures:
            assert all(P.eval_qplus(q, c) == 0 for c in d.listed_classes())


# ---------------------------------------------------------------------------
# Pin- constructor
# ---------------------------------------------------------------------------


def test_construct_on_unconstrained_genus_one():
    d = decomposition(1, [[0, 0]], [[0, 0]])
    q = P.construct_pin_minus_3mfd(d)
    assert q == P.base_enhancement_minus(d.boundary)


def test_construct_klein_boundary_example():
    d = decomposition(1, [[1, 1]], [[0, 0]])
    q = P.construct_pin_minus_3mfd(d)
    assert q.values == (1, 3)
    assert P.eval_qminus(q, P.z2_class([1, 1])) == 0
    solutions = {s.values for s in P.solve_pin_minus_3mfd(d).structures}
    assert solutions == {(1, 3), (3, 1)}


def test_unsolvable_data_is_rejected_with_certificate():
    # three even-weight classes summing to zero with odd base-value parity
    d = decomposition(
        2,
        [[1, 1, 0, 0], [0, 1, 1, 0]],
        [[1, 0, 1, 0], [0, 0, 0, 0]],
    )
    assert not P.brute_force_pin_minus_3mfd(d)
    with pytest.raises(InvalidDecomposition) as err:
        P.construct_pin_minus_3mfd(d)
    assert "inconsistent subset" in err.value.certificate


@pytest.mark.parametrize("genus", [1, 2])
def test_pin_minus_constructor_matches_brute_force(genus):
    rng = random.Random(70 + genus)
    for _ in range(60):
        d = random_decomposition(rng, genus)
        brute = P.brute_force_pin_minus_3mfd(d)
        if brute:
            q = P.construct_pin_minus_3mfd(d)
            reduced = [sf.z2_reduction(c) for c in d.listed_classes()]
            assert all(P.eval_qminus(q, x) == 0 for x in reduced)
            report = P.solve_pin_minus_3mfd(d)
            assert {s.values for s in report.structures} == {
                s.values for s in brute
            }
            assert report.structure_count == 2**report.h1_annihilator_dim
        else:
            with pytest.raises(InvalidDecomposition):
                P.construct_pin_minus_3mfd(d)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: P.HandlebodyDecomposition3(1.0, (), ()),
            "handlebody genus 1.0 is not an integer",
        ),
        (
            lambda: P.HandlebodyDecomposition3(1, (P.z4_class([1, 1]),), ()),
            "expected 1 belt classes, got 0",
        ),
        (
            lambda: P.HandlebodyDecomposition3(
                1, (P.z2_class([1, 1]),), (P.z4_class([0, 0]),)
            ),
            "attaching class 1 must be a Z4 class",
        ),
    ],
    ids=["genus-float", "belt-count", "z2-class"],
)
def test_decomposition_input_errors(build, message):
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def test_genus_takes_numpy_integers_as_ints():
    d = P.HandlebodyDecomposition3(
        np.int64(1), (P.z4_class([1, 1]),), (P.z4_class([0, 0]),)
    )
    assert type(d.genus) is int and d.row_labels() == ("a1", "b1")
