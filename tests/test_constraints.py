"""The shared constraint system: one GF(2) elimination per decision."""

from __future__ import annotations

import pytest

import pinlef as P
from pinlef import finite_linalg as fl
from pinlef import lefschetz as lf
from pinlef import threefolds as tf


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = fl.rref_gf2

    def counted(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(fl, "rref_gf2", counted)
    return calls


def _fibration(surface, *cycles):
    return P.LefschetzFibration(surface, tuple(P.z4_class(c) for c in cycles))


def _threefold(genus, attach, belt):
    return P.HandlebodyDecomposition3(
        genus,
        tuple(P.z4_class(c) for c in attach),
        tuple(P.z4_class(c) for c in belt),
    )


TORUS = P.orientable_surface(1, 0)
PUNCTURED_TORUS = P.orientable_surface(1, 1)
MOEBIUS = P.non_orientable_surface(1, 1)
KLEIN = P.non_orientable_surface(2, 0)

# (decider, input, expected verdict)
CASES = [
    (lf.decide_pin_minus, _fibration(TORUS, (1, 0), (0, 1)), True),
    (lf.decide_pin_minus, _fibration(PUNCTURED_TORUS, (1, 0)), True),
    (lf.decide_pin_minus, _fibration(MOEBIUS, (2,)), False),
    (
        lf.decide_pin_minus,
        _fibration(
            P.orientable_surface(2, 1), (2, 0, 0, 1), (1, 1, 2, 0), (1, 1, 0, 1)
        ),
        False,
    ),
    (lf.decide_pin_plus, _fibration(TORUS, (1, 0), (0, 1)), True),
    (lf.decide_pin_plus, _fibration(MOEBIUS, (2,)), True),
    (lf.decide_pin_plus, _fibration(KLEIN, (1, 3), (3, 3), (1, 3)), False),
    (lf.decide_pin_plus, _fibration(P.non_orientable_surface(3, 0), (1, 1, 0)), False),
    (tf.decide_pin_plus_3mfd, _threefold(1, [(1, 1)], [(0, 0)]), True),
    (tf.decide_pin_plus_3mfd, _threefold(1, [(2, 0)], [(0, 2)]), False),
    (tf.solve_pin_minus_3mfd, _threefold(1, [(1, 1)], [(0, 0)]), True),
    (
        tf.solve_pin_minus_3mfd,
        _threefold(2, [(1, 2, 2, 1), (1, 0, 3, 2)], [(1, 1, 0, 2), (1, 1, 3, 1)]),
        False,
    ),
]


@pytest.mark.parametrize("decider, data, exists", CASES)
def test_one_elimination_per_decision(rref_calls, decider, data, exists):
    report = decider(data)
    assert report.exists is exists
    if not exists:
        assert len(rref_calls) == 1
    elif report.h1_annihilator_dim == 0:
        assert len(rref_calls) == 1
    else:
        # The second pass only puts the annihilator basis in canonical form.
        assert len(rref_calls) == 2


def test_cases_cover_trivial_and_nontrivial_annihilators():
    yes = [decider(data) for decider, data, exists in CASES if exists]
    assert {r.h1_annihilator_dim == 0 for r in yes} == {True, False}
    assert {r.kind for r in yes} == {"minus", "plus"}

