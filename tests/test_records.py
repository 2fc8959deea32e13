"""The frozen record types: repr, equality, hashing, immutability, copying,
pickling and constructor signatures, and the names the package exports."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pinlef as P
from pinlef import cli
from pinlef import constraints as cs
from pinlef import finite_linalg as fl
from pinlef import surfaces as sf

TORUS = P.orientable_surface(1, 1)
MOEBIUS = P.non_orientable_surface(1, 1)
KLEIN = P.non_orientable_surface(2)
_TORUS_REPR = (
    "SurfaceModel(kind='orientable', genus_or_crosscaps=1, boundary_components=1)"
)
_KLEIN_REPR = (
    "SurfaceModel(kind='non-orientable', genus_or_crosscaps=2, boundary_components=0)"
)
_CLASS_REPR = "HomologyClass(ring='Z4', coords=(1, 0))"


def _fibration(*cycles):
    return P.LefschetzFibration(TORUS, tuple(P.z4_class(c) for c in cycles))


def _threefold(belt):
    return P.HandlebodyDecomposition3(1, (P.z4_class((1, 1)),), (P.z4_class(belt),))


_DOC = "[surface]\nkind = orientable\ngenus = 1\n"

# (make a sample, its repr, make a sample that differs in one field); no
# variant marks the types compared by identity.
RECORDS = [
    (
        lambda: P.SurfaceModel("orientable", 1, 2),
        "SurfaceModel(kind='orientable', genus_or_crosscaps=1, boundary_components=2)",
        lambda: P.SurfaceModel("orientable", 1, 3),
    ),
    (
        lambda: P.HomologyPresentation(("e1", "e2"), 2, (1, 1), (-1, -1), ((2, 2),)),
        "HomologyPresentation(generators=('e1', 'e2'), z2_rank=2, diagonal=(1, 1), "
        "partner=(-1, -1), relations=((2, 2),))",
        None,
    ),
    (
        lambda: P.HomologyClass("Z4", (1, 2)),
        "HomologyClass(ring='Z4', coords=(1, 2))",
        lambda: P.HomologyClass("Z4", (1, 0)),
    ),
    (
        lambda: P.EnhancementMinus(KLEIN, (1, 3)),
        f"EnhancementMinus(surface={_KLEIN_REPR}, values=(1, 3))",
        lambda: P.EnhancementMinus(KLEIN, (3, 3)),
    ),
    (
        lambda: P.EnhancementPlus(KLEIN, (0, 1)),
        f"EnhancementPlus(surface={_KLEIN_REPR}, values=(0, 1))",
        lambda: P.EnhancementPlus(KLEIN, (1, 1)),
    ),
    (
        lambda: fl.BitRows((5, 0), 3),
        "BitRows(rows=(5, 0), ncols=3)",
        lambda: fl.BitRows((5, 1), 3),
    ),
    (
        lambda: P.solve_affine_gf2([[1, 1]], [1]),
        "AffineSolutionGF2(particular=array([0, 1], dtype=uint8), "
        "kernel_basis=(array([1, 1], dtype=uint8),))",
        None,
    ),
    (
        lambda: cs.StructureSet("minus", TORUS, 2, (1,)),
        f"StructureSet(kind='minus', surface={_TORUS_REPR}, first=2, kernel=(1,))",
        lambda: cs.StructureSet("plus", TORUS, 2, (1,)),
    ),
    (
        lambda: P.decide_pin_minus(_fibration((1, 0))),
        "DecisionReport(kind='minus', exists=True, structure_count=2, "
        f"structures=StructureSet(kind='minus', surface={_TORUS_REPR}, first=512, "
        "kernel=(2,)), h1_annihilator_dim=1, certificate=None, witness=None)",
        lambda: P.decide_pin_plus(_fibration((1, 0))),
    ),
    (
        lambda: P.decide_pin_minus(P.LefschetzFibration(MOEBIUS, (P.z4_class((2,)),))),
        "DecisionReport(kind='minus', exists=False, structure_count=0, "
        "structures=StructureSet(kind='minus', surface=SurfaceModel("
        "kind='non-orientable', genus_or_crosscaps=1, boundary_components=1), "
        "first=None, kernel=()), h1_annihilator_dim=1, "
        "certificate='q-(c1) = q-(2e1) = 0 != 2 (cycle 1 is null-homologous mod 2)', "
        "witness=ObstructionWitness(lead=0, summands=(), pair_sum=0))",
        lambda: P.decide_pin_minus(P.LefschetzFibration(MOEBIUS, (P.z4_class((0,)),))),
    ),
    (
        lambda: cs.ConstraintSystem("plus", TORUS, (P.z4_class((1, 0)),), 1),
        f"ConstraintSystem(kind='plus', surface={_TORUS_REPR}, "
        f"classes=({_CLASS_REPR},), target=1)",
        lambda: cs.ConstraintSystem("plus", TORUS, (P.z4_class((1, 0)),), 0),
    ),
    (
        lambda: _fibration((1, 0)),
        f"LefschetzFibration(fiber={_TORUS_REPR}, cycles=({_CLASS_REPR},))",
        lambda: _fibration((0, 1)),
    ),
    (
        lambda: P.ObstructionWitness(0, (1, 2), 1),
        "ObstructionWitness(lead=0, summands=(1, 2), pair_sum=1)",
        lambda: P.ObstructionWitness(0, (1, 2), 0),
    ),
    (
        lambda: _threefold((0, 0)),
        "HandlebodyDecomposition3(genus=1, "
        "attaching_classes=(HomologyClass(ring='Z4', coords=(1, 1)),), "
        "belt_classes=(HomologyClass(ring='Z4', coords=(0, 0)),))",
        lambda: _threefold((2, 2)),
    ),
    (
        lambda: cli.parse(_DOC + "[cycles]\n1,0\n"),
        "InputDocument(surface=SurfaceModel(kind='orientable', genus_or_crosscaps=1, "
        f"boundary_components=0), cycles=({_CLASS_REPR},), threefold=None, "
        "embedded_surfaces=())",
        lambda: cli.parse(_DOC),
    ),
    (
        lambda: cli._Section("report", (("command", "decide"),), ("line",)),
        "_Section(name='report', pairs=(('command', 'decide'),), text=('line',))",
        lambda: cli._Section("report", (("command", "decide"),)),
    ),
    (
        lambda: P.EmbeddedSurfaceData(1, 0, 1, 0, 1),
        "EmbeddedSurfaceData(euler_char_mod2=1, self_intersection_mod2=0, "
        "cup_term=1, w1sq_sigma=0, w1sq_normal=1)",
        lambda: P.EmbeddedSurfaceData(0, 0, 1, 0, 1),
    ),
    (
        lambda: P.ObstructionSummary(True, False),
        "ObstructionSummary(pin_plus_obstructed=True, pin_minus_obstructed=False, "
        "empty_generating_set=False)",
        lambda: P.ObstructionSummary(True, True),
    ),
]
_IDS = [r[1].split("(")[0] + str(i) for i, r in enumerate(RECORDS)]


@pytest.mark.parametrize("make, text, variant", RECORDS, ids=_IDS)
def test_repr(make, text, variant):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, variant", RECORDS, ids=_IDS)
def test_equality_and_hash(make, text, variant):
    a, b = make(), make()
    assert a == a and hash(a) == hash(a)
    if variant is None:  # compared by identity
        assert a != b
        return
    assert a == b and hash(a) == hash(b)
    assert a != variant() and not a == variant()
    fields = tuple(getattr(a, name) for name in type(a).__match_args__)
    assert a != fields  # never equal to a plain tuple of its fields
    assert hash(a) == hash(fields)


@pytest.mark.parametrize("make, text, variant", RECORDS, ids=_IDS)
def test_fields_are_read_only(make, text, variant):
    a = make()
    for name in (*type(a).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text


@pytest.mark.parametrize("make, text, variant", RECORDS, ids=_IDS)
def test_copies_and_pickles_are_equal(make, text, variant):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and repr(b) == text
        if variant is not None:
            assert b == a and hash(b) == hash(a)


def test_match_args_name_the_constructor_parameters():
    for make, _, _ in RECORDS:
        cls = type(make())
        params = inspect.signature(cls).parameters
        assert tuple(params) == cls.__match_args__


def test_constructor_defaults():
    defaults = {
        P.SurfaceModel: {"boundary_components": 0},
        cs.StructureSet: {"kernel": ()},
        P.DecisionReport: {"certificate": None, "witness": None},
        P.LefschetzFibration: {"cycles": ()},
        cli.InputDocument: {"cycles": None, "threefold": None, "embedded_surfaces": ()},
        cli._Section: {"text": ()},
        P.ObstructionSummary: {"empty_generating_set": False},
    }
    for make, _, _ in RECORDS:
        cls = type(make())
        found = {
            name: p.default
            for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty
        }
        assert found == defaults.get(cls, {}), cls


def test_embedded_surface_data_stays_a_dataclass():
    assert dataclasses.is_dataclass(P.EmbeddedSurfaceData)
    d = dataclasses.replace(P.EmbeddedSurfaceData(1, 0, 1, 0, 1), cup_term=0)
    assert d == P.EmbeddedSurfaceData(1, 0, 0, 0, 1)


def test_package_exports_every_name():
    # A fresh process, so that nothing was loaded before the package.
    script = """
import pinlef
listed = set(dir(pinlef))
missing = [n for n in pinlef.__all__ if n not in listed]
assert not missing, missing
names = {}
exec("from pinlef import *", names)
assert sorted(set(names) - {"__builtins__"}) == sorted(pinlef.__all__)
assert all(names[n] is getattr(pinlef, n) for n in pinlef.__all__)
assert pinlef.__all__ == sorted(set(pinlef.__all__))
assert pinlef.surfaces.SurfaceModel is pinlef.SurfaceModel
assert pinlef.errors.InputError is pinlef.InputError
assert pinlef.__version__ == "0.1.0"
try:
    pinlef.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("no AttributeError")
"""
    src = str(Path(P.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# e1 + e2 on the Klein bottle is two-sided; e1 alone is one-sided.
_TWO_SIDED, _ONE_SIDED = P.z4_class((1, 1)), P.z4_class((1, 0))


def test_fibration_keeps_cycles_given_by_a_generator():
    f = P.LefschetzFibration(KLEIN, (c for c in [_TWO_SIDED]))
    assert f.cycles == (_TWO_SIDED,)
    # The product fibration, with no cycle, would have 4.
    assert P.decide_pin_minus(f).structure_count == 2


def test_fibration_keeps_the_cycles_it_validated():
    cycles = [_TWO_SIDED]
    f = P.LefschetzFibration(KLEIN, cycles)
    cycles[0] = _ONE_SIDED
    assert f.cycles == (_TWO_SIDED,)
    assert P.decide_pin_minus(f).structure_count == 2


def test_listed_classes_of_a_list_and_a_tuple():
    d = P.HandlebodyDecomposition3(1, [_TWO_SIDED], (P.z4_class((0, 0)),))
    assert d.listed_classes() == (_TWO_SIDED, P.z4_class((0, 0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda seq: P.LefschetzFibration(KLEIN, seq([_TWO_SIDED])),
        lambda seq: P.HandlebodyDecomposition3(
            1, seq([_TWO_SIDED]), seq([_TWO_SIDED])
        ),
        lambda seq: cs.ConstraintSystem("minus", KLEIN, seq([_TWO_SIDED]), 2),
    ],
    ids=["fibration", "threefold", "system"],
)
def test_records_given_lists_store_tuples(make):
    given, stored = make(list), make(tuple)
    assert given == stored and hash(given) == hash(stored)
    assert repr(given) == repr(stored)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: P.LefschetzFibration(KLEIN, ((1, 1),)), "cycle 1 must be a Z4 class"),
        (
            lambda: P.HandlebodyDecomposition3(1, [_TWO_SIDED], [(0, 0)]),
            "belt class 1 must be a Z4 class",
        ),
    ],
    ids=["fibration", "threefold"],
)
def test_class_entries_must_be_homology_classes(make, message):
    with pytest.raises(P.InputError) as err:
        make()
    assert str(err.value) == message


_THREEFOLD_DOC = (
    "[surface]\nkind = non-orientable\ncrosscaps = 2\n"
    "[threefold]\ngenus = 1\nattach = 1,1\nbelt = 3,1\n"
)

# Each way a class is made, by the library or by a caller.
CLASSES = {
    "Z4": lambda: P.HomologyClass("Z4", (3, 0, 2, 1)),
    "Z2": lambda: P.HomologyClass("Z2", (1, 0, 1)),
    "empty": lambda: P.HomologyClass("Z4", ()),
    "generator": lambda: P.HomologyClass("Z4", (a for a in (3, True, 2))),
    "z2_class": lambda: P.z2_class((3, -1, 2, True)),
    "z4_class": lambda: P.z4_class((7, -1, 2, 0)),
    "z2_reduction": lambda: sf.z2_reduction(P.z4_class((3, 2, 1, 0))),
    "parsed-cycle": lambda: cli.parse(_DOC + "[cycles]\n3, 2\n").cycles[0],
    "parsed-belt": lambda: cli.parse(_THREEFOLD_DOC).threefold.belt_classes[0],
}

# Each way an enhancement is made; its values, each 0..3, make its planes.
ENHANCEMENTS = {
    "minus": lambda: P.EnhancementMinus(KLEIN, (1, 3)),
    "plus": lambda: P.EnhancementPlus(KLEIN, (0, 1)),
    "generator": lambda: P.EnhancementMinus(KLEIN, (v for v in (3, True))),
    "base-minus": lambda: P.base_enhancement_minus(P.orientable_surface(2, 2)),
    "base-plus": lambda: P.base_enhancement_plus(P.orientable_surface(2, 2)),
    "acted-minus": lambda: P.act_h1(P.base_enhancement_minus(KLEIN), (1, 0)),
    "acted-plus": lambda: P.act_h1(P.base_enhancement_plus(KLEIN), (0, 1)),
    "structure": lambda: P.decide_pin_minus(_fibration((1, 0))).structures[1],
    "enumerated": lambda: P.enumerate_enhancements(KLEIN, "plus")[3],
}


def _check_planes(record, entries) -> None:
    """Check a record's stored planes against its entries, as made and
    after a copy or a pickle round trip."""
    for r in (record, copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert (r._bits, r._high) == (fl.pack_bits(entries), fl.high_bits(entries))


@pytest.mark.parametrize("make", CLASSES.values(), ids=CLASSES)
def test_class_planes_are_its_coordinates(make):
    x = make()
    _check_planes(x, x.coords)


@pytest.mark.parametrize("make", ENHANCEMENTS.values(), ids=ENHANCEMENTS)
def test_enhancement_planes_are_its_values(make):
    q = make()
    _check_planes(q, q.values)


def test_evaluating_changes_no_record():
    x = P.z4_class((1, 1))
    records = (
        x,
        sf.z2_reduction(x),
        P.base_enhancement_minus(KLEIN),
        P.base_enhancement_plus(KLEIN),
    )

    def observed():
        return [
            (
                repr(r),
                hash(r),
                pickle.dumps(r),
                copy.copy(r) == r,
                copy.deepcopy(r) == r,
                pickle.loads(pickle.dumps(r)) == r,
            )
            for r in records
        ]

    before = observed()
    assert P.eval_qminus(records[2], records[1]) == 2
    assert P.eval_qplus(records[3], x) == 0
    f = P.LefschetzFibration(KLEIN, (x,))
    assert P.decide_pin_minus(f).structure_count == 2
    assert P.decide_pin_plus(f).structure_count == 2
    assert len(P.brute_force_pin_minus(f)) == len(P.brute_force_pin_plus(f)) == 2
    assert observed() == before
    assert records[0] == P.z4_class((1, 1)) and records[1] == P.z2_class((1, 1))
