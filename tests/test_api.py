"""The public surface: each name in ``pinlef.__all__``, the public methods
and properties of each exported class, and each record's ``__match_args__``.

A signature is kept as its parameter names, kinds and default reprs; the
annotations are dropped, since their text differs between Python versions.
Entries are named ``Name`` (the signature of the export itself; ``None``
where it has none of its own, as for an exception class),
``Name.member`` (a method's signature, or ``"property"``) and
``Name.__match_args__``.
"""

from __future__ import annotations

import inspect
from functools import cached_property

import pytest

import pinlef


def _signature(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def _own_classes(cls) -> list[type]:
    """The classes of ``cls``'s MRO that the package defines, base first."""
    return [k for k in reversed(cls.__mro__) if k.__module__.startswith("pinlef")]


def _entries(name: str) -> dict:
    obj = getattr(pinlef, name)
    if not isinstance(obj, type):
        return {name: _signature(obj)}
    own = _own_classes(obj)
    constructs = any("__init__" in vars(k) or "__new__" in vars(k) for k in own)
    entries = {name: _signature(obj) if constructs else None}
    if hasattr(obj, "__match_args__"):
        entries[f"{name}.__match_args__"] = tuple(obj.__match_args__)
    for klass in own:
        for attr, value in vars(klass).items():
            if attr.startswith("_"):
                continue
            if isinstance(value, (property, cached_property)):
                entries[f"{name}.{attr}"] = "property"
            elif inspect.isfunction(value) or isinstance(
                value, (staticmethod, classmethod)
            ):
                entries[f"{name}.{attr}"] = _signature(getattr(obj, attr))
    return entries


# Editing an entry here is changing the public API.
EXPECTED: dict = {
    "AffineSolutionGF2": "(particular, kernel_basis)",
    "AffineSolutionGF2.__match_args__": ("particular", "kernel_basis"),
    "AffineSolutionGF2.count": "property",
    "AffineSolutionGF2.enumerate_solutions": "(self)",
    "DecisionReport": (
        "(kind, exists, structure_count, structures, h1_annihilator_dim, "
        "certificate=None, witness=None)"
    ),
    "DecisionReport.__match_args__": (
        "kind",
        "exists",
        "structure_count",
        "structures",
        "h1_annihilator_dim",
        "certificate",
        "witness",
    ),
    "EmbeddedSurfaceData": (
        "(euler_char_mod2, self_intersection_mod2, cup_term, w1sq_sigma, w1sq_normal)"
    ),
    "EmbeddedSurfaceData.__match_args__": (
        "euler_char_mod2",
        "self_intersection_mod2",
        "cup_term",
        "w1sq_sigma",
        "w1sq_normal",
    ),
    "EnhancementMinus": "(surface, values)",
    "EnhancementMinus.__match_args__": ("surface", "values"),
    "EnhancementPlus": "(surface, values)",
    "EnhancementPlus.__match_args__": ("surface", "values"),
    "HandlebodyDecomposition3": "(genus, attaching_classes, belt_classes)",
    "HandlebodyDecomposition3.__match_args__": (
        "genus",
        "attaching_classes",
        "belt_classes",
    ),
    "HandlebodyDecomposition3.boundary": "property",
    "HandlebodyDecomposition3.listed_classes": "(self)",
    "HandlebodyDecomposition3.row_labels": "(self)",
    "HandlebodyDecomposition3.z2_class_matrix": "(self)",
    "HomologyClass": "(ring, coords)",
    "HomologyClass.__match_args__": ("ring", "coords"),
    "HomologyPresentation": "(generators, z2_rank, diagonal, partner, relations)",
    "HomologyPresentation.__match_args__": (
        "generators",
        "z2_rank",
        "diagonal",
        "partner",
        "relations",
    ),
    "HomologyPresentation.rank": "property",
    "HomologyPresentation.one_sided": "property",
    "HomologyPresentation.handle_first": "property",
    "HomologyPresentation.z2_intersection": "property",
    "HomologyPresentation.z4_relations": "property",
    "InputError": None,
    "InvalidDecomposition": "(message, certificate=None)",
    "InvariantViolation": None,
    "LefschetzFibration": "(fiber, cycles=())",
    "LefschetzFibration.__match_args__": ("fiber", "cycles"),
    "LefschetzFibration.z2_cycle_matrix": "(self)",
    "ObstructionSummary": (
        "(pin_plus_obstructed, pin_minus_obstructed, empty_generating_set=False)"
    ),
    "ObstructionSummary.__match_args__": (
        "pin_plus_obstructed",
        "pin_minus_obstructed",
        "empty_generating_set",
    ),
    "ObstructionWitness": "(lead, summands, pair_sum)",
    "ObstructionWitness.__match_args__": ("lead", "summands", "pair_sum"),
    "ObstructionWitness.k": "property",
    "ObstructionWitness.describe": "(self, f)",
    "ParseError": "(line, reason)",
    "PinlefError": None,
    "SphereVerdicts": "(pin_minus, pin_plus)",
    "SphereVerdicts.__match_args__": ("pin_minus", "pin_plus"),
    "SurfaceModel": "(kind, genus_or_crosscaps, boundary_components=0)",
    "SurfaceModel.__match_args__": (
        "kind",
        "genus_or_crosscaps",
        "boundary_components",
    ),
    "SurfaceModel.closed": "property",
    "SurfaceModel.z2_rank": "property",
    "SurfaceModel.describe": "(self)",
    "act_h1": "(q, gamma)",
    "annihilator_gf2": "(rows)",
    "base_enhancement_minus": "(s)",
    "base_enhancement_plus": "(s)",
    "brute_force_pin_minus": "(f)",
    "brute_force_pin_minus_3mfd": "(d)",
    "brute_force_pin_plus": "(f)",
    "brute_force_pin_plus_3mfd": "(d)",
    "construct_pin_minus_3mfd": "(d)",
    "decide_pin_minus": "(f)",
    "decide_pin_over_s2": "(f, dual_surface)",
    "decide_pin_plus": "(f)",
    "decide_pin_plus_3mfd": "(d)",
    "enumerate_enhancements": "(s, kind)",
    "eval_qminus": "(q, x)",
    "eval_qplus": "(q, x)",
    "eval_w1sq": "(d)",
    "eval_w2": "(d)",
    "fibration_h1_annihilator": "(f)",
    "homology_presentation": "(s)",
    "howell_z4": "(m)",
    "in_row_module_z4": "(h, v)",
    "mat_gf2": "(entries)",
    "mat_z4": "(entries)",
    "non_orientable_surface": "(crosscaps, boundary=0)",
    "orientable_surface": "(genus, boundary=0)",
    "pin_minus_witness_search": "(f)",
    "pin_obstruction_summary": "(surfaces)",
    "pin_plus_exists_surface": "(s)",
    "rref_gf2": "(m)",
    "solve_affine_gf2": "(C, A)",
    "solve_pin_minus_3mfd": "(d)",
    "vec_gf2": "(entries)",
    "z2_class": "(coords)",
    "z4_class": "(coords)",
    "z4_classes_equal": "(s, x, y)",
}

EXPORTS = sorted({key.split(".")[0] for key in EXPECTED})


def test_exports_are_the_pinned_names():
    assert pinlef.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_surface_is_pinned(name):
    pinned = {
        key: value
        for key, value in EXPECTED.items()
        if key == name or key.startswith(f"{name}.")
    }
    assert _entries(name) == pinned
