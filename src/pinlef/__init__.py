"""Exact decision procedures for Pin structures.

Decides existence of, counts, and enumerates Pin- and Pin+ structures on
4-dimensional Lefschetz fibrations over the disk (with derived criteria
for fibrations over the sphere and for closed 3-manifolds), by reducing
everything to quadratic-enhancement constraints and affine linear systems
over Z2 and Z4.
"""

import sys

__version__ = "0.1.0"

# Each exported name and the module that defines it.  Names load on first
# access (PEP 562), so ``import pinlef.cli`` runs only the modules a command
# needs; ``charclasses`` in particular loads only for embedded-surface data.
_EXPORTS = {
    "EmbeddedSurfaceData": "charclasses",
    "ObstructionSummary": "charclasses",
    "SphereVerdicts": "charclasses",
    "decide_pin_over_s2": "charclasses",
    "eval_w1sq": "charclasses",
    "eval_w2": "charclasses",
    "pin_obstruction_summary": "charclasses",
    "InputError": "errors",
    "InvalidDecomposition": "errors",
    "InvariantViolation": "errors",
    "ParseError": "errors",
    "PinlefError": "errors",
    "AffineSolutionGF2": "finite_linalg",
    "annihilator_gf2": "finite_linalg",
    "howell_z4": "finite_linalg",
    "in_row_module_z4": "finite_linalg",
    "mat_gf2": "finite_linalg",
    "mat_z4": "finite_linalg",
    "rref_gf2": "finite_linalg",
    "solve_affine_gf2": "finite_linalg",
    "vec_gf2": "finite_linalg",
    "DecisionReport": "lefschetz",
    "LefschetzFibration": "lefschetz",
    "ObstructionWitness": "lefschetz",
    "brute_force_pin_minus": "lefschetz",
    "brute_force_pin_plus": "lefschetz",
    "decide_pin_minus": "lefschetz",
    "decide_pin_plus": "lefschetz",
    "fibration_h1_annihilator": "lefschetz",
    "pin_minus_witness_search": "lefschetz",
    "EnhancementMinus": "surfaces",
    "EnhancementPlus": "surfaces",
    "HomologyClass": "surfaces",
    "HomologyPresentation": "surfaces",
    "SurfaceModel": "surfaces",
    "act_h1": "surfaces",
    "base_enhancement_minus": "surfaces",
    "base_enhancement_plus": "surfaces",
    "enumerate_enhancements": "surfaces",
    "eval_qminus": "surfaces",
    "eval_qplus": "surfaces",
    "homology_presentation": "surfaces",
    "non_orientable_surface": "surfaces",
    "orientable_surface": "surfaces",
    "pin_plus_exists_surface": "surfaces",
    "z2_class": "surfaces",
    "z4_class": "surfaces",
    "z4_classes_equal": "surfaces",
    "HandlebodyDecomposition3": "threefolds",
    "brute_force_pin_minus_3mfd": "threefolds",
    "brute_force_pin_plus_3mfd": "threefolds",
    "construct_pin_minus_3mfd": "threefolds",
    "decide_pin_plus_3mfd": "threefolds",
    "solve_pin_minus_3mfd": "threefolds",
}
__all__ = sorted(_EXPORTS)
# Submodules reachable as attributes after a bare ``import pinlef``.
_SUBMODULES = frozenset(_EXPORTS.values()) | {"constraints"}


def _submodule(name: str):
    # Through __import__, unlike importlib.import_module, the load shows up
    # in ``python -X importtime``.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

