"""Embedded-surface evaluations of the second Stiefel-Whitney class and
the square of the first, and the Pin existence predicates they control.

For a surface in a 4-manifold representing a mod-2 homology class, the
pairing of w2 with that class equals

    chi(sigma) + (w1(sigma) cup w1(nu(sigma)))([sigma]) + [sigma]^2  mod 2

and the pairing of w1^2 equals w1^2(sigma) + w1^2(nu(sigma)).  The caller
supplies these five residues; nothing is computed from an embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

from . import lefschetz as lf
from .errors import InputError


@dataclass(frozen=True)
class EmbeddedSurfaceData:
    """Mod-2 invariants of an embedded surface and its normal bundle."""

    euler_char_mod2: int
    self_intersection_mod2: int
    cup_term: int  # (w1(sigma) cup w1(nu(sigma)))([sigma])
    w1sq_sigma: int
    w1sq_normal: int

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if v not in (0, 1):
                raise InputError(f"{field.name} must be a residue mod 2, got {v!r}")


def eval_w2(d: EmbeddedSurfaceData) -> int:
    """Pairing of w2 of the ambient manifold with the surface's class."""
    return (d.euler_char_mod2 + d.cup_term + d.self_intersection_mod2) % 2


def eval_w1sq(d: EmbeddedSurfaceData) -> int:
    """Pairing of w1^2 of the ambient manifold with the surface's class."""
    return (d.w1sq_sigma + d.w1sq_normal) % 2


@dataclass(frozen=True)
class ObstructionSummary:
    """Verdicts over a generating set of second mod-2 homology.

    ``empty_generating_set`` flags that no surfaces were supplied, in which
    case both verdicts default to unobstructed vacuously.
    """

    pin_plus_obstructed: bool
    pin_minus_obstructed: bool
    empty_generating_set: bool = False


def pin_obstruction_summary(
    surfaces: Sequence[EmbeddedSurfaceData],
) -> ObstructionSummary:
    """Obstruction verdicts from surfaces generating H2 of the manifold.

    Pin+ is obstructed when w2 pairs nontrivially with some class; Pin-
    when w2 + w1^2 does.  Whether the supplied surfaces actually generate
    is the caller's responsibility.
    """
    if not surfaces:
        return ObstructionSummary(False, False, empty_generating_set=True)
    plus = any(eval_w2(d) for d in surfaces)
    minus = any((eval_w2(d) + eval_w1sq(d)) % 2 for d in surfaces)
    return ObstructionSummary(plus, minus)


def over_s2(report: lf.DecisionReport, d: EmbeddedSurfaceData) -> bool:
    """The verdict over the sphere of the kind ``report`` decides on the disk
    part: the disk part has the structure and the dual surface's term is 0.
    That is w2 on sigma for "plus", [sigma]^2 + cup + w1^2(nu(sigma)) for
    "minus"."""
    minus = (d.self_intersection_mod2 + d.cup_term + d.w1sq_normal) % 2
    term = eval_w2(d) if report.kind == "plus" else minus
    return report.exists and term == 0


class SphereVerdicts(NamedTuple):
    pin_minus: bool
    pin_plus: bool


def decide_pin_over_s2(
    f: lf.LefschetzFibration, dual_surface: EmbeddedSurfaceData
) -> SphereVerdicts:
    """Pin verdicts for a fibration over the sphere, each :func:`over_s2`.

    ``f`` describes the complement of a fiber neighbourhood as a fibration
    over the disk; ``dual_surface`` carries the invariants of an embedded
    surface dual to the fiber.
    """
    return SphereVerdicts(
        pin_minus=over_s2(lf.decide_pin_minus(f), dual_surface),
        pin_plus=over_s2(lf.decide_pin_plus(f), dual_surface),
    )
