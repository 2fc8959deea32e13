"""Pin structure decisions for Lefschetz fibrations over the disk.

A fibration is its regular fiber plus the ordered mod-4 homology classes
of its vanishing cycles.  A Pin- structure on the total space is the same
thing as a minus enhancement of the fiber taking the value 2 on every
vanishing cycle; a Pin+ structure is a plus enhancement taking the value 1
on every cycle.  Writing an unknown enhancement as the base one plus a
correction turns either condition into an affine linear system over Z2,
decided by comparing the rank of the coefficient matrix with the rank of
its augmentation.  Structures, when they exist, form a free orbit under
the subgroup of fiber cohomology classes annihilating all cycles.

Non-existence of Pin- is also certified combinatorially: it is equivalent
to a dependent family of cycles, one of them homologous mod 2 to the sum
of the others, whose size-plus-pairwise-intersection parity comes out
even.  :func:`pin_minus_witness_search` finds such a family exhaustively
and serves as an independent oracle for the linear-algebra route.
"""

from __future__ import annotations

from itertools import combinations

from . import finite_linalg as fl
from . import surfaces as sf
from ._record import Record
from .constraints import ConstraintSystem, DecisionReport, check_classes, rank_mismatch
from .errors import InputError


class LefschetzFibration(Record):
    """Regular fiber plus ordered vanishing-cycle classes over Z4.

    Every cycle must be two-sided in the fiber: its mod-2 reduction has
    even self-intersection.  Mod-2 data is derived by reduction where
    needed.  An empty cycle list is legal and means the product fibration.
    """

    def __init__(
        self, fiber: sf.SurfaceModel, cycles: tuple[sf.HomologyClass, ...] = ()
    ) -> None:
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "cycles", tuple(cycles))
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.fiber, sf.SurfaceModel):
            raise InputError(
                f"fiber must be a SurfaceModel, got {type(self.fiber).__name__}"
            )
        pres = sf.homology_presentation(self.fiber)
        why = "{} ({}) has odd self-intersection; vanishing cycles are two-sided"
        checked = check_classes(self.cycles, pres, name="cycle", why=why)
        object.__setattr__(self, "_checked", checked)

    def _system(self, kind: str) -> ConstraintSystem:
        """The fiber's enhancements of ``kind`` taking the value 2 (minus)
        or 1 (plus) on every cycle."""
        target = 2 if kind == "minus" else 1
        return ConstraintSystem(kind, self.fiber, self._checked, target)

    def z2_cycle_matrix(self) -> fl.MatGF2:
        """Mod-2 reductions of the cycles, one row per cycle."""
        return self._checked.rows.to_array()


class ObstructionWitness(Record):
    """A dependent cycle family certifying Pin- non-existence.

    The class of cycle ``lead`` equals the mod-2 sum of the classes of
    ``summands``, and len(summands) + pair_sum is even, where ``pair_sum``
    is the parity of the pairwise intersections among the summands.
    """

    def __init__(self, lead: int, summands: tuple[int, ...], pair_sum: int) -> None:
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "pair_sum", pair_sum)

    @property
    def k(self) -> int:
        return len(self.summands)

    def describe(self, f: LefschetzFibration) -> str:
        pres = sf.homology_presentation(f.fiber)
        lead_txt = sf.format_class(pres, f.cycles[self.lead].coords)
        if not self.summands:
            return (
                f"q-(c{self.lead + 1}) = q-({lead_txt}) = 0 != 2 "
                f"(cycle {self.lead + 1} is null-homologous mod 2)"
            )
        sum_txt = " + ".join(f"[c{i + 1}]" for i in self.summands)
        total = (self.k + self.pair_sum) % 2
        return (
            f"[c{self.lead + 1}] = {sum_txt} mod 2 with "
            f"k + pairwise intersections = {self.k} + {self.pair_sum} "
            f"= {total} mod 2"
        )


def fibration_h1_annihilator(f: LefschetzFibration) -> list[fl.VecGF2]:
    """Basis of the fiber cohomology classes vanishing on every cycle.

    This subgroup is the cohomology of the total space sitting inside the
    fiber's; acting by it permutes the solutions of either decision system
    freely and transitively.
    """
    checked = f._checked
    return [fl._vector(k, checked.ncols) for k in checked.echelon.kernel]


def _witness_from_combination(f: LefschetzFibration, support) -> ObstructionWitness:
    pres = sf.homology_presentation(f.fiber)
    lead, summands = support[0], tuple(support[1:])
    pair = sf._pairwise_parity(pres, [f.cycles[i]._bits for i in summands])
    return ObstructionWitness(lead, summands, pair)


def decide_pin_minus(f: LefschetzFibration) -> DecisionReport:
    """Decide Pin- on the fibration and enumerate all structures.

    The unknowns are the mod-2 corrections s_i to the base enhancement on
    each generator; requiring the value 2 on a cycle with reduction v
    reads v . s = 1 + q0(v)/2 over Z2.
    """

    def certify(rank, y):
        witness = _witness_from_combination(f, y)
        return witness.describe(f), witness

    return f._system("minus").decide(certify)


def decide_pin_plus(f: LefschetzFibration) -> DecisionReport:
    """Decide Pin+ on the fibration and enumerate all structures.

    Writing q = q0 + l for a linear correction l, requiring the value 1 on
    every cycle asks for l([c_i]) = 1 + q0([c_i]); the system is solvable
    exactly when the cycle matrix and its augmentation have equal rank.
    A fiber with no Pin+ structure obstructs immediately.
    """
    system = f._system("plus")
    obstruction = sf.pin_plus_obstruction(f.fiber)
    if obstruction is not None:
        return system.refuse(f"fiber has no Pin+ structure: {obstruction}")
    reason = "no enhancement takes the value 1 on every cycle"
    return system.decide(rank_mismatch(reason))


def pin_minus_witness_search(f: LefschetzFibration) -> ObstructionWitness | None:
    """Exhaustive search for a dependent cycle family blocking Pin-.

    Scans subsets of the cycle list by size, then lexicographically, and
    returns the first family whose classes sum to zero mod 2 while the
    size-plus-pairwise-intersection parity is odd (equivalently, writing
    one cycle as the sum of the k others, k + pairwise intersections of
    the summands is even).  Cost grows as 2**n; meant for n up to ~20.

    A witness exists if and only if the fibration has no Pin- structure.
    """
    rows = f._checked.rows.rows
    n = len(f.cycles)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            total = 0
            for i in subset:
                total ^= rows[i]
            if total:
                continue
            # The lead is the sum of the summands and pairs evenly with
            # itself, so the whole subset's pairwise parity is the summands'.
            witness = _witness_from_combination(f, subset)
            if (witness.k + witness.pair_sum) % 2 == 0:
                return witness
    return None


def brute_force_pin_minus(f: LefschetzFibration) -> list[sf.EnhancementMinus]:
    """All minus enhancements taking the value 2 on every cycle (2**rank scan)."""
    return f._system("minus").brute_force()


def brute_force_pin_plus(f: LefschetzFibration) -> list[sf.EnhancementPlus]:
    """All plus enhancements taking the value 1 on every cycle (2**rank scan)."""
    return f._system("plus").brute_force()
