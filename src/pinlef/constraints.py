"""The affine Z2 system behind every Pin decider and brute-force oracle.

Each question asks for an enhancement q = q0 + correction of a surface
taking one value on every listed class.  Row i of C is the mod-2 reduction
of class i; A_i is (target - q0(v_i))/2 mod 2 for minus enhancements (v_i
is two-sided, so q0(v_i) is even) and target + q0(c_i) mod 2 for plus ones.
One elimination of [C | A | I] gives rank(C) and either every solution or
a row combination y with y.C = 0 and y.A = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import finite_linalg as fl
from . import surfaces as sf

if TYPE_CHECKING:
    from .lefschetz import ObstructionWitness


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of a Pin decision: verdict, count, structures, certificate.

    When structures exist, ``structure_count`` equals
    2**h1_annihilator_dim and ``structures`` lists them all; otherwise
    ``certificate`` explains why none exist (and for the minus kind
    ``witness`` carries the dependent cycle family).
    """

    kind: str
    exists: bool
    structure_count: int
    structures: tuple
    h1_annihilator_dim: int
    certificate: str | None = None
    witness: ObstructionWitness | None = None


def z2_matrix(surface: sf.SurfaceModel, classes) -> np.ndarray:
    """Mod-2 reductions of the classes, one row per class."""
    rank = sf.homology_presentation(surface).z2_rank
    rows = np.array([c.coords for c in classes], dtype=np.uint8) % 2
    return fl.mat_gf2(rows.reshape(len(classes), rank))


def rank_mismatch(rank: int, reason: str) -> str:
    """Certificate text for an unsolvable system whose C has this rank."""
    return f"rank(C) = {rank} != rank(C|A) = {rank + 1}; {reason}"


@dataclass(frozen=True)
class ConstraintSystem:
    """Enhancements of ``kind`` ("minus" or "plus") on ``surface`` taking
    the value ``target`` on each of the Z4 ``classes``, in row order."""

    kind: str
    surface: sf.SurfaceModel
    classes: tuple[sf.HomologyClass, ...]
    target: int

    def decide(self, certify: Callable[[int, np.ndarray], tuple]) -> DecisionReport:
        """Solve the system once; list every structure or certify a NO.

        ``certify(rank, y)`` words a NO from rank(C) and the row
        combination y, returning (certificate, witness).
        """
        s = self.surface
        if self.kind == "minus":
            q0 = sf.base_enhancement_minus(s)
            rhs = [
                ((self.target - sf.eval_qminus(q0, sf.z2_reduction(c))) // 2) % 2
                for c in self.classes
            ]
        else:
            q0 = sf.base_enhancement_plus(s)
            rhs = [(self.target + sf.eval_qplus(q0, c)) % 2 for c in self.classes]
        C = z2_matrix(s, self.classes)
        rank, solution, y = fl.eliminate_affine_gf2(C, fl.vec_gf2(rhs))
        dim = C.shape[1] - rank
        if solution is None:
            certificate, witness = certify(rank, y)
            return DecisionReport(self.kind, False, 0, (), dim, certificate, witness)
        vectors = (v.tolist() for v in solution.enumerate_solutions())
        if self.kind == "minus":
            structures = tuple(
                sf.EnhancementMinus(
                    s, tuple((b + 2 * x) % 4 for b, x in zip(q0.values, vec))
                )
                for vec in vectors
            )
        else:
            # The plus base enhancement is zero on every generator.
            structures = tuple(sf.EnhancementPlus(s, tuple(vec)) for vec in vectors)
        return DecisionReport(self.kind, True, solution.count, structures, dim)

    def refuse(self, certificate: str) -> DecisionReport:
        """A NO settled before any system is solved, for a surface that
        carries no enhancement of this kind at all."""
        C = z2_matrix(self.surface, self.classes)
        rank, _, _ = fl.rref_gf2(C)
        return DecisionReport(self.kind, False, 0, (), C.shape[1] - rank, certificate)

    def brute_force(self) -> list:
        """Every enhancement meeting the targets, by scanning all 2**rank."""
        if self.kind == "minus":
            evaluate = sf.eval_qminus
            classes = [sf.z2_reduction(c) for c in self.classes]
        else:
            evaluate, classes = sf.eval_qplus, self.classes
        return [
            q
            for q in sf.enumerate_enhancements(self.surface, self.kind)
            if all(evaluate(q, x) == self.target for x in classes)
        ]
