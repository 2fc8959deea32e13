"""The affine Z2 system behind every Pin decider and brute-force oracle.

Each question asks for an enhancement q = q0 + correction of a surface
taking one value on every listed class; a correction bit moves a value by
the kind's ``step`` (2 for minus, 1 for plus).  Row i of C is the mod-2
reduction of class i and A_i is (target - q0(c_i)) / step mod 2.  One
elimination of [C | A | I] gives rank(C) and either every solution or
a row combination y with y.C = 0 and y.A = 1.
"""

from __future__ import annotations

import operator
import sys
from typing import TYPE_CHECKING, Callable, Iterator

from . import finite_linalg as fl
from . import surfaces as sf
from ._record import Record
from .errors import InputError, InvariantViolation

if TYPE_CHECKING:
    from .lefschetz import ObstructionWitness


_ENHANCEMENT = {"minus": sf.EnhancementMinus, "plus": sf.EnhancementPlus}


def _pack(values) -> int:
    """Generator values (each 0..3) as one int, a byte per generator, the
    first generator most significant: int order is lexicographic order."""
    return int.from_bytes(bytes(values), "big")


class StructureSet(Record):
    """The solutions of a system, described without listing them.

    Values are packed by ``_pack``.  ``first`` is the smallest structure
    (None when there is none) and ``kernel`` the differences that span the
    rest, in RREF order: each has its leading bit at a position where
    ``first`` and every other kernel row are zero.  Structure i is
    ``first`` XOR the kernel rows picked by the bits of i, the first row
    being the most significant bit, so index order is lexicographic order
    of the values.  The set holds one int per kernel dimension; it builds
    enhancements only when indexed or iterated.
    """

    def __init__(
        self,
        kind: str,
        surface: sf.SurfaceModel,
        first: int | None,
        kernel: tuple[int, ...] = (),
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "kernel", kernel)

    @property
    def count(self) -> int:
        return 0 if self.first is None else 1 << len(self.kernel)

    def __len__(self) -> int:
        n = self.count
        if n > sys.maxsize:
            raise OverflowError(
                f"{n} structures are more than len() can report; use .count"
            )
        return n

    def __bool__(self) -> bool:
        return self.first is not None

    def __getitem__(self, i) -> sf.EnhancementMinus | sf.EnhancementPlus:
        i = operator.index(i)
        n = self.count
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("structure index out of range")
        packed = self.first
        top = len(self.kernel) - 1
        for j, row in enumerate(self.kernel):
            if i >> (top - j) & 1:
                packed ^= row
        return self._structure(packed)

    def __contains__(self, q) -> bool:
        if (
            self.first is None
            or type(q) is not _ENHANCEMENT[self.kind]
            or q.surface != self.surface
        ):
            return False
        rest = _pack(q.values) ^ self.first
        for row in self.kernel:
            if rest >> (row.bit_length() - 1) & 1:
                rest ^= row
        return rest == 0

    def __iter__(self) -> Iterator[sf.EnhancementMinus | sf.EnhancementPlus]:
        return map(self._structure, self._packed())

    def values(self) -> Iterator[bytes]:
        """Each structure's generator values as a bytes row, one byte per
        generator, in iteration order, without building the enhancements."""
        r = self.surface.z2_rank
        return (p.to_bytes(r, "big") for p in self._packed())

    def _packed(self) -> Iterator[int]:
        if self.first is None:
            return
        packed = self.first
        yield packed
        # From i - 1 to i the low t + 1 bits flip, t being the number of
        # trailing zeros of i; steps[t] is the XOR of their kernel rows.
        steps, acc = [], 0
        for row in reversed(self.kernel):
            acc ^= row
            steps.append(acc)
        for i in range(1, self.count):
            packed ^= steps[(i & -i).bit_length() - 1]
            yield packed

    def _structure(self, packed: int) -> sf.EnhancementMinus | sf.EnhancementPlus:
        values = tuple(packed.to_bytes(self.surface.z2_rank, "big"))
        return _ENHANCEMENT[self.kind](self.surface, values)


class DecisionReport(Record):
    """Outcome of a Pin decision: verdict, count, structures, certificate.

    When structures exist, ``structure_count`` equals
    2**h1_annihilator_dim and ``structures`` is a lazy sequence of them
    all in lexicographic order of their values: indexing, ``in`` and
    iteration build only the structures asked for.  Otherwise
    ``structures`` is empty and ``certificate`` explains why none exist
    (and for the minus kind ``witness`` carries the dependent cycle
    family).
    """

    def __init__(
        self,
        kind: str,
        exists: bool,
        structure_count: int,
        structures: StructureSet,
        h1_annihilator_dim: int,
        certificate: str | None = None,
        witness: ObstructionWitness | None = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "structure_count", structure_count)
        object.__setattr__(self, "structures", structures)
        object.__setattr__(self, "h1_annihilator_dim", h1_annihilator_dim)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "witness", witness)


def z2_rows(surface: sf.SurfaceModel, classes) -> fl.BitRows:
    """Mod-2 reductions of the classes, one packed row per class."""
    return fl.BitRows(
        tuple([fl.pack_bits(c.coords) for c in classes]), surface.z2_rank
    )


def _spread(x: int, width: int) -> int:
    """A bit row as a ``_pack``ed value row: each bit becomes a byte."""
    return int.from_bytes(fl.unpack_bits(x, width), "big")


def rank_mismatch(reason: str) -> Callable[[int, list[int]], tuple]:
    """A ``certify`` for :meth:`ConstraintSystem.decide` that words a NO by
    the ranks of C and C|A and ``reason``, with no witness."""
    return lambda rank, y: (
        f"rank(C) = {rank} != rank(C|A) = {rank + 1}; {reason}",
        None,
    )


class ConstraintSystem(Record):
    """Enhancements of ``kind`` ("minus" or "plus") on ``surface`` taking
    the value ``target``, a residue mod 2 * step, on each of the Z4
    ``classes``, in row order."""

    def __init__(
        self,
        kind: str,
        surface: sf.SurfaceModel,
        classes: tuple[sf.HomologyClass, ...],
        target: int,
    ) -> None:
        if kind not in _ENHANCEMENT:
            raise InputError(f"unknown enhancement kind {kind!r}")
        target = sf.as_integer(target, "target")
        if not 0 <= target < 2 * _ENHANCEMENT[kind].step:
            raise InputError(f"target {target} is not a {kind} enhancement value")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "target", target)

    def decide(self, certify: Callable[[int, list[int]], tuple]) -> DecisionReport:
        """Solve the system once; describe every structure or certify a NO.

        ``certify(rank, y)`` words a NO from rank(C) and the indices y of
        the rows that sum to zero while their targets sum to one,
        returning (certificate, witness).  A plus system on a surface
        without Pin+ raises InvariantViolation, as ``eval_qplus`` does; a
        minus target of the wrong parity for a class raises InputError.
        """
        s = self.surface
        if self.kind == "minus":
            q0 = sf.base_enhancement_minus(s)
            values = [sf.eval_qminus(q0, sf.z2_reduction(c)) for c in self.classes]
        else:
            if sf.pin_plus_obstruction(s) is not None:
                raise InvariantViolation(sf.NOT_WELL_DEFINED)
            q0 = sf.base_enhancement_plus(s)
            values = [sf.eval_qplus(q0, c) for c in self.classes]
        step, rhs = q0.step, []
        for n, (c, value) in enumerate(zip(self.classes, values), start=1):
            gap, odd = divmod(self.target - value, step)
            if odd:  # q(c) = q0(c) mod step for every q
                txt = sf.format_class(sf.homology_presentation(s), c.coords)
                raise InputError(
                    f"no {self.kind} enhancement takes the value {self.target} "
                    f"on class {n} ({txt})"
                )
            rhs.append(gap % 2)
        C = z2_rows(s, self.classes)
        rank, particular, kernel, y = fl.eliminate_bits(C, rhs)
        n, r = C.shape
        dim = r - rank
        if particular is None:
            certificate, witness = certify(rank, fl.set_columns(y, n))
            return DecisionReport(
                self.kind, False, 0, self._none(), dim, certificate, witness
            )
        # A structure is q0 + step * x: for minus, x sits in bit 1 of each
        # value byte, above q0's bit 0; the plus q0 is zero everywhere.
        first = _pack(q0.values) | _spread(particular, r) * step
        kernel = tuple([_spread(k, r) * step for k in kernel])
        structures = StructureSet(self.kind, s, first, kernel)
        return DecisionReport(self.kind, True, structures.count, structures, dim)

    def refuse(self, certificate: str) -> DecisionReport:
        """A NO settled before any system is solved, for a surface that
        carries no enhancement of this kind at all."""
        C = z2_rows(self.surface, self.classes)
        rank, _, _ = fl.rref_gf2(C)
        return DecisionReport(
            self.kind, False, 0, self._none(), C.ncols - rank, certificate
        )

    def _none(self) -> StructureSet:
        return StructureSet(self.kind, self.surface, None)

    def brute_force(self) -> list:
        """Every enhancement meeting the targets, by scanning all 2**rank.

        Candidate t stands for q0 acted on by the bits of t, which moves
        q0's value on a class c by step * popcount(c & t).  Each class is
        thus a parity test on t; the scan runs over plain ints, stops at a
        candidate's first miss and builds only the hits.
        """
        build = sf._candidate_builder(self.surface, self.kind)
        if build is None:
            return []
        if self.kind == "minus":
            evaluate = sf.eval_qminus
            classes = [sf.z2_reduction(c) for c in self.classes]
        else:
            evaluate, classes = sf.eval_qplus, self.classes
        q0, tests, error = build(0), [], None
        for x in classes:
            try:
                value = evaluate(q0, x)
            except InputError as exc:
                # Raised only if a candidate meets every earlier class: a
                # class that no candidate reaches is never evaluated.
                error = exc
                break
            gap, odd = divmod(self.target - value, q0.step)
            if odd:  # no candidate meets x, so none reaches a later class
                return []
            tests.append((fl.pack_bits(x.coords), gap % 2))
        hits = []
        for t in range(1 << len(q0.values)):
            for mask, parity in tests:
                if (mask & t).bit_count() & 1 != parity:
                    break
            else:
                hits.append(t)
        if hits and error is not None:
            raise error
        return [build(t) for t in hits]
