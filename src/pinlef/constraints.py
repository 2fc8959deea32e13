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


# Each kind's enhancement class and value on a Z4 class c, evaluate(plane,
# c, presentation), read off c's planes (minus: its mod-2 one) and the one
# plane of values a correction moves (minus: high, plus: parity); plane 0
# is the base q0, e.e on each generator for minus and 0 for plus.
_KINDS = {
    "minus": (sf.EnhancementMinus, sf._minus_value),
    "plus": (sf.EnhancementPlus, sf._plus_value),
}


# The most bytes in one piece of StructureSet.lines, unless one line is longer.
_PIECE = 1 << 14


def _walk(first: int, rows) -> Iterator[int]:
    """first XOR each combination of rows, in index order: item i picks the
    rows set in i, the first row being the most significant bit."""
    yield first
    # From i - 1 to i the low t + 1 bits flip, t being the number of
    # trailing zeros of i; steps[t] is the XOR of their rows.
    steps, acc = [], 0
    for row in reversed(rows):
        acc ^= row
        steps.append(acc)
    for i in range(1, 1 << len(rows)):
        first ^= steps[(i & -i).bit_length() - 1]
        yield first


def _spread(kind: str, s: sf.SurfaceModel, first: int, rows, gap: int = 1):
    """The values of the structure of ``kind`` on s that the bit row first
    names, and the values each bit row in rows adds (step at its bits), as
    ints of a byte per generator followed by gap - 1 zero bytes, the first
    generator most significant.  The base values (the diagonal for minus,
    0 for plus) are below step, so XOR with an added row moves from one
    structure's values to another's."""
    r, step = s.z2_rank, _KINDS[kind][0].step

    def spread(x: int) -> int:
        body = bytearray(gap * r)
        body[::gap] = fl.unpack_bits(x, r)
        return int.from_bytes(body, "big")

    base = sf.homology_presentation(s).one_sided if step == 2 else 0
    return spread(base) | spread(first) * step, [spread(x) * step for x in rows]


def _structures(kind: str, s: sf.SurfaceModel, rows) -> list:
    """The structure each bit row in rows names, built."""
    base, added = _spread(kind, s, 0, rows)
    cls, r = _KINDS[kind][0], s.z2_rank
    return [cls(s, tuple((base ^ v).to_bytes(r, "big"))) for v in added]


class StructureSet(Record):
    """The solutions of a system, described without listing them.

    ``first`` and ``kernel`` are the particular solution and the kernel
    basis :func:`fl.eliminate_bits` returns, bit rows over the generators:
    bit j moves generator j's base value by the kind's ``step``, as
    :func:`sf.act_h1` does.  ``first`` is the smallest structure's row
    (None when there is none) and the kernel rows, in RREF order, each
    have their leading bit at a position where ``first`` and every other
    kernel row are zero.  Structure i is ``first`` XOR the kernel rows
    picked by the bits of i, the first row being the most significant bit,
    so index order is lexicographic order of the values.  The set holds
    one int per kernel dimension; it builds enhancements only when indexed
    or iterated.
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
        x = self.first
        for j, row in enumerate(reversed(self.kernel)):
            if i >> j & 1:
                x ^= row
        return _structures(self.kind, self.surface, [x])[0]

    def __contains__(self, q) -> bool:
        if (
            self.first is None
            or type(q) is not _KINDS[self.kind][0]
            or q.surface != self.surface
        ):
            return False
        # Base values are below step, so q's row is its high (minus) or low plane.
        rest = (q._high if self.kind == "minus" else q._bits) ^ self.first
        for row in self.kernel:
            if rest >> (row.bit_length() - 1) & 1:
                rest ^= row
        return rest == 0

    def __iter__(self) -> Iterator[sf.EnhancementMinus | sf.EnhancementPlus]:
        cls = _KINDS[self.kind][0]
        return (cls(self.surface, tuple(v)) for v in self.values())

    def values(self) -> Iterator[bytes]:
        """Each structure's generator values as a bytes row, one byte per
        generator, in iteration order, without building the enhancements."""
        if self.first is None:
            return iter(())
        first, rows = _spread(self.kind, self.surface, self.first, self.kernel)
        r = self.surface.z2_rank
        return (v.to_bytes(r, "big") for v in _walk(first, rows))

    def lines(self, prefix: str) -> Iterator[str]:
        """Each structure as a text line, ``prefix`` then its values joined
        by commas, in iteration order and without building the enhancements.

        Yields pieces of whole lines joined by newlines, with no newline
        at the end; a piece is at most ``_PIECE`` bytes unless it is one
        line.  Nothing is built until the first piece is read.
        """
        if self.first is None:
            return
        template = (prefix + ",".join("0" * self.surface.z2_rank) + "\n").encode()
        # A value lands on a digit of a line's last 2r bytes, the rest being
        # commas and the newline; XOR with 0..3 turns a '0' into that digit.
        first, rows = _spread(self.kind, self.surface, self.first, self.kernel, 2)
        width, d = len(template), len(rows)
        m = max(0, min(d, (_PIECE // width).bit_length() - 1))
        # A block of 2**m lines, doubled once per low kernel row; ``repeat``
        # puts one line's value on every line of the block.
        block = int.from_bytes(template, "big") ^ first
        n = repeat = 1
        for row in reversed(rows[d - m :]):
            shift = 8 * width * n
            block = (block << shift) | (block ^ row * repeat)
            repeat |= repeat << shift
            n *= 2
        # The walk over the other rows XORs each onto every line at once.
        high = [row * repeat for row in rows[: d - m]]
        for b in _walk(block, high):
            yield b.to_bytes(width * n, "big").decode()[:-1]


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
    return fl.BitRows(tuple([c._bits for c in classes]), surface.z2_rank)


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
    ``classes``, in row order.  Each class is checked when the system is
    made: a Z4 class (minus also reads Z2 ones) with one coordinate per
    generator."""

    def __init__(
        self,
        kind: str,
        surface: sf.SurfaceModel,
        classes: tuple[sf.HomologyClass, ...],
        target: int,
    ) -> None:
        if kind not in _KINDS:
            raise InputError(f"unknown enhancement kind {kind!r}")
        target = sf.as_integer(target, "target")
        if not 0 <= target < 2 * _KINDS[kind][0].step:
            raise InputError(f"target {target} is not a {kind} enhancement value")
        classes, r = tuple(classes), surface.z2_rank
        rings = ("Z2", "Z4") if kind == "minus" else ("Z4",)
        for n, c in enumerate(classes, start=1):
            if not isinstance(c, sf.HomologyClass) or c.ring not in rings:
                raise InputError(f"class {n} must be a Z4 class")
            if len(c.coords) != r:
                raise InputError(
                    f"class {n} has {len(c.coords)} coordinates, expected {r}"
                )
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
        if self.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
            raise InvariantViolation(sf.NOT_WELL_DEFINED)
        cls, evaluate = _KINDS[self.kind]
        pres, rhs = sf.homology_presentation(s), []
        for n, c in enumerate(self.classes, start=1):
            gap, odd = divmod(self.target - evaluate(0, c, pres), cls.step)
            if odd:  # q(c) = q0(c) mod step for every q
                txt = sf.format_class(pres, c.coords)
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
        structures = StructureSet(self.kind, s, particular, kernel)
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
        s = self.surface
        if self.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
            return []
        cls, evaluate = _KINDS[self.kind]
        pres, tests = sf.homology_presentation(s), []
        for c in self.classes:
            gap, odd = divmod(self.target - evaluate(0, c, pres), cls.step)
            if odd:  # no candidate meets c, so none reaches a later class
                return []
            tests.append((c._bits, gap % 2))
        r, hits = s.z2_rank, []
        for t in range(1 << r):
            for mask, parity in tests:
                if (mask & t).bit_count() & 1 != parity:
                    break
            else:
                hits.append(t)
        return _structures(self.kind, s, hits)
