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


# Each kind's enhancement class, base enhancement and value on a Z4 class,
# evaluate(q, c, presentation), read off c's planes (minus: its mod-2 one).
# The base lambdas look ``sf`` up when called, so that a wrapper set on the
# module, as bench/spans.py sets one on public functions, sees them too.
_KINDS = {
    "minus": (
        sf.EnhancementMinus,
        lambda s: sf.base_enhancement_minus(s),
        sf._minus_value,
    ),
    "plus": (
        sf.EnhancementPlus,
        lambda s: sf.base_enhancement_plus(s),
        sf._plus_value,
    ),
}


def _pack(values) -> int:
    """Generator values (each 0..3) as one int, a byte per generator, the
    first generator most significant: int order is lexicographic order."""
    return int.from_bytes(bytes(values), "big")


def _acted(q0: int, x: int, width: int, step: int) -> int:
    """The ``_pack``ed q0 acted on by the bit row x as by :func:`sf.act_h1`:
    step is added where x has a bit; q0's values are below step."""
    return q0 | int.from_bytes(fl.unpack_bits(x, width), "big") * step


def _spread(packed: int, r: int) -> int:
    """The ``_pack``ed values of r generators moved onto the digits of a
    line's last 2r bytes, r digits each followed by a comma or the newline.
    The digits '0'..'3' are 0x30..0x33, so XOR with a value 0..3 writes
    that digit, and XOR with a spread writes a structure's values."""
    body = bytearray(2 * r)
    body[::2] = packed.to_bytes(r, "big")
    return int.from_bytes(body, "big")


def _enhancement(kind: str, s: sf.SurfaceModel, packed: int):
    """The enhancement of ``kind`` on s whose values ``_pack`` to packed."""
    return _KINDS[kind][0](s, tuple(packed.to_bytes(s.z2_rank, "big")))


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
            or type(q) is not _KINDS[self.kind][0]
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

    def lines(self, prefix: str) -> Iterator[str]:
        """Each structure as a text line, ``prefix`` then its values joined
        by commas, in iteration order and without building the enhancements.

        Yields pieces of whole lines joined by newlines, with no newline
        at the end; a piece is at most ``_PIECE`` bytes unless it is one
        line.  Nothing is built until the first piece is read.
        """
        if self.first is None:
            return
        r = self.surface.z2_rank
        template = (prefix + ",".join("0" * r) + "\n").encode()
        width, d = len(template), len(self.kernel)
        m = max(0, min(d, (_PIECE // width).bit_length() - 1))
        # A block of 2**m lines, doubled once per low kernel row; ``repeat``
        # puts one line's value on every line of the block.
        block = int.from_bytes(template, "big") ^ _spread(self.first, r)
        n = repeat = 1
        for row in reversed(self.kernel[d - m :]):
            shift = 8 * width * n
            block = (block << shift) | (block ^ _spread(row, r) * repeat)
            repeat |= repeat << shift
            n *= 2
        # The walk over the other rows XORs each onto every line at once.
        high = [_spread(row, r) * repeat for row in self.kernel[: d - m]]
        for b in _walk(block, high):
            yield b.to_bytes(width * n, "big").decode()[:-1]

    def _packed(self) -> Iterator[int]:
        return iter(()) if self.first is None else _walk(self.first, self.kernel)

    def _structure(self, packed: int) -> sf.EnhancementMinus | sf.EnhancementPlus:
        return _enhancement(self.kind, self.surface, packed)


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
    ``classes``, in row order."""

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
        classes = tuple(classes)
        for n, c in enumerate(classes, start=1):
            if not isinstance(c, sf.HomologyClass):
                raise InputError(f"class {n} must be a Z4 class")
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
        _, base, evaluate = _KINDS[self.kind]
        q0, pres = base(s), sf.homology_presentation(s)
        # Evaluate every class first: an evaluator's error outranks a parity one.
        values = [evaluate(q0, c, pres) for c in self.classes]
        step, rhs = q0.step, []
        for n, (c, value) in enumerate(zip(self.classes, values), start=1):
            gap, odd = divmod(self.target - value, step)
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
        first = _acted(_pack(q0.values), particular, r, step)
        kernel = tuple([_acted(0, k, r, step) for k in kernel])
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
        s = self.surface
        if self.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
            return []
        _, base, evaluate = _KINDS[self.kind]
        q0, pres, tests, error = base(s), sf.homology_presentation(s), [], None
        for c in self.classes:
            try:
                value = evaluate(q0, c, pres)
            except InputError as exc:
                # Raised only if a candidate meets every earlier class: a
                # class that no candidate reaches is never evaluated.
                error = exc
                break
            gap, odd = divmod(self.target - value, q0.step)
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
        if hits and error is not None:
            raise error
        packed, step = _pack(q0.values), q0.step
        return [_enhancement(self.kind, s, _acted(packed, t, r, step)) for t in hits]
