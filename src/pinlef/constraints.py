"""The affine Z2 system behind every Pin decider and brute-force oracle.

Each question asks for an enhancement q = q0 + correction of a surface
taking one value on every listed class; a correction bit moves a value by
the kind's ``step`` (2 for minus, 1 for plus).  Row i of C is the mod-2
reduction of class i and A_i is (target - q0(c_i)) / step mod 2.  Both
kinds' systems on one fibration or threefold share C, and one
elimination of [C' | I] (C' being C with its columns reversed) serves
them both: each reads its A off that echelon, giving rank(C) and either
every solution or a row combination y with y.C = 0 and y.A = 1.
"""

from __future__ import annotations

import operator
import sys
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator

from . import finite_linalg as fl
from . import surfaces as sf
from ._record import Record
from .errors import InputError, InvariantViolation

if TYPE_CHECKING:
    from .lefschetz import ObstructionWitness


# The kind table; the tests' candidate scan (tests/helpers.py) reads it here.
_KINDS = sf._KINDS


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


def _tile(row: int, bits: int, n: int) -> int:
    """n copies of a row narrower than ``bits``, ``bits`` apart, n being a
    power of 2: shifts and ORs that double the copies, where row * repeat
    would multiply by an int as long as the result."""
    while n > 1:
        row |= row << bits
        bits, n = 2 * bits, n // 2
    return row


class StructureSet(Record):
    """The solutions of a system, described without listing them.

    ``first`` and ``kernel`` are the particular solution and the kernel
    basis :meth:`fl.Echelon.solve` returns, bit rows over the generators:
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
    def _cls(self) -> type:
        return _KINDS[self.kind][0]

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
        return sf._structures(self._cls, self.surface, [x])[0]

    def __contains__(self, q) -> bool:
        if (
            self.first is None
            or type(q) is not self._cls
            or q.surface != self.surface
        ):
            return False
        rest = sf._row(q) ^ self.first
        for row in self.kernel:
            if rest >> (row.bit_length() - 1) & 1:
                rest ^= row
        return rest == 0

    def __iter__(self) -> Iterator[sf.EnhancementMinus | sf.EnhancementPlus]:
        return (self._cls(self.surface, tuple(v)) for v in self.values())

    def values(self) -> Iterator[bytes]:
        """Each structure's generator values as a bytes row, one byte per
        generator, in iteration order, without building the enhancements."""
        if self.first is None:
            return iter(())
        first, rows = sf._spread(self._cls, self.surface, self.first, self.kernel)
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
        first, rows = sf._spread(self._cls, self.surface, self.first, self.kernel, 2)
        width, d = len(template), len(rows)
        m = max(0, min(d, (_PIECE // width).bit_length() - 1))
        # A block of 2**m lines, doubled once per low kernel row, each row
        # tiled onto every line of the block before it is added.
        block, line = int.from_bytes(template, "big") ^ first, 8 * width
        n = 1
        for row in reversed(rows[d - m :]):
            block = (block << line * n) | (block ^ _tile(row, line, n))
            n *= 2
        # The walk over the other rows XORs each onto every line at once.
        high = [_tile(row, line, n) for row in rows[: d - m]]
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


def rank_mismatch(reason: str) -> Callable[[int, list[int]], tuple]:
    """A ``certify`` for :meth:`ConstraintSystem.decide` that words a NO by
    the ranks of C and C|A and ``reason``, with no witness."""
    return lambda rank, y: (
        f"rank(C) = {rank} != rank(C|A) = {rank + 1}; {reason}",
        None,
    )


class CheckedClasses(tuple):
    """Classes with ``ncols`` coordinates each, checked by :func:`check_classes`
    (this constructor checks nothing).  Both kinds' systems on them read one
    :attr:`echelon` of their :attr:`rows`, eliminated when first asked for."""

    def __new__(cls, classes, ncols: int):
        self = super().__new__(cls, classes)
        self.ncols = ncols
        return self

    def __getnewargs__(self):
        return tuple(self), self.ncols

    @property
    def rows(self) -> fl.BitRows:
        """Mod-2 reductions of the classes, one packed row per class."""
        return fl.BitRows(tuple([c._bits for c in self]), self.ncols)

    @cached_property
    def echelon(self) -> fl.Echelon:
        return fl.echelon_bits(self.rows)


def check_classes(
    classes, pres: sf.HomologyPresentation, rings=("Z4",), name="class", why=None
) -> CheckedClasses:
    """The classes, each refused at its first fault: not a class of
    ``rings``, a coordinate count other than pres.z2_rank, or, given
    ``why``, odd self-intersection (``why`` formatted with name and text)."""
    r = pres.z2_rank
    checked = CheckedClasses(classes, r)
    for n, c in enumerate(checked, start=1):
        if not isinstance(c, sf.HomologyClass) or c.ring not in rings:
            raise InputError(f"{name} {n} must be a {' or '.join(rings)} class")
        if len(c.coords) != r:
            raise InputError(
                f"{name} {n} has {len(c.coords)} coordinates, expected {r}"
            )
        if why is not None and sf._self_parity(pres, c._bits):
            txt = sf.format_class(pres, c.coords)
            raise InvariantViolation(why.format(f"{name} {n}", txt))
    return checked


class ConstraintSystem(Record):
    """Enhancements of ``kind`` ("minus" or "plus") on ``surface`` taking
    the value ``target``, a residue mod 2 * step, on each of the Z4
    ``classes``, in row order.  Plain classes go through
    :func:`check_classes` when the system is made (minus also reads Z2
    ones).  Of :class:`CheckedClasses`, checked once already, only the
    coordinate count is compared with the surface, and every system on
    them reads their one echelon."""

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
        if not isinstance(surface, sf.SurfaceModel):
            raise InputError(
                f"surface must be a SurfaceModel, got {type(surface).__name__}"
            )
        if classes.__class__ is not CheckedClasses or classes.ncols != surface.z2_rank:
            rings = ("Z2", "Z4") if kind == "minus" else ("Z4",)
            classes = check_classes(classes, sf.homology_presentation(surface), rings)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_checked", classes)

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
        want, missed = self._targets()
        if missed:  # q(c) = q0(c) mod step for every q
            n = len(self.classes) - missed.bit_length()
            txt = sf.format_class(sf.homology_presentation(s), self.classes[n].coords)
            raise InputError(
                f"no {self.kind} enhancement takes the value {self.target} "
                f"on class {n + 1} ({txt})"
            )
        echelon = self._checked.echelon
        rank, particular, kernel, y = echelon.solve(want)
        n, r = echelon.shape
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
        echelon = self._checked.echelon
        dim = echelon.shape[1] - echelon.rank
        return DecisionReport(self.kind, False, 0, self._none(), dim, certificate)

    def _none(self) -> StructureSet:
        return StructureSet(self.kind, self.surface, None)

    def hit_rows(self) -> list[int]:
        """The bit row of every enhancement meeting the targets, in index
        order, found by testing each of the 2**rank candidates.

        Candidate t stands for q0 acted on by the bits of t, which moves
        q0's value on a class c by step * popcount(c & t).  Each class is
        thus a parity test on t, and t is a hit when its tests, bit i for
        class i, equal ``want``.  Column p holds the classes with bit p
        set, so t's tests are the XOR of the columns its bits pick.  With
        t = h << k | l and k = rank // 2, one list holds the tests of
        every low part l; for each high part, ``list.index`` walks that
        list at C speed for the low parts completing it to ``want``.
        Every candidate is compared once, and nothing is eliminated.
        """
        s = self.surface
        if self.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
            return []
        want, missed = self._targets()
        if missed:  # no candidate meets that class
            return []
        r, n = s.z2_rank, len(self.classes)
        columns = [0] * r
        for i, c in enumerate(self.classes, start=1):
            for p in range(r):
                columns[p] |= (c._bits >> p & 1) << (n - i)
        k, hits = r // 2, []
        low = _tests(columns[:k])
        for h, top in enumerate(_tests(columns[k:])):
            x, i = want ^ top, -1
            for _ in range(low.count(x)):
                i = low.index(x, i + 1)
                hits.append(h << k | i)
        return hits

    def _targets(self) -> tuple[int, int]:
        """A, and the classes on which no enhancement of the kind takes the
        target, each packed with class 0 most significant.

        A class c asks for a correction moving q0(c) by target - q0(c), a
        multiple of step unless no correction meets c.  For minus, q0(c)
        is c's one-sided count plus twice its handle pairs; for plus it is
        the parity of c's one-sided high bits plus its handle pairs, and
        the gap is doubled.  Either way the gap mod 4 has A's bit as its
        high bit and a miss as its parity."""
        pres = sf.homology_presentation(self.surface)
        one, pairs, t = pres.one_sided, pres.handle_first, self.target
        plus = self.kind == "plus"
        gaps = bytes([
            (1 + plus) * (t - ((c._high if plus else c._bits) & one).bit_count())
            - 2 * (c._bits & c._bits << 1 & pairs).bit_count() & 3
            for c in self.classes
        ])
        missed, want = fl.planes(gaps)
        return want, missed

    def brute_force(self) -> list:
        """Every enhancement meeting the targets, built from
        :meth:`hit_rows`' scan of all 2**rank candidates."""
        return sf._structures(_KINDS[self.kind][0], self.surface, self.hit_rows())


def _tests(columns: list[int]) -> list[int]:
    """Item l is the XOR of the columns that the bits of l pick."""
    out = [0]
    for col in columns:
        out += [x ^ col for x in out]
    return out
