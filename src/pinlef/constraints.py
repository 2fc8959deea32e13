"""The affine Z2 system behind every Pin decider and brute-force oracle.

Each question asks for an enhancement q = q0 + correction of a surface
taking one value on every listed class; a correction bit moves a value by
the kind's ``step`` (2 for minus, 1 for plus).  Row i of C is the mod-2
reduction of class i and A_i is (target - q0(c_i)) / step mod 2.  Both
kinds' systems on one fibration or threefold share their classes, and
with them all the work that does not depend on the kind.  One
elimination of [C' | I] (C' being C with its columns reversed) serves
them both: each reads its A off that echelon, giving rank(C) and either
every solution or a row combination y with y.C = 0 and y.A = 1.  One
pass over the classes gives both kinds' q0 as bit planes, and each kind
reads its A off them with a few whole-int operations.

The brute-force oracle eliminates nothing: it covers all 2**r candidate
corrections by a meet-in-the-middle join of their high and low halves
through one table that both kinds share, in O(2**(r/2) + hits) steps
(:meth:`ConstraintSystem.hit_rows`).
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


# The most bytes in one piece of StructureSet.lines, unless one line is longer.
_PIECE = 1 << 14


# Each kind's step as a digit XOR, for bytes.translate on '0'..'3'.
_FLIP = {1: bytes.maketrans(b"0123", b"1032"), 2: bytes.maketrans(b"0123", b"2301")}


# Bytes to the ASCII digit of their bit 2.
_BIT_2_DIGITS = bytes.maketrans(bytes(range(256)), b"00001111" * 32)


def _steps(rows) -> tuple[list[int], Iterator[int]]:
    """steps[t], the XOR of the last t + 1 rows, and the t of each step of
    the walk over rows in index order: from i - 1 to i the low t + 1 bits
    flip, t being the number of trailing zeros of i."""
    steps, acc = [], 0
    for row in reversed(rows):
        acc ^= row
        steps.append(acc)
    return steps, ((i & -i).bit_length() - 1 for i in range(1, 1 << len(rows)))


def _walk(first: int, rows) -> Iterator[int]:
    """first XOR each combination of rows, in index order: item i picks the
    rows set in i, the first row being the most significant bit."""
    steps, order = _steps(rows)
    yield first
    for t in order:
        first ^= steps[t]
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
    only these four fields: an index spreads the one row it picks, and
    iteration spreads ``first`` and the kernel rows once per pass.
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
        return sf._KINDS[self.kind]

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
        row = self.first
        for j, k in enumerate(reversed(self.kernel)):
            if i >> j & 1:
                row ^= k
        x, _ = sf._spread(self._cls, self.surface, row, ())
        return self._cls(self.surface, tuple(x.to_bytes(self.surface.z2_rank, "big")))

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
        r = self.surface.z2_rank
        spread = sf._spread(self._cls, self.surface, self.first, self.kernel)
        return (v.to_bytes(r, "big") for v in _walk(*spread))

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
        # A value lands on a digit of a line's last 2r bytes, the rest being
        # commas and the newline; XOR with 0..3 turns a '0' into that digit.
        low = self.kernel[d - m :]
        first, rows = sf._spread(self._cls, self.surface, self.first, low, 2)
        # The first block of 2**m lines, doubled once per low kernel row,
        # each row tiled onto every line of the block before it is added.
        block, line = int.from_bytes(template, "big") ^ first, 8 * width
        n = 1
        for row in reversed(rows):
            block = (block << line * n) | (block ^ _tile(row, line, n))
            n *= 2
        piece = block.to_bytes(width * n, "big").decode()[:-1]
        yield piece
        if m == d:
            return
        # A step of the walk over the other kernel rows adds steps[t] to
        # every line, so each later block is the one before with the digit
        # columns of steps[t]'s generators flipped by the kind's step;
        # generator j's digit is at byte p + 2j of a line, p being the
        # prefix's length in bytes.
        steps, order = _steps(self.kernel[: d - m])
        p, flip = len(template) - 2 * r, _FLIP[self._cls.step]
        cols = [[p + 2 * j for j in fl.set_columns(x, r)] for x in steps]
        buf = bytearray(piece, "utf-8")
        for t in order:
            for o in cols[t]:
                buf[o::width] = buf[o::width].translate(flip)
            yield buf.decode()


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
    """Classes checked by :func:`check_classes` against ``surface`` (this
    constructor checks nothing).  Both kinds' systems on that surface read
    what does not depend on the kind from here, each part made when first
    asked for and kept: one :attr:`echelon` of their :attr:`rows`, the
    :attr:`base_values` and the oracle's :attr:`scan` table.  A copy or a
    pickle carries the classes and the surface only."""

    def __new__(cls, classes, surface: sf.SurfaceModel):
        self = super().__new__(cls, classes)
        self.surface = surface
        return self

    def __reduce__(self):
        return CheckedClasses, (tuple(self), self.surface)

    @property
    def rows(self) -> fl.BitRows:
        """Mod-2 reductions of the classes, one packed row per class."""
        return fl.BitRows(tuple([c._bits for c in self]), self.surface.z2_rank)

    @cached_property
    def echelon(self) -> fl.Echelon:
        return fl.echelon_bits(self.rows)

    @cached_property
    def base_values(self) -> tuple[int, int, int]:
        """:func:`_base_values` on the classes, for their surface."""
        pres = sf.homology_presentation(self.surface)
        return _base_values(self, pres.one_sided, pres.handle_first)

    @cached_property
    def scan(self) -> tuple[int, list[int], dict[int, list[int]]]:
        """The oracle's table: see :func:`_scan_table`."""
        return _scan_table(self)


def _base_values(classes, one: int, pairs: int) -> tuple[int, int, int]:
    """q0 of both kinds on each class, from one pass, as planes packed with
    class 0 most significant.  Minus q0(c) is c's one-sided count plus
    twice its handle pairs, mod 4: its parity and high planes come first.
    Plus q0(c) is the parity of c's one-sided high bits plus its handle
    pairs: its plane comes last.  Each class gives a byte of minus q0 in
    bits 0 and 1 and plus q0 in bit 2."""
    values = bytes([
        (
            (c._bits & one).bit_count()
            + 2 * (n := (c._bits & c._bits << 1 & pairs).bit_count())
            & 3
        )
        | ((c._high & one).bit_count() + n & 1) << 2
        for c in classes
    ])
    return (*fl.planes(values), int(values.translate(_BIT_2_DIGITS) or b"0", 2))


def _scan_table(classes: CheckedClasses) -> tuple[int, list[int], dict[int, list[int]]]:
    """k = r // 2, the tests of each high part and the low parts of each
    low test, for the 2**r candidates t = h << k | l, r being the z2 rank
    of the classes' surface.

    Column p holds the classes with bit p set, class i at bit
    n - 1 - i of n, so t's tests are the XOR of the columns its bits
    pick; the low and high parts pick theirs apart.  A low test maps to
    every low part having it, in index order."""
    r = classes.surface.z2_rank
    k = r // 2
    digits = "".join([format(c._bits, f"0{r}b") for c in classes])
    columns = [int(digits[r - 1 - p :: r] or "0", 2) for p in range(r)]
    parts: dict[int, list[int]] = {}
    for low, x in enumerate(_tests(columns[:k])):
        parts.setdefault(x, []).append(low)
    return k, _tests(columns[k:]), parts


def check_classes(
    classes, surface: sf.SurfaceModel, rings=("Z4",), name="class", why=None
) -> CheckedClasses:
    """The classes, bound to ``surface``, each refused at its first fault:
    not a class of ``rings``, a coordinate count other than the surface's
    z2 rank, or, given ``why``, odd self-intersection (``why`` formatted
    with name and text)."""
    pres = sf.homology_presentation(surface)
    r = pres.z2_rank
    checked = CheckedClasses(classes, surface)
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
    ones), and so do :class:`CheckedClasses` checked for another surface,
    even one of the same rank.  Classes checked for this surface are
    checked no further, and every system on them reads their one
    echelon."""

    def __init__(
        self,
        kind: str,
        surface: sf.SurfaceModel,
        classes: tuple[sf.HomologyClass, ...],
        target: int,
    ) -> None:
        if kind not in sf._KINDS:
            raise InputError(f"unknown enhancement kind {kind!r}")
        target = sf.as_integer(target, "target")
        if not 0 <= target < 2 * sf._KINDS[kind].step:
            raise InputError(f"target {target} is not a {kind} enhancement value")
        if not isinstance(surface, sf.SurfaceModel):
            raise InputError(
                f"surface must be a SurfaceModel, got {type(surface).__name__}"
            )
        if classes.__class__ is not CheckedClasses or classes.surface != surface:
            rings = ("Z2", "Z4") if kind == "minus" else ("Z4",)
            classes = check_classes(classes, surface, rings)
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
        order, found among all 2**rank candidates without elimination.

        Candidate t stands for q0 acted on by the bits of t, which moves
        q0's value on a class c by step * popcount(c & t).  Each class is
        thus a parity test on t, and t is a hit when its tests, bit i for
        class i, equal ``want``.  With t = h << k | l and k = rank // 2,
        t's tests are the XOR of the tests of its high part h and of its
        low part l, so the hits with high part h are the low parts whose
        tests equal ``want`` XOR h's: one dict lookup in the classes'
        :attr:`~CheckedClasses.scan` table, which both kinds share.  That
        is a hash join of the two halves (Horowitz and Sahni, *J. ACM*
        21(2), 1974): 2**(rank - k) lookups and one step per hit, after
        2**k steps to build the table, where matching each high part
        against every low part would take 2**rank comparisons.
        """
        s = self.surface
        if self.kind == "plus" and sf.pin_plus_obstruction(s) is not None:
            return []
        want, missed = self._targets()
        if missed:  # no candidate meets that class
            return []
        k, high, parts = self._checked.scan
        return [
            h << k | low
            for h, top in enumerate(high)
            for low in parts.get(want ^ top, ())
        ]

    def _targets(self) -> tuple[int, int]:
        """A, and the classes on which no enhancement of the kind takes the
        target, each packed with class 0 most significant.

        A class c asks for a correction moving q0(c) by target - q0(c), a
        multiple of step unless no correction meets c.  Plus steps by 1,
        so every gap is one and A is target - q0 mod 2.  For minus a class
        is missed where target and q0 differ in parity; elsewhere the gap
        mod 4 has no borrow, and A's bit is the XOR of their high bits.
        Both kinds read q0 off the planes of their classes'
        :attr:`~CheckedClasses.base_values`, made for this surface."""
        low, high, plus = self._checked.base_values
        every, t = (1 << len(self.classes)) - 1, self.target
        if self.kind == "plus":
            return plus ^ every * t, 0
        return high ^ every * (t >> 1), low ^ every * (t & 1)

    def brute_force(self) -> list:
        """Every enhancement meeting the targets, built from
        :meth:`hit_rows`' scan of all 2**rank candidates."""
        return sf._structures(sf._KINDS[self.kind], self.surface, self.hit_rows())


def _tests(columns: list[int]) -> list[int]:
    """Item l is the XOR of the columns that the bits of l pick."""
    out = [0]
    for col in columns:
        out += [x ^ col for x in out]
    return out
