"""Surface models, homology presentations, and quadratic enhancements.

A surface is described combinatorially by orientability, genus or crosscap
count, and number of boundary components.  Each model determines a fixed
homology presentation:

* orientable, genus g, b boundary components: generators
  a1, b1, ..., ag, bg carrying the standard symplectic mod-2 intersection
  form, followed by max(b-1, 0) boundary-parallel generators d1, d2, ...
  that pair trivially with everything;
* non-orientable, k crosscaps, b boundary components: one-sided generators
  e1, ..., ek with ei.ej = delta_ij, followed by max(b-1, 0) null
  boundary-parallel generators.

First homology with Z4 coefficients is presented as the free Z4 module on
the same generators modulo explicit relation rows; the only nontrivial
case is a closed non-orientable surface, where twice the sum of the
crosscap generators dies.  Each form is fixed by the surface type, so
pairings and enhancements are evaluated by popcounts of the bit planes
(``fl.pack_bits``, ``fl.high_bits``) each class and enhancement builds once.

Two kinds of quadratic enhancement refine the intersection pairing:

* ``EnhancementMinus`` maps mod-2 homology to Z4 with
  q(x + y) = q(x) + q(y) + 2 x.y, which forces q(x) = x.x mod 2;
* ``EnhancementPlus`` maps mod-4 homology to Z2 with
  q(x + y) = q(x) + q(y) + x.y, the pairing taken on mod-2 reductions.

Both are stored by their values on the generators.  The full enhancement
sets are torsors over mod-2 cohomology via :func:`act_h1`: a cohomology
bit moves a generator value by the class's ``step`` (minus 2, plus 1),
mod 2 * step.  The base values (:func:`base_enhancement_minus`, ``_plus``)
sit below step, so an enhancement is named by its correction row, the
generators whose values reach step, and every enhancement is built from
its row (``_structures``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import index

from . import finite_linalg as fl
from ._record import Record
from .errors import InputError, InvariantViolation

ORIENTABLE = "orientable"
NON_ORIENTABLE = "non-orientable"
# The key that names each kind's count, in documents, reports and describe().
COUNT_KEY = {ORIENTABLE: "genus", NON_ORIENTABLE: "crosscaps"}
# Why a plus enhancement of a surface without Pin+ cannot be evaluated.
NOT_WELL_DEFINED = "enhancement is not well defined modulo the torsion relations"
# Largest mod-2 homology rank a surface model may have.  It bounds the
# dense r x r form that the array view z2_intersection builds to 16 MiB.
MAX_Z2_RANK = 4096


class SurfaceModel(Record):
    """A compact surface: orientability, genus/crosscap count, boundary count."""

    def __init__(
        self, kind: str, genus_or_crosscaps: int, boundary_components: int = 0
    ) -> None:
        count = as_integer(genus_or_crosscaps, "surface count")
        boundary = as_integer(boundary_components, "boundary count")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "genus_or_crosscaps", count)
        object.__setattr__(self, "boundary_components", boundary)
        self.__post_init__()

    # Written out: homology_presentation's cache hashes a surface per call.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.genus_or_crosscaps, self.boundary_components) == (
            other.kind,
            other.genus_or_crosscaps,
            other.boundary_components,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.genus_or_crosscaps, self.boundary_components))

    def __post_init__(self):
        if self.kind not in (ORIENTABLE, NON_ORIENTABLE):
            raise InputError(f"unknown surface kind {self.kind!r}")
        if self.genus_or_crosscaps < 0 or self.boundary_components < 0:
            raise InputError("surface counts must be non-negative")
        if self.kind == NON_ORIENTABLE and self.genus_or_crosscaps < 1:
            raise InputError("a non-orientable surface needs at least one crosscap")
        if self.z2_rank > MAX_Z2_RANK:
            raise InputError(
                f"z2 rank {brief(self.z2_rank)} exceeds the limit of {MAX_Z2_RANK}"
            )

    @property
    def closed(self) -> bool:
        return self.boundary_components == 0

    @property
    def z2_rank(self) -> int:
        """Rank of mod-2 first homology: one generator per crosscap or two
        per handle, plus one per boundary component beyond the first."""
        per_count = 2 if self.kind == ORIENTABLE else 1
        extra = max(self.boundary_components - 1, 0)
        return per_count * self.genus_or_crosscaps + extra

    def describe(self) -> str:
        return (
            f"{self.kind}, {COUNT_KEY[self.kind]} {self.genus_or_crosscaps}, "
            f"boundary {self.boundary_components}"
        )


def orientable_surface(genus: int, boundary: int = 0) -> SurfaceModel:
    return SurfaceModel(ORIENTABLE, genus, boundary)


def non_orientable_surface(crosscaps: int, boundary: int = 0) -> SurfaceModel:
    return SurfaceModel(NON_ORIENTABLE, crosscaps, boundary)


class HomologyPresentation(Record):
    """Generators, mod-2 intersection form, and Z4 relation rows.

    Each generator meets at most one other generator, so the form is kept
    as two O(r) tables: ``diagonal[i]`` is e_i.e_i and ``partner[i]`` the
    one j != i with e_i.e_j = 1 (the adjacent a_i, b_i of a handle), or
    -1, and the evaluators read it as two packed masks.  ``relations``
    holds the Z4 relation rows as tuples: none, or the one row (2, ..., 2).
    The array views ``z2_intersection`` (the dense r x r form) and
    ``z4_relations`` are built on first access and need numpy, the
    ``pinlef[arrays]`` extra; nothing in the deciders or the command line
    reads them.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        generators: tuple[str, ...],
        z2_rank: int,
        diagonal: tuple[int, ...],
        partner: tuple[int, ...],
        relations: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "z2_rank", z2_rank)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "relations", relations)

    @property
    def rank(self) -> int:
        return self.z2_rank

    @cached_property
    def one_sided(self) -> int:
        """The generators with e.e = 1, packed by ``fl.pack_bits``."""
        return fl.pack_bits(self.diagonal)

    @cached_property
    def handle_first(self) -> int:
        """The first generator of each handle, packed by ``fl.pack_bits``;
        its partner is the next generator, one bit lower."""
        return fl.pack_bits([j == i + 1 for i, j in enumerate(self.partner)])

    @cached_property
    def z2_intersection(self) -> fl.MatGF2:
        """The (r, r) symmetric read-only uint8 intersection form."""
        np = fl.load_numpy()
        r = self.z2_rank
        form = np.zeros((r, r), dtype=np.uint8)
        form[np.arange(r), np.arange(r)] = self.diagonal
        paired = [i for i in range(r) if self.partner[i] >= 0]
        form[paired, [self.partner[i] for i in paired]] = 1
        form.flags.writeable = False
        return form

    @cached_property
    def z4_relations(self) -> fl.MatZ4:
        """The (m, r) read-only uint8 relation rows, residues mod 4."""
        return fl.mat_z4(self.relations).reshape(len(self.relations), self.z2_rank)


# Presentations hold O(r) tables, but a caller of the array views keeps the
# dense form alive with its entry (16 MiB at MAX_Z2_RANK), so the cache is
# bounded.
@lru_cache(maxsize=16)
def homology_presentation(s: SurfaceModel) -> HomologyPresentation:
    """The fixed presentation of first homology attached to a surface model."""
    b = s.boundary_components
    n_boundary = max(b - 1, 0)
    r = s.z2_rank
    relations = ()
    if s.kind == ORIENTABLE:
        g = s.genus_or_crosscaps
        labels = [f"{c}{i}" for i in range(1, g + 1) for c in "ab"]
        diagonal = (0,) * r
        # a_i and b_i (indices 2i and 2i + 1) meet each other once.
        partner = tuple(i ^ 1 for i in range(2 * g)) + (-1,) * n_boundary
    else:
        k = s.genus_or_crosscaps
        labels = [f"e{i}" for i in range(1, k + 1)]
        diagonal = (1,) * k + (0,) * n_boundary
        partner = (-1,) * r
        if b == 0:
            relations = ((2,) * r,)
    labels += [f"d{i}" for i in range(1, n_boundary + 1)]
    return HomologyPresentation(tuple(labels), r, diagonal, partner, relations)


def pin_plus_obstruction(s: SurfaceModel) -> str | None:
    """Why the surface has no Pin+ structure, or None if it has one.

    The only obstructed surfaces are closed non-orientable ones with an odd
    number of crosscaps (odd Euler characteristic).
    """
    if s.kind == NON_ORIENTABLE and s.closed and s.genus_or_crosscaps % 2 == 1:
        return "closed non-orientable, odd crosscaps"
    return None


def pin_plus_exists_surface(s: SurfaceModel) -> bool:
    """Whether the surface itself carries a Pin+ structure."""
    return pin_plus_obstruction(s) is None


# The residues 0..3 as bytes; a class's entries are its first 2 or 4.
_RESIDUES = bytes(range(4))


class HomologyClass(Record):
    """A coefficient vector over the generators, with ring tag Z2 or Z4.

    Z4 classes are representatives: on surfaces with relation rows two
    coordinate vectors name the same class when their difference lies in
    the relation row module (see :func:`z4_classes_equal`).  ``_bits``, the
    mod-2 reduction, and ``_high`` are the coordinates' two planes.
    """

    def __init__(self, ring: str, coords: tuple[int, ...]) -> None:
        # Bytes (the command line's rows) are entries 0..255 already; other
        # coordinates are read entry by entry, and bytes() refuses any
        # outside 0..255.  The range check and both planes read the bytes.
        if coords.__class__ is bytes:
            raw, c = coords, tuple(coords)
        else:
            c = _integers(coords, "coordinate")
            try:
                raw = bytes(c)
            except ValueError:
                raw = b"\xff"
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", c)
        if ring not in ("Z2", "Z4"):
            raise InputError(f"unknown coefficient ring {ring!r}")
        mod = 2 if ring == "Z2" else 4
        if raw.translate(None, _RESIDUES[:mod]):  # word the first one out of range
            a = next(a for a in c if not 0 <= a < mod)
            raise InputError(f"coordinate {a} out of range for {ring} class")
        # Set like the fields: vars(self).update() would unshare the
        # instance dict's keys, and every attribute read would slow.
        bits, high = fl.planes(raw)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_high", high)


def as_integer(value, what: str) -> int:
    """An int, bool or numpy integer as an int; InputError for anything else."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not an integer") from None


def brief(n: int) -> str:
    """n as a message quotes it: whole up to 12 characters, else its first
    12 and its digit count."""
    from decimal import Decimal  # which, unlike str(), writes any int

    text = str(Decimal(n))
    if len(text) <= 12:
        return text
    return f"{text[:12]}... ({len(text.lstrip('-'))} digits)"


def _integers(entries, what: str) -> tuple[int, ...]:
    """Each entry as an int, as :func:`as_integer` reads it."""
    entries = tuple(entries)
    # tuple() of an iterator without a length hint starts at ten slots and
    # shrinks, so the tuple is freed onto another size's free list than it
    # came from, and CPython keeps up to 2000 a size until a full garbage
    # collection.  Hot paths therefore build tuples from lists, which size
    # them exactly.
    try:
        return tuple(list(map(index, entries)))
    except TypeError:  # as_integer names the first entry that is not one
        return tuple([as_integer(a, what) for a in entries])


def _residues(entries, modulus: int) -> tuple[int, ...]:
    """Integer entries (ints, bools, numpy integers) reduced mod ``modulus``."""
    return tuple([a % modulus for a in _integers(entries, "entry")])


def z2_class(coords) -> HomologyClass:
    return HomologyClass("Z2", _residues(coords, 2))


def z4_class(coords) -> HomologyClass:
    return HomologyClass("Z4", _residues(coords, 4))


def z2_reduction(x: HomologyClass) -> HomologyClass:
    """Reduce a Z4 class mod 2 (identity on Z2 classes)."""
    if x.ring == "Z2":
        return x
    return HomologyClass("Z2", tuple([a % 2 for a in x.coords]))


def pairing_mod2(pres: HomologyPresentation, u, v) -> int:
    """Mod-2 intersection number of two coordinate vectors of residues 0..3."""
    return _pairing_terms(pres, fl.pack_bits(u), fl.pack_bits(v)).bit_count() & 1


def self_intersection_mod2(pres: HomologyPresentation, coords) -> int:
    """Mod-2 self-intersection of a class given by (Z2 or Z4) coordinates."""
    return _self_parity(pres, fl.pack_bits(coords))


def _self_parity(pres: HomologyPresentation, bits: int) -> int:
    """Mod-2 self-intersection of a packed row: only one-sided bits count."""
    return (bits & pres.one_sided).bit_count() & 1


def pairwise_parity_mod2(pres: HomologyPresentation, vectors) -> int:
    """Parity of the sum of ``pairing_mod2`` over every pair of the vectors.

    The pairing is bilinear, so the sum over pairs i < j equals the sum over
    j of the pairing of u_j with the running sum u_1 + ... + u_{j-1}.
    """
    return _pairwise_parity(pres, map(fl.pack_bits, vectors))


def _pairwise_parity(pres: HomologyPresentation, rows) -> int:
    """:func:`pairwise_parity_mod2` of packed rows."""
    prefix = terms = 0
    for u in rows:
        terms ^= _pairing_terms(pres, prefix, u)
        prefix ^= u
    return terms.bit_count() & 1


def _pairing_terms(pres: HomologyPresentation, u: int, v: int) -> int:
    """A packed row whose popcount is u.v mod 2: a one-sided generator
    pairs with itself, a handle's first generator with the next bit."""
    crossed = (u & (v << 1)) ^ ((u << 1) & v)
    return (u & v & pres.one_sided) ^ (crossed & pres.handle_first)


def z4_classes_equal(s: SurfaceModel, x: HomologyClass, y: HomologyClass) -> bool:
    """Equality of Z4 classes modulo the surface's relation rows."""
    if x.ring != "Z4" or y.ring != "Z4":
        raise InputError("z4_classes_equal compares Z4 classes")
    pres = homology_presentation(s)
    if len(x.coords) != pres.z2_rank or len(y.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    diff = tuple((a - b) % 4 for a, b in zip(x.coords, y.coords))
    # At most one relation row, (2, ..., 2), which spans {0, itself}.
    return not any(diff) or diff in pres.relations


def format_class(pres: HomologyPresentation, coords) -> str:
    """Render coordinates like ``2e1`` or ``e2+e6`` using generator labels."""
    parts = []
    for a, label in zip(coords, pres.generators):
        if a == 0:
            continue
        parts.append(label if a == 1 else f"{a}{label}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Quadratic enhancements
# ---------------------------------------------------------------------------


class _Enhancement(Record):
    """An enhancement stored by its values on the generators, each a
    residue mod 2 * step.  q(e) = e.e mod step on every generator, which
    is validated here; for plus (step 1) it always holds.  ``_bits`` and
    ``_high`` are the values' two planes, as a class has its coordinates'."""

    step: int

    def __init__(self, surface: SurfaceModel, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "values", v := _integers(values, "value"))
        self.__post_init__()
        # Set like the fields, as HomologyClass does, to keep the instance
        # dict's keys shared.
        object.__setattr__(self, "_bits", fl.pack_bits(v))
        object.__setattr__(self, "_high", fl.high_bits(v))

    def __post_init__(self):
        pres = homology_presentation(self.surface)
        if len(self.values) != pres.z2_rank:
            raise InputError(
                f"expected {pres.z2_rank} generator values, got {len(self.values)}"
            )
        step, mod = self.step, 2 * self.step
        for v, d, label in zip(self.values, pres.diagonal, pres.generators):
            if not 0 <= v < mod:
                raise InputError(f"value {v!r} is not a residue mod {mod}")
            if (v - d) % step:
                raise InvariantViolation(
                    f"q({label}) = {v} has the wrong parity; "
                    "generator values must match self-intersections mod 2"
                )


class EnhancementMinus(_Enhancement):
    """Z4-valued enhancement of the mod-2 intersection form.

    Stored by its values on the generators.  The rule
    q(x + y) = q(x) + q(y) + 2 x.y forces q(e) = e.e mod 2 on every
    generator, which is validated here.
    """

    step = 2


class EnhancementPlus(_Enhancement):
    """Z2-valued enhancement of mod-4 homology.

    Stored by its values on the generators.  Every assignment takes the
    crosscap count mod 2 on the relation row (2, ..., 2), so none is well
    defined exactly when :func:`pin_plus_obstruction` is set.
    """

    step = 1


def base_enhancement_minus(s: SurfaceModel) -> EnhancementMinus:
    """The default minus enhancement: q(e) = e.e in {0, 1} on each generator."""
    return _structures(EnhancementMinus, s, [0])[0]


def base_enhancement_plus(s: SurfaceModel) -> EnhancementPlus:
    """The default plus enhancement: 0 on every generator.

    Like every plus enhancement it is well defined exactly when the surface
    carries a Pin+ structure.
    """
    return _structures(EnhancementPlus, s, [0])[0]


def eval_qminus(q: EnhancementMinus, x: HomologyClass) -> int:
    """Evaluate a minus enhancement on a mod-2 homology class.

    Expanding the defining rule over a sum of distinct generators:
    q(sum a_i e_i) = sum a_i q(e_i) + 2 sum_{i<j} a_i a_j e_i.e_j mod 4.
    Each q(e_i) is e_i.e_i plus twice its high bit; the pairs meeting once
    are the handles with both generators in x.
    """
    if x.ring != "Z2":
        raise InputError("eval_qminus takes a Z2 class")
    pres = homology_presentation(q.surface)
    if len(x.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    return _minus_value(q._high, x, pres)


def _minus_value(high: int, x: HomologyClass, pres: HomologyPresentation) -> int:
    """:func:`eval_qminus` on a checked Z2 or Z4 x, for high plane ``high``."""
    bits = x._bits
    twos = (bits & high).bit_count()
    twos += (bits & (bits << 1) & pres.handle_first).bit_count()
    return ((bits & pres.one_sided).bit_count() + 2 * twos) % 4


def eval_qplus(q: EnhancementPlus, x: HomologyClass) -> int:
    """Evaluate a plus enhancement on a mod-4 homology class.

    q(sum a_i g_i) = sum a_i q(g_i) + sum C(a_i, 2) g_i.g_i
    + sum_{i<j} a_i a_j g_i.g_j mod 2; C(a, 2) is odd when a's high bit is.

    Raises:
        InvariantViolation: the surface has no Pin+ structure, so q is 1 on
            the relation row (2, ..., 2) and depends on the representative.
    """
    if x.ring != "Z4":
        raise InputError("eval_qplus takes a Z4 class")
    pres = homology_presentation(q.surface)
    if len(x.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    if pin_plus_obstruction(q.surface) is not None:
        raise InvariantViolation(NOT_WELL_DEFINED)
    return _plus_value(q._bits, x, pres)


def _plus_value(low: int, x: HomologyClass, pres: HomologyPresentation) -> int:
    """:func:`eval_qplus` on a checked x, for parity plane ``low``; Pin+ unchecked."""
    bits = x._bits
    terms = (bits & low) ^ (x._high & pres.one_sided)
    terms ^= bits & (bits << 1) & pres.handle_first
    return terms.bit_count() & 1


# Each kind's enhancement class.
_KINDS = {"minus": EnhancementMinus, "plus": EnhancementPlus}


def _row(q: EnhancementMinus | EnhancementPlus) -> int:
    """q's correction row: base values sit below step, so it is the plane
    a step lands on, high for minus and parity for plus."""
    return q._high if q.step == 2 else q._bits


def _spread(cls: type, s: SurfaceModel, first: int, rows, gap: int = 1):
    """The values of the enhancement of class cls on s that the bit row
    first names, and the values each bit row in rows adds (step at its
    bits), as ints of a byte per generator followed by gap - 1 zero bytes,
    the first generator most significant.  The base values (the diagonal
    for minus, 0 for plus) are below step, so XOR with an added row moves
    from one enhancement's values to another's."""
    r, step = s.z2_rank, cls.step

    def spread(x: int) -> int:
        body = bytearray(gap * r)
        body[::gap] = fl.unpack_bits(x, r)
        return int.from_bytes(body, "big")

    base = homology_presentation(s).one_sided if step == 2 else 0
    return spread(base) | spread(first) * step, [spread(x) * step for x in rows]


def _structures(cls: type, s: SurfaceModel, rows) -> list:
    """The enhancement of class cls on s that each bit row in rows names, built."""
    base, added = _spread(cls, s, 0, rows)
    r = s.z2_rank
    return [cls(s, tuple((base ^ v).to_bytes(r, "big"))) for v in added]


def act_h1(q: EnhancementMinus | EnhancementPlus, gamma):
    """Act on an enhancement by a mod-2 cohomology class.

    ``gamma`` is a bit vector over the generators (a functional via the dot
    pairing).  Minus enhancements shift by 2*gamma, plus enhancements by
    gamma; either way acting twice by the same class is the identity, and
    the action is free and transitive on the full enhancement set.
    """
    bits = _residues(gamma, 2)
    if len(bits) != q.surface.z2_rank:
        raise InputError("cohomology class length does not match the generators")
    return _structures(type(q), q.surface, [_row(q) ^ fl.pack_bits(bits)])[0]


def enumerate_enhancements(s: SurfaceModel, kind: str) -> list:
    """All enhancements of the given kind, in lexicographic value order:
    item i is the one of correction row i.

    There are exactly 2**rank of either kind, except that a surface without
    Pin+ admits no plus enhancements at all (empty list; see
    :func:`pin_plus_obstruction` for the note).
    """
    if kind not in _KINDS:
        raise InputError(f"unknown enhancement kind {kind!r}")
    if not isinstance(s, SurfaceModel):
        raise InputError(f"surface must be a SurfaceModel, got {type(s).__name__}")
    if kind == "plus" and pin_plus_obstruction(s) is not None:
        return []
    return _structures(_KINDS[kind], s, range(1 << s.z2_rank))
