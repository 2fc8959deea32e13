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
crosscap generators dies.

Two kinds of quadratic enhancement refine the intersection pairing:

* ``EnhancementMinus`` maps mod-2 homology to Z4 with
  q(x + y) = q(x) + q(y) + 2 x.y, which forces q(x) = x.x mod 2;
* ``EnhancementPlus`` maps mod-4 homology to Z2 with
  q(x + y) = q(x) + q(y) + x.y, the pairing taken on mod-2 reductions.

Both are stored by their values on the generators.  The full enhancement
sets are torsors over mod-2 cohomology via :func:`act_h1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import TYPE_CHECKING

from . import finite_linalg as fl
from .errors import InputError, InvariantViolation

if TYPE_CHECKING:
    import numpy as np

ORIENTABLE = "orientable"
NON_ORIENTABLE = "non-orientable"
# Largest mod-2 homology rank a surface model may have.  It bounds the
# dense r x r form that the array view z2_intersection builds to 16 MiB.
MAX_Z2_RANK = 4096


@dataclass(frozen=True)
class SurfaceModel:
    """A compact surface: orientability, genus/crosscap count, boundary count."""

    kind: str
    genus_or_crosscaps: int
    boundary_components: int = 0

    def __post_init__(self):
        if self.kind not in (ORIENTABLE, NON_ORIENTABLE):
            raise InputError(f"unknown surface kind {self.kind!r}")
        if self.genus_or_crosscaps < 0 or self.boundary_components < 0:
            raise InputError("surface counts must be non-negative")
        if self.kind == NON_ORIENTABLE and self.genus_or_crosscaps < 1:
            raise InputError("a non-orientable surface needs at least one crosscap")
        if self.z2_rank > MAX_Z2_RANK:
            raise InputError(
                f"z2 rank {self.z2_rank} exceeds the limit of {MAX_Z2_RANK}"
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
        word = "genus" if self.kind == ORIENTABLE else "crosscaps"
        return (
            f"{self.kind}, {word} {self.genus_or_crosscaps}, "
            f"boundary {self.boundary_components}"
        )


def orientable_surface(genus: int, boundary: int = 0) -> SurfaceModel:
    return SurfaceModel(ORIENTABLE, genus, boundary)


def non_orientable_surface(crosscaps: int, boundary: int = 0) -> SurfaceModel:
    return SurfaceModel(NON_ORIENTABLE, crosscaps, boundary)


@dataclass(frozen=True, eq=False)
class HomologyPresentation:
    """Generators, mod-2 intersection form, and Z4 relation rows.

    Each generator meets at most one other generator, so the form is kept
    as two O(r) tables: ``diagonal[i]`` is e_i.e_i and ``partner[i]`` the
    one j != i with e_i.e_j = 1, or -1.  ``relations`` holds the Z4
    relation rows as tuples.  The numpy views ``z2_intersection`` (the
    dense r x r form) and ``z4_relations`` are built from these on first
    access; nothing in the deciders or the command line reads them.
    """

    generators: tuple[str, ...]
    z2_rank: int
    diagonal: tuple[int, ...]
    partner: tuple[int, ...]
    relations: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.z2_rank

    @cached_property
    def z2_intersection(self) -> np.ndarray:
        """The (r, r) symmetric read-only uint8 intersection form."""
        import numpy as np

        r = self.z2_rank
        form = np.zeros((r, r), dtype=np.uint8)
        form[np.arange(r), np.arange(r)] = self.diagonal
        paired = [i for i in range(r) if self.partner[i] >= 0]
        form[paired, [self.partner[i] for i in paired]] = 1
        form.flags.writeable = False
        return form

    @cached_property
    def z4_relations(self) -> np.ndarray:
        """The (m, r) read-only uint8 relation rows, residues mod 4."""
        import numpy as np

        rows = np.array(self.relations, dtype=np.uint8)
        rows = rows.reshape(len(self.relations), self.z2_rank)
        rows.flags.writeable = False
        return rows


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
        labels = []
        for i in range(1, g + 1):
            labels += [f"a{i}", f"b{i}"]
        labels += [f"d{i}" for i in range(1, n_boundary + 1)]
        diagonal = (0,) * r
        # a_i and b_i (indices 2i and 2i + 1) meet each other once.
        partner = tuple(i ^ 1 for i in range(2 * g)) + (-1,) * n_boundary
    else:
        k = s.genus_or_crosscaps
        labels = [f"e{i}" for i in range(1, k + 1)]
        labels += [f"d{i}" for i in range(1, n_boundary + 1)]
        diagonal = (1,) * k + (0,) * n_boundary
        partner = (-1,) * r
        if b == 0:
            relations = ((2,) * r,)
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


@dataclass(frozen=True)
class HomologyClass:
    """A coefficient vector over the generators, with ring tag Z2 or Z4.

    Z4 classes are representatives: on surfaces with relation rows two
    coordinate vectors name the same class when their difference lies in
    the relation row module (see :func:`z4_classes_equal`).
    """

    ring: str
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.ring not in ("Z2", "Z4"):
            raise InputError(f"unknown coefficient ring {self.ring!r}")
        mod = 2 if self.ring == "Z2" else 4
        for a in self.coords:
            if not isinstance(a, int) or not 0 <= a < mod:
                raise InputError(
                    f"coordinate {a!r} out of range for {self.ring} class"
                )


def z2_class(coords) -> HomologyClass:
    return HomologyClass("Z2", tuple(int(a) % 2 for a in coords))


def z4_class(coords) -> HomologyClass:
    return HomologyClass("Z4", tuple(int(a) % 4 for a in coords))


def z2_reduction(x: HomologyClass) -> HomologyClass:
    """Reduce a Z4 class mod 2 (identity on Z2 classes)."""
    if x.ring == "Z2":
        return x
    return HomologyClass("Z2", tuple(a % 2 for a in x.coords))


def pairing_mod2(pres: HomologyPresentation, u, v) -> int:
    """Mod-2 intersection number of two coordinate vectors."""
    v = [int(b) % 2 for b in v]
    total = 0
    for i, a in enumerate(u):
        if int(a) % 2:
            j = pres.partner[i]
            total += pres.diagonal[i] * v[i] + (v[j] if j >= 0 else 0)
    return total % 2


def self_intersection_mod2(pres: HomologyPresentation, coords) -> int:
    """Mod-2 self-intersection of a class given by (Z2 or Z4) coordinates."""
    bits = [a % 2 for a in coords]
    return pairing_mod2(pres, bits, bits)


def pairwise_parity_mod2(pres: HomologyPresentation, vectors) -> int:
    """Parity of the sum of ``pairing_mod2`` over every pair of the vectors.

    With B the 0/1 form over the integers and S the sum of the mod-2
    reductions u_i, B(S, S) = sum_i B(u_i, u_i) + 2 sum_{i<j} B(u_i, u_j),
    so one pass over the k vectors replaces the k(k - 1)/2 pairings.
    """
    bits = [[int(a) % 2 for a in v] for v in vectors]
    total = _integer_square(pres, [sum(col) for col in zip(*bits)])
    total -= sum(_integer_square(pres, u) for u in bits)
    return total // 2 % 2


def _integer_square(pres: HomologyPresentation, x) -> int:
    """B(x, x) over the integers, for an integer coordinate vector x."""
    return sum(
        a * (d * a + (x[j] if j >= 0 else 0))
        for a, d, j in zip(x, pres.diagonal, pres.partner)
    )


def z4_classes_equal(s: SurfaceModel, x: HomologyClass, y: HomologyClass) -> bool:
    """Equality of Z4 classes modulo the surface's relation rows."""
    if x.ring != "Z4" or y.ring != "Z4":
        raise InputError("z4_classes_equal compares Z4 classes")
    pres = homology_presentation(s)
    if len(x.coords) != pres.z2_rank or len(y.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    diff = [(a - b) % 4 for a, b in zip(x.coords, y.coords)]
    h = fl.howell_z4(pres.z4_relations)
    return fl.in_row_module_z4(h, diff)


def format_class(pres: HomologyPresentation, coords) -> str:
    """Render coordinates like ``2e1`` or ``e2+e6`` using generator labels."""
    parts = []
    for a, label in zip(coords, pres.generators):
        a = int(a)
        if a == 0:
            continue
        parts.append(label if a == 1 else f"{a}{label}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Quadratic enhancements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnhancementMinus:
    """Z4-valued enhancement of the mod-2 intersection form.

    Stored by its values on the generators.  The rule
    q(x + y) = q(x) + q(y) + 2 x.y forces q(e) = e.e mod 2 on every
    generator, which is validated here.
    """

    surface: SurfaceModel
    values: tuple[int, ...]

    def __post_init__(self):
        pres = homology_presentation(self.surface)
        if len(self.values) != pres.z2_rank:
            raise InputError(
                f"expected {pres.z2_rank} generator values, got {len(self.values)}"
            )
        for v, d, label in zip(self.values, pres.diagonal, pres.generators):
            if not isinstance(v, int) or not 0 <= v < 4:
                raise InputError(f"value {v!r} is not a residue mod 4")
            if v % 2 != d:
                raise InvariantViolation(
                    f"q({label}) = {v} has the wrong parity; "
                    "generator values must match self-intersections mod 2"
                )


@dataclass(frozen=True)
class EnhancementPlus:
    """Z2-valued enhancement of mod-4 homology.

    Stored by its values on the generators.  On surfaces whose presentation
    has relation rows, well-definedness requires the evaluation formula to
    vanish on every relation row; this is checked at evaluation time and
    fails for every value assignment exactly when the surface has no Pin+
    structure.
    """

    surface: SurfaceModel
    values: tuple[int, ...]

    def __post_init__(self):
        pres = homology_presentation(self.surface)
        if len(self.values) != pres.z2_rank:
            raise InputError(
                f"expected {pres.z2_rank} generator values, got {len(self.values)}"
            )
        for v in self.values:
            if not isinstance(v, int) or not 0 <= v < 2:
                raise InputError(f"value {v!r} is not a residue mod 2")


def base_enhancement_minus(s: SurfaceModel) -> EnhancementMinus:
    """The default minus enhancement: q(e) = e.e in {0, 1} on each generator."""
    return EnhancementMinus(s, homology_presentation(s).diagonal)


def base_enhancement_plus(s: SurfaceModel) -> EnhancementPlus:
    """The default plus enhancement: 0 on every generator.

    Its relation-consistency check succeeds exactly when the surface
    carries a Pin+ structure.
    """
    pres = homology_presentation(s)
    return EnhancementPlus(s, (0,) * pres.z2_rank)


def eval_qminus(q: EnhancementMinus, x: HomologyClass) -> int:
    """Evaluate a minus enhancement on a mod-2 homology class.

    Expanding the defining rule over a sum of distinct generators:
    q(sum a_i e_i) = sum a_i q(e_i) + 2 sum_{i<j} a_i a_j e_i.e_j mod 4.
    """
    if x.ring != "Z2":
        raise InputError("eval_qminus takes a Z2 class")
    pres = homology_presentation(q.surface)
    if len(x.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    coords, partner = x.coords, pres.partner
    total = 0
    for i, a in enumerate(coords):
        if a:
            # Each pair i < j meeting once adds 2; count it from i.
            j = partner[i]
            total += q.values[i] + (2 * coords[j] if j > i else 0)
    return total % 4


def _eval_plus_raw(values, pres: HomologyPresentation, coords) -> int:
    # q(sum a_i g_i) = sum a_i q(g_i) + sum C(a_i,2) g_i.g_i
    #                + sum_{i<j} a_i a_j g_i.g_j  (mod 2)
    total = 0
    for i, (a, value, d, j) in enumerate(
        zip(coords, values, pres.diagonal, pres.partner)
    ):
        if a:
            total += a * value + (a * (a - 1) // 2) * d
            if j > i:
                total += a * coords[j]
    return total % 2


def plus_relation_defect(q: EnhancementPlus) -> int:
    """Largest evaluation of q on a relation row; 0 means well defined."""
    pres = homology_presentation(q.surface)
    return max(
        (_eval_plus_raw(q.values, pres, row) for row in pres.relations),
        default=0,
    )


def eval_qplus(q: EnhancementPlus, x: HomologyClass) -> int:
    """Evaluate a plus enhancement on a mod-4 homology class.

    Raises:
        InvariantViolation: the generator values do not kill every relation
            row, so the value would depend on the chosen representative.
    """
    if x.ring != "Z4":
        raise InputError("eval_qplus takes a Z4 class")
    pres = homology_presentation(q.surface)
    if len(x.coords) != pres.z2_rank:
        raise InputError("class length does not match the surface's generators")
    if plus_relation_defect(q):
        raise InvariantViolation(
            "enhancement is not well defined modulo the torsion relations"
        )
    return _eval_plus_raw(q.values, pres, x.coords)


def act_h1(q: EnhancementMinus | EnhancementPlus, gamma):
    """Act on an enhancement by a mod-2 cohomology class.

    ``gamma`` is a bit vector over the generators (a functional via the dot
    pairing).  Minus enhancements shift by 2*gamma, plus enhancements by
    gamma; either way acting twice by the same class is the identity, and
    the action is free and transitive on the full enhancement set.
    """
    pres = homology_presentation(q.surface)
    bits = [int(g) % 2 for g in gamma]
    if len(bits) != pres.z2_rank:
        raise InputError("cohomology class length does not match the generators")
    if isinstance(q, EnhancementMinus):
        return EnhancementMinus(
            q.surface, tuple((v + 2 * g) % 4 for v, g in zip(q.values, bits))
        )
    return EnhancementPlus(
        q.surface, tuple((v + g) % 2 for v, g in zip(q.values, bits))
    )


def enumerate_enhancements(s: SurfaceModel, kind: str) -> list:
    """All enhancements of the given kind, in lexicographic value order.

    There are exactly 2**rank of either kind, except that a surface without
    Pin+ admits no plus enhancements at all (empty list; see
    :func:`pin_plus_obstruction` for the note).
    """
    pres = homology_presentation(s)
    r = pres.z2_rank
    if kind == "minus":
        base = base_enhancement_minus(s).values
        return [
            EnhancementMinus(s, tuple((b + 2 * t) % 4 for b, t in zip(base, bits)))
            for bits in product((0, 1), repeat=r)
        ]
    if kind == "plus":
        if not pin_plus_exists_surface(s):
            return []
        return [
            EnhancementPlus(s, bits) for bits in product((0, 1), repeat=r)
        ]
    raise InputError(f"unknown enhancement kind {kind!r}")
