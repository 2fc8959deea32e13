"""Pin structures on closed 3-manifolds from handlebody decompositions.

A closed non-orientable 3-manifold decomposes as a genus-g non-orientable
handlebody plus g 2-handles and a 3-handle.  All Pin data lives on the
boundary surface, the closed non-orientable surface with 2g crosscaps:
the manifold is Pin+ exactly when some plus enhancement of the boundary
vanishes on the attaching circles of the 2-handles and the belt circles
of the 1-handles, and it always admits a Pin- structure, constructed as a
minus enhancement vanishing on the same curves.

Both conditions are affine systems over Z2 in the correction to the base
enhancement, with coefficient rows the mod-2 reductions of the attaching
classes followed by the belt classes (reports keep this row order).
"""

from __future__ import annotations

from functools import cached_property

from . import finite_linalg as fl
from . import surfaces as sf
from ._record import Record
from .constraints import (
    CheckedClasses,
    ConstraintSystem,
    DecisionReport,
    check_classes,
    rank_mismatch,
)
from .errors import InputError, InvalidDecomposition


class HandlebodyDecomposition3(Record):
    """Genus plus attaching and belt classes on the boundary surface.

    The boundary is the closed non-orientable surface with 2*genus
    crosscaps.  All classes bound disks on one side, hence are two-sided:
    even mod-2 self-intersection is enforced.  Geometric validity of the
    curve data is not modelled, only homological soundness.
    """

    def __init__(
        self,
        genus: int,
        attaching_classes: tuple[sf.HomologyClass, ...],
        belt_classes: tuple[sf.HomologyClass, ...],
    ) -> None:
        object.__setattr__(self, "genus", sf.as_integer(genus, "handlebody genus"))
        object.__setattr__(self, "attaching_classes", tuple(attaching_classes))
        object.__setattr__(self, "belt_classes", tuple(belt_classes))
        self.__post_init__()

    def __post_init__(self):
        if self.genus < 1:
            raise InputError("handlebody genus must be at least 1")
        if len(self.attaching_classes) != self.genus:
            raise InputError(
                f"expected {self.genus} attaching classes, "
                f"got {len(self.attaching_classes)}"
            )
        if len(self.belt_classes) != self.genus:
            raise InputError(
                f"expected {self.genus} belt classes, got {len(self.belt_classes)}"
            )
        pres = sf.homology_presentation(self.boundary)
        why = "{} has odd self-intersection; curves bounding disks are two-sided"
        a = check_classes(self.attaching_classes, pres, name="attaching class", why=why)
        b = check_classes(self.belt_classes, pres, name="belt class", why=why)
        object.__setattr__(self, "_checked", CheckedClasses(a + b, pres.z2_rank))

    @cached_property
    def boundary(self) -> sf.SurfaceModel:
        return sf.non_orientable_surface(2 * self.genus, 0)

    def _unshared(self) -> HandlebodyDecomposition3:
        """This decomposition, checked no further, over a fresh list of its
        checked classes: it reads no elimination made for this one."""
        d = object.__new__(HandlebodyDecomposition3)
        for name, value in vars(self).items():
            object.__setattr__(d, name, value)
        checked = CheckedClasses(self._checked, self._checked.ncols)
        object.__setattr__(d, "_checked", checked)
        return d

    def listed_classes(self) -> tuple[sf.HomologyClass, ...]:
        """Attaching classes then belt classes, in report order."""
        return self.attaching_classes + self.belt_classes

    def row_labels(self) -> tuple[str, ...]:
        """Names of the listed classes: a1..ag attaching, then b1..bg belt."""
        return tuple([f"{side}{j}" for side in "ab" for j in range(1, self.genus + 1)])

    def _system(self, kind: str) -> ConstraintSystem:
        """The boundary's enhancements of ``kind`` vanishing on every
        listed class."""
        return ConstraintSystem(kind, self.boundary, self._checked, 0)

    def z2_class_matrix(self) -> fl.MatGF2:
        return self._checked.rows.to_array()


def decide_pin_plus_3mfd(d: HandlebodyDecomposition3) -> DecisionReport:
    """Rank criterion for a Pin+ structure on the closed 3-manifold.

    Builds the 2g x 2g mod-2 matrix of attaching rows then belt rows and
    the right-hand side of base-enhancement values on those classes; the
    manifold is Pin+ exactly when the ranks of the matrix and of its
    augmentation agree.  On success every solution is returned as a plus
    enhancement vanishing on all listed classes.
    """
    # 2g crosscaps is even, so the boundary always carries Pin+ and the
    # plus system never refuses it here.
    reason = "no enhancement vanishes on all attaching and belt classes"
    return d._system("plus").decide(rank_mismatch(reason))


def solve_pin_minus_3mfd(d: HandlebodyDecomposition3) -> DecisionReport:
    """All minus enhancements of the boundary vanishing on the listed classes.

    A genuine closed 3-manifold decomposition always admits one; an
    unsolvable system therefore comes with a certificate naming an
    inconsistent subset of the curves.
    """

    def certify(rank, y):
        labels = d.row_labels()
        names = ", ".join(labels[i] for i in y)
        return (
            "no enhancement vanishes on all listed classes; "
            f"inconsistent subset: {names}"
        ), None

    return d._system("minus").decide(certify)


def construct_pin_minus_3mfd(d: HandlebodyDecomposition3) -> sf.EnhancementMinus:
    """A minus enhancement vanishing on every attaching and belt class.

    Returns the canonical solution (lexicographically smallest correction
    vector).

    Raises:
        InvalidDecomposition: the system is unsolvable, so the input data
            cannot describe a closed 3-manifold decomposition.
    """
    report = solve_pin_minus_3mfd(d)
    if not report.exists:
        raise InvalidDecomposition(
            "input does not describe a closed 3-manifold decomposition",
            certificate=report.certificate,
        )
    return report.structures[0]


def brute_force_pin_plus_3mfd(d: HandlebodyDecomposition3) -> list[sf.EnhancementPlus]:
    """All plus enhancements vanishing on the listed classes (2**(2g) scan)."""
    return d._system("plus").brute_force()


def brute_force_pin_minus_3mfd(
    d: HandlebodyDecomposition3,
) -> list[sf.EnhancementMinus]:
    """All minus enhancements vanishing on the listed classes (2**(2g) scan)."""
    return d._system("minus").brute_force()
