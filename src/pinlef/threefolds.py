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

from . import finite_linalg as fl
from . import surfaces as sf
from ._record import Record
from .constraints import ConstraintSystem, DecisionReport, rank_mismatch, z2_rows
from .errors import InputError, InvalidDecomposition, InvariantViolation


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
        for label, classes in (
            ("attaching", self.attaching_classes),
            ("belt", self.belt_classes),
        ):
            for n, c in enumerate(classes, start=1):
                if not isinstance(c, sf.HomologyClass) or c.ring != "Z4":
                    raise InputError(f"{label} class {n} must be a Z4 class")
                if len(c.coords) != pres.z2_rank:
                    raise InputError(
                        f"{label} class {n} has {len(c.coords)} coordinates, "
                        f"expected {pres.z2_rank}"
                    )
                if sf._self_parity(pres, c._bits):
                    raise InvariantViolation(
                        f"{label} class {n} has odd self-intersection; "
                        "curves bounding disks are two-sided"
                    )

    @property
    def boundary(self) -> sf.SurfaceModel:
        return sf.non_orientable_surface(2 * self.genus, 0)

    def listed_classes(self) -> tuple[sf.HomologyClass, ...]:
        """Attaching classes then belt classes, in report order."""
        return self.attaching_classes + self.belt_classes

    def row_labels(self) -> tuple[str, ...]:
        """Names of the listed classes: a1..ag attaching, then b1..bg belt."""
        return tuple([f"{side}{j}" for side in "ab" for j in range(1, self.genus + 1)])

    def z2_class_matrix(self) -> fl.MatGF2:
        return z2_rows(self.boundary, self.listed_classes()).to_array()


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
    system = ConstraintSystem("plus", d.boundary, d.listed_classes(), 0)
    reason = "no enhancement vanishes on all attaching and belt classes"
    return system.decide(rank_mismatch(reason))


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

    return ConstraintSystem("minus", d.boundary, d.listed_classes(), 0).decide(certify)


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
    return ConstraintSystem("plus", d.boundary, d.listed_classes(), 0).brute_force()


def brute_force_pin_minus_3mfd(
    d: HandlebodyDecomposition3,
) -> list[sf.EnhancementMinus]:
    """All minus enhancements vanishing on the listed classes (2**(2g) scan)."""
    return ConstraintSystem("minus", d.boundary, d.listed_classes(), 0).brute_force()
