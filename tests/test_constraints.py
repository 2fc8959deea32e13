"""The shared constraint system: one GF(2) elimination per decision."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

import pinlef as P
from pinlef import finite_linalg as fl
from pinlef import lefschetz as lf
from pinlef import surfaces as sf
from pinlef import threefolds as tf
from pinlef.constraints import ConstraintSystem
from pinlef.errors import InputError, InvariantViolation
from helpers import random_decomposition


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = fl.rref_gf2

    def counted(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(fl, "rref_gf2", counted)
    return calls


def _fibration(surface, *cycles):
    return P.LefschetzFibration(surface, tuple(P.z4_class(c) for c in cycles))


def _threefold(genus, attach, belt):
    return P.HandlebodyDecomposition3(
        genus,
        tuple(P.z4_class(c) for c in attach),
        tuple(P.z4_class(c) for c in belt),
    )


TORUS = P.orientable_surface(1, 0)
PUNCTURED_TORUS = P.orientable_surface(1, 1)
MOEBIUS = P.non_orientable_surface(1, 1)
KLEIN = P.non_orientable_surface(2, 0)

# (decider, input, expected verdict)
CASES = [
    (lf.decide_pin_minus, _fibration(TORUS, (1, 0), (0, 1)), True),
    (lf.decide_pin_minus, _fibration(PUNCTURED_TORUS, (1, 0)), True),
    (lf.decide_pin_minus, _fibration(MOEBIUS, (2,)), False),
    (
        lf.decide_pin_minus,
        _fibration(
            P.orientable_surface(2, 1), (2, 0, 0, 1), (1, 1, 2, 0), (1, 1, 0, 1)
        ),
        False,
    ),
    (lf.decide_pin_plus, _fibration(TORUS, (1, 0), (0, 1)), True),
    (lf.decide_pin_plus, _fibration(MOEBIUS, (2,)), True),
    (lf.decide_pin_plus, _fibration(KLEIN, (1, 3), (3, 3), (1, 3)), False),
    (lf.decide_pin_plus, _fibration(P.non_orientable_surface(3, 0), (1, 1, 0)), False),
    (tf.decide_pin_plus_3mfd, _threefold(1, [(1, 1)], [(0, 0)]), True),
    (tf.decide_pin_plus_3mfd, _threefold(1, [(2, 0)], [(0, 2)]), False),
    (tf.solve_pin_minus_3mfd, _threefold(1, [(1, 1)], [(0, 0)]), True),
    (
        tf.solve_pin_minus_3mfd,
        _threefold(2, [(1, 2, 2, 1), (1, 0, 3, 2)], [(1, 1, 0, 2), (1, 1, 3, 1)]),
        False,
    ),
]


@pytest.mark.parametrize("decider, data, exists", CASES)
def test_one_elimination_per_decision(rref_calls, decider, data, exists):
    report = decider(data)
    assert report.exists is exists
    assert len(rref_calls) == 1


def test_cases_cover_trivial_and_nontrivial_annihilators():
    yes = [decider(data) for decider, data, exists in CASES if exists]
    assert {r.h1_annihilator_dim == 0 for r in yes} == {True, False}
    assert {r.kind for r in yes} == {"minus", "plus"}


# ---------------------------------------------------------------------------
# the lazy structure set
# ---------------------------------------------------------------------------

SMALL_FIBERS = [
    TORUS,
    P.orientable_surface(2, 1),
    P.orientable_surface(3, 0),
    P.orientable_surface(2, 3),
    P.orientable_surface(4, 1),
    MOEBIUS,
    P.non_orientable_surface(3, 0),  # no Pin+
    P.non_orientable_surface(5, 2),
    P.non_orientable_surface(6, 1),
    P.non_orientable_surface(8, 0),
]


def _random_fibration(rng, surface):
    pres = P.homology_presentation(surface)
    cycles, size = [], rng.randint(0, 4)
    while len(cycles) < size:
        coords = [rng.randrange(4) for _ in range(pres.z2_rank)]
        if sf.self_intersection_mod2(pres, coords) == 0:
            cycles.append(P.z4_class(coords))
    return P.LefschetzFibration(surface, tuple(cycles))


def _small_systems(seed):
    """(report, brute force list, surface) for seeded systems of rank <= 8."""
    rng = random.Random(seed)
    out = []
    for surface in SMALL_FIBERS:
        for _ in range(2):
            f = _random_fibration(rng, surface)
            out.append((lf.decide_pin_minus(f), lf.brute_force_pin_minus(f), surface))
            out.append((lf.decide_pin_plus(f), lf.brute_force_pin_plus(f), surface))
    for genus in (1, 2, 3, 4):
        d = random_decomposition(rng, genus)
        minus = tf.solve_pin_minus_3mfd(d), tf.brute_force_pin_minus_3mfd(d)
        plus = tf.decide_pin_plus_3mfd(d), tf.brute_force_pin_plus_3mfd(d)
        out += [(*minus, d.boundary), (*plus, d.boundary)]
    return out


@pytest.mark.parametrize("seed", [3, 17])
def test_structure_set_order_indexing_and_membership(seed):
    systems = _small_systems(seed)
    assert {r.exists for r, _, _ in systems} == {True, False}
    for report, brute, surface in systems:
        s = report.structures
        listed = list(s)
        values = [q.values for q in listed]
        assert values == sorted(values) == [tuple(v) for v in s.values()]
        assert len(s) == s.count == report.structure_count == len(listed)
        assert bool(s) is report.exists
        for i in range(-len(listed), len(listed)):
            assert s[i] == listed[i]
        accepted = set(brute)
        assert set(listed) == accepted
        for q in sf.enumerate_enhancements(surface, report.kind):
            assert (q in s) == (q in accepted)


def _small_system_inputs(seed):
    """The systems of ``_small_systems(seed)``, drawn from the same random
    stream, as (system, report) pairs."""
    rng = random.Random(seed)
    out = []
    for surface in SMALL_FIBERS:
        for _ in range(2):
            f = _random_fibration(rng, surface)
            minus = ConstraintSystem("minus", surface, f.cycles, 2)
            plus = ConstraintSystem("plus", surface, f.cycles, 1)
            out += [(minus, lf.decide_pin_minus(f)), (plus, lf.decide_pin_plus(f))]
    for genus in (1, 2, 3, 4):
        d = random_decomposition(rng, genus)
        minus = ConstraintSystem("minus", d.boundary, d.listed_classes(), 0)
        plus = ConstraintSystem("plus", d.boundary, d.listed_classes(), 0)
        out += [(minus, tf.solve_pin_minus_3mfd(d)), (plus, tf.decide_pin_plus_3mfd(d))]
    return out


def _eliminated(system):
    """``fl.eliminate_bits`` on the system, its rows and targets worked out
    here from the classes' coordinates and the public evaluators."""
    s, r = system.surface, system.surface.z2_rank
    if system.kind == "minus":
        q0, step = sf.base_enhancement_minus(s), 2
        values = [sf.eval_qminus(q0, sf.z2_reduction(c)) for c in system.classes]
    else:
        q0, step = sf.base_enhancement_plus(s), 1
        values = [sf.eval_qplus(q0, c) for c in system.classes]
    rows = fl.BitRows(tuple(fl.pack_bits(c.coords) for c in system.classes), r)
    rhs = [(system.target - v) // step % 2 for v in values]
    return q0, fl.eliminate_bits(rows, rhs)


@pytest.mark.parametrize("seed", [3, 17])
def test_structure_sets_hold_the_rows_eliminate_bits_returns(seed):
    pairs = _small_system_inputs(seed)
    assert [r for _, r in pairs] == [r for r, _, _ in _small_systems(seed)]
    refused = 0
    for system, report in pairs:
        s, r = report.structures, system.surface.z2_rank
        if system.kind == "plus" and sf.pin_plus_obstruction(system.surface):
            assert (s.first, s.kernel) == (None, ())
            refused += 1
            continue
        q0, (_, particular, kernel, _) = _eliminated(system)
        assert (s.first, s.kernel) == (particular, kernel)
        top = len(kernel) - 1
        for i in range(s.count):
            row = particular
            for j, k in enumerate(kernel):
                if i >> (top - j) & 1:
                    row ^= k
            assert s[i] == sf.act_h1(q0, fl.unpack_bits(row, r))
    assert refused


@pytest.mark.parametrize(
    "decide, step", [(lf.decide_pin_minus, 2), (lf.decide_pin_plus, 1)]
)
def test_rank_4096_product_keeps_bit_rows(decide, step):
    # The orientable fiber's base values are all 0, and every correction
    # is free: the kernel is the identity, one 4096-bit row per generator.
    s = decide(_fibration(P.orientable_surface(2048, 1))).structures
    assert len(s.kernel) == 4096
    assert sys.getsizeof(s.kernel) + sum(map(sys.getsizeof, s.kernel)) <= 2 << 20
    assert s[0].values == (0,) * 4096
    assert s[-1].values == (step,) * 4096
    assert s[-1] in s


@pytest.mark.parametrize(
    "decide, target", [(lf.decide_pin_minus, 2), (lf.decide_pin_plus, 1)]
)
def test_rank_4096_kernel_is_in_rref(rref_calls, decide, target):
    # Three seeded cycles: one elimination gives the canonical kernel of
    # dimension 4093, checked here in O(dim) big-int operations.
    rng = random.Random(3)
    rows = [[rng.randrange(4) for _ in range(4096)] for _ in range(3)]
    report = decide(_fibration(P.orientable_surface(2048, 1), *rows))
    assert len(rref_calls) == 1
    s = report.structures
    assert report.exists and len(s.kernel) == 4093
    leads = [1 << (row.bit_length() - 1) for row in s.kernel]
    assert all(a > b for a, b in zip(leads, leads[1:]))
    pivots = 0
    for lead in leads:
        pivots |= lead
    assert all(row & pivots == lead for row, lead in zip(s.kernel, leads))
    assert s.first & pivots == 0
    classes = [P.z4_class(row) for row in rows]
    masks = [fl.pack_bits(c.coords) for c in classes]
    assert all((row & m).bit_count() % 2 == 0 for row in s.kernel for m in masks)
    q = s[0]
    if target == 2:
        values = [sf.eval_qminus(q, sf.z2_reduction(c)) for c in classes]
    else:
        values = [sf.eval_qplus(q, c) for c in classes]
    assert values == [target] * 3


def _listed_sets():
    """Structure sets of both kinds: every small seeded system, an empty
    set, dim 0, z2 rank 0, and rank 14 with dims 8, 9 and 12 to 14."""
    sets = [report.structures for report, _, _ in _small_systems(5)]
    sets.append(lf.decide_pin_minus(_fibration(MOEBIUS, (2,))).structures)
    sets.append(lf.decide_pin_minus(_fibration(TORUS, (1, 0), (0, 1))).structures)
    rank14 = P.orientable_surface(7, 1)
    cycles = [[0] * 14 for _ in range(6)]
    for i, row in enumerate(cycles):
        row[2 * i] = 1
    for surface, rows in [(P.orientable_surface(0, 1), []), (rank14, [])] + [
        (rank14, cycles[:n]) for n in (1, 2, 5, 6)
    ]:
        f = _fibration(surface, *rows)
        sets += [lf.decide_pin_minus(f).structures, lf.decide_pin_plus(f).structures]
    return sets


def test_structure_set_lines_match_a_naive_rendering():
    sets = _listed_sets()
    assert {s.count for s in sets} >= {0, 1, 2**8, 2**9, 2**12, 2**13, 2**14}
    assert {s.kind for s in sets} == {"minus", "plus"}
    assert any(s.count == 1 and s.surface.z2_rank == 0 for s in sets)
    for s in sets:
        # A prefix past 16 KiB makes every piece a single line.
        long = ["#" * (1 << 14)] if s.count <= 16 else []
        for p in ["", "  ", "structure = ", *long]:
            pieces = list(s.lines(p))
            naive = (p + ",".join(str(b) for b in v) for v in s.values())
            assert "\n".join(pieces) == "\n".join(naive)
            for piece in pieces:
                assert not piece.endswith("\n")
                assert len(piece) <= 1 << 14 or "\n" not in piece
            if len(p) > 1 << 14:
                assert len(pieces) == s.count


def test_structure_set_rejects_other_kinds_and_surfaces():
    minus = lf.decide_pin_minus(_fibration(TORUS)).structures
    plus = lf.decide_pin_plus(_fibration(TORUS)).structures
    assert minus.count == plus.count == 4
    assert P.EnhancementMinus(TORUS, (0, 2)) in minus
    assert P.EnhancementPlus(TORUS, (0, 1)) in plus
    assert P.EnhancementMinus(TORUS, (0, 2)) not in plus
    assert P.EnhancementPlus(TORUS, (0, 1)) not in minus
    assert P.EnhancementMinus(PUNCTURED_TORUS, (0, 2)) not in minus
    assert P.EnhancementPlus(PUNCTURED_TORUS, (0, 1)) not in plus
    assert (0, 2) not in minus


def test_structure_set_bounds():
    s = lf.decide_pin_minus(_fibration(TORUS, (1, 0))).structures
    assert s.count == 2
    for i in (2, -3, 10):
        with pytest.raises(IndexError):
            s[i]
    empty = lf.decide_pin_minus(_fibration(MOEBIUS, (2,))).structures
    assert len(empty) == 0 and not empty and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]
    huge = lf.decide_pin_plus(_fibration(P.orientable_surface(32, 1))).structures
    assert huge.count == 2**64 and huge
    with pytest.raises(OverflowError, match="use .count"):
        len(huge)
    assert huge[-1].values == (1,) * 64


def test_reports_compare_and_hash_by_description():
    f = _fibration(P.orientable_surface(2, 1), (1, 0, 0, 0))
    for decide in (lf.decide_pin_minus, lf.decide_pin_plus):
        a, b = decide(f), decide(f)
        assert a == b and hash(a) == hash(b)
    assert lf.decide_pin_minus(f) != lf.decide_pin_plus(f)


@pytest.fixture
def enhancements_built(monkeypatch):
    """Counts enhancement constructions; fails past a small bound instead of
    running on through an exponential listing."""
    built = []
    for cls in (sf.EnhancementMinus, sf.EnhancementPlus):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(1)
            assert len(built) <= 16, "structures are being listed"
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize("decide", [lf.decide_pin_minus, lf.decide_pin_plus])
def test_decide_does_not_build_the_structures(enhancements_built, decide):
    report = decide(_fibration(P.orientable_surface(30, 1)))
    assert report.exists
    assert report.structure_count == 2**60
    assert report.h1_annihilator_dim == 60
    assert len(enhancements_built) <= 2
    s = report.structures
    assert s[0] in s and s[2**59] in s


# (decider, its brute-force oracle) for every case of CASES.
_ORACLES = {
    lf.decide_pin_minus: lf.brute_force_pin_minus,
    lf.decide_pin_plus: lf.brute_force_pin_plus,
    tf.solve_pin_minus_3mfd: tf.brute_force_pin_minus_3mfd,
    tf.decide_pin_plus_3mfd: tf.brute_force_pin_plus_3mfd,
}


@pytest.mark.parametrize("decider, data, exists", CASES)
def test_decisions_build_no_enhancement(enhancements_built, decider, data, exists):
    # YES, NO and, on the fiber with 3 crosscaps, a refused plus system.
    assert decider(data).exists is exists
    assert enhancements_built == []
    found = _ORACLES[decider](data)
    assert len(enhancements_built) == len(found)


def test_large_product_decides_in_little_memory():
    # Rank 500: the elimination works on packed rows, so no dense matrix or
    # per-entry copy is made.
    f = _fibration(P.orientable_surface(250, 1))
    tracemalloc.start()
    try:
        report = lf.decide_pin_minus(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exists
    assert report.h1_annihilator_dim == 500
    assert peak < 2 << 20


@pytest.mark.parametrize("classes", [(), (P.z4_class([1]),)], ids=["none", "one"])
def test_plus_system_on_a_surface_without_pin_plus_raises(classes):
    system = ConstraintSystem("plus", P.non_orientable_surface(1), classes, 1)
    assert system.brute_force() == []
    with pytest.raises(InvariantViolation) as err:
        system.decide(lambda rank, y: ("unsolvable", None))
    assert str(err.value) == (
        "enhancement is not well defined modulo the torsion relations"
    )


def test_unknown_kind_is_refused_at_construction():
    with pytest.raises(InputError) as err:
        ConstraintSystem("spin", P.orientable_surface(1, 1), (P.z4_class([1, 0]),), 1)
    assert str(err.value) == "unknown enhancement kind 'spin'"


TORUS_1 = P.orientable_surface(1, 1)


def _unsolvable(rank, y):
    return "unsolvable", None


@pytest.mark.parametrize(
    "kind, target", [("minus", 5), ("minus", -1), ("plus", 2), ("plus", -1)]
)
def test_target_out_of_range_is_refused_at_construction(kind, target):
    with pytest.raises(InputError) as err:
        ConstraintSystem(kind, TORUS_1, (P.z4_class([1, 0]),), target)
    assert str(err.value) == f"target {target} is not a {kind} enhancement value"


@pytest.mark.parametrize("kind, target", [("minus", 2), ("plus", 1)])
def test_entries_that_are_not_classes_are_refused_at_construction(kind, target):
    # A minus system also reads Z2 classes; a plus one refuses them.
    surface = P.non_orientable_surface(2)
    for classes, n in [(((1, 1),), 1), ((P.z4_class([1, 1]), [1, 1]), 2)]:
        with pytest.raises(InputError) as err:
            ConstraintSystem(kind, surface, classes, target)
        assert str(err.value) == f"class {n} must be a Z4 class"


def test_target_that_is_not_an_integer_is_refused():
    with pytest.raises(InputError, match="target 2.0 is not an integer"):
        ConstraintSystem("minus", TORUS_1, (), 2.0)


@pytest.mark.parametrize(
    "surface, rows, target, named",
    [
        (TORUS_1, [[1, 0]], 1, "class 1 (a1)"),
        (TORUS_1, [[1, 0]], 3, "class 1 (a1)"),
        (P.non_orientable_surface(1, 1), [[2], [1]], 2, "class 2 (e1)"),
    ],
)
def test_minus_target_of_the_wrong_parity_raises(surface, rows, target, named):
    classes = tuple(P.z4_class(row) for row in rows)
    system = ConstraintSystem("minus", surface, classes, target)
    assert system.brute_force() == []
    with pytest.raises(InputError) as err:
        system.decide(_unsolvable)
    assert str(err.value) == f"no minus enhancement takes the value {target} on {named}"


_SYSTEM_SURFACES = [
    P.orientable_surface(0, 2),
    P.non_orientable_surface(1, 1),
    P.orientable_surface(1, 0),
    P.non_orientable_surface(2, 0),
    P.non_orientable_surface(3, 0),
    P.orientable_surface(1, 2),
    P.non_orientable_surface(2, 3),
    P.orientable_surface(2, 2),
    P.non_orientable_surface(5, 1),
    P.orientable_surface(3, 0),
    P.non_orientable_surface(6, 0),
]


def test_decide_agrees_with_brute_force_for_every_target():
    # Classes of either parity, every target in range: the decider either
    # names a class no enhancement can meet or lists brute_force's set.
    rng = random.Random(1207)
    for _ in range(120):
        s = rng.choice(_SYSTEM_SURFACES)
        pres = sf.homology_presentation(s)
        classes = tuple(
            P.z4_class([rng.randrange(4) for _ in range(s.z2_rank)])
            for _ in range(rng.randint(0, 4))
        )
        for kind, step in (("minus", 2), ("plus", 1)):
            for target in range(2 * step):
                system = ConstraintSystem(kind, s, classes, target)
                brute = system.brute_force()
                if kind == "plus" and not sf.pin_plus_exists_surface(s):
                    assert brute == []
                    with pytest.raises(InvariantViolation):
                        system.decide(_unsolvable)
                    continue
                odd = [
                    n
                    for n, c in enumerate(classes, start=1)
                    if kind == "minus"
                    and sf.self_intersection_mod2(pres, c.coords) != target % 2
                ]
                if odd:
                    assert brute == []
                    with pytest.raises(InputError, match=f"on class {odd[0]} "):
                        system.decide(_unsolvable)
                    continue
                report = system.decide(_unsolvable)
                assert list(report.structures) == brute


# ---------------------------------------------------------------------------
# the exhaustive scan against a filter over every built enhancement
# ---------------------------------------------------------------------------


def _filtered(system):
    """brute_force's list as a filter over every enhancement, each one built
    and evaluated on every class."""
    if system.kind == "minus":
        evaluate = sf.eval_qminus
        classes = [sf.z2_reduction(c) for c in system.classes]
    else:
        evaluate, classes = sf.eval_qplus, system.classes
    return [
        q
        for q in sf.enumerate_enhancements(system.surface, system.kind)
        if all(evaluate(q, x) == system.target for x in classes)
    ]


def _scanned_systems(seed):
    """Fibrations over SMALL_FIBERS and a closed surface with 5 crosscaps,
    and threefold boundaries of genus 1-4, as (surface, classes)."""
    rng = random.Random(seed)
    for surface in [*SMALL_FIBERS, P.non_orientable_surface(5, 0)]:
        for _ in range(3):
            f = _random_fibration(rng, surface)
            yield surface, f.cycles
    for genus in (1, 2, 3, 4):
        d = random_decomposition(rng, genus)
        yield d.boundary, d.listed_classes()


@pytest.mark.parametrize("seed", [5, 29])
def test_brute_force_equals_the_filter_over_every_enhancement(seed):
    hits = set()
    for surface, classes in _scanned_systems(seed):
        for kind, step in (("minus", 2), ("plus", 1)):
            # Every target, the wrong-parity minus ones (always []) too.
            for target in range(2 * step):
                system = ConstraintSystem(kind, surface, classes, target)
                found = system.brute_force()
                assert found == _filtered(system)
                hits.add(bool(found))
    assert hits == {True, False}


@pytest.mark.parametrize(
    "kind, classes, message",
    [
        ("plus", (P.z4_class([1]),), "class 1 has 1 coordinates, expected 2"),
        ("minus", (P.z4_class([1, 1, 0]),), "class 1 has 3 coordinates, expected 2"),
        ("minus", (P.z2_class([1]),), "class 1 has 1 coordinates, expected 2"),
        ("plus", (P.z2_class([1, 0]),), "class 1 must be a Z4 class"),
        (
            "plus",
            (P.z4_class([2, 0]), P.z4_class([1])),
            "class 2 has 1 coordinates, expected 2",
        ),
        (
            "minus",
            (P.z4_class([1, 0]), P.z4_class([1])),
            "class 2 has 1 coordinates, expected 2",
        ),
        (
            "plus",
            (P.z4_class([1, 0]), P.z2_class([1, 0])),
            "class 2 must be a Z4 class",
        ),
    ],
    ids=[
        "plus-length",
        "minus-length",
        "minus-z2-length",
        "plus-z2",
        "plus-miss-then-length",
        "minus-parity-then-length",
        "plus-then-z2",
    ],
)
def test_malformed_classes_are_refused_at_construction(kind, classes, message):
    # At target 1 no plus enhancement meets (2, 0) and a1 has the wrong
    # parity for minus: a later class is refused even after a class that
    # no enhancement meets.
    with pytest.raises(InputError) as err:
        ConstraintSystem(kind, TORUS_1, classes, 1)
    assert str(err.value) == message


def test_minus_systems_read_z2_classes():
    system = ConstraintSystem("minus", TORUS_1, (P.z2_class([1, 1]),), 2)
    report = system.decide(_unsolvable)
    assert list(report.structures) == system.brute_force() != []
