"""Tests for surface models, presentations, and quadratic enhancements."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pinlef as P
from pinlef import finite_linalg as fl
from pinlef import surfaces as sf
from pinlef.errors import InputError, InvariantViolation

MOEBIUS = P.non_orientable_surface(1, 1)
TORUS = P.orientable_surface(1, 0)
KLEIN = P.non_orientable_surface(2, 0)
RP2 = P.non_orientable_surface(1, 0)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def test_moebius_presentation():
    pres = P.homology_presentation(MOEBIUS)
    assert pres.generators == ("e1",)
    assert pres.z2_rank == 1
    assert pres.z2_intersection.tolist() == [[1]]
    assert pres.z4_relations.shape == (0, 1)


def test_torus_presentation():
    pres = P.homology_presentation(TORUS)
    assert pres.generators == ("a1", "b1")
    assert pres.z2_intersection.tolist() == [[0, 1], [1, 0]]
    assert pres.z4_relations.shape == (0, 2)


def test_klein_bottle_presentation():
    # one homology presentation of the closed 2-crosscap surface:
    # orthonormal crosscap generators, torsion row twice their sum
    pres = P.homology_presentation(KLEIN)
    assert pres.generators == ("e1", "e2")
    assert pres.z2_intersection.tolist() == [[1, 0], [0, 1]]
    assert pres.z4_relations.tolist() == [[2, 2]]


def test_bounded_surfaces_have_free_mod4_homology():
    for s in (MOEBIUS, P.non_orientable_surface(2, 1), P.orientable_surface(1, 2)):
        assert P.homology_presentation(s).z4_relations.shape[0] == 0


@pytest.mark.parametrize(
    "surface,rank,labels",
    [
        (P.orientable_surface(0, 1), 0, ()),
        (P.orientable_surface(0, 3), 2, ("d1", "d2")),
        (P.orientable_surface(1, 2), 3, ("a1", "b1", "d1")),
        (P.non_orientable_surface(2, 1), 2, ("e1", "e2")),
        (P.non_orientable_surface(1, 6), 6, ("e1", "d1", "d2", "d3", "d4", "d5")),
    ],
)
def test_rank_and_labels(surface, rank, labels):
    pres = P.homology_presentation(surface)
    assert pres.z2_rank == rank
    assert pres.generators == labels


def test_boundary_parallel_classes_are_null():
    pres = P.homology_presentation(P.orientable_surface(1, 3))
    for j in (2, 3):  # d1, d2
        assert not pres.z2_intersection[j].any()


def test_surface_validation():
    with pytest.raises(InputError):
        P.non_orientable_surface(0, 1)
    with pytest.raises(InputError):
        P.SurfaceModel("weird", 1, 0)
    with pytest.raises(InputError):
        P.orientable_surface(-1, 0)


# ---------------------------------------------------------------------------
# Pin+ existence on the surface itself
# ---------------------------------------------------------------------------


def test_pin_plus_exists_surface():
    assert not P.pin_plus_exists_surface(RP2)
    assert P.pin_plus_exists_surface(MOEBIUS)
    assert P.pin_plus_exists_surface(P.orientable_surface(2, 0))
    assert P.pin_plus_exists_surface(KLEIN)
    assert not P.pin_plus_exists_surface(P.non_orientable_surface(3, 0))
    assert P.pin_plus_exists_surface(P.non_orientable_surface(3, 1))


# ---------------------------------------------------------------------------
# eval_qminus
# ---------------------------------------------------------------------------


def test_qminus_zero_class():
    q = P.base_enhancement_minus(TORUS)
    assert P.eval_qminus(q, P.z2_class([0, 0])) == 0


def test_qminus_disjoint_generators_sum():
    # rank-6 page: one-sided e1 and five null boundary generators; the
    # enhancement taking 2 on the two-sided generators sums to 2+2 = 0 on
    # their disjoint union
    page = P.non_orientable_surface(1, 6)
    q = P.EnhancementMinus(page, (1, 2, 2, 2, 2, 2))
    x = P.z2_class([0, 1, 0, 0, 0, 1])
    assert P.eval_qminus(q, x) == 0


def test_qminus_klein_minus_disk_expansion():
    surface = P.non_orientable_surface(2, 1)
    q = P.EnhancementMinus(surface, (1, 3))
    assert P.eval_qminus(q, P.z2_class([1, 1])) == 0
    # brute-force extension oracle: tabulate q on all classes and check the
    # defining relation on all 16 pairs
    pres = P.homology_presentation(surface)
    table = {
        x: P.eval_qminus(q, P.z2_class(x)) for x in product((0, 1), repeat=2)
    }
    for x, y in product(table, repeat=2):
        total = (x[0] ^ y[0], x[1] ^ y[1])
        pairing = sf.pairing_mod2(pres, x, y)
        assert table[total] == (table[x] + table[y] + 2 * pairing) % 4


def test_qminus_input_errors():
    q = P.base_enhancement_minus(TORUS)
    with pytest.raises(InputError):
        P.eval_qminus(q, P.z4_class([0, 0]))
    with pytest.raises(InputError):
        P.eval_qminus(q, P.z2_class([0, 0, 0]))


def test_enhancement_minus_parity_enforced():
    with pytest.raises(InvariantViolation):
        P.EnhancementMinus(MOEBIUS, (2,))  # e1 is one-sided, needs odd value
    with pytest.raises(InvariantViolation):
        P.EnhancementMinus(TORUS, (1, 0))  # a1 is two-sided, needs even value


# ---------------------------------------------------------------------------
# eval_qplus
# ---------------------------------------------------------------------------


def test_qplus_moebius_double_core():
    q = P.EnhancementPlus(MOEBIUS, (1,))
    assert P.eval_qplus(q, P.z4_class([2])) == 1


def test_qplus_zero_class():
    q = P.base_enhancement_plus(TORUS)
    assert P.eval_qplus(q, P.z4_class([0, 0])) == 0


def test_qplus_rank7_page_combination():
    # 2e1 + e2 + e6 + e7 with e1 one-sided and the others disjoint: the
    # all-ones enhancement evaluates to (2*1 + 1) + 1 + 1 + 1 = 0 mod 2
    page = P.non_orientable_surface(1, 7)
    q = P.EnhancementPlus(page, (1,) * 7)
    x = P.z4_class([2, 1, 0, 0, 0, 1, 1])
    assert P.eval_qplus(q, x) == 0


def test_qplus_ill_formed_on_odd_closed_surface():
    q = P.base_enhancement_plus(RP2)
    with pytest.raises(InvariantViolation):
        P.eval_qplus(q, P.z4_class([1]))


def test_qplus_representative_independence_on_klein():
    pres = P.homology_presentation(KLEIN)
    relation = tuple(int(a) for a in pres.z4_relations[0])
    for values in product((0, 1), repeat=2):
        q = P.EnhancementPlus(KLEIN, values)
        for coords in product(range(4), repeat=2):
            shifted = tuple((a + b) % 4 for a, b in zip(coords, relation))
            assert P.eval_qplus(q, P.z4_class(coords)) == P.eval_qplus(
                q, P.z4_class(shifted)
            )


def test_qplus_input_errors():
    q = P.base_enhancement_plus(TORUS)
    with pytest.raises(InputError):
        P.eval_qplus(q, P.z2_class([0, 0]))
    with pytest.raises(InputError):
        P.eval_qplus(q, P.z4_class([0]))


# ---------------------------------------------------------------------------
# the cohomology action
# ---------------------------------------------------------------------------


def test_act_identity():
    q = P.base_enhancement_minus(KLEIN)
    assert P.act_h1(q, (0, 0)) == q


def test_act_moebius_plus_flip():
    q = P.EnhancementPlus(MOEBIUS, (1,))
    other = P.act_h1(q, (1,))
    assert other.values == (0,)
    assert P.act_h1(other, (1,)) == q


@pytest.mark.parametrize(
    "build",
    [
        lambda: P.z2_class([1.7, 0.2]),
        lambda: P.z4_class(["3", 2.9]),
        lambda: P.z4_class([1, None]),
        lambda: P.act_h1(P.base_enhancement_minus(KLEIN), [0.9, "1"]),
        lambda: P.act_h1(P.EnhancementPlus(MOEBIUS, (1,)), [1.0]),
    ],
)
def test_class_entries_must_be_integers(build):
    with pytest.raises(InputError, match="is not an integer"):
        build()


def test_class_entries_take_ints_bools_and_numpy_integers():
    assert P.z2_class([True, np.uint8(3), 5]).coords == (1, 1, 1)
    assert P.z4_class(np.array([7, -1, 2], dtype=np.int64)).coords == (3, 3, 2)
    q = P.base_enhancement_minus(KLEIN)
    assert P.act_h1(q, np.array([1, 0], dtype=np.uint8)).values == (3, 1)


@given(
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
def test_act_is_group_action(seed, gamma, delta):
    surface = P.non_orientable_surface(3, 1)
    base = P.base_enhancement_minus(surface)
    q = P.act_h1(base, seed)
    lhs = P.act_h1(P.act_h1(q, gamma), delta)
    rhs = P.act_h1(q, [(g + d) % 2 for g, d in zip(gamma, delta)])
    assert lhs == rhs


@pytest.mark.parametrize("kind", ["minus", "plus"])
@pytest.mark.parametrize(
    "surface", [MOEBIUS, KLEIN, TORUS, P.non_orientable_surface(3, 1)]
)
def test_orbit_is_whole_enhancement_set(surface, kind):
    everything = P.enumerate_enhancements(surface, kind)
    if not everything:
        pytest.skip("no enhancements of this kind")
    r = P.homology_presentation(surface).z2_rank
    orbit = {
        P.act_h1(everything[0], gamma) for gamma in product((0, 1), repeat=r)
    }
    assert len(orbit) == 2**r
    assert orbit == set(everything)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_moebius_minus():
    values = sorted(q.values for q in P.enumerate_enhancements(MOEBIUS, "minus"))
    assert values == [(1,), (3,)]


def test_enumerate_moebius_plus():
    values = sorted(q.values for q in P.enumerate_enhancements(MOEBIUS, "plus"))
    assert values == [(0,), (1,)]


def test_enumerate_plus_obstructed():
    assert P.enumerate_enhancements(RP2, "plus") == []
    assert sf.pin_plus_obstruction(RP2) == "closed non-orientable, odd crosscaps"


@pytest.mark.parametrize(
    "surface", [MOEBIUS, TORUS, KLEIN, P.non_orientable_surface(2, 1)]
)
def test_enumerate_counts(surface):
    r = P.homology_presentation(surface).z2_rank
    for kind in ("minus", "plus"):
        out = P.enumerate_enhancements(surface, kind)
        assert len(out) == 2**r
        assert len(set(out)) == 2**r


def test_parity_law_small_surfaces():
    for surface in (MOEBIUS, TORUS, KLEIN, P.non_orientable_surface(2, 1)):
        pres = P.homology_presentation(surface)
        for q in P.enumerate_enhancements(surface, "minus"):
            for coords in product((0, 1), repeat=pres.z2_rank):
                value = P.eval_qminus(q, P.z2_class(coords))
                assert value % 2 == sf.self_intersection_mod2(pres, coords)


def test_spin_bijection_on_orientable_surfaces():
    # minus enhancements on an orientable surface are exactly the doubles
    # of mod-2 quadratic forms
    enhancements = P.enumerate_enhancements(TORUS, "minus")
    assert all(all(v % 2 == 0 for v in q.values) for q in enhancements)
    halves = {tuple(v // 2 for v in q.values) for q in enhancements}
    assert halves == set(product((0, 1), repeat=2))


# ---------------------------------------------------------------------------
# Z4 class comparison modulo relations
# ---------------------------------------------------------------------------


def test_z4_classes_equal_on_klein():
    assert P.z4_classes_equal(KLEIN, P.z4_class([2, 2]), P.z4_class([0, 0]))
    assert P.z4_classes_equal(KLEIN, P.z4_class([1, 1]), P.z4_class([3, 3]))
    assert not P.z4_classes_equal(KLEIN, P.z4_class([0, 2]), P.z4_class([0, 0]))


def test_z4_classes_equal_free_case():
    assert not P.z4_classes_equal(MOEBIUS, P.z4_class([2]), P.z4_class([0]))
    assert P.z4_classes_equal(MOEBIUS, P.z4_class([3]), P.z4_class([3]))


def test_surface_rank_cap():
    assert P.non_orientable_surface(4096, 1).z2_rank == 4096
    for kind, count, boundary in (
        ("non-orientable", 4097, 0),
        ("orientable", 2048, 2),
        ("orientable", 10**12, 0),
        ("orientable", 1, 10**12),
    ):
        with pytest.raises(InputError, match="exceeds the limit of 4096"):
            P.SurfaceModel(kind, count, boundary)


# ---------------------------------------------------------------------------
# the pairing tables against the dense form
# ---------------------------------------------------------------------------

TABLE_SURFACES = [
    P.orientable_surface(3, 0),
    P.orientable_surface(2, 3),
    P.orientable_surface(0, 4),
    P.non_orientable_surface(5, 0),
    P.non_orientable_surface(4, 0),
    P.non_orientable_surface(3, 2),
]


@pytest.mark.parametrize("surface", TABLE_SURFACES, ids=lambda s: s.describe())
def test_pairing_tables_match_the_dense_form(surface):
    rng = random.Random(surface.describe())
    pres = P.homology_presentation(surface)
    form = pres.z2_intersection.astype(np.int64)
    r = pres.z2_rank
    assert pres.diagonal == tuple(np.diagonal(form).tolist())
    for i, j in enumerate(pres.partner):
        off = [k for k in range(r) if k != i and form[i, k]]
        assert off == ([j] if j >= 0 else [])
    q_minus = P.EnhancementMinus(
        surface, tuple(d + 2 * rng.randrange(2) for d in pres.diagonal)
    )
    q_plus = P.EnhancementPlus(surface, tuple(rng.randrange(2) for _ in range(r)))
    for _ in range(40):
        u = [rng.randrange(4) for _ in range(r)]
        v = [rng.randrange(4) for _ in range(r)]
        assert sf.pairing_mod2(pres, u, v) == int(np.array(u) @ form @ v) % 2
        assert sf.self_intersection_mod2(pres, u) == int(np.array(u) @ form @ u) % 2
        # Reference evaluations, summed over the dense form.
        bits = [a % 2 for a in u]
        support = [i for i in range(r) if bits[i]]
        pairs = [(i, j) for i in support for j in support if i < j]
        minus = sum(q_minus.values[i] for i in support)
        minus += 2 * sum(int(form[i, j]) for i, j in pairs)
        assert P.eval_qminus(q_minus, P.z2_class(bits)) == minus % 4
        if not surface.closed or surface.kind == sf.ORIENTABLE:
            plus = sum(
                a * q + a * (a - 1) // 2 * int(form[i, i])
                for i, (a, q) in enumerate(zip(u, q_plus.values))
            )
            plus += sum(
                u[i] * u[j] * int(form[i, j]) for i in range(r) for j in range(i + 1, r)
            )
            assert P.eval_qplus(q_plus, P.z4_class(u)) == plus % 2


@pytest.mark.parametrize("surface", TABLE_SURFACES, ids=lambda s: s.describe())
def test_pairwise_parity_matches_every_pair(surface):
    rng = random.Random("pairs:" + surface.describe())
    pres = P.homology_presentation(surface)
    r = pres.z2_rank
    for k in range(8):
        vectors = [[rng.randrange(4) for _ in range(r)] for _ in range(k)]
        pairs = sum(
            sf.pairing_mod2(pres, vectors[i], vectors[j])
            for i in range(k)
            for j in range(i + 1, k)
        )
        assert sf.pairwise_parity_mod2(pres, vectors) == pairs % 2


def test_self_intersection_at_the_rank_cap_is_linear():
    pres = P.homology_presentation(P.orientable_surface(2048, 0))
    coords = (1, 3) * 2048
    tracemalloc.start()
    try:
        value = sf.self_intersection_mod2(pres, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0
    assert peak < 1 << 20


def test_presentation_cache_is_bounded():
    maxsize = P.homology_presentation.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


# ---------------------------------------------------------------------------
# the packed evaluators against the definitions
# ---------------------------------------------------------------------------


@st.composite
def _surface_and_rows(draw):
    """A surface of either kind, boundary 0-3 and z2 rank at most 12, with
    two to six coordinate rows of residues 0..3."""
    boundary = draw(st.integers(0, 3))
    room = 12 - max(boundary - 1, 0)
    if draw(st.booleans()):
        surface = P.orientable_surface(draw(st.integers(0, room // 2)), boundary)
    else:
        surface = P.non_orientable_surface(draw(st.integers(1, room)), boundary)
    r = surface.z2_rank
    row = st.lists(st.integers(0, 3), min_size=r, max_size=r)
    return surface, draw(st.lists(row, min_size=2, max_size=6))


def _vec(a) -> np.ndarray:
    return np.array(a, dtype=np.int64).reshape(-1)


@given(_surface_and_rows())
@example((KLEIN, [[1, 3], [2, 2], [3, 0]]))
@example((P.non_orientable_surface(4, 0), [[2, 1, 3, 0], [1, 1, 2, 3]]))
@example((P.non_orientable_surface(3, 0), [[2, 2, 2], [1, 0, 3]]))
@example((P.orientable_surface(2, 2), [[1, 3, 2, 1, 3], [3, 1, 1, 0, 2]]))
def test_packed_evaluators_match_the_definitions(case):
    surface, rows = case
    pres = P.homology_presentation(surface)
    form = pres.z2_intersection.astype(np.int64)
    upper = np.triu(form, 1)
    u, v = _vec(rows[0]), _vec(rows[1])
    assert sf.pairing_mod2(pres, rows[0], rows[1]) == int(u @ form @ v) % 2
    assert sf.pairing_mod2(pres, u, v) == int(u @ form @ v) % 2  # int64 rows
    assert sf.self_intersection_mod2(pres, rows[0]) == int(u @ form @ u) % 2

    # q-: the values on the support, plus 2 for each pair meeting once.
    shifts = _vec(rows[1]) % 2
    q_minus = P.EnhancementMinus(
        surface, tuple(int(d + 2 * t) for d, t in zip(pres.diagonal, shifts))
    )
    bits = u % 2
    minus = bits @ _vec(q_minus.values) + 2 * (bits @ upper @ bits)
    assert P.eval_qminus(q_minus, P.z2_class(bits)) == int(minus) % 4

    # q+: sum a_i q(g_i) + C(a_i, 2) g_i.g_i + sum_{i<j} a_i a_j g_i.g_j.
    q_plus = P.EnhancementPlus(surface, tuple(int(a) // 2 for a in rows[1]))
    x = P.z4_class(rows[0])
    if sf.pin_plus_obstruction(surface) is None:
        plus = u @ _vec(q_plus.values) + (u * (u - 1) // 2) @ np.diagonal(form)
        plus += u @ upper @ u
        assert P.eval_qplus(q_plus, x) == int(plus) % 2
    else:
        with pytest.raises(InvariantViolation, match="not well defined"):
            P.eval_qplus(q_plus, x)

    k = len(rows)
    pairs = sum(
        int(_vec(rows[i]) @ form @ _vec(rows[j]))
        for i in range(k)
        for j in range(i + 1, k)
    )
    assert sf.pairwise_parity_mod2(pres, rows) == pairs % 2

    howell = fl.howell_z4(pres.z4_relations)
    twice = [(a + 2) % 4 for a in rows[0]]
    for other in (rows[1], rows[0], twice):
        diff = [(a - b) % 4 for a, b in zip(rows[0], other)]
        y = P.z4_class(other)
        assert P.z4_classes_equal(surface, x, y) == fl.in_row_module_z4(howell, diff)


def test_library_path_never_imports_numpy():
    # A fresh process: the test session itself has numpy loaded.
    script = """
import sys
import pinlef as P
from pinlef import cli
klein = P.non_orientable_surface(2, 0)
assert P.z4_classes_equal(klein, P.z4_class([1, 1]), P.z4_class([3, 3]))
assert not P.z4_classes_equal(klein, P.z4_class([0, 2]), P.z4_class([0, 0]))
q = P.EnhancementPlus(P.non_orientable_surface(1, 1), (1,))
assert P.eval_qplus(q, P.z4_class([2])) == 1
for name in ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef"):
    doc = cli.parse(cli.bundled_example(name).read_text())
    f = P.LefschetzFibration(doc.surface, doc.cycles)
    P.decide_pin_minus(f)
    P.decide_pin_plus(f)
d = P.HandlebodyDecomposition3(
    2,
    (P.z4_class([1, 2, 2, 1]), P.z4_class([1, 0, 3, 2])),
    (P.z4_class([1, 1, 0, 2]), P.z4_class([1, 1, 3, 1])),
)
P.decide_pin_plus_3mfd(d)
P.solve_pin_minus_3mfd(d)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""
    src = str(Path(P.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: P.orientable_surface(1.5), "surface count 1.5 is not an integer"),
        (lambda: P.orientable_surface("2"), "surface count '2' is not an integer"),
        (
            lambda: P.non_orientable_surface(2, 0.0),
            "boundary count 0.0 is not an integer",
        ),
    ],
    ids=["float", "str", "boundary-float"],
)
def test_surface_counts_must_be_integers(build, message):
    with pytest.raises(InputError) as err:
        build()
    assert str(err.value) == message


def test_surface_counts_take_ints_bools_and_numpy_integers():
    s = P.SurfaceModel("orientable", True, np.int64(2))
    assert s == P.orientable_surface(1, 2)
    assert type(s.genus_or_crosscaps) is int and type(s.boundary_components) is int
    assert sf.homology_presentation(s).generators == ("a1", "b1", "d1")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: P.HomologyClass("Z3", (1,)), "unknown coefficient ring 'Z3'"),
        (lambda: P.HomologyClass("Z2", (2,)), "coordinate 2 out of range for Z2 class"),
        (
            lambda: P.z4_classes_equal(KLEIN, P.z2_class([1, 0]), P.z4_class([1, 0])),
            "z4_classes_equal compares Z4 classes",
        ),
        (
            lambda: P.z4_classes_equal(KLEIN, P.z4_class([1]), P.z4_class([1])),
            "class length does not match the surface's generators",
        ),
        (lambda: P.EnhancementMinus(KLEIN, (1,)), "expected 2 generator values, got 1"),
        (lambda: P.EnhancementMinus(KLEIN, (1, 5)), "value 5 is not a residue mod 4"),
        (
            lambda: P.EnhancementPlus(KLEIN, (0, 0, 0)),
            "expected 2 generator values, got 3",
        ),
        (lambda: P.EnhancementPlus(KLEIN, (0, 2)), "value 2 is not a residue mod 2"),
        (
            lambda: P.act_h1(P.base_enhancement_plus(KLEIN), [1]),
            "cohomology class length does not match the generators",
        ),
        (
            lambda: P.enumerate_enhancements(KLEIN, "spin"),
            "unknown enhancement kind 'spin'",
        ),
        (lambda: P.EnhancementMinus(KLEIN, (5, 0)), "value 5 is not a residue mod 4"),
    ],
    ids=[
        "ring",
        "coordinate",
        "equal-z2",
        "equal-length",
        "minus-length",
        "minus-residue",
        "plus-length",
        "plus-residue",
        "act-length",
        "enumerate-kind",
        "minus-residue-before-parity",
    ],
)
def test_input_errors_name_the_fault(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def test_enhancement_values_are_checked_one_generator_at_a_time():
    # Each generator's range, then its parity, before the next generator's.
    for values, wrong in [((2, 5), "q(e1) = 2"), ((1, 2), "q(e2) = 2")]:
        with pytest.raises(InvariantViolation) as err:
            P.EnhancementMinus(KLEIN, values)
        assert str(err.value) == (
            f"{wrong} has the wrong parity; "
            "generator values must match self-intersections mod 2"
        )
    # A plus value only has to be a residue mod 2.
    assert P.EnhancementPlus(KLEIN, (1, 1)).values == (1, 1)


# Each record reads its entries with operator.index and stores plain ints.
_ENTRY_RECORDS = {
    "class": (lambda e: P.HomologyClass("Z4", (e, 0)), "coords", "coordinate"),
    "minus": (lambda e: P.EnhancementMinus(KLEIN, (e, 1)), "values", "value"),
    "plus": (lambda e: P.EnhancementPlus(KLEIN, (e, 0)), "values", "value"),
}


@pytest.mark.parametrize("record", _ENTRY_RECORDS)
@pytest.mark.parametrize(
    "entry", [np.int64(1), np.uint8(1), True], ids=["int64", "uint8", "bool"]
)
def test_record_entries_are_stored_as_ints(record, entry):
    build, field, _ = _ENTRY_RECORDS[record]
    made, plain = build(entry), build(1)
    assert type(getattr(made, field)[0]) is int
    assert made == plain and hash(made) == hash(plain)
    assert repr(made) == repr(plain)


@pytest.mark.parametrize("record", _ENTRY_RECORDS)
@pytest.mark.parametrize(
    "entry, shown",
    [(1.0, "1.0"), ("1", "'1'"), (None, "None")],
    ids=["float", "str", "none"],
)
def test_record_entries_must_be_integers(record, entry, shown):
    build, _, what = _ENTRY_RECORDS[record]
    with pytest.raises(InputError) as err:
        build(entry)
    assert str(err.value) == f"{what} {shown} is not an integer"


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: P.HomologyClass("Z2", (np.int64(2),)),
            "coordinate 2 out of range for Z2 class",
        ),
        (
            lambda: P.EnhancementMinus(KLEIN, (np.int64(5), 1)),
            "value 5 is not a residue mod 4",
        ),
        (
            lambda: P.EnhancementPlus(KLEIN, (np.uint8(2), 0)),
            "value 2 is not a residue mod 2",
        ),
    ],
    ids=["class", "minus", "plus"],
)
def test_numpy_entries_out_of_range_keep_the_message(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
