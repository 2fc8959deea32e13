"""Tests for the embedded-surface characteristic-class evaluators."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

import pytest

import pinlef as P
from pinlef import cli
from pinlef.charclasses import over_s2
from pinlef.errors import InputError
from helpers import monodromy_closes_mod2

RP2_IN_RP4 = P.EmbeddedSurfaceData(
    euler_char_mod2=1,
    self_intersection_mod2=1,
    cup_term=0,
    w1sq_sigma=1,
    w1sq_normal=0,
)


def test_w2_projective_plane_data():
    assert P.eval_w2(RP2_IN_RP4) == 0


def test_w2_zero_and_odd_cases():
    zero = P.EmbeddedSurfaceData(0, 0, 0, 0, 0)
    assert P.eval_w2(zero) == 0
    assert P.eval_w2(P.EmbeddedSurfaceData(1, 1, 1, 0, 0)) == 1


def test_w1sq_cases():
    assert P.eval_w1sq(RP2_IN_RP4) == 1
    assert P.eval_w1sq(P.EmbeddedSurfaceData(0, 0, 0, 0, 0)) == 0
    assert P.eval_w1sq(P.EmbeddedSurfaceData(0, 0, 0, 1, 1)) == 0


def test_evaluators_are_linear_in_each_field():
    for field in ("euler_char_mod2", "self_intersection_mod2", "cup_term"):
        flipped = replace(RP2_IN_RP4, **{field: 1 - getattr(RP2_IN_RP4, field)})
        assert P.eval_w2(flipped) != P.eval_w2(RP2_IN_RP4)
    for field in ("w1sq_sigma", "w1sq_normal"):
        flipped = replace(RP2_IN_RP4, **{field: 1 - getattr(RP2_IN_RP4, field)})
        assert P.eval_w1sq(flipped) != P.eval_w1sq(RP2_IN_RP4)


def test_summary_projective_space():
    summary = P.pin_obstruction_summary([RP2_IN_RP4])
    assert not summary.pin_plus_obstructed
    assert summary.pin_minus_obstructed
    assert not summary.empty_generating_set


def test_summary_empty_list_has_caveat():
    summary = P.pin_obstruction_summary([])
    assert not summary.pin_plus_obstructed
    assert not summary.pin_minus_obstructed
    assert summary.empty_generating_set


def test_summary_any_bad_surface_obstructs():
    good = P.EmbeddedSurfaceData(0, 0, 0, 0, 0)
    bad = P.EmbeddedSurfaceData(1, 0, 0, 0, 0)
    summary = P.pin_obstruction_summary([good, bad])
    assert summary.pin_plus_obstructed


def test_field_validation():
    with pytest.raises(InputError):
        P.EmbeddedSurfaceData(2, 0, 0, 0, 0)


def test_consistency_with_fibration_verdicts():
    # the obstruction summary for real projective 4-space agrees with the
    # deciders run on its Moebius-band fibration
    summary = P.pin_obstruction_summary([RP2_IN_RP4])
    f = P.LefschetzFibration(
        P.non_orientable_surface(1, 1), (P.z4_class([2]),)
    )
    assert P.decide_pin_plus(f).exists == (not summary.pin_plus_obstructed)
    assert P.decide_pin_minus(f).exists == (not summary.pin_minus_obstructed)


def test_sphere_mode_agrees_with_charclass_mode():
    # Over a disk part with both structures, a verdict over the sphere is
    # the dual surface's charclass verdict: for Pin+ always, and for Pin-
    # exactly when w1^2(sigma) = chi(sigma) mod 2, as on every closed
    # surface.  Over a disk part without the structure it is NO.
    f = P.LefschetzFibration(P.orientable_surface(1, 1))
    plus, minus = P.decide_pin_plus(f), P.decide_pin_minus(f)
    assert plus.exists and minus.exists
    rp4 = P.LefschetzFibration(P.non_orientable_surface(1, 1), (P.z4_class([2]),))
    no = P.decide_pin_minus(rp4)
    assert not no.exists
    for values in product((0, 1), repeat=5):
        d = P.EmbeddedSurfaceData(*values)
        w2, w1sq = P.eval_w2(d), P.eval_w1sq(d)
        assert over_s2(plus, d) == (w2 == 0)
        agree = over_s2(minus, d) == ((w2 + w1sq) % 2 == 0)
        assert agree == (d.w1sq_sigma == d.euler_char_mod2)
        assert not over_s2(no, d)


# ---------------------------------------------------------------------------
# closed fibrations over the sphere with known verdicts
# ---------------------------------------------------------------------------


def _over_s2(surface: str, cycles: list[str], self_intersection: int = 0):
    """Sphere-mode ``decide --kind both`` on a closed fiber (``surface`` its
    kind and count lines), the cycle rows and a dual surface whose only
    nonzero term is its self-intersection: the text, status and document.
    The document has a closed fiber, a monodromy that closes mod 2 and
    data obeying Wu's formula (w1^2 = euler mod 2 on a closed surface)."""
    rows = "".join(row + "\n" for row in cycles)
    doc = cli.parse(
        f"[surface]\n{surface}\nboundary = 0\n\n[cycles]\n{rows}\n"
        "[embedded-surface]\neuler = 0\n"
        f"self_intersection = {self_intersection}\n"
        "cup = 0\nw1sq_surface = 0\nw1sq_normal = 0\n"
    )
    assert doc.surface.closed
    pres = P.homology_presentation(doc.surface)
    assert monodromy_closes_mod2(pres, [c.coords for c in doc.cycles])
    d = doc.embedded_surfaces[0]
    assert d.w1sq_sigma == d.euler_char_mod2
    text, status = cli.run("decide", doc, kind="both")
    return text, status, P.LefschetzFibration(doc.surface, doc.cycles)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_elliptic_surface_is_pin_exactly_when_spin(n):
    # E(n): a torus fiber, the cycles a, b repeated 6n times, and a section
    # sphere of square -n dual to the fiber.  E(n) is spin exactly when n
    # is even (Gompf and Stipsicz, 4-Manifolds and Kirby Calculus, ch. 3);
    # E(2) is the K3 surface.
    cycles = ["1,0", "0,1"] * 6 * n
    text, status, f = _over_s2("kind = orientable\ngenus = 1", cycles, n % 2)
    for decide in (P.decide_pin_minus, P.decide_pin_plus):
        report = decide(f)
        assert report.exists and report.structure_count == 1
    verdict = "NO" if n % 2 else "YES"
    assert f"Pin+ over S2: {verdict}" in text
    assert f"Pin- over S2: {verdict}" in text
    assert status == n % 2


def test_whole_s2_times_rp2_has_pin_minus_only():
    # The product RP2-bundle over S2: fiber RP2, no vanishing cycles, and
    # the section {p} x S2 with trivial normal bundle.  w(S2 x RP2) =
    # (1 + a)^3, so w2 = a^2 != 0 and w2 + w1^2 = 0 (Milnor and Stasheff,
    # Characteristic Classes, section 4): no Pin+, and Pin- with
    # |H^1(S2 x RP2; Z2)| = 2 structures.
    text, status, f = _over_s2("kind = non-orientable\ncrosscaps = 1", [])
    assert "Pin+ over S2: NO" in text
    assert "Pin- over S2: YES" in text
    assert status == 1
    assert P.decide_pin_minus(f).structure_count == 2
    assert not P.decide_pin_plus(f).exists
