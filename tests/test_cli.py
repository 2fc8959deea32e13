"""Tests for the document parser, serializer, and command dispatch."""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinlef as P
from pinlef import cli
from pinlef import constraints as cs
from pinlef import finite_linalg as fl
from pinlef import threefolds as tf
from pinlef.constraints import DecisionReport, StructureSet
from pinlef.errors import InputError, ParseError, PinlefError

RP4_TEXT = """\
# comment line
[surface]
kind = non-orientable
crosscaps = 1
boundary = 1

[cycles]
2
"""

THREEFOLD_TEXT = """\
[surface]
kind = non-orientable
crosscaps = 2
boundary = 0

[threefold]
genus = 1
attach = 1,1
belt = 0,0
"""

SPHERE_TEXT = """\
[surface]
kind = orientable
genus = 1
boundary = 1

[cycles]

[embedded-surface]
euler = 0
self_intersection = 0
cup = 0
w1sq_surface = 0
w1sq_normal = 0
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_rp4():
    doc = cli.parse(RP4_TEXT)
    assert doc.surface == P.non_orientable_surface(1, 1)
    assert doc.cycles == (P.z4_class([2]),)
    assert doc.threefold is None
    assert doc.embedded_surfaces == ()


def test_parse_threefold():
    doc = cli.parse(THREEFOLD_TEXT)
    assert doc.threefold is not None
    assert doc.threefold.genus == 1
    assert doc.threefold.attaching_classes == (P.z4_class([1, 1]),)
    assert doc.threefold.belt_classes == (P.z4_class([0, 0]),)


def test_parse_empty_document():
    with pytest.raises(ParseError, match="missing surface block"):
        cli.parse("")


def test_parse_wrong_cycle_arity():
    bad = RP4_TEXT.replace("\n2\n", "\n2,0\n")
    with pytest.raises(ParseError, match="cycle has 2 coordinates, expected 1") as err:
        cli.parse(bad)
    assert err.value.line == 8


def test_parse_out_of_range_residue():
    with pytest.raises(ParseError, match="out of range"):
        cli.parse(RP4_TEXT.replace("\n2\n", "\n5\n"))


def test_parse_unknown_key():
    with pytest.raises(ParseError, match="unknown surface key"):
        cli.parse("[surface]\nkind = orientable\ngenus = 1\ncolour = red\n")


def test_parse_unknown_section():
    with pytest.raises(ParseError, match="unknown section"):
        cli.parse("[nope]\n")


def test_parse_duplicate_section():
    with pytest.raises(ParseError, match="duplicate section"):
        cli.parse("[surface]\nkind = orientable\ngenus = 1\n[surface]\n")


def test_parse_mismatched_count_key():
    with pytest.raises(ParseError, match="takes 'genus'"):
        cli.parse("[surface]\nkind = orientable\ncrosscaps = 1\n")


def test_parse_threefold_surface_mismatch():
    bad = THREEFOLD_TEXT.replace("crosscaps = 2", "crosscaps = 3")
    with pytest.raises(ParseError, match="crosscaps = 2"):
        cli.parse(bad)


def test_parse_threefold_row_count():
    bad = THREEFOLD_TEXT.replace("belt = 0,0\n", "")
    with pytest.raises(ParseError, match="needs 1 belt rows"):
        cli.parse(bad)


def test_parse_missing_embedded_key():
    bad = SPHERE_TEXT.replace("w1sq_normal = 0\n", "")
    with pytest.raises(ParseError, match="missing 'w1sq_normal'"):
        cli.parse(bad)


def test_parse_content_before_section():
    with pytest.raises(ParseError, match="before any section"):
        cli.parse("kind = orientable\n")


def test_parse_surface_block_without_kind():
    with pytest.raises(ParseError) as err:
        cli.parse("[surface]\ngenus = 1\n")
    assert str(err.value) == "line 1: surface block needs a 'kind'"


@pytest.mark.parametrize("text", [RP4_TEXT, THREEFOLD_TEXT, SPHERE_TEXT])
def test_parse_serialize_roundtrip(text):
    doc = cli.parse(text)
    assert cli.parse(cli.serialize(doc)) == doc


def _residue_rows(rank: int):
    return st.lists(st.integers(0, 3), min_size=rank, max_size=rank)


def _two_sided(row: list[int]):
    """The class of ``row`` with its last residue's parity set so that the
    mod-2 self-intersection on a closed crosscap surface, the number of odd
    residues, is even."""
    odd = sum(a % 2 for a in row) % 2
    return P.z4_class(row[:-1] + [row[-1] ^ odd])


@st.composite
def _documents(draw):
    """Documents with every part a description file can hold: either surface
    kind, cycles absent, empty or up to four, an optional two-sided threefold
    and up to two embedded-surface blocks."""
    genus = draw(st.one_of(st.none(), st.integers(1, 2)))
    threefold = None
    if genus is None:
        boundary = draw(st.integers(0, 3))
        if draw(st.booleans()):
            surface = P.orientable_surface(draw(st.integers(0, 3)), boundary)
        else:
            surface = P.non_orientable_surface(draw(st.integers(1, 4)), boundary)
    else:
        surface = P.non_orientable_surface(2 * genus, 0)
        row = _residue_rows(2 * genus).map(_two_sided)
        classes = st.lists(row, min_size=genus, max_size=genus).map(tuple)
        threefold = P.HandlebodyDecomposition3(genus, draw(classes), draw(classes))
    cycles = st.lists(_residue_rows(surface.z2_rank).map(P.z4_class), max_size=4)
    bits = st.integers(0, 1)
    block = st.builds(P.EmbeddedSurfaceData, bits, bits, bits, bits, bits)
    return cli.InputDocument(
        surface=surface,
        cycles=draw(st.one_of(st.none(), cycles.map(tuple))),
        threefold=threefold,
        embedded_surfaces=tuple(draw(st.lists(block, max_size=2))),
    )


@given(_documents())
@example(cli.InputDocument(P.orientable_surface(0, 1), (P.z4_class([]),)))
@settings(max_examples=200, deadline=None)
def test_parse_serialize_roundtrip_generated(doc):
    if doc.cycles and not doc.surface.z2_rank:
        # A blank line would stand for the cycle, and parse skips blank lines.
        with pytest.raises(InputError, match="has no residue row"):
            cli.serialize(doc)
    else:
        assert cli.parse(cli.serialize(doc)) == doc


def test_roundtrip_distinguishes_missing_and_empty_cycles():
    with_section = cli.parse("[surface]\nkind = orientable\ngenus = 1\n[cycles]\n")
    without = cli.parse("[surface]\nkind = orientable\ngenus = 1\n")
    assert with_section.cycles == ()
    assert without.cycles is None
    assert cli.parse(cli.serialize(with_section)) == with_section
    assert cli.parse(cli.serialize(without)) == without


@given(
    _documents().filter(lambda doc: not doc.cycles or doc.surface.z2_rank),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_parse_reads_sections_in_any_order(doc, data):
    # serialize writes the sections in one order; parse takes any other, with
    # any line ends.  The [embedded-surface] blocks keep their relative order,
    # which numbers them.
    sections = cli.serialize(doc).rstrip("\n").split("\n\n")
    shuffled = data.draw(st.permutations(sections))
    blocks = iter([s for s in sections if s.startswith("[embedded-surface]")])
    shuffled = [
        next(blocks) if s.startswith("[embedded-surface]") else s for s in shuffled
    ]
    lines = "\n".join(shuffled).split("\n")
    n = len(lines)
    end = st.sampled_from(["\n", "\r\n", "\r"])
    ends = data.draw(st.lists(end, min_size=n, max_size=n))
    assert cli.parse("".join(map(str.__add__, lines, ends))) == doc


@pytest.mark.parametrize(
    "text, line, reason",
    [
        (
            "[surface]\nkind = non-orientable\ncrosscaps = 2\n"
            "[cycles]\n1,1,0\n[threefold]\ngenus = 0\n",
            5,
            "cycle has 3 coordinates, expected 2",
        ),
        (
            "[surface]\nkind = non-orientable\ncrosscaps = 2\n"
            "[embedded-surface]\neuler = 1\n[threefold]\ngenus = 1\nattach = 1,1\n",
            6,
            "threefold block needs 1 belt rows, got 0",
        ),
        ("[cycles]\n1,7\n[surface]\ngenus = 1\n", 3, "surface block needs a 'kind'"),
        ("[surface]\ngenus = 1\n[cycles]\n9\n[bogus]\n", 5, "unknown section [bogus]"),
        ("# a\n\n[cycles]\n1,0\n\n\n", 6, "missing surface block"),
        ("", 1, "missing surface block"),
    ],
    ids=[
        "cycles-before-threefold",
        "threefold-before-embedded",
        "surface-before-cycles",
        "line-fault-first",
        "missing-surface-at-last-line",
        "missing-surface-in-empty-document",
    ],
)
def test_parse_reports_faults_in_section_order(text, line, reason):
    # A fault on a line is raised as the line is read.  Faults that need a
    # whole section are raised after the read: surface, cycles, threefold,
    # then each embedded-surface block, wherever the sections stand.
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert (err.value.line, err.value.reason) == (line, reason)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_decide_rp4_text_report():
    doc = cli.parse(RP4_TEXT)
    text, status = cli.run("decide", doc, kind="both")
    assert "Pin+: YES (2 structures" in text
    assert "Pin-: NO" in text
    assert "q-(2e1) = 0 != 2" in text
    assert status == 1  # not every requested kind exists
    _, status_plus = cli.run("decide", doc, kind="plus")
    assert status_plus == 0
    _, status_minus = cli.run("decide", doc, kind="minus")
    assert status_minus == 1


def test_decide_machine_report():
    doc = cli.parse(RP4_TEXT)
    text, _ = cli.run("decide", doc, kind="both", fmt="machine")
    assert "[verdict.plus]" in text
    assert "exists = yes" in text
    assert "structure_count = 2" in text
    assert "[verdict.minus]" in text
    assert "certificate = q-(c1) = q-(2e1) = 0 != 2" in text


def test_reports_are_byte_deterministic():
    doc = cli.parse(RP4_TEXT)
    for command in ("decide", "enumerate", "oracle", "surface-info"):
        for fmt in ("text", "machine"):
            a, code_a = cli.run(command, doc, kind="both", fmt=fmt)
            b, code_b = cli.run(command, doc, kind="both", fmt=fmt)
            assert a == b
            assert code_a == code_b


def test_enumerate_lists_structures_in_order():
    doc = cli.parse(RP4_TEXT)
    text, status = cli.run("enumerate", doc, kind="plus")
    lines = text.splitlines()
    assert lines[0].startswith("Pin+ structures (2)")
    assert lines[1:] == ["  0", "  1"]
    assert status == 0


def test_enumerate_empty_on_pin_plus_less_fiber():
    doc = cli.parse(
        "[surface]\nkind = non-orientable\ncrosscaps = 3\nboundary = 0\n[cycles]\n"
    )
    text, status = cli.run("enumerate", doc, kind="plus")
    assert "Pin+ structures (0)" in text
    assert status == 1


def test_oracle_agrees_on_examples():
    for name in ("rp4.pinlef", "s2xtrp2.pinlef", "s2xrp2.pinlef"):
        doc = cli.parse(cli.bundled_example(name).read_text())
        text, status = cli.run("oracle", doc, kind="both")
        assert "DISAGREE" not in text
        assert status == 0


# Rank 4 with one cycle: both kinds have 8 structures, 3 kernel rows.
_GENUS_2_TEXT = """\
[surface]
kind = orientable
genus = 2
boundary = 1

[cycles]
1,0,0,0
"""


def _drop_row(first, kernel):
    return first, kernel[1:]


def _flip_bit(first, kernel):
    return first ^ 1, kernel


def _swap_rows(first, kernel):
    # The same count and the same set, listed in another order.
    return first, (kernel[1], kernel[0], *kernel[2:])


@pytest.mark.parametrize("mutate", [_drop_row, _flip_bit, _swap_rows])
@pytest.mark.parametrize("kind", ["minus", "plus"])
def test_oracle_disagrees_with_a_wrong_decider(monkeypatch, kind, mutate):
    doc = cli.parse(_GENUS_2_TEXT)
    text, status = cli.run("oracle", doc, kind=kind)
    assert text.endswith("overall: AGREE\n") and status == 0
    decide = cli._decide

    def wrong(x, k):
        report = decide(x, k)
        s = report.structures
        assert len(s.kernel) == 3
        found = StructureSet(s.kind, s.surface, *mutate(s.first, s.kernel))
        return DecisionReport(k, True, found.count, found, report.h1_annihilator_dim)

    monkeypatch.setattr(cli, "_decide", wrong)
    text, status = cli.run("oracle", doc, kind=kind)
    sign = "+" if kind == "plus" else "-"
    assert f"oracle Pin{sign}: DISAGREE (decider " in text
    assert text.endswith("overall: DISAGREE\n")
    assert status == 1


def test_oracle_rank_guard():
    doc = cli.parse(
        "[surface]\nkind = non-orientable\ncrosscaps = 21\nboundary = 0\n"
    )
    with pytest.raises(InputError, match="oracle refused"):
        cli.run("oracle", doc)


def test_oracle_scans_in_little_memory():
    # Rank 14: each kind scans 2**14 candidates, but builds only the
    # structures that meet every cycle.
    rng = random.Random(14)
    cycles = tuple(_two_sided([rng.randrange(4) for _ in range(14)]) for _ in range(8))
    doc = cli.InputDocument(P.non_orientable_surface(14, 0), cycles)
    tracemalloc.start()
    try:
        text, status = cli.run("oracle", doc, kind="both")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("overall: AGREE\n")
    assert status == 0
    assert peak < 1 << 20


def test_surface_info_klein():
    doc = cli.parse("[surface]\nkind = non-orientable\ncrosscaps = 2\nboundary = 0\n")
    text, status = cli.run("surface-info", doc)
    assert "z2 rank: 2" in text
    assert "e1: 1,0" in text
    assert "2,2" in text  # torsion relation row
    assert "Pin+ on surface: yes" in text
    assert status == 0


@pytest.mark.parametrize("command", ["decide", "enumerate", "oracle", "surface-info"])
@pytest.mark.parametrize(
    "kind, fmt, message",
    [
        ("both", "json", "unknown format 'json'"),
        ("neither", "text", "unknown kind 'neither'"),
        ("plus", "Machine", "unknown format 'Machine'"),
    ],
)
def test_run_rejects_unknown_kind_and_format(command, kind, fmt, message):
    doc = cli.parse(RP4_TEXT)
    with pytest.raises(InputError, match=message):
        cli.run(command, doc, kind=kind, fmt=fmt)


def test_threefold_report_prints_rows_in_order():
    doc = cli.parse(THREEFOLD_TEXT)
    text, status = cli.run("decide", doc, kind="both")
    a1 = text.index("a1: 1,1")
    b1 = text.index("b1: 0,0")
    assert a1 < b1
    assert status == 0


def test_sphere_mode_reports_combined_verdicts():
    doc = cli.parse(SPHERE_TEXT)
    text, status = cli.run("decide", doc, kind="both")
    assert "Pin+ over S2: YES" in text
    assert "Pin- over S2: YES" in text
    assert status == 0


def test_sphere_mode_requires_single_dual_surface():
    extra = SPHERE_TEXT + (
        "\n[embedded-surface]\neuler = 0\nself_intersection = 0\ncup = 0\n"
        "w1sq_surface = 0\nw1sq_normal = 0\n"
    )
    doc = cli.parse(extra)
    with pytest.raises(InputError, match="exactly one"):
        cli.run("decide", doc, kind="both")


_DISK_TEXTS = [RP4_TEXT, SPHERE_TEXT.split("[embedded-surface]")[0]]


@pytest.mark.parametrize("disk_text", _DISK_TEXTS)
def test_sphere_mode_matches_decide_pin_over_s2(disk_text):
    keys = ("euler", "self_intersection", "cup", "w1sq_surface", "w1sq_normal")
    for values in product((0, 1), repeat=len(keys)):
        block = "".join(f"{k} = {v}\n" for k, v in zip(keys, values))
        doc = cli.parse(disk_text + "\n[embedded-surface]\n" + block)
        f = P.LefschetzFibration(doc.surface, doc.cycles)
        verdicts = P.decide_pin_over_s2(f, doc.embedded_surfaces[0])
        text, _ = cli.run("decide", doc, kind="both")
        assert f"Pin+ over S2: {'YES' if verdicts.pin_plus else 'NO'}" in text
        assert f"Pin- over S2: {'YES' if verdicts.pin_minus else 'NO'}" in text


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = fl.echelon_bits

    def counted(m):
        calls.append(1)
        return original(m)

    monkeypatch.setattr(fl, "echelon_bits", counted)
    return calls


@pytest.mark.parametrize("kind, eliminations", [("both", 1), ("minus", 1)])
def test_sphere_mode_decides_each_kind_once(rref_calls, kind, eliminations):
    calls = rref_calls
    counts = []
    for text in (SPHERE_TEXT, _DISK_TEXTS[1]):
        calls.clear()
        cli.run("decide", cli.parse(text), kind=kind)
        counts.append(len(calls))
    assert counts == [eliminations, eliminations]


_SECOND_DUAL_SURFACE = (
    "\n[embedded-surface]\neuler = 0\nself_intersection = 0\ncup = 0\n"
    "w1sq_surface = 0\nw1sq_normal = 0\n"
)


def test_sphere_refusal_comes_before_any_elimination(rref_calls, capsys, tmp_path):
    doc = tmp_path / "two-duals.pinlef"
    doc.write_text(SPHERE_TEXT + _SECOND_DUAL_SURFACE)
    assert cli.main(["decide", str(doc)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: a fibration-over-the-sphere document takes exactly one "
        "embedded-surface block (the dual surface)\n",
    )
    assert rref_calls == []
    # An invalid fibration is refused first.
    doc.write_text(
        "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n"
        "[cycles]\n1\n" + SPHERE_TEXT.split("[cycles]\n")[1] + _SECOND_DUAL_SURFACE
    )
    assert cli.main(["decide", str(doc)]) == 2
    assert "odd self-intersection" in capsys.readouterr().err
    assert rref_calls == []


# A closed fiber with three crosscaps carries no Pin+ structure, so its
# plus decision is refused; the refusal reads the rank off the same pass.
_ODD_CLOSED_TEXT = """\
[surface]
kind = non-orientable
crosscaps = 3
boundary = 0

[cycles]
1,1,0
2,1,1
"""


@pytest.mark.parametrize("kind", ["both", "minus", "plus"])
@pytest.mark.parametrize("command", ["decide", "enumerate", "oracle"])
@pytest.mark.parametrize(
    "text",
    [RP4_TEXT, THREEFOLD_TEXT, _ODD_CLOSED_TEXT, _GENUS_2_TEXT],
    ids=["rp4", "threefold", "odd-closed", "genus-2"],
)
def test_each_command_eliminates_the_classes_once(rref_calls, text, command, kind):
    # Both kinds' systems share the subject's classes, and so one pass over
    # [C' | I]; a NO reads its witness off that pass without another.  A
    # second command on the document reads nothing the first one left.
    doc = cli.parse(text)
    for n in (1, 2):
        cli.run(command, doc, kind)
        assert len(rref_calls) == n


@pytest.mark.parametrize("command", ["decide", "enumerate", "oracle"])
@pytest.mark.parametrize("text", [RP4_TEXT, SPHERE_TEXT], ids=["rp4", "sphere"])
def test_commands_validate_the_fibration_once(monkeypatch, command, text):
    doc = cli.parse(text)
    calls = []
    original = P.LefschetzFibration.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(P.LefschetzFibration, "__post_init__", counted)
    for kind in ("both", "minus"):
        calls.clear()
        cli.run(command, doc, kind)
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["decide", "enumerate", "oracle"])
def test_threefold_commands_check_no_class_after_parse(monkeypatch, command):
    # The parse checks the attaching and the belt classes once; each
    # command's threefold reads that check.
    calls = []
    original = cs.check_classes

    def counted(*args, **kwargs):
        calls.append(kwargs.get("name"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cs, "check_classes", counted)
    monkeypatch.setattr(tf, "check_classes", counted)
    doc = cli.parse(THREEFOLD_TEXT)
    assert calls == ["attaching class", "belt class"]
    for kind in ("both", "minus", "plus"):
        cli.run(command, doc, kind)
    assert len(calls) == 2


def test_charclass_mode():
    doc = cli.parse(
        "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n"
        "[embedded-surface]\neuler = 1\nself_intersection = 1\ncup = 0\n"
        "w1sq_surface = 1\nw1sq_normal = 0\n"
    )
    text, status = cli.run("decide", doc, kind="both")
    assert "w2 = 0" in text
    assert "w1^2 = 1" in text
    assert "Pin+: unobstructed" in text
    assert "Pin-: obstructed" in text
    assert status == 1
    _, plus_only = cli.run("decide", doc, kind="plus")
    assert plus_only == 0


# ---------------------------------------------------------------------------
# the executable entry point
# ---------------------------------------------------------------------------


def test_main_on_bundled_examples(capsys, tmp_path):
    rp4 = cli.bundled_example("rp4.pinlef")
    assert cli.main(["decide", str(rp4), "--kind", "plus"]) == 0
    out = capsys.readouterr().out
    assert "Pin+: YES" in out


def test_main_bad_file(capsys):
    assert cli.main(["decide", "/nonexistent/file.pinlef"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_main_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.pinlef"
    bad.write_text("[surface]\nkind = orientable\n")
    assert cli.main(["decide", str(bad)]) == 2
    assert "error: line" in capsys.readouterr().err


def test_main_invariant_error(capsys, tmp_path):
    bad = tmp_path / "onesided.pinlef"
    bad.write_text(
        "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n"
        "[cycles]\n1\n"
    )
    assert cli.main(["decide", str(bad)]) == 2
    assert "self-intersection" in capsys.readouterr().err


def test_bundled_examples_parse():
    for name in ("rp4.pinlef", "s2xtrp2.pinlef", "s2xrp2.pinlef"):
        doc = cli.parse(cli.bundled_example(name).read_text())
        assert doc.cycles


# ---------------------------------------------------------------------------
# rejected inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line",
    [
        ("[surface]\nkind = orientable\ngenus = ١\n", 3),
        ("[surface]\nkind = orientable\ngenus = 1_0\n", 3),
        (RP4_TEXT.replace("\n2\n", "\n+2\n"), 8),
        (RP4_TEXT.replace("\n2\n", "\n٢\n"), 8),
    ],
)
def test_parse_accepts_only_ascii_integers(text, line):
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [
        ("[surface]\nkind = non-orientable\ncrosscaps = 4097\n", 1),
        ("[surface]\nkind = orientable\ngenus = 1000000000000\n", 1),
        ("[surface]\nkind = orientable\ngenus = 1\nboundary = 1000000000000\n", 1),
        (THREEFOLD_TEXT.replace("genus = 1", "genus = 1000000000000"), 7),
    ],
)
def test_parse_caps_the_z2_rank(text, line):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="exceeds the limit of 4096") as err:
            cli.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line == line
    assert peak < 1 << 20


def test_main_rejects_invalid_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.pinlef"
    bad.write_bytes(b"\xff\xfe[surface]\n")
    assert cli.main(["decide", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 1: input is not valid UTF-8\n"
    bad.write_bytes(b"[surface]\r\nkind = orientable\r\ngenus = 1\xe9\n")
    assert cli.main(["decide", str(bad)]) == 2
    assert capsys.readouterr().err == "error: line 3: input is not valid UTF-8\n"


@pytest.mark.parametrize("args", [[], ["--kind", "minus", "--format", "machine"]])
def test_enumerate_refuses_too_many_structures(capsys, tmp_path, args):
    # The product fibration over genus 11 has 2**22 structures of each kind.
    doc = tmp_path / "product.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 11\nboundary = 1\n")
    assert cli.main(["enumerate", str(doc), *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: enumerate refused: 4194304 Pin")
    assert err.endswith(f"structures exceed {1 << 20}\n")
    assert cli.main(["decide", str(doc), *args]) == 0
    assert "4194304" in capsys.readouterr().out


def test_enumerate_refusal_quotes_a_bounded_count(capsys, tmp_path):
    # The product fibration over genus 2048 has 2**4096 structures of each
    # kind, a count of 1234 digits; the refusal quotes its first 12.
    doc = tmp_path / "product.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 2048\nboundary = 1\n")
    assert cli.main(["enumerate", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: enumerate refused: 104438888141... (1234 digits) "
        f"Pin+ structures exceed {1 << 20}\n"
    )
    assert len(err) < 100


# ---------------------------------------------------------------------------
# the command line: argparse for help and errors, read directly otherwise
# ---------------------------------------------------------------------------


def _outcome(capsys, call, argv) -> tuple[str, str, object]:
    """The stdout, stderr and exit status of ``call(argv)``; a SystemExit's
    code stands for the status."""
    try:
        status = call(argv)
    except SystemExit as e:
        status = e.code
    out, err = capsys.readouterr()
    return out, err, status


def _argparse(argv):
    return cli._build_argparser().parse_args(argv)


_RP4 = str(cli.bundled_example("rp4.pinlef"))


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["decide", _RP4, "--help"],
        ["solve", _RP4],
        ["decide"],
        [],
        ["decide", _RP4, "--kind", "bad"],
        ["decide", _RP4, "--kind"],
        ["decide", _RP4, "extra"],
        ["decide", _RP4, "--verbose"],
    ],
    ids=[
        "help",
        "h",
        "help-after-file",
        "unknown-command",
        "missing-file",
        "empty",
        "bad-kind",
        "kind-without-value",
        "third-word",
        "unknown-option",
    ],
)
def test_help_and_argument_errors_are_argparse_s(capsys, argv):
    # Compared with argparse live, since its wording differs between
    # Python versions.
    assert cli._read_argv(argv) is None
    out, err, status = _outcome(capsys, _argparse, argv)
    assert status in (0, 2)
    assert ("usage: pinlef" in out) if status == 0 else err.startswith("usage: pinlef")
    assert _outcome(capsys, cli.main, argv) == (out, err, status)


@pytest.mark.parametrize(
    "argv, same",
    [
        (["--kind=plus", "decide", _RP4], ["decide", _RP4, "--kind", "plus"]),
        (["decide", _RP4, "--fo", "machine"], ["decide", _RP4, "--format", "machine"]),
        (
            ["decide", "--kind", "minus", _RP4, "--kind", "plus"],
            ["decide", _RP4, "--kind", "plus"],
        ),
        (["enumerate", "--", _RP4], ["enumerate", _RP4]),
        (["decide", "-"], ["decide", "./-"]),
    ],
    ids=["equals-sign", "abbreviation", "repeated-kind", "double-dash", "lone-dash"],
)
def test_argparse_reads_the_other_accepted_command_lines(
    capsys, tmp_path, monkeypatch, argv, same
):
    # A lone "-" is a file of that name, here a copy of rp4.pinlef.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text(RP4_TEXT)
    assert cli._read_argv(argv) is None
    args = _argparse(argv)
    assert capsys.readouterr() == ("", "")
    assert (args.command, args.file, args.kind, args.fmt) == cli._read_argv(same)
    expected = _outcome(capsys, cli.main, same)
    assert expected[0] and expected[2] in (0, 1)
    assert _outcome(capsys, cli.main, argv) == expected


def test_golden_command_lines_are_read_without_argparse():
    for command, kind, fmt in product(cli._COMMANDS, cli._KINDS, cli._FORMATS):
        argv = [command, "doc.pinlef", "--kind", kind, "--format", fmt]
        assert cli._read_argv(argv) == (command, Path("doc.pinlef"), kind, fmt)
    assert cli._read_argv(["decide", "doc.pinlef"]) == (
        "decide",
        Path("doc.pinlef"),
        "both",
        "text",
    )


_ARGV_WORDS = [
    *cli._COMMANDS,
    *cli._KINDS,
    *cli._FORMATS,
    "--kind",
    "--format",
    "--kind=plus",
    "--format=text",
    "--fo",
    "--k",
    "-h",
    "--help",
    "-",
    "--",
    "-1",
    "",
    "bad",
    "a.pinlef",
    "dir/b c.pinlef",
]


def _argparse_or_none(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return _argparse(argv)
        except SystemExit:
            return None


@given(st.lists(st.sampled_from(_ARGV_WORDS), max_size=7))
@settings(max_examples=1000, deadline=None)
def test_the_command_line_reader_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:
        args = _argparse_or_none(argv)
        assert args is not None, argv
        assert read == (args.command, args.file, args.kind, args.fmt)


@st.composite
def _well_formed_argv(draw):
    """A command and a file, and at most one of each option with one of its
    values, in any order; the file does not start with "-"."""
    units = [
        [flag, draw(st.sampled_from(list(choices)))]
        for flag, (_, choices, _, _) in cli._OPTIONS.items()
        if draw(st.booleans())
    ]
    command = [draw(st.sampled_from(list(cli._COMMANDS)))]
    units = draw(st.permutations([*units, command]))
    file = draw(st.text(max_size=12).filter(lambda t: not t.startswith("-")))
    units.insert(draw(st.integers(units.index(command) + 1, len(units))), [file])
    return [word for unit in units for word in unit]


@given(_well_formed_argv())
@settings(max_examples=300, deadline=None)
def test_well_formed_command_lines_are_read_without_argparse(argv):
    args = _argparse_or_none(argv)
    assert args is not None, argv
    assert cli._read_argv(argv) == (args.command, args.file, args.kind, args.fmt)


def test_main_streams_enumerate_report(tmp_path):
    # 2**14 structures of each kind make about 1 MiB of report; written in
    # pieces of at most 16 KiB of lines, it never needs that much memory.
    doc = tmp_path / "product.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 7\nboundary = 1\n")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = cli.main(["enumerate", str(doc)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_main_streams_surface_info_report(tmp_path, fmt):
    # A genus-2048 surface sits at the rank cap: its intersection form is
    # about 32 MiB of report, written a row at a time.
    doc = tmp_path / "genus2048.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 2048\nboundary = 0\n")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = cli.main(["surface-info", str(doc), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 1 << 20


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_main_streams_the_largest_enumerate_listing(tmp_path, fmt):
    # The product over genus 10 has 2**20 Pin- structures, the most that
    # enumerate lists: about 42 MiB of report, written a block at a time.
    doc = tmp_path / "genus10.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 10\nboundary = 1\n")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            status = cli.main(["enumerate", str(doc), "--kind", "minus", "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 1 << 20


def _fresh_env() -> dict[str, str]:
    """The environment for a fresh interpreter that imports this pinlef."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_console_main_stops_quietly_when_the_reader_does(tmp_path):
    # As in `pinlef enumerate product.pinlef | head -1`: about 4 MiB of report
    # meets a reader that closes the pipe after one line.
    doc = tmp_path / "product.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 8\nboundary = 1\n")
    entry = "from pinlef.cli import console_main; console_main()"
    proc = subprocess.Popen(
        [sys.executable, "-c", entry, "enumerate", str(doc)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
    )
    assert proc.stdout.readline().startswith(b"Pin+ structures (65536)")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


_CONSOLE = (
    "import sys; from pinlef.cli import console_main; "
    "sys.argv[0] = 'pinlef'; console_main()"
)
_BUNDLED = ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef")
posix_only = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full and sh"
)


def _console(
    argv, prefix=(), stdout=subprocess.PIPE, entry=_CONSOLE
) -> tuple[bytes, str, int]:
    """The stdout bytes, stderr and exit status of ``pinlef ARGV`` run
    through the console entry in a fresh process; ``prefix`` goes before
    the interpreter on the command line."""
    proc = subprocess.run(
        [*prefix, sys.executable, "-c", entry, *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
        timeout=120,
    )
    return proc.stdout, proc.stderr.decode(), proc.returncode


def _main_outcome(capsys, argv) -> tuple[bytes, str, object]:
    """What :func:`_console` reports, from ``cli.main`` in this process."""
    out, err, status = _outcome(capsys, cli.main, [str(a) for a in argv])
    return out.encode(), err, status


@pytest.mark.parametrize("name", _BUNDLED)
@pytest.mark.parametrize("command", cli._COMMANDS)
@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_console_entry_reports_as_main_does(capsys, name, command, fmt):
    argv = [command, cli.bundled_example(name), "--format", fmt]
    out, err, status = _console(argv)
    assert (out, err, status) == _main_outcome(capsys, argv)
    assert out.endswith(b"\n") and not err and status in (0, 1)


def test_console_entry_reports_a_malformed_document(capsys, tmp_path):
    bad = tmp_path / "bad.pinlef"
    bad.write_text("[surface]\nkind = orientable\ngenus = 1x\n")
    out, err, status = _console(["decide", bad])
    assert (out, err, status) == _main_outcome(capsys, ["decide", bad])
    message = "error: line 3: genus must be an integer, got '1x'\n"
    assert (out, err, status) == (b"", message, 2)


def test_console_entry_reports_a_missing_file(capsys, tmp_path):
    argv = ["enumerate", tmp_path / "missing.pinlef"]
    out, err, status = _console(argv)
    assert (out, err, status) == _main_outcome(capsys, argv)
    assert out == b"" and err.startswith("error: cannot read ") and status == 2
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["solve", _RP4]], ids=["help", "unknown"])
def test_console_entry_leaves_help_and_usage_errors_to_argparse(
    capsys, monkeypatch, argv
):
    # argparse wraps its text to COLUMNS; both sides read the same value.
    monkeypatch.setenv("COLUMNS", "80")
    out, err, status = _console(argv)
    assert (out, err, status) == _main_outcome(capsys, argv)
    assert status in (0, 2)
    assert (out if status == 0 else err.encode()).startswith(b"usage: pinlef")


def test_console_entry_writes_a_long_listing_whole_to_a_file(tmp_path):
    # 2**14 Pin- structures: a block-buffered file must get every byte
    # before the process ends.
    doc = tmp_path / "product.pinlef"
    doc.write_text("[surface]\nkind = orientable\ngenus = 7\nboundary = 1\n")
    report = tmp_path / "report.txt"
    with open(report, "wb") as sink:
        out, err, status = _console(["enumerate", doc, "--kind", "minus"], stdout=sink)
    text, expected = cli.run("enumerate", cli.parse(doc.read_text()), "minus")
    assert (out, err, status) == (None, "", expected)
    assert text.count("\n") == (1 << 14) + 1
    assert report.read_bytes() == text.encode()


def test_console_entry_ends_without_finalization():
    # atexit handlers run after an exception out of main (argparse's exit),
    # not after a report.
    hook = "import atexit; atexit.register(print, 'atexit ran', file=sys.stderr); "
    entry = _CONSOLE.replace("import sys; ", "import sys; " + hook)
    for argv, ran in ([["decide", _RP4], False], [["solve", _RP4], True]):
        err = _console(argv, entry=entry)[1]
        assert ("atexit ran\n" in err) is ran, err


@posix_only
def test_console_entry_reports_a_full_disk(capsys, monkeypatch):
    argv = ["decide", _RP4]
    with open("/dev/full", "wb") as full:
        outcome = _console(argv, stdout=full)
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        _, err, status = _main_outcome(capsys, argv)
    message = "error: cannot write report: [Errno 28] No space left on device\n"
    assert outcome == (None, err, status) == (None, message, 2)


@posix_only
def test_console_entry_reports_a_closed_stdout(capsys, monkeypatch):
    argv = ["decide", _RP4]
    outcome = _console(
        argv, prefix=["sh", "-c", 'exec "$@" >&-', "sh"], stdout=subprocess.DEVNULL
    )
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert outcome == (None, err, 2)
    assert err == "error: cannot write report: stdout is closed\n"


def test_cli_never_imports_numpy(tmp_path):
    # A fresh process: the test session itself has numpy loaded.
    threefold = tmp_path / "threefold.pinlef"
    threefold.write_text(THREEFOLD_TEXT)
    script = f"""
import sys
from pinlef import cli
files = [str(cli.bundled_example(n))
         for n in ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef")]
files.append({str(threefold)!r})
for f in files:
    for command in ("decide", "enumerate", "oracle", "surface-info"):
        for fmt in ("text", "machine"):
            assert cli.main([command, f, "--format", fmt]) in (0, 1)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _modules_after(script: str, *args: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``script``, which
    ends by writing ``sys.modules`` to stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=_fresh_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


_RUN_COMMANDS = """
import sys
from pinlef import cli
for f in sys.argv[2:]:
    for command in sys.argv[1].split(","):
        assert cli.main([command, f]) in (0, 1)
sys.stderr.write(" ".join(sys.modules))
"""


def test_commands_load_only_what_they_need(tmp_path):
    # Fresh processes; `site` may preload some modules, so what counts is what
    # a command loads beyond a bare interpreter.
    bare = _modules_after("import sys; sys.stderr.write(' '.join(sys.modules))")
    heavy = {
        "dataclasses",
        "inspect",
        "ast",
        "pinlef.charclasses",
        "argparse",
        "gettext",
    }
    threefold = tmp_path / "threefold.pinlef"
    threefold.write_text(THREEFOLD_TEXT)
    rp4 = Path(cli.__file__).parent / "data" / "rp4.pinlef"
    commands = "decide,enumerate,oracle,surface-info"
    loaded = _modules_after(_RUN_COMMANDS, commands, str(rp4), str(threefold))
    assert "pinlef.threefolds" in loaded
    assert not (loaded - bare) & heavy, sorted((loaded - bare) & heavy)
    # Embedded-surface data still decides, and loads its module.
    sphere = tmp_path / "sphere.pinlef"
    sphere.write_text(SPHERE_TEXT)
    loaded = _modules_after(_RUN_COMMANDS, "decide", str(sphere))
    assert "pinlef.charclasses" in loaded


_EXAMPLE_LINES = [
    cli.bundled_example(name).read_text().splitlines()
    for name in ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef")
] + [THREEFOLD_TEXT.splitlines(), SPHERE_TEXT.splitlines()]


@st.composite
def _mutated_example(draw):
    """A bundled example with one line replaced, deleted or duplicated."""
    lines = list(draw(st.sampled_from(_EXAMPLE_LINES)))
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if action == "replace":
        lines[i] = draw(st.text(max_size=30))
    elif action == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines).encode("utf-8")


@given(
    st.one_of(
        st.binary(max_size=200),
        st.text(max_size=200).map(lambda t: t.encode("utf-8")),
        _mutated_example(),
    ),
    st.sampled_from(["decide", "enumerate", "oracle", "surface-info"]),
    st.sampled_from(["text", "machine"]),
)
@settings(max_examples=150, deadline=None)
def test_main_survives_arbitrary_input(data, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.pinlef"
        doc.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            status = cli.main([command, str(doc), "--format", fmt])
    assert status in (0, 1, 2)
    assert (status == 2) == err.getvalue().startswith("error: ")


# More digits than int() converts by default (4300).
_MANY_NINES = "9" * 5000
# Fewer, but more than a message quotes whole.
_LONG_NINES = "9" * 4000


def _cycle_row(row: str) -> str:
    """SPHERE_TEXT with ``row`` as the first cycle, on line 7."""
    return SPHERE_TEXT.replace("[cycles]\n", f"[cycles]\n{row}\n")


def _belt_row(row: str) -> str:
    """THREEFOLD_TEXT with ``row`` as the belt row, on line 9."""
    return THREEFOLD_TEXT.replace("belt = 0,0", f"belt = {row}")


@pytest.mark.parametrize(
    "text, line, reason",
    [
        (
            RP4_TEXT.replace("\n2\n", "\nrow = 2\n"),
            8,
            "the cycles section holds residue rows only",
        ),
        (
            "[surface]\nkind = flat\ngenus = 1\n",
            2,
            "kind must be 'orientable' or 'non-orientable'",
        ),
        (SPHERE_TEXT.replace("cup = 0", "cup = 2"), 11, "cup must be 0 or 1, got 2"),
        (THREEFOLD_TEXT.replace("genus = 1\n", ""), 6, "threefold block needs 'genus'"),
        (
            THREEFOLD_TEXT.replace("genus = 1", "genus = 0"),
            7,
            "threefold genus must be at least 1",
        ),
        (
            THREEFOLD_TEXT.replace("attach = 1,1", "attach = 1,0"),
            6,
            "attaching class 1 has odd self-intersection; "
            "curves bounding disks are two-sided",
        ),
        (_cycle_row("1,,2"), 7, "malformed residue row '1,,2'"),
        (_cycle_row("+1,0"), 7, "malformed residue row '+1,0'"),
        (_belt_row("1_0,0"), 9, "malformed residue row '1_0,0'"),
        (_cycle_row("\u0663,0"), 7, "malformed residue row '\u0663,0'"),
        (_belt_row("1,0,"), 9, "malformed residue row '1,0,'"),
        (_cycle_row("1 2"), 7, "malformed residue row '1 2'"),
        (_cycle_row("-1,0"), 7, "residue -1 out of range 0..3"),
        (
            SPHERE_TEXT.replace("genus = 1", f"genus = {_MANY_NINES}"),
            3,
            "genus is out of range: 5000 digits, from '999999999999'",
        ),
        (
            RP4_TEXT.replace("boundary = 1", f"boundary = -{_MANY_NINES}"),
            5,
            "boundary is out of range: 5000 digits, from '-99999999999'",
        ),
        (
            THREEFOLD_TEXT.replace("genus = 1", f"genus = {_MANY_NINES}"),
            7,
            "genus is out of range: 5000 digits, from '999999999999'",
        ),
        (
            SPHERE_TEXT.replace("cup = 0", f"cup = {_MANY_NINES}"),
            11,
            "cup is out of range: 5000 digits, from '999999999999'",
        ),
        (
            _cycle_row(f"1, {_MANY_NINES}"),
            7,
            "residue is out of range: 5000 digits, from '999999999999'",
        ),
        (
            _belt_row(f"-{_MANY_NINES},0,0"),
            9,
            "residue is out of range: 5000 digits, from '-99999999999'",
        ),
        (
            _cycle_row(f"1,{_LONG_NINES}"),
            7,
            "residue 999999999999... (4000 digits) out of range 0..3",
        ),
        (
            _belt_row(f"-{_LONG_NINES},0"),
            9,
            "residue -99999999999... (4000 digits) out of range 0..3",
        ),
        (
            SPHERE_TEXT.replace("cup = 0", f"cup = {_LONG_NINES}"),
            11,
            "cup must be 0 or 1, got 999999999999... (4000 digits)",
        ),
        (
            SPHERE_TEXT.replace("genus = 1", f"genus = {'9' * 4300}"),
            1,
            "z2 rank 199999999999... (4301 digits) exceeds the limit of 4096",
        ),
        (
            _cycle_row(f"1,,{_MANY_NINES}"),
            7,
            "malformed residue row '1,,999999999'... (5003 characters)",
        ),
        (
            SPHERE_TEXT.replace("genus = 1", f"genus = 1x{_MANY_NINES}"),
            3,
            "genus must be an integer, got '1x9999999999'... (5002 characters)",
        ),
        (
            RP4_TEXT.replace("boundary = 1", f"boundary {_MANY_NINES}"),
            5,
            "expected 'key = value', got 'boundary 999'... (5009 characters)",
        ),
        (
            RP4_TEXT.replace("[surface]", "[Surface]"),
            2,
            "content before any section header",
        ),
        (
            RP4_TEXT.replace("boundary = 1", "b.ary = 1"),
            5,
            "expected 'key = value', got 'b.ary = 1'",
        ),
        (RP4_TEXT.replace("\n2\n", "\n2 = 1\n"), 8, "malformed residue row '2 = 1'"),
    ],
    ids=[
        "cycles-key",
        "kind",
        "embedded-bit",
        "no-genus",
        "genus-0",
        "one-sided",
        "empty-entry",
        "plus-sign",
        "underscore",
        "arabic-indic-digit",
        "trailing-comma",
        "no-comma",
        "negative",
        "genus-digits",
        "boundary-digits",
        "threefold-genus-digits",
        "embedded-bit-digits",
        "cycle-entry-digits",
        "belt-entry-digits",
        "long-residue",
        "long-negative-residue",
        "long-embedded-bit",
        "long-rank",
        "long-malformed-row",
        "long-non-integer",
        "long-line-without-equals",
        "upper-case-section",
        "key-with-dot",
        "cycles-row-with-equals",
    ],
)
def test_parse_error_lines_and_reasons(text, line, reason):
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert (err.value.line, err.value.reason) == (line, reason)


def _read_row(row: str, rank: int, belt: bool):
    """What parse makes of ``row`` as the first cycle row, or as the first
    belt row of a threefold of genus ``rank``: each class's coordinates,
    ring and planes, or the ParseError's line and reason."""
    if belt:
        zeros = ",".join("0" * 2 * rank)
        text = (
            f"[surface]\nkind = non-orientable\ncrosscaps = {2 * rank}\n"
            f"[threefold]\ngenus = {rank}\n"
            + f"attach = {zeros}\n" * rank
            + f"belt = {row}\n"
            + f"belt = {zeros}\n" * (rank - 1)
        )
    else:
        text = (
            f"[surface]\nkind = non-orientable\ncrosscaps = {rank}\n"
            f"boundary = 1\n[cycles]\n{row}\n"
        )
    try:
        doc = cli.parse(text)
    except ParseError as err:
        return err.line, err.reason
    classes = doc.threefold.belt_classes if belt else doc.cycles
    return [(type(c.coords), c.coords, c.ring, c._bits, c._high) for c in classes]


@given(
    st.lists(
        st.one_of(st.integers(-1, 5).map(str), st.just("0" * 40)),
        min_size=1,
        max_size=7,
    ),
    st.integers(1, 4),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_bulk_rows_read_as_spaced_rows_do(entries, rank, belt):
    # The canonical row is read in bulk when its entries are 0-3; spaces
    # around its commas send the same row down the entry-by-entry path.
    canonical = _read_row(",".join(entries), rank, belt)
    assert canonical == _read_row(" , ".join(entries), rank, belt)


def test_run_rejects_unknown_command():
    with pytest.raises(InputError) as err:
        cli.run("solve", cli.parse(RP4_TEXT))
    assert str(err.value) == "unknown command 'solve'"


@pytest.mark.parametrize(
    "text",
    [
        # U+0085 and U+2028 sit inside a comment; they end no line.
        "[surface]\n# note\x85kind = orientable\nkind = orientable\ngenus = 1\n",
        "[surface]\n# note\u2028kind = flat\nkind = orientable\ngenus = 1\n",
        "[surface]\r\nkind = orientable\rgenus = 1\r\n",
        "\ufeff[surface]\nkind = orientable\ngenus = 1\n",
    ],
    ids=["nel", "line-separator", "crlf-and-cr", "bom"],
)
def test_parse_ends_lines_at_newlines_only(text):
    assert cli.parse(text).surface == P.orientable_surface(1)


@pytest.mark.parametrize(
    "text, line",
    [
        ("[surface]\x0c\nkind = orientable\ngenus = x\n", 3),
        ("[surface]\x1c\x1d\x1e\x0b\nkind = orientable\ngenus = x\n", 3),
        ("[surface]\r\nkind = orientable\rgenus = x\n", 3),
        ("\ufeff\ufeff[surface]\n", 1),
    ],
    ids=["form-feed", "separators", "crlf-and-cr", "second-bom"],
)
def test_parse_counts_lines_by_newlines(text, line):
    with pytest.raises(ParseError) as err:
        cli.parse(text)
    assert err.value.line == line


def _parse_outcome(text: str):
    try:
        return cli.parse(text)
    except PinlefError as e:
        return type(e), str(e), getattr(e, "line", None)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_parse_reads_every_line_end_alike(data):
    # A document with "\r\n" or "\r" line ends parses as the one with "\n"
    # there: the same document, or the same error on the same line.
    lines = list(data.draw(st.sampled_from(_EXAMPLE_LINES)))
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(
        st.one_of(
            st.text(max_size=30),
            st.lists(st.sampled_from("0123 9-x"), max_size=6).map(",".join),
        )
    )
    n = len(lines)
    end = st.sampled_from(["\n", "\r\n", "\r"])
    ends = data.draw(st.lists(end, min_size=n, max_size=n))
    text = "".join(map(str.__add__, lines, ends))
    if data.draw(st.booleans()):
        text = text[: -len(ends[-1])]
    newlines = "\n".join(re.split(r"\r\n?|\n", text))
    assert _parse_outcome(text) == _parse_outcome(newlines)


def test_main_reads_a_byte_order_mark_and_counts_lines_by_newlines(capsys, tmp_path):
    doc = tmp_path / "doc.pinlef"
    doc.write_bytes("\ufeff".encode() + RP4_TEXT.encode())
    assert cli.main(["decide", str(doc)]) == 1
    assert capsys.readouterr().out == cli.run("decide", cli.parse(RP4_TEXT))[0]
    doc.write_bytes(b"[surface]\x0c\nkind = orientable\ngenus = 1\xe9\n")
    assert cli.main(["decide", str(doc)]) == 2
    assert capsys.readouterr().err == "error: line 3: input is not valid UTF-8\n"


_THREEFOLD_EXTRAS = {
    "cycles": "\n[cycles]\n3,3\n1,0\n",
    "embedded-surface": SPHERE_TEXT[SPHERE_TEXT.index("\n[embedded-surface]") :],
}


@pytest.mark.parametrize("command", ["decide", "enumerate", "oracle"])
@pytest.mark.parametrize("section", sorted(_THREEFOLD_EXTRAS))
def test_threefold_document_refuses_other_sections(capsys, tmp_path, command, section):
    doc = tmp_path / "threefold.pinlef"
    doc.write_text(THREEFOLD_TEXT + _THREEFOLD_EXTRAS[section])
    assert cli.main([command, str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a threefold document takes no [{section}] section\n"
    assert cli.main(["surface-info", str(doc)]) == 0
