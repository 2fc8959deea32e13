"""Batch front end: parse description files, run deciders, emit reports.

Input files are line-oriented with sections ``[surface]``, ``[cycles]``,
``[threefold]`` and ``[embedded-surface]``.  Sections hold ``key = value``
pairs, except ``[cycles]`` whose body is one comma-separated residue row
per vanishing cycle, written over the surface's generator order.  Blank
lines and lines starting with ``#`` are ignored.

Commands:

* ``decide``        verdicts, counts, annihilator dimension, certificates
* ``enumerate``     every structure as a generator-value table (refused
                    above 2**20 structures of a kind)
* ``oracle``        rerun the decision by exhaustive search, print AGREE
* ``surface-info``  presentation, intersection form, relations, Pin+ flag

Both ``--format`` values render the same ordered report sections: ``text``
as prose lines, ``machine`` as ``[name]`` headers over ``key = value``
lines.  ``pinlef`` streams its report line by line, after every input error
has been raised, so a long ``enumerate`` listing is never held whole.

Exit status: 0 when every requested structure exists (or the oracle
agrees), 1 otherwise, 2 on input errors.  Reports are byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import surfaces as sf
from . import lefschetz as lf
from . import threefolds as tf
from .charclasses import (
    EmbeddedSurfaceData,
    eval_w1sq,
    eval_w2,
    pin_obstruction_summary,
)
from .errors import InputError, ParseError, PinlefError

# Each section and the keys it takes once.  [cycles] holds residue rows only;
# the threefold's attach and belt keys are repeatable rows, read apart.
_KEYS = {
    "surface": ("kind", "genus", "crosscaps", "boundary"),
    "cycles": (),
    "threefold": ("genus",),
    "embedded-surface": (
        "euler", "self_intersection", "cup", "w1sq_surface", "w1sq_normal"
    ),
}
_SECTION_RE = re.compile(r"^\[([a-z-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")
# int() also takes "+1", "1_0" and non-ASCII digits; documents may not.
_INT_RE = re.compile(r"-?[0-9]+")
_ORACLE_RANK_LIMIT = 20
# enumerate prints one line per structure; beyond this many it refuses.
_ENUMERATE_LIMIT = 1 << 20
# Structure value rows are bytes 0..3; this turns them into ASCII digits.
_DIGITS = bytes.maketrans(bytes(range(4)), b"0123")


@dataclass(frozen=True)
class InputDocument:
    """Validated content of a description file."""

    surface: sf.SurfaceModel
    cycles: tuple[sf.HomologyClass, ...] | None = None
    threefold: tf.HandlebodyDecomposition3 | None = None
    embedded_surfaces: tuple[EmbeddedSurfaceData, ...] = ()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _ascii_int(text: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _parse_int(text: str, line: int, what: str) -> int:
    try:
        return _ascii_int(text)
    except ValueError:
        raise ParseError(line, f"{what} must be an integer, got {text!r}") from None


def _parse_row(text: str, line: int) -> list[int]:
    try:
        return [_ascii_int(part.strip()) for part in text.split(",")]
    except ValueError:
        raise ParseError(line, f"malformed residue row {text!r}") from None


def parse(text: str) -> InputDocument:
    """Parse and validate a description document.

    Raises:
        ParseError: with the offending line number and a reason, on
            unknown sections or keys, wrong arity, out-of-range residues,
            or a missing surface block.
    """
    pairs: dict[str, dict[str, tuple[str, int]]] = {"surface": {}, "threefold": {}}
    cycles_rows: list[tuple[list[int], int]] = []
    seen: dict[str, int] = {}
    three_rows: dict[str, list[tuple[list[int], int]]] = {"attach": [], "belt": []}
    embedded: list[tuple[dict[str, tuple[str, int]], int]] = []
    section: str | None = None
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _KEYS:
                raise ParseError(lineno, f"unknown section [{name}]")
            if name != "embedded-surface" and name in seen:
                raise ParseError(lineno, f"duplicate section [{name}]")
            seen[name] = lineno
            if name == "embedded-surface":
                embedded.append(({}, lineno))
            section = name
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        if section == "cycles":
            if _KEY_RE.match(line) and not re.match(r"^\d", line):
                raise ParseError(lineno, "the cycles section holds residue rows only")
            cycles_rows.append((_parse_row(line, lineno), lineno))
            continue
        m = _KEY_RE.match(line)
        if not m:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, value = m.group(1), m.group(2).strip()
        if section == "threefold" and key in three_rows:
            three_rows[key].append((_parse_row(value, lineno), lineno))
            continue
        if key not in _KEYS[section]:
            raise ParseError(lineno, f"unknown {section} key {key!r}")
        kv = embedded[-1][0] if section == "embedded-surface" else pairs[section]
        if key in kv:
            raise ParseError(lineno, f"duplicate {section} key {key!r}")
        kv[key] = (value, lineno)

    if "surface" not in seen:
        raise ParseError(last_line or 1, "missing surface block")

    surface = _build_surface(pairs["surface"], seen["surface"])
    pres = sf.homology_presentation(surface)

    cycles: tuple[sf.HomologyClass, ...] | None = None
    if "cycles" in seen:
        built = []
        for row, lineno in cycles_rows:
            if len(row) != pres.z2_rank:
                raise ParseError(
                    lineno,
                    f"cycle has {len(row)} coordinates, expected {pres.z2_rank}",
                )
            for a in row:
                if not 0 <= a <= 3:
                    raise ParseError(lineno, f"residue {a} out of range 0..3")
            built.append(sf.HomologyClass("Z4", tuple(row)))
        cycles = tuple(built)

    threefold = None
    if "threefold" in seen:
        threefold = _build_threefold(
            pairs["threefold"], three_rows, surface, seen["threefold"]
        )

    blocks = []
    for idx, (kv, block_line) in enumerate(embedded):
        fields = {}
        for key in _KEYS["embedded-surface"]:
            if key not in kv:
                raise ParseError(
                    block_line, f"embedded-surface block {idx + 1} is missing {key!r}"
                )
            value, lineno = kv[key]
            bit = _parse_int(value, lineno, key)
            if bit not in (0, 1):
                raise ParseError(lineno, f"{key} must be 0 or 1, got {bit}")
            fields[key] = bit
        blocks.append(
            EmbeddedSurfaceData(
                euler_char_mod2=fields["euler"],
                self_intersection_mod2=fields["self_intersection"],
                cup_term=fields["cup"],
                w1sq_sigma=fields["w1sq_surface"],
                w1sq_normal=fields["w1sq_normal"],
            )
        )

    return InputDocument(
        surface=surface,
        cycles=cycles,
        threefold=threefold,
        embedded_surfaces=tuple(blocks),
    )


def _build_surface(kv: dict[str, tuple[str, int]], header_line: int) -> sf.SurfaceModel:
    if "kind" not in kv:
        raise ParseError(header_line, "surface block needs a 'kind'")
    kind, kind_line = kv["kind"]
    if kind not in (sf.ORIENTABLE, sf.NON_ORIENTABLE):
        raise ParseError(
            kind_line, "kind must be 'orientable' or 'non-orientable'"
        )
    count_key = "genus" if kind == sf.ORIENTABLE else "crosscaps"
    wrong_key = "crosscaps" if kind == sf.ORIENTABLE else "genus"
    if wrong_key in kv:
        raise ParseError(
            kv[wrong_key][1], f"a {kind} surface takes {count_key!r}, not {wrong_key!r}"
        )
    if count_key not in kv:
        raise ParseError(header_line, f"surface block needs {count_key!r}")
    count = _parse_int(*kv[count_key], count_key)
    boundary = 0
    if "boundary" in kv:
        boundary = _parse_int(*kv["boundary"], "boundary")
    try:
        return sf.SurfaceModel(kind, count, boundary)
    except InputError as e:
        raise ParseError(header_line, str(e)) from None


def _build_threefold(
    kv: dict[str, tuple[str, int]],
    rows: dict[str, list[tuple[list[int], int]]],
    surface: sf.SurfaceModel,
    header_line: int,
) -> tf.HandlebodyDecomposition3:
    if "genus" not in kv:
        raise ParseError(header_line, "threefold block needs 'genus'")
    genus = _parse_int(*kv["genus"], "genus")
    if genus < 1:
        raise ParseError(kv["genus"][1], "threefold genus must be at least 1")
    try:
        expected = sf.non_orientable_surface(2 * genus, 0)
    except InputError as e:
        raise ParseError(kv["genus"][1], str(e)) from None
    if surface != expected:
        raise ParseError(
            header_line,
            "threefold documents need surface kind = non-orientable, "
            f"crosscaps = {2 * genus}, boundary = 0",
        )
    classes: dict[str, list[sf.HomologyClass]] = {"attach": [], "belt": []}
    for key in ("attach", "belt"):
        if len(rows[key]) != genus:
            raise ParseError(
                header_line,
                f"threefold block needs {genus} {key} rows, got {len(rows[key])}",
            )
        for row, lineno in rows[key]:
            if len(row) != 2 * genus:
                raise ParseError(
                    lineno, f"{key} row has {len(row)} entries, expected {2 * genus}"
                )
            for a in row:
                if not 0 <= a <= 3:
                    raise ParseError(lineno, f"residue {a} out of range 0..3")
            classes[key].append(sf.HomologyClass("Z4", tuple(row)))
    try:
        return tf.HandlebodyDecomposition3(
            genus, tuple(classes["attach"]), tuple(classes["belt"])
        )
    except PinlefError as e:
        raise ParseError(header_line, str(e)) from None


def serialize(doc: InputDocument) -> str:
    """Canonical text for a document; ``parse(serialize(doc)) == doc``.
    Cycles on a surface of z2 rank 0 have no residue row: InputError."""
    out = ["[surface]"]
    s = doc.surface
    out.append(f"kind = {s.kind}")
    word = "genus" if s.kind == sf.ORIENTABLE else "crosscaps"
    out.append(f"{word} = {s.genus_or_crosscaps}")
    out.append(f"boundary = {s.boundary_components}")
    if doc.cycles is not None:
        if doc.cycles and not s.z2_rank:
            raise InputError("a cycle on a surface of z2 rank 0 has no residue row")
        out += ["", "[cycles]"]
        for c in doc.cycles:
            out.append(",".join(str(a) for a in c.coords))
    if doc.threefold is not None:
        d = doc.threefold
        out += ["", "[threefold]", f"genus = {d.genus}"]
        for c in d.attaching_classes:
            out.append("attach = " + ",".join(str(a) for a in c.coords))
        for c in d.belt_classes:
            out.append("belt = " + ",".join(str(a) for a in c.coords))
    for block in doc.embedded_surfaces:
        out += [
            "",
            "[embedded-surface]",
            f"euler = {block.euler_char_mod2}",
            f"self_intersection = {block.self_intersection_mod2}",
            f"cup = {block.cup_term}",
            f"w1sq_surface = {block.w1sq_sigma}",
            f"w1sq_normal = {block.w1sq_normal}",
        ]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _kind_list(kind: str) -> list[str]:
    if kind == "both":
        return ["plus", "minus"]
    if kind in ("plus", "minus"):
        return [kind]
    raise InputError(f"unknown kind {kind!r}")


def _sign(kind: str) -> str:
    return "+" if kind == "plus" else "-"


def _mode(doc: InputDocument) -> str:
    if doc.threefold is not None:
        return "threefold"
    if doc.embedded_surfaces and doc.cycles is not None:
        return "sphere"
    if doc.embedded_surfaces:
        return "charclass"
    return "fibration"


def _fibration(doc: InputDocument) -> lf.LefschetzFibration:
    return lf.LefschetzFibration(doc.surface, doc.cycles or ())


def _decide(doc: InputDocument, kind: str) -> lf.DecisionReport:
    if doc.threefold is not None:
        if kind == "plus":
            return tf.decide_pin_plus_3mfd(doc.threefold)
        return tf.solve_pin_minus_3mfd(doc.threefold)
    f = _fibration(doc)
    return lf.decide_pin_plus(f) if kind == "plus" else lf.decide_pin_minus(f)


def _brute(doc: InputDocument, kind: str) -> list:
    if doc.threefold is not None:
        if kind == "plus":
            return tf.brute_force_pin_plus_3mfd(doc.threefold)
        return tf.brute_force_pin_minus_3mfd(doc.threefold)
    f = _fibration(doc)
    if kind == "plus":
        return lf.brute_force_pin_plus(f)
    return lf.brute_force_pin_minus(f)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


@dataclass(frozen=True)
class _Section:
    """A report section: ``--format machine`` prints ``[name]`` and its
    ``key = value`` pairs, ``--format text`` prints its text lines.  Both
    may be lazy; only the one rendered is consumed."""

    name: str
    pairs: Iterable[tuple[str, object]]
    text: Iterable[str] = ()


def _render(sections: list[_Section], fmt: str) -> Iterator[str]:
    """The report's lines, without line ends."""
    if fmt == "machine":
        return chain.from_iterable(_machine_lines(s, i) for i, s in enumerate(sections))
    return chain.from_iterable(section.text for section in sections)


def _machine_lines(section: _Section, index: int) -> Iterator[str]:
    if index:  # one blank line between sections, like the input
        yield ""
    yield f"[{section.name}]"
    for key, value in section.pairs:
        yield f"{key} = {value}"


def _header(command: str, kind: str, *pairs: tuple[str, object]) -> _Section:
    return _Section("report", [("command", command), ("kind", kind), *pairs])


def _surface_pairs(s: sf.SurfaceModel, *extra: tuple[str, object]) -> list:
    """Shared by decide and surface-info; ``extra`` goes before pin_plus."""
    word = "genus" if s.kind == sf.ORIENTABLE else "crosscaps"
    return [
        ("kind", s.kind),
        (word, s.genus_or_crosscaps),
        ("boundary", s.boundary_components),
        ("z2_rank", s.z2_rank),
        *extra,
        ("pin_plus", _yesno(sf.pin_plus_exists_surface(s))),
    ]


def _verdict_section(report: lf.DecisionReport) -> _Section:
    sign, dim = _sign(report.kind), report.h1_annihilator_dim
    count, cert = report.structure_count, report.certificate
    pairs = [
        ("exists", _yesno(report.exists)),
        ("structure_count", count),
        ("annihilator_dim", dim),
    ]
    if cert:
        pairs.append(("certificate", cert))
    if report.exists:
        line = f"Pin{sign}: YES ({count} structures; annihilator dim {dim})"
    else:
        line = f"Pin{sign}: NO (annihilator dim {dim}; certificate: {cert})"
    return _Section(f"verdict.{report.kind}", pairs, [line])


def _threefold_section(d: tf.HandlebodyDecomposition3) -> _Section:
    labels = [f"{side}{j + 1}" for side in "ab" for j in range(d.genus)]
    rows = [",".join(str(a % 2) for a in c.coords) for c in d.listed_classes()]
    pairs = [("genus", d.genus)] + [(f"row.{a}", row) for a, row in zip(labels, rows)]
    text = [f"threefold: genus {d.genus} (boundary {d.boundary.describe()})"]
    text.append("system rows mod 2 (attaching then belt):")
    text += [f"  {a}: {row}" for a, row in zip(labels, rows)]
    return _Section("threefold", pairs, text)


def _run_decide(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    kinds = _kind_list(kind)
    mode = _mode(doc)
    s = doc.surface
    surface_text = [f"surface: {s.describe()} (z2 rank {s.z2_rank})"]
    sections = [_header("decide", kind, ("mode", mode))]
    sections.append(_Section("surface", _surface_pairs(s), surface_text))
    if mode == "charclass":
        blocks = doc.embedded_surfaces
        summary = pin_obstruction_summary(blocks)
        pairs: list[tuple[str, object]] = [("surfaces", len(blocks))]
        text = [f"embedded surfaces: {len(blocks)}"]
        for n, d in enumerate(blocks, start=1):
            pairs += [(f"w2.{n}", eval_w2(d)), (f"w1sq.{n}", eval_w1sq(d))]
            text.append(f"surface {n}: w2 = {eval_w2(d)}, w1^2 = {eval_w1sq(d)}")
        obstructed = {
            "plus": summary.pin_plus_obstructed,
            "minus": summary.pin_minus_obstructed,
        }
        for k in kinds:
            word = "obstructed" if obstructed[k] else "unobstructed"
            pairs.append((f"pin_{k}", word))
            text.append(f"Pin{_sign(k)}: {word}")
        if summary.empty_generating_set:
            note = "empty generating set; verdicts vacuous"
            pairs.append(("caveat", note))
            text.append(f"caveat: {note}")
        sections.append(_Section("obstructions", pairs, text))
        return sections, 1 if any(obstructed[k] for k in kinds) else 0
    if mode == "threefold":
        sections.append(_threefold_section(doc.threefold))
    reports = [_decide(doc, k) for k in kinds]
    sections += map(_verdict_section, reports)
    ok = all(report.exists for report in reports)
    if mode == "sphere":
        if len(doc.embedded_surfaces) != 1:
            raise InputError(
                "a fibration-over-the-sphere document takes exactly one "
                "embedded-surface block (the dual surface)"
            )
        verdicts = lf.decide_pin_over_s2(_fibration(doc), doc.embedded_surfaces[0])
        over = {"plus": verdicts.pin_plus, "minus": verdicts.pin_minus}
        pairs = [(f"pin_{k}", _yesno(over[k])) for k in kinds]
        text = [
            f"Pin{_sign(k)} over S2: {'YES' if over[k] else 'NO'}" for k in kinds
        ]
        sections.append(_Section("over-s2", pairs, text))
        ok = all(over[k] for k in kinds)
    return sections, 0 if ok else 1


def _target(doc: InputDocument, command: str) -> sf.SurfaceModel:
    """The surface whose enhancements enumerate and oracle list."""
    if _mode(doc) == "charclass":
        raise InputError(f"{command} applies to fibration or threefold documents")
    return doc.threefold.boundary if doc.threefold is not None else doc.surface


def _run_enumerate(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    target = _target(doc, "enumerate")
    reports = [_decide(doc, k) for k in _kind_list(kind)]
    for report in reports:
        if report.structure_count > _ENUMERATE_LIMIT:
            raise InputError(
                f"enumerate refused: {report.structure_count} "
                f"Pin{_sign(report.kind)} structures exceed {_ENUMERATE_LIMIT}"
            )
    gens = ",".join(sf.homology_presentation(target).generators)
    sections = [_header("enumerate", kind)]
    for report in reports:
        count, cert = report.structure_count, report.certificate
        # Each format reads its own lazy pass over the rows.
        pairs = chain(
            [("count", count), ("generators", gens)],
            (("structure", row) for row in _structure_rows(report)),
            [("certificate", cert)] if cert and not count else [],
        )
        text = chain(
            [f"Pin{_sign(report.kind)} structures ({count}) on generators {gens}:"],
            ("  " + row for row in _structure_rows(report)),
            [] if count else [f"  none ({cert})"],
        )
        sections.append(_Section(f"structures.{report.kind}", pairs, text))
    return sections, 0 if all(report.exists for report in reports) else 1


def _structure_rows(report: lf.DecisionReport) -> Iterator[str]:
    # The set yields its rows in lexicographic order already.
    return (",".join(v.translate(_DIGITS).decode()) for v in report.structures.values())


def _run_oracle(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    rank = sf.homology_presentation(_target(doc, "oracle")).z2_rank
    if rank > _ORACLE_RANK_LIMIT:
        raise InputError(f"oracle refused: z2 rank {rank} exceeds {_ORACLE_RANK_LIMIT}")
    pairs: list[tuple[str, object]] = []
    text = []
    agree_all = True
    for k in _kind_list(kind):
        report = _decide(doc, k)
        brute = _brute(doc, k)
        decided = set(map(tuple, report.structures.values()))
        exhaustive = {q.values for q in brute}
        agree = report.exists == bool(brute) and decided == exhaustive
        agree_all = agree_all and agree
        word = "AGREE" if agree else "DISAGREE"
        pairs += [
            (f"pin_{k}", word),
            (f"decided_count.{k}", len(decided)),
            (f"exhaustive_count.{k}", len(exhaustive)),
        ]
        text.append(
            f"oracle Pin{_sign(k)}: {word} "
            f"(decider {len(decided)}, exhaustive {len(exhaustive)})"
        )
    text.append(f"overall: {'AGREE' if agree_all else 'DISAGREE'}")
    sections = [_header("oracle", kind), _Section("oracle", pairs, text)]
    return sections, 0 if agree_all else 1


def _form_rows(pres: sf.HomologyPresentation) -> list[str]:
    """The intersection form's rows as comma-separated 0/1 text."""
    out = []
    for i, (d, j) in enumerate(zip(pres.diagonal, pres.partner)):
        row = ["0"] * pres.z2_rank
        row[i] = str(d)
        if j >= 0:
            row[j] = "1"
        out.append(",".join(row))
    return out


def _run_surface_info(doc: InputDocument) -> tuple[list[_Section], int]:
    s = doc.surface
    pres = sf.homology_presentation(s)
    gens = ",".join(pres.generators)
    form = list(zip(pres.generators, _form_rows(pres)))
    relations = [",".join(map(str, row)) for row in pres.relations]
    pairs = [("generators", gens)] + [(f"intersection.{g}", row) for g, row in form]
    text = [f"surface: {s.describe()}", f"z2 rank: {pres.z2_rank}"]
    text += [f"generators: {gens}", "intersection form mod 2:"]
    text += [f"  {g}: {row}" for g, row in form]
    if relations:
        pairs += [("relation", row) for row in relations]
        text += ["z4 relation rows:"] + ["  " + row for row in relations]
    else:
        pairs.append(("relations", "none"))
        text.append("z4 relation rows: none")
    obstruction = sf.pin_plus_obstruction(s)
    verdict = "yes" if obstruction is None else f"no ({obstruction})"
    text.append(f"Pin+ on surface: {verdict}")
    return [_Section("surface-info", _surface_pairs(s, *pairs), text)], 0


def _report(command: str, doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    """A command's report and exit status; every input error raises here."""
    if command == "decide":
        return _run_decide(doc, kind)
    if command == "enumerate":
        return _run_enumerate(doc, kind)
    if command == "oracle":
        return _run_oracle(doc, kind)
    if command == "surface-info":
        return _run_surface_info(doc)
    raise InputError(f"unknown command {command!r}")


def run(command: str, doc: InputDocument, kind: str = "both", fmt: str = "text"):
    """Dispatch a command against a parsed document.

    Returns (report_text, exit_status).
    """
    sections, status = _report(command, doc, kind)
    return "\n".join(_render(sections, fmt)) + "\n", status


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bundled_example(name: str) -> Path:
    """Path to one of the example files shipped with the package."""
    return Path(str(resources.files(__package__).joinpath("data", name)))


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinlef",
        description=(
            "Decide, count, and enumerate Pin structures on Lefschetz "
            "fibrations over the disk and on closed 3-manifold handlebody data."
        ),
    )
    parser.add_argument(
        "command", choices=["decide", "enumerate", "oracle", "surface-info"]
    )
    parser.add_argument("file", type=Path, help="description file to process")
    parser.add_argument(
        "--kind",
        choices=["minus", "plus", "both"],
        default="both",
        help="which structure kind to consider (default: both)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "machine"],
        default="text",
        help="report style (default: text)",
    )
    return parser


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # Everything before the bad byte decodes; count its lines as parse does.
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, "input is not valid UTF-8") from None


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        data = args.file.read_bytes()
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    try:
        doc = parse(_decode(data))
        sections, status = _report(args.command, doc, args.kind)
    except PinlefError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        # One line at a time: a long enumerate report is never held whole.
        sys.stdout.writelines(line + "\n" for line in _render(sections, args.fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``pinlef enumerate ... | head``).  Send
        # what is left to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def console_main() -> None:
    raise SystemExit(main())
