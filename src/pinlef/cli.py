"""Batch front end: parse description files, run deciders, emit reports.

Input files are line-oriented with sections ``[surface]``, ``[cycles]``,
``[threefold]`` and ``[embedded-surface]``.  Sections hold ``key = value``
pairs, except ``[cycles]`` whose body is one comma-separated residue row
per vanishing cycle, written over the surface's generator order.  Blank
lines and lines starting with ``#`` are ignored.

Commands:

* ``decide``        verdicts, counts, annihilator dimension, certificates
* ``enumerate``     every structure as a generator-value table
* ``oracle``        rerun the decision by exhaustive search, print AGREE
* ``surface-info``  presentation, intersection form, relations, Pin+ flag

Exit status: 0 when every requested structure exists (or the oracle
agrees), 1 otherwise, 2 on input errors.  Reports are byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

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

_SECTIONS = ("surface", "cycles", "threefold", "embedded-surface")
_SECTION_RE = re.compile(r"^\[([a-z-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")
# int() also takes "+1", "1_0" and non-ASCII digits; documents may not.
_INT_RE = re.compile(r"-?[0-9]+")
_ORACLE_RANK_LIMIT = 20


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
    surface_kv: dict[str, tuple[str, int]] = {}
    cycles_rows: list[tuple[list[int], int]] = []
    seen: dict[str, int] = {}
    three_kv: dict[str, tuple[str, int]] = {}
    three_rows: dict[str, list[tuple[list[int], int]]] = {"attach": [], "belt": []}
    embedded: list[dict[str, tuple[str, int]]] = []
    embedded_lines: list[int] = []
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
            if name not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            if name != "embedded-surface" and name in seen:
                raise ParseError(lineno, f"duplicate section [{name}]")
            seen[name] = lineno
            if name == "embedded-surface":
                embedded.append({})
                embedded_lines.append(lineno)
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
        if section == "surface":
            if key not in ("kind", "genus", "crosscaps", "boundary"):
                raise ParseError(lineno, f"unknown surface key {key!r}")
            if key in surface_kv:
                raise ParseError(lineno, f"duplicate surface key {key!r}")
            surface_kv[key] = (value, lineno)
        elif section == "threefold":
            if key == "genus":
                if key in three_kv:
                    raise ParseError(lineno, "duplicate threefold key 'genus'")
                three_kv[key] = (value, lineno)
            elif key in ("attach", "belt"):
                three_rows[key].append((_parse_row(value, lineno), lineno))
            else:
                raise ParseError(lineno, f"unknown threefold key {key!r}")
        else:  # embedded-surface
            if key not in (
                "euler",
                "self_intersection",
                "cup",
                "w1sq_surface",
                "w1sq_normal",
            ):
                raise ParseError(lineno, f"unknown embedded-surface key {key!r}")
            if key in embedded[-1]:
                raise ParseError(lineno, f"duplicate embedded-surface key {key!r}")
            embedded[-1][key] = (value, lineno)

    if "surface" not in seen:
        raise ParseError(last_line or 1, "missing surface block")

    surface = _build_surface(surface_kv, seen["surface"])
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
            three_kv, three_rows, surface, seen["threefold"]
        )

    blocks = []
    for idx, (kv, block_line) in enumerate(zip(embedded, embedded_lines)):
        fields = {}
        for key in ("euler", "self_intersection", "cup", "w1sq_surface", "w1sq_normal"):
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
    """Canonical text for a document; ``parse(serialize(doc)) == doc``."""
    out = ["[surface]"]
    s = doc.surface
    out.append(f"kind = {s.kind}")
    word = "genus" if s.kind == sf.ORIENTABLE else "crosscaps"
    out.append(f"{word} = {s.genus_or_crosscaps}")
    out.append(f"boundary = {s.boundary_components}")
    if doc.cycles is not None:
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


def _surface_lines(doc: InputDocument, fmt: str) -> list[str]:
    s = doc.surface
    pres = sf.homology_presentation(s)
    word = "genus" if s.kind == sf.ORIENTABLE else "crosscaps"
    if fmt == "machine":
        return [
            "[surface]",
            f"kind = {s.kind}",
            f"{word} = {s.genus_or_crosscaps}",
            f"boundary = {s.boundary_components}",
            f"z2_rank = {pres.z2_rank}",
            f"pin_plus = {_yesno(sf.pin_plus_exists_surface(s))}",
        ]
    return [f"surface: {s.describe()} (z2 rank {pres.z2_rank})"]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _verdict_lines(report: lf.DecisionReport, fmt: str) -> list[str]:
    sign = _sign(report.kind)
    if fmt == "machine":
        lines = [
            f"[verdict.{report.kind}]",
            f"exists = {_yesno(report.exists)}",
            f"structure_count = {report.structure_count}",
            f"annihilator_dim = {report.h1_annihilator_dim}",
        ]
        if report.certificate:
            lines.append(f"certificate = {report.certificate}")
        return lines
    if report.exists:
        return [
            f"Pin{sign}: YES ({report.structure_count} structures; "
            f"annihilator dim {report.h1_annihilator_dim})"
        ]
    return [
        f"Pin{sign}: NO (annihilator dim {report.h1_annihilator_dim}; "
        f"certificate: {report.certificate})"
    ]


def _threefold_lines(d: tf.HandlebodyDecomposition3, fmt: str) -> list[str]:
    rows = d.z2_class_matrix()
    labels = [f"a{j + 1}" for j in range(d.genus)] + [
        f"b{j + 1}" for j in range(d.genus)
    ]
    if fmt == "machine":
        lines = ["[threefold]", f"genus = {d.genus}"]
        for label, row in zip(labels, rows):
            lines.append(f"row.{label} = " + ",".join(str(int(x)) for x in row))
        return lines
    lines = [
        f"threefold: genus {d.genus} (boundary {d.boundary.describe()})",
        "system rows mod 2 (attaching then belt):",
    ]
    for label, row in zip(labels, rows):
        lines.append(f"  {label}: " + ",".join(str(int(x)) for x in row))
    return lines


def _extend_block(lines: list[str], block: list[str], fmt: str) -> None:
    # Machine reports separate sections with one blank line, like the input.
    if fmt == "machine" and lines and block and block[0].startswith("["):
        lines.append("")
    lines.extend(block)


def _run_decide(doc: InputDocument, kind: str, fmt: str) -> tuple[str, int]:
    kinds = _kind_list(kind)
    mode = _mode(doc)
    lines: list[str] = []
    if fmt == "machine":
        lines += ["[report]", "command = decide", f"kind = {kind}", f"mode = {mode}"]
    _extend_block(lines, _surface_lines(doc, fmt), fmt)

    if mode == "charclass":
        summary = pin_obstruction_summary(doc.embedded_surfaces)
        ok = True
        body: list[str] = []
        if fmt == "machine":
            body.append("[obstructions]")
            body.append(f"surfaces = {len(doc.embedded_surfaces)}")
        else:
            body.append(f"embedded surfaces: {len(doc.embedded_surfaces)}")
        for n, d in enumerate(doc.embedded_surfaces, start=1):
            if fmt == "machine":
                body.append(f"w2.{n} = {eval_w2(d)}")
                body.append(f"w1sq.{n} = {eval_w1sq(d)}")
            else:
                body.append(f"surface {n}: w2 = {eval_w2(d)}, w1^2 = {eval_w1sq(d)}")
        for k in kinds:
            obstructed = (
                summary.pin_plus_obstructed
                if k == "plus"
                else summary.pin_minus_obstructed
            )
            ok = ok and not obstructed
            word = "obstructed" if obstructed else "unobstructed"
            if fmt == "machine":
                body.append(f"pin_{k} = {word}")
            else:
                body.append(f"Pin{_sign(k)}: {word}")
        if summary.empty_generating_set:
            note = "empty generating set; verdicts vacuous"
            body.append(
                f"caveat = {note}" if fmt == "machine" else f"caveat: {note}"
            )
        _extend_block(lines, body, fmt)
        return _join(lines), 0 if ok else 1

    if mode == "threefold":
        _extend_block(lines, _threefold_lines(doc.threefold, fmt), fmt)

    reports = {k: _decide(doc, k) for k in kinds}
    for k in kinds:
        _extend_block(lines, _verdict_lines(reports[k], fmt), fmt)
    ok = all(reports[k].exists for k in kinds)

    if mode == "sphere":
        sigma = _sphere_dual(doc)
        verdicts = lf.decide_pin_over_s2(_fibration(doc), sigma)
        if fmt == "machine":
            _extend_block(lines, ["[over-s2]"], fmt)
        for k in kinds:
            v = verdicts.pin_plus if k == "plus" else verdicts.pin_minus
            if fmt == "machine":
                lines.append(f"pin_{k} = {_yesno(v)}")
            else:
                lines.append(f"Pin{_sign(k)} over S2: {'YES' if v else 'NO'}")
        ok = all(
            (verdicts.pin_plus if k == "plus" else verdicts.pin_minus) for k in kinds
        )
    return _join(lines), 0 if ok else 1


def _sphere_dual(doc: InputDocument) -> EmbeddedSurfaceData:
    if len(doc.embedded_surfaces) != 1:
        raise InputError(
            "a fibration-over-the-sphere document takes exactly one "
            "embedded-surface block (the dual surface)"
        )
    return doc.embedded_surfaces[0]


def _run_enumerate(doc: InputDocument, kind: str, fmt: str) -> tuple[str, int]:
    if _mode(doc) == "charclass":
        raise InputError("enumerate applies to fibration or threefold documents")
    kinds = _kind_list(kind)
    target = (
        doc.threefold.boundary if doc.threefold is not None else doc.surface
    )
    pres = sf.homology_presentation(target)
    lines: list[str] = []
    if fmt == "machine":
        lines += ["[report]", "command = enumerate", f"kind = {kind}"]
    ok = True
    for k in kinds:
        report = _decide(doc, k)
        rows = sorted(q.values for q in report.structures)
        ok = ok and bool(rows)
        gens = ",".join(pres.generators)
        if fmt == "machine":
            _extend_block(lines, [f"[structures.{k}]"], fmt)
            lines.append(f"count = {len(rows)}")
            lines.append(f"generators = {gens}")
            for row in rows:
                lines.append("structure = " + ",".join(str(v) for v in row))
            if not rows and report.certificate:
                lines.append(f"certificate = {report.certificate}")
        else:
            lines.append(
                f"Pin{_sign(k)} structures ({len(rows)}) on generators {gens}:"
            )
            for row in rows:
                lines.append("  " + ",".join(str(v) for v in row))
            if not rows:
                lines.append(f"  none ({report.certificate})")
    return _join(lines), 0 if ok else 1


def _run_oracle(doc: InputDocument, kind: str, fmt: str) -> tuple[str, int]:
    if _mode(doc) == "charclass":
        raise InputError("oracle applies to fibration or threefold documents")
    target = doc.threefold.boundary if doc.threefold is not None else doc.surface
    rank = sf.homology_presentation(target).z2_rank
    if rank > _ORACLE_RANK_LIMIT:
        raise InputError(
            f"oracle refused: z2 rank {rank} exceeds {_ORACLE_RANK_LIMIT}"
        )
    kinds = _kind_list(kind)
    lines: list[str] = []
    if fmt == "machine":
        lines += ["[report]", "command = oracle", f"kind = {kind}"]
        _extend_block(lines, ["[oracle]"], fmt)
    agree_all = True
    for k in kinds:
        report = _decide(doc, k)
        brute = _brute(doc, k)
        decided = {q.values for q in report.structures}
        exhaustive = {q.values for q in brute}
        agree = report.exists == bool(brute) and decided == exhaustive
        agree_all = agree_all and agree
        word = "AGREE" if agree else "DISAGREE"
        if fmt == "machine":
            lines.append(f"pin_{k} = {word}")
            lines.append(f"decided_count.{k} = {len(decided)}")
            lines.append(f"exhaustive_count.{k} = {len(exhaustive)}")
        else:
            lines.append(
                f"oracle Pin{_sign(k)}: {word} "
                f"(decider {len(decided)}, exhaustive {len(exhaustive)})"
            )
    if fmt != "machine":
        lines.append(f"overall: {'AGREE' if agree_all else 'DISAGREE'}")
    return _join(lines), 0 if agree_all else 1


def _run_surface_info(doc: InputDocument, fmt: str) -> tuple[str, int]:
    s = doc.surface
    pres = sf.homology_presentation(s)
    word = "genus" if s.kind == sf.ORIENTABLE else "crosscaps"
    lines: list[str] = []
    if fmt == "machine":
        lines += [
            "[surface-info]",
            f"kind = {s.kind}",
            f"{word} = {s.genus_or_crosscaps}",
            f"boundary = {s.boundary_components}",
            f"z2_rank = {pres.z2_rank}",
            f"generators = {','.join(pres.generators)}",
        ]
        for label, row in zip(pres.generators, pres.z2_intersection):
            lines.append(
                f"intersection.{label} = " + ",".join(str(int(x)) for x in row)
            )
        if pres.z4_relations.shape[0]:
            for row in pres.z4_relations:
                lines.append("relation = " + ",".join(str(int(x)) for x in row))
        else:
            lines.append("relations = none")
        lines.append(f"pin_plus = {_yesno(sf.pin_plus_exists_surface(s))}")
        return _join(lines), 0
    lines.append(f"surface: {s.describe()}")
    lines.append(f"z2 rank: {pres.z2_rank}")
    lines.append(f"generators: {','.join(pres.generators)}")
    lines.append("intersection form mod 2:")
    for label, row in zip(pres.generators, pres.z2_intersection):
        lines.append(f"  {label}: " + ",".join(str(int(x)) for x in row))
    if pres.z4_relations.shape[0]:
        lines.append("z4 relation rows:")
        for row in pres.z4_relations:
            lines.append("  " + ",".join(str(int(x)) for x in row))
    else:
        lines.append("z4 relation rows: none")
    obstruction = sf.pin_plus_obstruction(s)
    if obstruction is None:
        lines.append("Pin+ on surface: yes")
    else:
        lines.append(f"Pin+ on surface: no ({obstruction})")
    return _join(lines), 0


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def run(command: str, doc: InputDocument, kind: str = "both", fmt: str = "text"):
    """Dispatch a command against a parsed document.

    Returns (report_text, exit_status).
    """
    if command == "decide":
        return _run_decide(doc, kind, fmt)
    if command == "enumerate":
        return _run_enumerate(doc, kind, fmt)
    if command == "oracle":
        return _run_oracle(doc, kind, fmt)
    if command == "surface-info":
        return _run_surface_info(doc, fmt)
    raise InputError(f"unknown command {command!r}")


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
        report, status = run(args.command, doc, kind=args.kind, fmt=args.fmt)
    except PinlefError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(report)
    return status


def console_main() -> None:
    raise SystemExit(main())
