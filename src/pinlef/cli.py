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
lines.  ``pinlef`` streams its report in pieces of whole lines, at most
16 KiB of listing each, after every input error has been raised, so a long
``enumerate`` listing is never held whole.

Exit status: 0 when every requested structure exists (or the oracle
agrees), 1 otherwise, 2 on input errors.  Reports are byte-deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import surfaces as sf
from . import lefschetz as lf
from . import threefolds as tf
from ._record import Record
from .errors import InputError, ParseError, PinlefError

if TYPE_CHECKING:
    from .charclasses import EmbeddedSurfaceData

# Each [embedded-surface] key and the EmbeddedSurfaceData field it sets.
_EMBEDDED_FIELDS = {
    "euler": "euler_char_mod2",
    "self_intersection": "self_intersection_mod2",
    "cup": "cup_term",
    "w1sq_surface": "w1sq_sigma",
    "w1sq_normal": "w1sq_normal",
}
# The threefold's repeatable row keys: attaching classes, then belt classes.
_ROW_KEYS = ("attach", "belt")
# Each section and the keys it takes once.  [cycles] holds residue rows only;
# the threefold's row keys are read apart.
_KEYS = {
    "surface": ("kind", *sf.COUNT_KEY.values(), "boundary"),
    "cycles": (),
    "threefold": ("genus",),
    "embedded-surface": _EMBEDDED_FIELDS,
}
# Lines end at "\n", "\r\n" or "\r"; str.splitlines() would also break
# at form feeds, U+0085, U+2028 and other separators.
_LINE_END_RE = re.compile(r"\r\n?|\n")
_SECTION_RE = re.compile(r"^\[([a-z-]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_-]+)\s*=\s*(.*)$")
# int() also takes "+1", "1_0" and non-ASCII digits; documents may not.
_INT_RE = re.compile(r"-?[0-9]+")
# A residue row: such integers, each with optional spaces, between commas.
_ROW_RE = re.compile(r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*")
_ORACLE_RANK_LIMIT = 20
# enumerate prints one line per structure; beyond this many it refuses.
_ENUMERATE_LIMIT = 1 << 20


class InputDocument(Record):
    """Validated content of a description file."""

    def __init__(
        self,
        surface: sf.SurfaceModel,
        cycles: tuple[sf.HomologyClass, ...] | None = None,
        threefold: tf.HandlebodyDecomposition3 | None = None,
        embedded_surfaces: tuple[EmbeddedSurfaceData, ...] = (),
    ) -> None:
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "threefold", threefold)
        object.__setattr__(self, "embedded_surfaces", embedded_surfaces)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_int(text: str, line: int, what: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise ParseError(line, f"{what} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        digits = len(text.lstrip("-"))
        raise ParseError(
            line, f"{what} is out of range: {digits} digits, from {text[:12]!r}"
        ) from None


def _parse_row(text: str, line: int) -> list[int]:
    if not _ROW_RE.fullmatch(text):
        raise ParseError(line, f"malformed residue row {text!r}")
    # strip(), unlike int(), takes \x1c-\x1f, which \s also matches.
    entries = list(map(str.strip, text.split(",")))
    try:
        return list(map(int, entries))
    except ValueError:  # more digits than int() converts; _parse_int words it
        return [_parse_int(a, line, "residue") for a in entries]


def _lines(text: str) -> list[str]:
    """The document's lines, without their ends; like ``splitlines``, a
    final line end starts no further line."""
    lines = _LINE_END_RE.split(text)
    if not lines[-1]:
        lines.pop()
    return lines


def parse(text: str) -> InputDocument:
    """Parse and validate a description document; one leading byte order
    mark (U+FEFF) is ignored.

    Raises:
        ParseError: with the offending line number and a reason, on
            unknown sections or keys, wrong arity, out-of-range residues,
            or a missing surface block.
    """
    pairs: dict[str, dict[str, tuple[str, int]]] = {"surface": {}, "threefold": {}}
    cycles_rows: list[tuple[list[int], int]] = []
    seen: dict[str, int] = {}
    three_rows: dict[str, list[tuple[list[int], int]]] = {k: [] for k in _ROW_KEYS}
    embedded: list[tuple[dict[str, tuple[str, int]], int]] = []
    section: str | None = None
    last_line = 0

    for lineno, raw in enumerate(_lines(text.removeprefix("\ufeff")), start=1):
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
        message = "cycle has {} coordinates, expected {}"
        cycles = _residue_classes(cycles_rows, pres.z2_rank, message)

    threefold = None
    if "threefold" in seen:
        threefold = _build_threefold(
            pairs["threefold"], three_rows, surface, seen["threefold"]
        )

    blocks = tuple([
        _build_embedded(kv, block_line, n)
        for n, (kv, block_line) in enumerate(embedded, start=1)
    ])

    return InputDocument(
        surface=surface,
        cycles=cycles,
        threefold=threefold,
        embedded_surfaces=blocks,
    )


def _build_surface(kv: dict[str, tuple[str, int]], header_line: int) -> sf.SurfaceModel:
    if "kind" not in kv:
        raise ParseError(header_line, "surface block needs a 'kind'")
    kind, kind_line = kv["kind"]
    if kind not in sf.COUNT_KEY:
        raise ParseError(
            kind_line, "kind must be 'orientable' or 'non-orientable'"
        )
    count_key = sf.COUNT_KEY[kind]
    for wrong_key in sf.COUNT_KEY.values():
        if wrong_key != count_key and wrong_key in kv:
            raise ParseError(
                kv[wrong_key][1],
                f"a {kind} surface takes {count_key!r}, not {wrong_key!r}",
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


def _build_embedded(
    kv: dict[str, tuple[str, int]], header_line: int, n: int
) -> EmbeddedSurfaceData:
    # Only documents with an [embedded-surface] block load charclasses.
    from .charclasses import EmbeddedSurfaceData

    fields = {}
    for key, field in _EMBEDDED_FIELDS.items():
        if key not in kv:
            raise ParseError(
                header_line, f"embedded-surface block {n} is missing {key!r}"
            )
        value, lineno = kv[key]
        bit = _parse_int(value, lineno, key)
        if bit not in (0, 1):
            raise ParseError(lineno, f"{key} must be 0 or 1, got {sf.brief(bit)}")
        fields[field] = bit
    return EmbeddedSurfaceData(**fields)


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
    classes = []
    for key in _ROW_KEYS:
        if len(rows[key]) != genus:
            raise ParseError(
                header_line,
                f"threefold block needs {genus} {key} rows, got {len(rows[key])}",
            )
        message = key + " row has {} entries, expected {}"
        classes.append(_residue_classes(rows[key], 2 * genus, message))
    try:
        return tf.HandlebodyDecomposition3(genus, *classes)
    except PinlefError as e:
        raise ParseError(header_line, str(e)) from None


def _residue_classes(
    rows: list[tuple[list[int], int]], length: int, message: str
) -> tuple[sf.HomologyClass, ...]:
    """Z4 classes from parsed residue rows; ``message`` formats the actual
    and expected length of a row that is not ``length`` long."""
    for row, lineno in rows:
        if len(row) != length:
            raise ParseError(lineno, message.format(len(row), length))
        for a in row:
            if not 0 <= a <= 3:
                raise ParseError(lineno, f"residue {sf.brief(a)} out of range 0..3")
    return tuple([sf.HomologyClass("Z4", tuple(row)) for row, _ in rows])


def serialize(doc: InputDocument) -> str:
    """Canonical text for a document; ``parse(serialize(doc)) == doc``.
    Cycles on a surface of z2 rank 0 have no residue row: InputError."""
    out = ["[surface]"]
    s = doc.surface
    out.append(f"kind = {s.kind}")
    out.append(f"{sf.COUNT_KEY[s.kind]} = {s.genus_or_crosscaps}")
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
        for key, classes in zip(_ROW_KEYS, (d.attaching_classes, d.belt_classes)):
            out += (f"{key} = " + ",".join(map(str, c.coords)) for c in classes)
    for block in doc.embedded_surfaces:
        out += ["", "[embedded-surface]"]
        out += (f"{k} = {getattr(block, f)}" for k, f in _EMBEDDED_FIELDS.items())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# Each --kind value and the structure kinds it reports, in report order.
_KINDS = {"minus": ("minus",), "plus": ("plus",), "both": ("plus", "minus")}
_FORMATS = ("text", "machine")


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


def _subject(doc: InputDocument):
    """The fibration or threefold the deciders read, built and checked once
    per command."""
    if doc.threefold is None:
        return lf.LefschetzFibration(doc.surface, doc.cycles or ())
    if doc.cycles is not None or doc.embedded_surfaces:
        extra = "cycles" if doc.cycles is not None else "embedded-surface"
        raise InputError(f"a threefold document takes no [{extra}] section")
    return doc.threefold


def _decide(x, kind: str) -> lf.DecisionReport:
    if isinstance(x, lf.LefschetzFibration):
        return lf.decide_pin_plus(x) if kind == "plus" else lf.decide_pin_minus(x)
    return tf.decide_pin_plus_3mfd(x) if kind == "plus" else tf.solve_pin_minus_3mfd(x)


def _brute(x, kind: str) -> list:
    plus = kind == "plus"
    if isinstance(x, lf.LefschetzFibration):
        return lf.brute_force_pin_plus(x) if plus else lf.brute_force_pin_minus(x)
    return tf.brute_force_pin_plus_3mfd(x) if plus else tf.brute_force_pin_minus_3mfd(x)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


class _Section(Record):
    """A report section: ``--format machine`` prints ``[name]`` and its
    ``key = value`` pairs, ``--format text`` prints its text lines.  A str
    among the pairs is a piece of ``key = value`` lines rendered already.
    Both may be lazy; only the one rendered is consumed."""

    def __init__(
        self,
        name: str,
        pairs: Iterable[tuple[str, object] | str],
        text: Iterable[str] = (),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "text", text)


def _render(sections: list[_Section], fmt: str) -> Iterator[str]:
    """The report in pieces of one or more lines joined by newlines, with
    no newline at the end of a piece."""
    if fmt == "machine":
        return chain.from_iterable(_machine_lines(s, i) for i, s in enumerate(sections))
    return chain.from_iterable(section.text for section in sections)


def _machine_lines(section: _Section, index: int) -> Iterator[str]:
    if index:  # one blank line between sections, like the input
        yield ""
    yield f"[{section.name}]"
    for item in section.pairs:
        yield item if isinstance(item, str) else f"{item[0]} = {item[1]}"


def _header(command: str, kind: str, *pairs: tuple[str, object]) -> _Section:
    return _Section("report", [("command", command), ("kind", kind), *pairs])


def _surface_pairs(
    s: sf.SurfaceModel, extra: Iterable[tuple[str, object]] = ()
) -> Iterator[tuple[str, object]]:
    """Shared by decide and surface-info; ``extra`` goes before pin_plus."""
    return chain(
        [
            ("kind", s.kind),
            (sf.COUNT_KEY[s.kind], s.genus_or_crosscaps),
            ("boundary", s.boundary_components),
            ("z2_rank", s.z2_rank),
        ],
        extra,
        [("pin_plus", _yesno(sf.pin_plus_exists_surface(s)))],
    )


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
    labels = d.row_labels()
    rows = [",".join(str(a % 2) for a in c.coords) for c in d.listed_classes()]
    pairs = [("genus", d.genus)] + [(f"row.{a}", row) for a, row in zip(labels, rows)]
    text = [f"threefold: genus {d.genus} (boundary {d.boundary.describe()})"]
    text.append("system rows mod 2 (attaching then belt):")
    text += [f"  {a}: {row}" for a, row in zip(labels, rows)]
    return _Section("threefold", pairs, text)


def _run_decide(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    kinds = _KINDS[kind]
    mode = _mode(doc)
    s = doc.surface
    surface_text = [f"surface: {s.describe()} (z2 rank {s.z2_rank})"]
    sections = [_header("decide", kind, ("mode", mode))]
    sections.append(_Section("surface", _surface_pairs(s), surface_text))
    if mode == "charclass":
        section, status = _obstruction_section(doc.embedded_surfaces, kinds)
        return sections + [section], status
    if mode == "threefold":
        sections.append(_threefold_section(doc.threefold))
    x = _subject(doc)
    reports = [_decide(x, k) for k in kinds]
    sections += map(_verdict_section, reports)
    ok = all(report.exists for report in reports)
    if mode == "sphere":
        if len(doc.embedded_surfaces) != 1:
            raise InputError(
                "a fibration-over-the-sphere document takes exactly one "
                "embedded-surface block (the dual surface)"
            )
        terms = lf.dual_surface_terms(doc.embedded_surfaces[0])
        over = {r.kind: r.exists and terms[r.kind] == 0 for r in reports}
        pairs = [(f"pin_{k}", _yesno(over[k])) for k in kinds]
        text = [
            f"Pin{_sign(k)} over S2: {'YES' if over[k] else 'NO'}" for k in kinds
        ]
        sections.append(_Section("over-s2", pairs, text))
        ok = all(over[k] for k in kinds)
    return sections, 0 if ok else 1


def _obstruction_section(
    blocks: tuple[EmbeddedSurfaceData, ...], kinds: tuple[str, ...]
) -> tuple[_Section, int]:
    """The charclass-mode verdicts and exit status."""
    from .charclasses import eval_w1sq, eval_w2, pin_obstruction_summary

    summary = pin_obstruction_summary(blocks)
    pairs: list[tuple[str, object]] = [("surfaces", len(blocks))]
    text = [f"embedded surfaces: {len(blocks)}"]
    for n, d in enumerate(blocks, start=1):
        w2, w1sq = eval_w2(d), eval_w1sq(d)
        pairs += [(f"w2.{n}", w2), (f"w1sq.{n}", w1sq)]
        text.append(f"surface {n}: w2 = {w2}, w1^2 = {w1sq}")
    obstructed = {
        "plus": summary.pin_plus_obstructed,
        "minus": summary.pin_minus_obstructed,
    }
    for k in kinds:
        word = "obstructed" if obstructed[k] else "unobstructed"
        pairs.append((f"pin_{k}", word))
        text.append(f"Pin{_sign(k)}: {word}")
    status = 1 if any(obstructed[k] for k in kinds) else 0
    return _Section("obstructions", pairs, text), status


def _target(doc: InputDocument, command: str) -> sf.SurfaceModel:
    """The surface whose enhancements enumerate and oracle list."""
    if _mode(doc) == "charclass":
        raise InputError(f"{command} applies to fibration or threefold documents")
    return doc.threefold.boundary if doc.threefold is not None else doc.surface


def _run_enumerate(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    target = _target(doc, "enumerate")
    x = _subject(doc)
    reports = [_decide(x, k) for k in _KINDS[kind]]
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
            report.structures.lines("structure = "),
            [("certificate", cert)] if cert and not count else [],
        )
        text = chain(
            [f"Pin{_sign(report.kind)} structures ({count}) on generators {gens}:"],
            report.structures.lines("  "),
            [] if count else [f"  none ({cert})"],
        )
        sections.append(_Section(f"structures.{report.kind}", pairs, text))
    return sections, 0 if all(report.exists for report in reports) else 1


def _run_oracle(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    rank = sf.homology_presentation(_target(doc, "oracle")).z2_rank
    if rank > _ORACLE_RANK_LIMIT:
        raise InputError(f"oracle refused: z2 rank {rank} exceeds {_ORACLE_RANK_LIMIT}")
    x = _subject(doc)
    pairs: list[tuple[str, object]] = []
    text = []
    agree_all = True
    for k in _KINDS[kind]:
        report, brute = _decide(x, k), _brute(x, k)
        decided, exhaustive = report.structure_count, len(brute)
        # Equal counts and one inclusion make the two sets equal.
        agree = decided == exhaustive and all(q in report.structures for q in brute)
        agree_all = agree_all and agree
        word = "AGREE" if agree else "DISAGREE"
        pairs += [
            (f"pin_{k}", word),
            (f"decided_count.{k}", decided),
            (f"exhaustive_count.{k}", exhaustive),
        ]
        text.append(
            f"oracle Pin{_sign(k)}: {word} "
            f"(decider {decided}, exhaustive {exhaustive})"
        )
    text.append(f"overall: {'AGREE' if agree_all else 'DISAGREE'}")
    sections = [_header("oracle", kind), _Section("oracle", pairs, text)]
    return sections, 0 if agree_all else 1


def _form_rows(pres: sf.HomologyPresentation) -> Iterator[tuple[str, str]]:
    """Each generator and its intersection form row as comma-separated 0/1
    text, one row at a time."""
    for i, (g, d, j) in enumerate(zip(pres.generators, pres.diagonal, pres.partner)):
        row = ["0"] * pres.z2_rank
        row[i] = str(d)
        if j >= 0:
            row[j] = "1"
        yield g, ",".join(row)


def _run_surface_info(doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    s = doc.surface
    pres = sf.homology_presentation(s)
    gens = ",".join(pres.generators)
    relations = [",".join(map(str, row)) for row in pres.relations]
    obstruction = sf.pin_plus_obstruction(s)
    verdict = "yes" if obstruction is None else f"no ({obstruction})"
    # Each format reads its own lazy pass over the form's rows.
    pairs = chain(
        [("generators", gens)],
        ((f"intersection.{g}", row) for g, row in _form_rows(pres)),
        [("relation", row) for row in relations] or [("relations", "none")],
    )
    text = chain(
        [f"surface: {s.describe()}", f"z2 rank: {pres.z2_rank}"],
        [f"generators: {gens}", "intersection form mod 2:"],
        (f"  {g}: {row}" for g, row in _form_rows(pres)),
        ["z4 relation rows:" + ("" if relations else " none")],
        ["  " + row for row in relations],
        [f"Pin+ on surface: {verdict}"],
    )
    return [_Section("surface-info", _surface_pairs(s, pairs), text)], 0


# Each command and the function that builds its report and exit status.
_COMMANDS = {
    "decide": _run_decide,
    "enumerate": _run_enumerate,
    "oracle": _run_oracle,
    "surface-info": _run_surface_info,
}


def _report(command: str, doc: InputDocument, kind: str) -> tuple[list[_Section], int]:
    """A command's report and exit status; every input error raises here."""
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    if kind not in _KINDS:
        raise InputError(f"unknown kind {kind!r}")
    return _COMMANDS[command](doc, kind)


def run(command: str, doc: InputDocument, kind: str = "both", fmt: str = "text"):
    """Dispatch a command against a parsed document.

    Returns (report_text, exit_status).
    """
    if fmt not in _FORMATS:
        raise InputError(f"unknown format {fmt!r}")
    sections, status = _report(command, doc, kind)
    return "\n".join(_render(sections, fmt)) + "\n", status


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bundled_example(name: str) -> Path:
    """Path to one of the example files shipped with the package."""
    from importlib import resources

    return Path(str(resources.files(__package__).joinpath("data", name)))


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinlef",
        description=(
            "Decide, count, and enumerate Pin structures on Lefschetz "
            "fibrations over the disk and on closed 3-manifold handlebody data."
        ),
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("file", type=Path, help="description file to process")
    parser.add_argument(
        "--kind",
        choices=_KINDS,
        default="both",
        help="which structure kind to consider (default: both)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=_FORMATS,
        default="text",
        help="report style (default: text)",
    )
    return parser


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # Everything before the bad byte decodes; count its lines as parse does.
        line = len(_lines(data[: e.start].decode("utf-8") + "x"))
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
        # A piece at a time: a long enumerate report is never held whole.
        sys.stdout.writelines(piece + "\n" for piece in _render(sections, args.fmt))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``pinlef enumerate ... | head``).  Send
        # what is left to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def console_main() -> None:
    raise SystemExit(main())
