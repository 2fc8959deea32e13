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
agrees), 1 otherwise, 2 on input errors and on a report that cannot be
written (``error: cannot write report: ...``).  Reports are
byte-deterministic for identical inputs.

:func:`main` returns the exit status, for callers in the same process.
The console script, :func:`console_main`, flushes stdout and stderr after
it and then leaves through ``os._exit``, without interpreter finalization,
so ``atexit`` handlers registered by other code do not run after a report.

Help and argument errors are argparse's.  A well-formed command line, the
command and the file with at most one ``--kind K`` and one ``--format F``
as separate words, is read from the same tables without loading argparse.
"""

from __future__ import annotations

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
from .constraints import _walk
from .errors import InputError, ParseError, PinlefError

if TYPE_CHECKING:
    import argparse

    from .charclasses import EmbeddedSurfaceData

    # A section as parse reads it: its name, header line, key -> (value,
    # line) pairs and rows.  A row is its key (None in [cycles]), its
    # entries and its line.
    _Row = tuple[str | None, bytes | list[int], int]
    _Block = tuple[str, int, dict[str, tuple[str, int]], list[_Row]]

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
# at form feeds, U+0085, U+2028 and other separators.  This pattern and
# _ROW are compiled on first use, through re's cache.
_LINE_END = r"\r\n?|\n"
# The characters of a section name, and those of a key.
_SECTION_CHARS = "abcdefghijklmnopqrstuvwxyz-"
_KEY_CHARS = _SECTION_CHARS + _SECTION_CHARS.upper() + "0123456789_"
# A residue row: such integers, each with optional spaces, between commas.
_ROW = r"\s*-?[0-9]+\s*(?:,\s*-?[0-9]+\s*)*"
# Each of the digits 0-3 to the byte of its value.
_DIGIT_VALUES = bytes.maketrans(b"0123", bytes(range(4)))
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


def _quote(text: str) -> str:
    """text as a message quotes it: whole up to 12 characters, else its
    first 12 and its length, like :func:`sf.brief` for integers."""
    if len(text) <= 12:
        return repr(text)
    return f"{text[:12]!r}... ({len(text)} characters)"


def _parse_int(text: str, line: int, what: str) -> int:
    # int() also takes "+1", "1_0" and non-ASCII digits; documents may not.
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(line, f"{what} must be an integer, got {_quote(text)}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(
            line, f"{what} is out of range: {len(digits)} digits, from {text[:12]!r}"
        ) from None


def _key_value(line: str) -> tuple[str, str] | None:
    """The key and value of a stripped ``key = value`` line, else None.  The
    key is ASCII letters, digits, ``_`` and ``-``; whitespace may stand
    around the ``=``."""
    head, eq, value = line.partition("=")
    key = head.rstrip()
    if not eq or not key or key.strip(_KEY_CHARS):
        return None
    return key, value.strip()


def _parse_row(text: str, line: int) -> bytes | list[int]:
    """A residue row's entries: as bytes for a row written as
    :func:`serialize` writes one (digits 0-3 between single commas), read
    in a few passes over the whole row; else as ints, read entry by entry."""
    if text.isascii():
        b = text.encode()
        if len(b) & 1 and not b[1::2].strip(b",") and not b[::2].strip(b"0123"):
            return b[::2].translate(_DIGIT_VALUES)
    if not re.fullmatch(_ROW, text):
        raise ParseError(line, f"malformed residue row {_quote(text)}")
    # strip(), unlike int(), takes \x1c-\x1f, which \s also matches.
    entries = list(map(str.strip, text.split(",")))
    try:
        return list(map(int, entries))
    except ValueError:  # more digits than int() converts; _parse_int words it
        return [_parse_int(a, line, "residue") for a in entries]


def _lines(text: str) -> list[str]:
    """The document's lines, without their ends; like ``splitlines``, a
    final line end starts no further line."""
    lines = re.split(_LINE_END, text) if "\r" in text else text.split("\n")
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
    blocks: list[_Block] = []
    section = kv = rows = None
    lineno = 0

    for lineno, raw in enumerate(_lines(text.removeprefix("\ufeff")), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name = line[0] == "[" and line[-1] == "]" and line[1:-1]
        if name and not name.strip(_SECTION_CHARS):
            if name not in _KEYS:
                raise ParseError(lineno, f"unknown section [{name}]")
            if name != "embedded-surface" and any(b[0] == name for b in blocks):
                raise ParseError(lineno, f"duplicate section [{name}]")
            section, kv, rows = name, {}, []
            blocks.append((name, lineno, kv, rows))
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        if section == "cycles":
            if "=" in line and _key_value(line) and line[0] not in "0123456789":
                raise ParseError(lineno, "the cycles section holds residue rows only")
            rows.append((None, _parse_row(line, lineno), lineno))
            continue
        pair = _key_value(line)
        if pair is None:
            raise ParseError(lineno, f"expected 'key = value', got {_quote(line)}")
        key, value = pair
        if section == "threefold" and key in _ROW_KEYS:
            rows.append((key, _parse_row(value, lineno), lineno))
            continue
        if key not in _KEYS[section]:
            raise ParseError(lineno, f"unknown {section} key {key!r}")
        if key in kv:
            raise ParseError(lineno, f"duplicate {section} key {key!r}")
        kv[key] = (value, lineno)

    # Each section by name; of the [embedded-surface] blocks, only the last.
    named = {block[0]: block for block in blocks}
    if "surface" not in named:
        raise ParseError(lineno or 1, "missing surface block")
    surface = _build_surface(named["surface"])
    cycles: tuple[sf.HomologyClass, ...] | None = None
    if "cycles" in named:
        message = "cycle has {} coordinates, expected {}"
        cycles = _residue_classes(named["cycles"][3], surface.z2_rank, message)
    threefold = None
    if "threefold" in named:
        threefold = _build_threefold(named["threefold"], surface)
    embedded = [block for block in blocks if block[0] == "embedded-surface"]
    built = [_build_embedded(block, n) for n, block in enumerate(embedded, start=1)]
    return InputDocument(surface, cycles, threefold, tuple(built))


def _build_surface(block: _Block) -> sf.SurfaceModel:
    _, header_line, kv, _ = block
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


def _build_embedded(block: _Block, n: int) -> EmbeddedSurfaceData:
    # Only documents with an [embedded-surface] block load charclasses.
    from .charclasses import EmbeddedSurfaceData

    _, header_line, kv, _ = block
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
    block: _Block, surface: sf.SurfaceModel
) -> tf.HandlebodyDecomposition3:
    _, header_line, kv, rows = block
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
        keyed = [row for row in rows if row[0] == key]
        if len(keyed) != genus:
            raise ParseError(
                header_line,
                f"threefold block needs {genus} {key} rows, got {len(keyed)}",
            )
        message = key + " row has {} entries, expected {}"
        classes.append(_residue_classes(keyed, 2 * genus, message))
    try:
        return tf.HandlebodyDecomposition3(genus, *classes)
    except PinlefError as e:
        raise ParseError(header_line, str(e)) from None


def _residue_classes(
    rows: list[_Row], length: int, message: str
) -> tuple[sf.HomologyClass, ...]:
    """Z4 classes from parsed residue rows; ``message`` formats the actual
    and expected length of a row that is not ``length`` long.  Rows read
    as bytes hold residues 0..3 only."""
    for _, row, lineno in rows:
        if len(row) != length:
            raise ParseError(lineno, message.format(len(row), length))
        if row.__class__ is not bytes:
            for a in row:
                if not 0 <= a <= 3:
                    raise ParseError(lineno, f"residue {sf.brief(a)} out of range 0..3")
    return tuple([sf.HomologyClass("Z4", row) for _, row, _ in rows])


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
    """The fibration or threefold the deciders read, made once per command:
    a fibration is built and checked from the cycles, and the threefold
    checked at parse is copied over a fresh list of its classes.  What
    both kinds share, its elimination, base values and scan table, lives
    as long as it does, so no command reads any left by another on the
    document."""
    if doc.threefold is None:
        return lf.LefschetzFibration(doc.surface, doc.cycles or ())
    if doc.cycles is not None or doc.embedded_surfaces:
        extra = "cycles" if doc.cycles is not None else "embedded-surface"
        raise InputError(f"a threefold document takes no [{extra}] section")
    return doc.threefold._unshared()


def _decide(x, kind: str) -> lf.DecisionReport:
    if isinstance(x, lf.LefschetzFibration):
        return lf.decide_pin_plus(x) if kind == "plus" else lf.decide_pin_minus(x)
    return tf.decide_pin_plus_3mfd(x) if kind == "plus" else tf.solve_pin_minus_3mfd(x)


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
    width = f"0{2 * d.genus}b"
    rows = [",".join(format(c._bits, width)) for c in d.listed_classes()]
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
    if mode == "sphere" and len(doc.embedded_surfaces) != 1:
        raise InputError(
            "a fibration-over-the-sphere document takes exactly one "
            "embedded-surface block (the dual surface)"
        )
    reports = [_decide(x, k) for k in kinds]
    sections += map(_verdict_section, reports)
    ok = all(report.exists for report in reports)
    if mode == "sphere":
        from .charclasses import over_s2

        over = {r.kind: over_s2(r, doc.embedded_surfaces[0]) for r in reports}
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
                f"enumerate refused: {sf.brief(report.structure_count)} "
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
    rank = _target(doc, "oracle").z2_rank
    if rank > _ORACLE_RANK_LIMIT:
        raise InputError(f"oracle refused: z2 rank {rank} exceeds {_ORACLE_RANK_LIMIT}")
    x = _subject(doc)
    pairs: list[tuple[str, object]] = []
    text = []
    agree_all = True
    for k in _KINDS[kind]:
        report, hits = _decide(x, k), x._system(k).hit_rows()
        decided, exhaustive = report.structure_count, len(hits)
        # The same rows in index order: the same set, in the order the
        # structure set promises.
        found = report.structures
        agree = decided == exhaustive and (
            not hits or list(_walk(found.first, found.kernel)) == hits
        )
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
    return "\n".join(chain(_render(sections, fmt), [""])), status


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def bundled_example(name: str) -> Path:
    """Path to one of the example files shipped with the package."""
    return Path(__file__).parent / "data" / name


# Each option: the name it is stored under, its values, its default and
# its help.  The command line reader and argparse read the same tables.
_OPTIONS = {
    "--kind": ("kind", _KINDS, "both", "which structure kind to consider"),
    "--format": ("fmt", _FORMATS, "text", "report style"),
}


def _build_argparser() -> argparse.ArgumentParser:
    # Only the command lines _read_argv leaves to argparse load it (and gettext).
    import argparse

    parser = argparse.ArgumentParser(
        prog="pinlef",
        description=(
            "Decide, count, and enumerate Pin structures on Lefschetz "
            "fibrations over the disk and on closed 3-manifold handlebody data."
        ),
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("file", type=Path, help="description file to process")
    for flag, (dest, choices, default, text) in _OPTIONS.items():
        parser.add_argument(
            flag,
            dest=dest,
            choices=choices,
            default=default,
            help=f"{text} (default: {default})",
        )
    return parser


def _read_argv(argv: list[str]) -> tuple[str, Path, str, str] | None:
    """The command, file, kind and format of a well-formed command line: a
    command and a file, and at most one of each option with one of its
    values, as separate words, in any order.  None for any other command
    line (help, abbreviations, ``--opt=value``, repeats, ``--``, errors),
    which argparse reads instead."""
    words = []
    values: dict[str, str] = {}
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        option = _OPTIONS.get(token)
        value = next(tokens, None)
        if option is None or token in values or value not in option[1]:
            return None
        values[token] = value
    if len(words) != 2 or words[0] not in _COMMANDS:
        return None
    kind, fmt = (values.get(flag, option[2]) for flag, option in _OPTIONS.items())
    return words[0], Path(words[1]), kind, fmt


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # Everything before the bad byte decodes; count its lines as parse does.
        line = len(_lines(data[: e.start].decode("utf-8") + "x"))
        raise ParseError(line, "input is not valid UTF-8") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        ns = _build_argparser().parse_args(argv)
        args = ns.command, ns.file, ns.kind, ns.fmt
    command, path, kind, fmt = args
    try:
        data = path.read_bytes()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        doc = parse(_decode(data))
        sections, status = _report(command, doc, kind)
    except PinlefError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = sys.stdout
    if out is None:  # started with stdout closed (``pinlef ... >&-``)
        print("error: cannot write report: stdout is closed", file=sys.stderr)
        return 2
    try:
        # A piece at a time: a long enumerate report is never held whole.
        out.writelines(piece + "\n" for piece in _render(sections, fmt))
        out.flush()
    except OSError as e:
        # Send what is left to devnull, so no later flush can fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        # A reader that stopped early (``pinlef enumerate ... | head``) is
        # no error; a full disk (``> /dev/full``) is.
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    return status


def console_main() -> None:
    """The ``pinlef`` console script.  Once :func:`main` returns, stdout
    and stderr are flushed and the process ends with its status at once,
    skipping interpreter finalization: ``atexit`` handlers do not run.
    Exceptions, argparse's ``SystemExit`` among them, propagate as usual."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)
