"""Byte-for-byte comparison of CLI reports and decisions with recorded output.

``tests/golden/expected.json`` holds, for each document below, the stdout,
stderr and exit status of ``cli.main`` for every command x ``--kind`` x
``--format`` combination, plus the public deciders' reports (structure
order, certificate, witness) and the brute-force oracles' enhancement lists.

Regenerate the file (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pinlef as P
from pinlef import cli

GOLDEN = Path(__file__).parent / "golden" / "expected.json"

COMMANDS = ("decide", "enumerate", "oracle", "surface-info")
KINDS = ("minus", "plus", "both")
FORMATS = ("text", "machine")

_EMBEDDED = """
[embedded-surface]
euler = {0}
self_intersection = {1}
cup = {2}
w1sq_surface = {3}
w1sq_normal = {4}
"""

# Small inline documents, one for each decision path the reports word
# differently.
INLINE = {
    "pin-minus-summands": (
        "[surface]\nkind = orientable\ngenus = 2\nboundary = 1\n"
        "[cycles]\n2,0,0,1\n1,1,2,0\n1,1,0,1\n"
    ),
    "null-homologous": (
        "[surface]\nkind = orientable\ngenus = 1\nboundary = 1\n"
        "[cycles]\n1,0\n2,0\n"
    ),
    "pin-plus-rank": (
        "[surface]\nkind = non-orientable\ncrosscaps = 2\nboundary = 0\n"
        "[cycles]\n1,3\n3,3\n1,3\n"
    ),
    "odd-crosscap-fiber": (
        "[surface]\nkind = non-orientable\ncrosscaps = 3\nboundary = 0\n"
        "[cycles]\n1,1,0\n"
    ),
    "wide-orbit": (
        "[surface]\nkind = orientable\ngenus = 2\nboundary = 2\n"
        "[cycles]\n1,1,1,0,0\n"
    ),
    "product": "[surface]\nkind = orientable\ngenus = 1\nboundary = 0\n[cycles]\n",
    "threefold-yes": (
        "[surface]\nkind = non-orientable\ncrosscaps = 2\nboundary = 0\n"
        "[threefold]\ngenus = 1\nattach = 1,1\nbelt = 0,0\n"
    ),
    "threefold-plus-no": (
        "[surface]\nkind = non-orientable\ncrosscaps = 2\nboundary = 0\n"
        "[threefold]\ngenus = 1\nattach = 2,0\nbelt = 0,2\n"
    ),
    "threefold-minus-inconsistent": (
        "[surface]\nkind = non-orientable\ncrosscaps = 4\nboundary = 0\n"
        "[threefold]\ngenus = 2\nattach = 1,2,2,1\nattach = 1,0,3,2\n"
        "belt = 1,1,0,2\nbelt = 1,1,3,1\n"
    ),
    "sphere": (
        "[surface]\nkind = orientable\ngenus = 1\nboundary = 1\n[cycles]\n1,0\n"
        + _EMBEDDED.format(1, 0, 0, 0, 1)
    ),
    "charclass": (
        "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n"
        + _EMBEDDED.format(1, 1, 0, 1, 0)
    ),
    "input-error": "[surface]\nkind = orientable\ngenus = 1\n[nope]\n",
    "one-sided-cycle": (
        "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n[cycles]\n1\n"
    ),
}

BUNDLED = ("rp4.pinlef", "s2xrp2.pinlef", "s2xtrp2.pinlef")


def documents() -> dict[str, str]:
    docs = {name: cli.bundled_example(name).read_text() for name in BUNDLED}
    docs.update(INLINE)
    return docs


def _run_main(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def cli_records(docs: dict[str, str]) -> dict[str, dict]:
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in docs.items():
            path = Path(tmp) / f"{name}.pinlef"
            path.write_text(text, encoding="utf-8")
            for command in COMMANDS:
                for kind in KINDS:
                    for fmt in FORMATS:
                        argv = [command, str(path), "--kind", kind, "--format", fmt]
                        records[f"{name} {command} {kind} {fmt}"] = _run_main(argv)
    return records


def _deciders(doc):
    if doc.threefold is not None:
        d = doc.threefold
        return {
            "minus": (P.solve_pin_minus_3mfd(d), P.brute_force_pin_minus_3mfd(d)),
            "plus": (P.decide_pin_plus_3mfd(d), P.brute_force_pin_plus_3mfd(d)),
        }
    f = P.LefschetzFibration(doc.surface, doc.cycles)
    return {
        "minus": (P.decide_pin_minus(f), P.brute_force_pin_minus(f)),
        "plus": (P.decide_pin_plus(f), P.brute_force_pin_plus(f)),
    }


def api_records(docs: dict[str, str]) -> dict[str, dict]:
    records = {}
    for name, text in docs.items():
        try:
            doc = cli.parse(text)
        except P.ParseError:
            continue
        if doc.threefold is None and doc.cycles is None:
            continue
        try:
            decided = _deciders(doc)
        except P.PinlefError:
            continue
        for kind, (report, brute) in decided.items():
            records[f"{name} {kind}"] = {
                "exists": report.exists,
                "structure_count": report.structure_count,
                "h1_annihilator_dim": report.h1_annihilator_dim,
                "structures": [list(q.values) for q in report.structures],
                "certificate": report.certificate,
                "witness": repr(report.witness),
                "brute_force": [list(q.values) for q in brute],
            }
    return records


def collect() -> dict:
    docs = documents()
    return {"cli": cli_records(docs), "api": api_records(docs)}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cli_outputs_match_golden():
    expected = _expected()["cli"]
    actual = cli_records(documents())
    assert sorted(actual) == sorted(expected)
    for key, record in expected.items():
        assert actual[key] == record, key


def test_run_matches_golden_stdout():
    # cli.run joins the rendered report where cli.main streams it.
    docs = documents()
    for key, record in _expected()["cli"].items():
        if record["status"] == 2:
            continue
        name, command, kind, fmt = key.split()
        expected = (record["stdout"], record["status"])
        assert cli.run(command, cli.parse(docs[name]), kind, fmt) == expected, key


def test_decisions_match_golden():
    expected = _expected()["api"]
    actual = json.loads(json.dumps(api_records(documents())))
    assert sorted(actual) == sorted(expected)
    for key, record in expected.items():
        assert actual[key] == record, key


def test_golden_covers_every_path():
    cli_out = "".join(r["stdout"] + r["stderr"] for r in _expected()["cli"].values())
    for needle in (
        "k + pairwise intersections = 2",
        "null-homologous mod 2",
        "rank(C) = 1 != rank(C|A) = 2",
        "fiber has no Pin+ structure",
        "no enhancement vanishes on all attaching and belt classes",
        "inconsistent subset:",
        "Pin- over S2: NO",
        "Pin+: unobstructed",
        "error: line 4: unknown section [nope]",
    ):
        assert needle in cli_out, needle


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
