"""Reference answers and output checks that share no code with pinlef.

Everything here works on the document text and on pinlef's text reports.
Classes are bit masks with generator 0 as the most significant bit, GF(2)
ranks come from an XOR basis, and the base enhancements are evaluated in
closed form:

* minus: q0(x) = |S & D| + 2 * pairs(S) mod 4, where S is the mod-2
  support of x, D the generators of odd self-intersection (crosscaps) and
  pairs(S) the number of symplectic pairs (a_k, b_k) inside S;
* plus: q0(x) = #{crosscap coordinates in {2, 3}} + pairs(S) mod 2.

A minus structure with values v is q0 + 2s with s = v >> 1, so it takes the
value t on x exactly when s . S = (t - q0(x)) / 2 mod 2.  A plus structure
l takes the value l . S + q0(x) mod 2.  Fibrations ask for 2 (minus) and 1
(plus) on every cycle, threefolds for 0 on every attaching and belt class.

Run this file to execute the self-test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_LOW = str.maketrans("0123", "0101")
_HIGH = str.maketrans("0123", "0011")
_VERDICT = re.compile(r"^Pin([+-]): (YES|NO) \((.*)\)$")
_YES_BODY = re.compile(r"^(\d+) structures; annihilator dim (\d+)$")
_NO_BODY = re.compile(r"^annihilator dim (\d+); certificate: (.+)$")
_ENUM_HEAD = re.compile(r"^Pin([+-]) structures \((\d+)\) on generators (\S+):$")
_ORACLE = re.compile(r"^oracle Pin([+-]): (AGREE|DISAGREE) \(decider (\d+), exhaustive (\d+)\)$")
_SIGN = {"plus": "+", "minus": "-"}


@dataclass(frozen=True)
class Constraint:
    """One row of the decision system: bit mask S and required parity."""

    mask: int
    parity: int


@dataclass(frozen=True)
class KindAnswer:
    exists: bool
    count: int
    dim: int
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class Expected:
    """What pinlef must report for one document."""

    rank: int
    generators: tuple[str, ...]
    diag: int  # mask of generators with self-intersection 1
    pair_starts: int  # mask of a_k generators (partner is the next bit down)
    relation_rows: int  # 1 for a closed non-orientable surface, else 0
    surface_pin_plus: bool
    threefold_genus: int  # 0 for fibration documents
    classes: tuple[tuple[int, ...], ...]  # cycles, or attaching then belt
    answers: dict  # "plus"/"minus" -> KindAnswer

    def status(self) -> int:
        """Exit status of decide and enumerate (kind both)."""
        return 0 if all(a.exists for a in self.answers.values()) else 1


def parse_document(text: str) -> dict:
    """Minimal reader for the generated and bundled documents."""
    surface: dict = {}
    cycles: list | None = None
    three: dict = {"attach": [], "belt": []}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            section = line[1:-1]
            if section == "cycles":
                cycles = []
            continue
        if section == "cycles":
            cycles.append(tuple(int(a) for a in line.split(",")))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "surface":
            surface[key] = value
        elif key == "genus":
            three["genus"] = int(value)
        else:
            three[key].append(tuple(int(a) for a in value.split(",")))
    return {"surface": surface, "cycles": cycles, "threefold": three if "genus" in three else None}


def _mask(coords) -> int:
    m = 0
    for a in coords:
        m = (m << 1) | (a & 1)
    return m


def _rank_and_consistency(rows) -> tuple[int, bool]:
    basis: dict[int, tuple[int, int]] = {}
    consistent = True
    for m, b in rows:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = (m, b)
                break
            bm, bb = basis[top]
            m ^= bm
            b ^= bb
        else:
            if b:
                consistent = False
    return len(basis), consistent


def expected_for(text: str) -> Expected:
    doc = parse_document(text)
    s = doc["surface"]
    boundary = int(s.get("boundary", "0"))
    extra = max(boundary - 1, 0)
    labels: list[str] = []
    if s["kind"] == "orientable":
        g = int(s["genus"])
        for i in range(1, g + 1):
            labels += [f"a{i}", f"b{i}"]
        n_cross = 0
    else:
        n_cross = int(s["crosscaps"])
        labels += [f"e{i}" for i in range(1, n_cross + 1)]
    labels += [f"d{i}" for i in range(1, extra + 1)]
    r = len(labels)
    bit = [1 << (r - 1 - i) for i in range(r)]
    diag = sum(bit[:n_cross])
    pair_starts = 0 if n_cross else sum(bit[i] for i in range(0, len(labels) - extra, 2))
    closed_nonor = n_cross > 0 and boundary == 0
    surface_pin_plus = not (closed_nonor and n_cross % 2 == 1)

    three = doc["threefold"]
    if three is not None:
        classes = tuple(three["attach"]) + tuple(three["belt"])
        targets = {"minus": 0, "plus": 0}
    else:
        classes = tuple(doc["cycles"] or ())
        targets = {"minus": 2, "plus": 1}

    def pairs(m: int) -> int:
        return bin(m & (m << 1) & pair_starts).count("1")

    rows_minus, rows_plus = [], []
    for c in classes:
        m = _mask(c)
        q0_minus = (bin(m & diag).count("1") + 2 * pairs(m)) % 4
        rows_minus.append((m, ((targets["minus"] - q0_minus) % 4) // 2))
        q0_plus = (sum(1 for a in c[:n_cross] if a >= 2) + pairs(m)) % 2
        rows_plus.append((m, (targets["plus"] - q0_plus) % 2))

    answers = {}
    for kind, rows in (("minus", rows_minus), ("plus", rows_plus)):
        rank_c, consistent = _rank_and_consistency(rows)
        if kind == "plus" and not surface_pin_plus:
            consistent = False
        dim = r - rank_c
        answers[kind] = KindAnswer(
            exists=consistent,
            count=(1 << dim) if consistent else 0,
            dim=dim,
            constraints=tuple(Constraint(m, b) for m, b in rows),
        )
    return Expected(
        rank=r,
        generators=tuple(labels),
        diag=diag,
        pair_starts=pair_starts,
        relation_rows=1 if closed_nonor else 0,
        surface_pin_plus=surface_pin_plus,
        threefold_genus=three["genus"] if three is not None else 0,
        classes=classes,
        answers=answers,
    )


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------


def _structure_problem(exp: Expected, kind: str, line: str) -> str | None:
    """Check one enumerated structure against every constraint."""
    r = exp.rank
    if len(line) != 2 * r - 1 or line[1::2] != "," * (r - 1):
        return f"malformed structure line {line!r}"
    digits = line[::2]
    allowed = "0123" if kind == "minus" else "01"
    if digits.strip(allowed):
        return f"structure values out of range: {line!r}"
    if kind == "minus":
        if int(digits.translate(_LOW), 2) != exp.diag:
            return f"minus structure has wrong parities: {line!r}"
        s = int(digits.translate(_HIGH), 2)
    else:
        s = int(digits, 2)
    for c in exp.answers[kind].constraints:
        if bin(s & c.mask).count("1") % 2 != c.parity:
            return f"Pin{_SIGN[kind]} structure {line!r} misses its target on a class"
    return None


def check_decide(exp: Expected, out: str, status: int) -> list[str]:
    problems = []
    lines = out.splitlines()
    if not lines or not lines[0].endswith(f"(z2 rank {exp.rank})"):
        problems.append("surface line does not state the z2 rank")
    if exp.threefold_genus:
        rows = [ln for ln in lines if re.match(r"^  [ab]\d+: ", ln)]
        want = [",".join(str(a & 1) for a in c) for c in exp.classes]
        if [ln.split(": ", 1)[1] for ln in rows] != want:
            problems.append("threefold system rows differ from the document")
    seen = {}
    for ln in lines:
        m = _VERDICT.match(ln)
        if m:
            seen["plus" if m.group(1) == "+" else "minus"] = (m.group(2), m.group(3))
    for kind in ("plus", "minus"):
        ans = exp.answers[kind]
        if kind not in seen:
            problems.append(f"no Pin{_SIGN[kind]} verdict")
            continue
        word, body = seen[kind]
        if (word == "YES") != ans.exists:
            problems.append(f"Pin{_SIGN[kind]} verdict {word}, expected {'YES' if ans.exists else 'NO'}")
            continue
        if ans.exists:
            m = _YES_BODY.match(body)
            if not m or int(m.group(1)) != ans.count or int(m.group(2)) != ans.dim:
                problems.append(
                    f"Pin{_SIGN[kind]} reports {body!r}, expected {ans.count} structures, dim {ans.dim}"
                )
        else:
            m = _NO_BODY.match(body)
            if not m or int(m.group(1)) != ans.dim:
                problems.append(f"Pin{_SIGN[kind]} NO body {body!r}, expected dim {ans.dim} and a certificate")
    if status != exp.status():
        problems.append(f"exit status {status}, expected {exp.status()}")
    return problems


def check_enumerate(exp: Expected, out: str, status: int) -> list[str]:
    problems = []
    lines = out.splitlines()
    heads = [(i, _ENUM_HEAD.match(ln)) for i, ln in enumerate(lines)]
    heads = [(i, m) for i, m in heads if m]
    if [m.group(1) for _, m in heads] != ["+", "-"]:
        return ["enumerate report does not list Pin+ then Pin- structures"]
    bounds = [i for i, _ in heads] + [len(lines)]
    for n, (i, m) in enumerate(heads):
        kind = "plus" if m.group(1) == "+" else "minus"
        ans = exp.answers[kind]
        body = lines[i + 1 : bounds[n + 1]]
        if m.group(3) != ",".join(exp.generators):
            problems.append(f"Pin{m.group(1)} generators {m.group(3)!r} differ")
        if int(m.group(2)) != ans.count:
            problems.append(f"Pin{m.group(1)} count {m.group(2)}, expected {ans.count}")
        if not ans.exists:
            if len(body) != 1 or not body[0].startswith("  none ("):
                problems.append(f"Pin{m.group(1)} has no structures but lists {len(body)} lines")
            continue
        if len(body) != int(m.group(2)):
            problems.append(f"Pin{m.group(1)} lists {len(body)} lines for count {m.group(2)}")
        if len(set(body)) != len(body):
            problems.append(f"Pin{m.group(1)} lists a structure twice")
        for ln in body:
            bad = _structure_problem(exp, kind, ln[2:]) if ln.startswith("  ") else f"bad line {ln!r}"
            if bad:
                problems.append(bad)
                break
    if status != exp.status():
        problems.append(f"exit status {status}, expected {exp.status()}")
    return problems


def check_oracle(exp: Expected, out: str, status: int) -> list[str]:
    problems = []
    found = {}
    for ln in out.splitlines():
        m = _ORACLE.match(ln)
        if m:
            found[m.group(1)] = m
    for kind in ("plus", "minus"):
        m = found.get(_SIGN[kind])
        want = exp.answers[kind].count
        if m is None:
            problems.append(f"no oracle line for Pin{_SIGN[kind]}")
        elif m.group(2) != "AGREE" or int(m.group(3)) != want or int(m.group(4)) != want:
            problems.append(f"oracle line {m.group(0)!r}, expected AGREE with {want}")
    if "overall: AGREE" not in out.splitlines():
        problems.append("oracle overall verdict is not AGREE")
    if status != 0:
        problems.append(f"exit status {status}, expected 0")
    return problems


def check_surface_info(exp: Expected, out: str, status: int) -> list[str]:
    lines = out.splitlines()
    r = exp.rank
    want_form = []
    for i in range(r):
        row = []
        for j in range(r):
            bi, bj = 1 << (r - 1 - i), 1 << (r - 1 - j)
            on = (i == j and exp.diag & bi) or (
                (j == i + 1 and exp.pair_starts & bi) or (i == j + 1 and exp.pair_starts & bj)
            )
            row.append("1" if on else "0")
        want_form.append(f"  {exp.generators[i]}: " + ",".join(row))
    problems = []
    if f"z2 rank: {r}" not in lines:
        problems.append("surface-info misses the z2 rank")
    if f"generators: {','.join(exp.generators)}" not in lines:
        problems.append("surface-info generators differ")
    try:
        start = lines.index("intersection form mod 2:") + 1
    except ValueError:
        start = None
    if start is None or lines[start : start + r] != want_form:
        problems.append("surface-info intersection form differs")
    has_rel = "z4 relation rows: none" not in lines
    if has_rel != bool(exp.relation_rows):
        problems.append("surface-info relation rows differ")
    flag = next((ln for ln in lines if ln.startswith("Pin+ on surface: ")), "")
    if flag.startswith("Pin+ on surface: yes") != exp.surface_pin_plus:
        problems.append(f"surface-info Pin+ flag {flag!r} is wrong")
    if status != 0:
        problems.append(f"exit status {status}, expected 0")
    return problems


CHECKS = {
    "decide": check_decide,
    "enumerate": check_enumerate,
    "oracle": check_oracle,
    "surface-info": check_surface_info,
}


def check(exp: Expected, command: str, out: str, status: int) -> list[str]:
    return CHECKS[command](exp, out, status)


# ---------------------------------------------------------------------------
# Self-test: the checker must reject a flipped verdict and an off-by-one count.
# ---------------------------------------------------------------------------

_RP4 = "[surface]\nkind = non-orientable\ncrosscaps = 1\nboundary = 1\n\n[cycles]\n2\n"
_RP4_DECIDE = (
    "surface: non-orientable, crosscaps 1, boundary 1 (z2 rank 1)\n"
    "Pin+: YES (2 structures; annihilator dim 1)\n"
    "Pin-: NO (annihilator dim 1; certificate: q-(c1) = q-(2e1) = 0 != 2 "
    "(cycle 1 is null-homologous mod 2))\n"
)
_RP4_ENUMERATE = (
    "Pin+ structures (2) on generators e1:\n  0\n  1\n"
    "Pin- structures (0) on generators e1:\n  none (certificate)\n"
)


def selftest() -> list[str]:
    """Problems with the checker itself; empty when it behaves."""
    exp = expected_for(_RP4)
    cases = [
        ("correct decide", "decide", _RP4_DECIDE, 1, True),
        ("flipped verdict", "decide", _RP4_DECIDE.replace("Pin+: YES", "Pin+: NO"), 1, False),
        ("off-by-one count", "decide", _RP4_DECIDE.replace("(2 structures", "(3 structures"), 1, False),
        ("correct enumerate", "enumerate", _RP4_ENUMERATE, 1, True),
        ("off-by-one enumerate", "enumerate", _RP4_ENUMERATE.replace("(2)", "(3)"), 1, False),
        ("duplicate structure", "enumerate", _RP4_ENUMERATE.replace("  1\n", "  0\n"), 1, False),
        ("wrong status", "decide", _RP4_DECIDE, 0, False),
    ]
    failures = []
    for name, command, out, status, ok in cases:
        if (not check(exp, command, out, status)) != ok:
            failures.append(f"self-test case {name!r} was {'rejected' if ok else 'accepted'}")
    return failures


if __name__ == "__main__":
    problems = selftest()
    print("\n".join(problems) if problems else "reference self-test passed")
    raise SystemExit(1 if problems else 0)
