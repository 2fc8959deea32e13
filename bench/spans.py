"""External per-layer trace for pinlef, installed from the benchmark's files.

:func:`install` replaces every public function of the traced modules with a
wrapper at the module-attribute level.  pinlef reaches other modules through
module attributes (``fl.rref_gf2``) and its own module's functions through
module globals, which are the same dictionary, so both kinds of call pass
through the wrappers.  The enhancement constructors are wrapped on their
classes.  Untraced runs never import this module's :func:`install`.

Each call is a span with a name and a parent (the span open when it
started); spans are aggregated as they close: calls, inclusive time and self
time (inclusive minus the time covered by child spans), plus the counts the
per-layer metrics need.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

MODULES = ("cli", "lefschetz", "threefolds", "surfaces", "finite_linalg")
CONSTRUCTORS = ("EnhancementMinus", "EnhancementPlus")
DECIDERS = {
    "lefschetz.decide_pin_minus": "lefschetz",
    "lefschetz.decide_pin_plus": "lefschetz",
    "threefolds.decide_pin_plus_3mfd": "threefolds",
    "threefolds.solve_pin_minus_3mfd": "threefolds",
}
ORACLES = {
    "lefschetz.brute_force_pin_minus",
    "lefschetz.brute_force_pin_plus",
    "threefolds.brute_force_pin_plus_3mfd",
    "threefolds.brute_force_pin_minus_3mfd",
}


class Tracer:
    """Span aggregates for one process; create one and pass it to install()."""

    def __init__(self):
        self.stack: list[list] = []  # [name, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._rrefs_open: list[int] = []  # rref calls inside each open decider
        self._solved_open: list[bool] = []  # whether it reached the solver

    def wrap(self, name: str, fn):
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            result = failed = self
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.calls[name] += 1
                self.incl[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                self._exit(name, None if result is failed else result)
            return result

        return traced

    def _enter(self, name: str, args) -> None:
        if name == "finite_linalg.rref_gf2":
            shape = getattr(args[0], "shape", None)
            if shape is None:
                shape = (len(args[0]), len(args[0][0]) if len(args[0]) else 0)
            self.counts["rref_cells"] += int(shape[0]) * int(shape[-1])
            if self._rrefs_open:
                self._rrefs_open[-1] += 1
        elif name == "finite_linalg.solve_affine_gf2" and self._rrefs_open:
            self._solved_open[-1] = True
        elif name in DECIDERS:
            self._rrefs_open.append(0)
            self._solved_open.append(False)
        elif name.startswith("surfaces.Enhancement") and self.stack:
            module = DECIDERS.get(self.stack[-1][0])
            if module:
                self.counts[f"{module}.structures_built"] += 1

    def _exit(self, name: str, result) -> None:
        """Close the counts of one call; ``result`` is None when it raised."""
        if name in DECIDERS:
            rrefs = self._rrefs_open.pop()
            solved = self._solved_open.pop()
            if result is None:
                return
            # A NO that never built a system (a fiber without Pin+) is
            # counted apart from unsolvable systems.
            if result.exists:
                outcome = "yes"
            else:
                outcome = f"no_{result.kind}" if solved else "obstructed"
            self.counts[f"rref_{outcome}"] += rrefs
            self.counts[f"decisions_{outcome}"] += 1
        elif result is None:
            return
        elif name == "surfaces.enumerate_enhancements":
            self.counts["oracle_candidates"] += len(result)
        elif name in ORACLES:
            self.counts["oracle_accepted"] += len(result)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced pinlef modules in place."""
    import importlib

    for short in MODULES:
        module = importlib.import_module(f"pinlef.{short}")
        for attr, fn in list(_public_functions(module)):
            setattr(module, attr, tracer.wrap(f"{short}.{attr}", fn))
    surfaces = importlib.import_module("pinlef.surfaces")
    for cls_name in CONSTRUCTORS:
        cls = getattr(surfaces, cls_name)
        cls.__init__ = tracer.wrap(f"surfaces.{cls_name}", cls.__init__)


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (used for traced child processes)."""
    for key, values in part.items():
        bucket = total.setdefault(key, {})
        for name, v in values.items():
            bucket[name] = bucket.get(name, 0) + v


def layer_metrics(snap: dict, ops: int) -> dict[str, float]:
    """Per-operation layer figures from an aggregated snapshot."""
    calls, incl, own, counts = (snap.get(k, {}) for k in ("calls", "incl", "self", "counts"))

    def ms(table, names):
        return 1000.0 * sum(table.get(n, 0.0) for n in names) / ops

    def per_op(value):
        return value / ops

    outcomes = ("yes", "no_minus", "no_plus", "obstructed")
    decisions = sum(counts.get(f"decisions_{o}", 0) for o in outcomes)
    rrefs = sum(counts.get(f"rref_{o}", 0) for o in outcomes)
    candidates = counts.get("oracle_candidates", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.parse_ms": ms(incl, ["cli.parse"]),
        "cli.render_ms": ms(own, ["cli.run"]),
        "linalg.rref_ms": ms(own, ["finite_linalg.rref_gf2"]),
        "linalg.rref_calls_per_decision": ratio(rrefs, decisions),
        **{
            f"linalg.rref_calls_per_{o}": ratio(counts.get(f"rref_{o}", 0), counts.get(f"decisions_{o}", 0))
            for o in outcomes[:3]
        },
        "linalg.rref_cells": per_op(counts.get("rref_cells", 0)),
        "linalg.validate_ms": ms(own, ["finite_linalg.mat_gf2", "finite_linalg.vec_gf2"]),
        "linalg.solve_ms": ms(incl, ["finite_linalg.solve_affine_gf2"]),
        "linalg.witness_ms": ms(incl, ["finite_linalg.inconsistency_witness_gf2"]),
        "surfaces.eval_ms": ms(
            own, ["surfaces.eval_qminus", "surfaces.eval_qplus", "surfaces.plus_relation_defect"]
        ),
        "surfaces.eval_calls": per_op(
            calls.get("surfaces.eval_qminus", 0) + calls.get("surfaces.eval_qplus", 0)
        ),
        "surfaces.presentation_calls": per_op(calls.get("surfaces.homology_presentation", 0)),
        "surfaces.scan_ms": ms(incl, [f"surfaces.{c}" for c in CONSTRUCTORS])
        + ms(own, ["surfaces.enumerate_enhancements"]),
        "lefschetz.decide_self_ms": ms(own, [n for n, m in DECIDERS.items() if m == "lefschetz"]),
        "lefschetz.structures_built": per_op(counts.get("lefschetz.structures_built", 0)),
        "threefolds.decide_self_ms": ms(own, [n for n, m in DECIDERS.items() if m == "threefolds"]),
        "threefolds.structures_built": per_op(counts.get("threefolds.structures_built", 0)),
        "oracle.scan_ms": ms(incl, sorted(ORACLES)),
        "oracle.candidates": per_op(candidates),
        "oracle.hit_ratio": ratio(counts.get("oracle_accepted", 0), candidates),
    }
