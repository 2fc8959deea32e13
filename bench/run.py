"""pinlef benchmark: four closed-loop workloads, checked against a reference.

One workload, as the benchmark contract asks (prints a result JSON line last):

    python3 bench/run.py --workload dense-decide --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a table of all metrics:

    python3 bench/run.py --all

See bench/README.md for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import reference
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "dense-decide", "wide-orbit", "oracle-sweep")
SETUP_REPEATS = 5  # setup_s is the median of this many fresh set-ups
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "decide_p50_ms": "ms",
    "enumerate_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.parse_ms": "ms/op",
    "cli.render_ms": "ms/op",
    "cli.output_bytes": "bytes/op",
    "linalg.rref_ms": "ms/op",
    "linalg.rref_calls_per_decision": "count",
    "linalg.rref_calls_per_yes": "count",
    "linalg.rref_calls_per_no_minus": "count",
    "linalg.rref_calls_per_no_plus": "count",
    "linalg.rref_cells": "cells/op",
    "linalg.validate_ms": "ms/op",
    "linalg.solve_ms": "ms/op",
    "linalg.witness_ms": "ms/op",
    "surfaces.eval_ms": "ms/op",
    "surfaces.eval_calls": "calls/op",
    "surfaces.presentation_calls": "calls/op",
    "surfaces.scan_ms": "ms/op",
    "lefschetz.decide_self_ms": "ms/op",
    "lefschetz.structures_built": "count/op",
    "threefolds.decide_self_ms": "ms/op",
    "threefolds.structures_built": "count/op",
    "oracle.scan_ms": "ms/op",
    "oracle.candidates": "count/op",
    "oracle.hit_ratio": "ratio",
    "host_probe_ms": "ms",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> tuple[dict, float]:
    """Run worker.py once; return its report and its peak RSS in MiB."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    _, status, out, err, kib = worker.run_child(argv, worker.child_env())
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if status != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with status {status}")
    return json.loads(lines[-1]), kib / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, record) for one run of one workload."""
    reports = [run_worker(workload, seed, seconds, trace, True)[0] for _ in range(SETUP_REPEATS - 1)]
    report, worker_mib = run_worker(workload, seed, seconds, trace, False)
    reports.append(report)
    setups = [r["setup_s"] for r in reports]
    peak_mib = report["child_peak_rss_kib"] / 1024.0 if workload == "cli-cold" else worker_mib
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": report["op_p50_ms"],
        "op_tail_ms": report["op_tail_ms"],
        "ops_per_s": report["ops_per_s"],
        "decide_p50_ms": report["decide_p50_ms"],
        "enumerate_p50_ms": report["enumerate_p50_ms"],
        "peak_rss_mib": peak_mib,
    }
    units = END_TO_END
    if trace:
        values = report["layers"]
        units = PER_LAYER
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pool": report["params"],
        "op_tail_percentile": report["op_tail_percentile"],
        "op_samples": report["op_samples"],
        "decide_samples": report["decide_samples"],
        "enumerate_samples": report["enumerate_samples"],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [r["raw_setup_s"] for r in reports],
        "raw_op_p50_ms": report["raw_op_p50_ms"],
        "host_probe_ms": report["host_probe_ms"],
        "failed_ratio": report["failed"] / report["attempted"],
        "problems": report["problems"],
    }
    for key in ("cli_interp_ms", "cli_import_ms"):
        if key in report:
            record[key] = report[key]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def run_all(seed: int, seconds: float) -> int:
    rows = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(workload, seed, seconds, trace)
            ok = ok and result["correct"]
            print(f"record {json.dumps(record)}", flush=True)
            rows[(workload, trace)] = (result, record)
    for trace, title in ((0, "end-to-end metrics"), (1, "per-layer metrics (traced run)")):
        print(f"\n{title}, seed {seed}, {seconds:g} s per run")
        names = list(END_TO_END if not trace else PER_LAYER) + ["failed_ratio"]
        print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
        for name in names:
            cells = []
            for w in WORKLOADS:
                result, record = rows[(w, trace)]
                if name == "failed_ratio":
                    cells.append(f"{record['failed_ratio']:16.4f}")
                else:
                    cells.append(f"{result['metrics'][name]['value']:16.4f}")
            unit = "ratio" if name == "failed_ratio" else (PER_LAYER if trace else END_TO_END)[name]
            print(f"{name + ' [' + unit + ']':44s}" + "".join(cells))
        tails = [f"{w} p{rows[(w, trace)][1]['op_tail_percentile']:g} of {rows[(w, trace)][1]['op_samples']}"
                 for w in WORKLOADS]
        print("op_tail_ms percentile and samples: " + ", ".join(tails))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pinlef" / "cli.py").is_file():
        print(f"error: no pinlef sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = reference.selftest()
    if problems:
        print("error: reference checker self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("give --workload or --all")
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"record {json.dumps(record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
