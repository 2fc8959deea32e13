"""One workload in a fresh process: set up, measure, check, report JSON.

Started by run.py; prints one JSON object as its last stdout line.  Every
workload is a closed loop with one client and one operation in flight.
The in-process workloads run whole passes over a seeded pool, so every run
has the same mix of shapes; cli-cold starts one pinlef process at a time.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import docgen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# workload -> (pool generator, commands run on each document per operation)
IN_PROCESS = {
    "dense-decide": (docgen.dense_pool, ("decide", "enumerate")),
    "wide-orbit": (docgen.wide_pool, ("decide", "enumerate")),
    "oracle-sweep": (docgen.oracle_pool, ("decide", "enumerate", "oracle")),
}
CLI_COMMANDS = ("decide", "enumerate", "surface-info", "oracle")
PINLEF_MAIN = "import sys; from pinlef.cli import console_main; sys.argv[0] = 'pinlef'; console_main()"
TRACED_SHARE = 2 / 3  # traced runs measure untraced first, then traced
CLI_PROBES_PER_TRACED_RUN = 5
SETUP_PROBES = 5
# Round figures near the probes' times on the 2-core 2.0 GHz Xeon the
# benchmark was sized on; end-to-end times are reported at this host speed
# (see README.md, "Noise").
HOST_PROBE_REF_MS = 2.5
INTERP_PROBE_REF_MS = 70.0


def host_probe_ms() -> float:
    """A fixed pure-Python job of tuples, dicts and a sort, the kind of work
    pinlef's interpreter time goes to.  It shares no code with pinlef, so
    its time tracks the host's speed at that moment and nothing else."""
    start = time.perf_counter()
    counts: dict = {}
    for i in range(1500):
        key = tuple((i * j) & 3 for j in range(8))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return (time.perf_counter() - start) * 1000.0


class Probe:
    """A fixed job whose time tracks the host's speed, with its time at the
    reference speed; every sample it takes is kept."""

    def __init__(self, job, ref_ms: float):
        self.job = job
        self.ref_ms = ref_ms
        self.samples: list[float] = []

    def __call__(self) -> float:
        ms = self.job()
        self.samples.append(ms)
        return ms

    def adjust(self, value: float, probe_ms: float) -> float:
        """``value`` scaled to a host on which this probe takes ref_ms."""
        return value * self.ref_ms / probe_ms


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves ten samples
    above it: the eleventh largest sample, at nearest-rank 100 * (n - 10) / n."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def child_env() -> dict:
    """Environment for pinlef processes: sources from SRC, and bytecode
    caches allowed, as an installed package has them."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict) -> tuple[float, int, str, str, int]:
    """(seconds, exit status, stdout, stderr, peak RSS in KiB) of one process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), usage.ru_maxrss


def describe(exp: reference.Expected) -> str:
    mode = f"threefold g{exp.threefold_genus}" if exp.threefold_genus else "fibration"
    verdicts = "".join("Y" if exp.answers[k].exists else "N" for k in ("minus", "plus"))
    return f"{mode} r{exp.rank} dim{exp.answers['minus'].dim} -+{verdicts} n{len(exp.classes)}"


class Results:
    """Latency samples and failures of one measuring phase.

    The probe runs when the phase starts and after every operation, so each
    operation is scaled by the mean of the probes on either side of it.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.op: list[float] = []
        self.steps: list[dict[str, float]] = []
        self.probes = [probe()]
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.problems: list[str] = []

    def record(self, op_ms: float, steps: dict[str, float], problems: list[str], out_bytes: int):
        self.attempted += 1
        self.op.append(op_ms)
        self.steps.append(steps)
        self.output_bytes += out_bytes
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("; ".join(problems))
        self.probes.append(self.probe())

    def absorb(self, other: "Results") -> None:
        """Count another phase's operations and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems = other.problems + self.problems

    def summary(self) -> dict:
        probes = [(a + b) / 2 for a, b in zip(self.probes, self.probes[1:])]
        op = [self.probe.adjust(ms, p) for ms, p in zip(self.op, probes)]
        step = {
            name: [self.probe.adjust(s[name], p) for s, p in zip(self.steps, probes) if name in s]
            for name in ("decide", "enumerate")
        }
        p, value = tail(op)
        return {
            "op_p50_ms": statistics.median(op),
            "op_tail_ms": value,
            "op_tail_percentile": p,
            "op_samples": len(op),
            "ops_per_s": len(op) / (sum(op) / 1000.0),
            "decide_p50_ms": statistics.median(step["decide"]),
            "decide_samples": len(step["decide"]),
            "enumerate_p50_ms": statistics.median(step["enumerate"]),
            "enumerate_samples": len(step["enumerate"]),
            "raw_op_p50_ms": statistics.median(self.op),
        }


def setup_report(expected, probe: Probe) -> dict:
    """Set-up time so far, raw and host-adjusted by probes run after it."""
    setup_s = time.perf_counter() - T_START
    probe_ms = statistics.median(probe() for _ in range(SETUP_PROBES))
    return {
        "setup_s": probe.adjust(setup_s, probe_ms),
        "raw_setup_s": setup_s,
        "params": [describe(e) for e in expected],
    }


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def import_pinlef_cli():
    sys.path.insert(0, str(SRC))
    import pinlef.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "pinlef":
        raise SystemExit(f"pinlef was imported from {cli.__file__}, not from {SRC}")
    return cli


def in_process_op(cli, text: str, exp, commands, results: Results) -> None:
    steps: dict[str, float] = {}
    outputs = []
    problems: list[str] = []
    start = time.perf_counter()
    try:
        doc = cli.parse(text)
        for command in commands:
            t0 = time.perf_counter()
            out, status = cli.run(command, doc)
            steps[command] = (time.perf_counter() - t0) * 1000.0
            outputs.append((command, out, status))
    except Exception as e:  # a raising operation counts as failed
        problems.append(f"{type(e).__name__}: {e}")
    op_ms = (time.perf_counter() - start) * 1000.0
    for command, out, status in outputs:
        problems += reference.check(exp, command, out, status)
    results.record(op_ms, steps, problems, sum(len(o.encode()) for _, o, _ in outputs))


def measure_run(args, one_pass, start_tracing, warm: Results) -> dict:
    """Run passes until the deadline.

    ``one_pass(results)`` runs one pass.  With ``--trace 1`` the first third
    of the time is untraced; then ``start_tracing()`` installs the trace and
    returns a function giving its aggregates, and the rest is traced.  The
    warm-up operations count as attempted but not as samples.
    """

    def measure(seconds: float) -> Results:
        results = Results(warm.probe)
        deadline = time.perf_counter() + seconds
        while True:
            one_pass(results)
            if time.perf_counter() >= deadline:
                return results

    report: dict = {}
    if args.trace:
        plain = measure(args.seconds * (1 - TRACED_SHARE))
        snapshot = start_tracing()
        results = measure(args.seconds * TRACED_SHARE)
        report["layers"] = layer_report(snapshot(), results, plain)
        report.update(results.summary())
        results.absorb(plain)
    else:
        results = measure(args.seconds)
        report.update(results.summary())
    results.absorb(warm)
    report.update(attempted=results.attempted, failed=results.failed, problems=results.problems)
    return report


def layer_report(snap: dict, traced: Results, plain: Results) -> dict:
    layers = spans.layer_metrics(snap, traced.attempted)
    layers["cli.output_bytes"] = traced.output_bytes / traced.attempted
    traced_p50 = traced.summary()["op_p50_ms"]
    layers["trace.op_p50_ms"] = traced_p50
    layers["trace.overhead_ms"] = traced_p50 - plain.summary()["op_p50_ms"]
    return layers


def interp_probe_ms(env: dict) -> float:
    """Wall time of a fresh bare interpreter."""
    return run_child([sys.executable, "-c", "pass"], env)[0] * 1000.0


def import_probe_ms(env: dict) -> float:
    """Wall time of a fresh interpreter that imports pinlef.cli."""
    return run_child([sys.executable, "-c", "import pinlef.cli"], env)[0] * 1000.0


def run_in_process(args) -> dict:
    pool_fn, commands = IN_PROCESS[args.workload]
    texts = pool_fn(random.Random(f"{args.workload}:{args.seed}"))
    expected = [reference.expected_for(t) for t in texts]
    cli = import_pinlef_cli()
    probe = Probe(host_probe_ms, HOST_PROBE_REF_MS)
    warm = Results(probe)
    in_process_op(cli, texts[0], expected[0], commands, warm)
    report = setup_report(expected, probe)
    if args.setup_only:
        return report

    def one_pass(results: Results) -> None:
        for text, exp in zip(texts, expected):
            in_process_op(cli, text, exp, commands, results)

    def start_tracing():
        tracer = spans.Tracer()
        spans.install(tracer)
        return tracer.snapshot

    report.update(measure_run(args, one_pass, start_tracing, warm))
    report["host_probe_ms"] = statistics.median(probe.samples)
    if args.trace:
        env = child_env()
        n = CLI_PROBES_PER_TRACED_RUN
        report["layers"]["cli.interp_ms"] = statistics.median(interp_probe_ms(env) for _ in range(n))
        report["layers"]["cli.import_ms"] = statistics.median(import_probe_ms(env) for _ in range(n))
        report["layers"]["host_probe_ms"] = report["host_probe_ms"]
    return report


# ---------------------------------------------------------------------------
# cli-cold: one fresh pinlef process per operation
# ---------------------------------------------------------------------------


def run_cli_cold(args) -> dict:
    texts = docgen.cli_docs(random.Random(f"cli-cold:{args.seed}"), SRC / "pinlef" / "data")
    expected = [reference.expected_for(t) for t in texts]
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        paths = []
        for i, text in enumerate(texts):
            path = workdir / f"doc{i}.pinlef"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        return cli_cold_loop(args, paths, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_cold_loop(args, paths, expected, workdir: Path) -> dict:
    env = child_env()
    stats_file = workdir / "spans.json"
    state = {"peak_kib": 0, "traced": False, "next_doc": 0}
    snapshot: dict = {}

    def op(i: int, command: str, results: Results) -> None:
        if state["traced"]:
            stats_file.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "pinlef_child.py"), str(stats_file), command, str(paths[i])]
        else:
            argv = [sys.executable, "-c", PINLEF_MAIN, command, str(paths[i])]
        seconds, status, out, err, kib = run_child(argv, env)
        state["peak_kib"] = max(state["peak_kib"], kib)
        problems = reference.check(expected[i], command, out, status)
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        if state["traced"]:
            if stats_file.is_file():
                spans.merge(snapshot, json.loads(stats_file.read_text(encoding="utf-8")))
            else:
                problems.append("traced child wrote no span aggregates")
        results.record(seconds * 1000.0, {command: seconds * 1000.0}, problems, len(out.encode()))

    # Process start-up is kernel and loader work that a Python job does not
    # track, so cli-cold is adjusted by a bare interpreter's start instead.
    interp = Probe(lambda: interp_probe_ms(env), INTERP_PROBE_REF_MS)
    host = Probe(host_probe_ms, HOST_PROBE_REF_MS)
    imp: list[float] = []
    warm = Results(interp)
    op(0, "decide", warm)
    report = setup_report(expected, interp)
    if args.setup_only:
        return report

    def one_pass(results: Results) -> None:
        # A pass is one document through every command, then the import and
        # host probes; successive passes take the documents in turn.
        i = state["next_doc"]
        state["next_doc"] = (i + 1) % len(paths)
        for command in CLI_COMMANDS:
            op(i, command, results)
        imp.append(import_probe_ms(env))
        host()

    def start_tracing():
        state["traced"] = True
        return lambda: snapshot

    report.update(measure_run(args, one_pass, start_tracing, warm))
    report.update(
        child_peak_rss_kib=state["peak_kib"],
        cli_interp_ms=statistics.median(interp.samples),
        cli_import_ms=statistics.median(imp),
        host_probe_ms=statistics.median(host.samples),
    )
    if args.trace:
        report["layers"]["cli.interp_ms"] = report["cli_interp_ms"]
        report["layers"]["cli.import_ms"] = report["cli_import_ms"]
        report["layers"]["host_probe_ms"] = report["host_probe_ms"]
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(IN_PROCESS) + ["cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.workload == "cli-cold":
        report = run_cli_cold(args)
    else:
        report = run_in_process(args)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
