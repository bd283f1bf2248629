"""End-to-end NVX benchmark: one workload, timed or traced.

Run from the repository root:

    python3 nvxbench/run.py --workload closed-local --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no shims installed;
``--trace 1`` pairs every untraced unit with a shim-wrapped one and
reports per-layer self time and counts plus the tracing overhead.  The
last line of standard output is one JSON object; the lines before it
are a human-readable table.  The exit status is non-zero when a
correctness check fails.
"""

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is measured in this many fresh processes, spread over the run.
SETUP_PROBES = 7
#: A probe normally takes about a second of wall time; one that takes
#: longer than this is stalled, not measured.
PROBE_TIMEOUT_S = 30
#: A probe that stalls, is killed or prints no result is tried again this
#: many times in all; a program defect fails every attempt the same way.
PROBE_ATTEMPTS = 3
WORKLOAD_NAMES = ("closed-local", "open-remote", "fuzz-campaign")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"nvxbench: the program's sources are missing "
                 f"(no {SRC / 'repro'}); run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup_probe(workload: str, seed: int) -> None:
    """Child process: build and start the workload's first input and
    report the host CPU seconds this process used from its start to the
    first system call an NVX-monitored variant issues — interpreter
    start, imports, world, session start, image load and rewrite and
    client spawn are all behind that point — raw and calibrated by
    reference passes run right after."""
    import statistics

    from nvxbench.reference import NOMINAL_S, reference_s
    from nvxbench.workloads import WORKLOADS
    from repro.kernel.task import SyscallGate

    original = SyscallGate.dispatch

    def dispatch(gate, call):
        if gate.intercepting:
            setup_cpu_s = time.process_time()
            ref_s = statistics.median(reference_s() for _ in range(5))
            print(json.dumps({"cpu_s": setup_cpu_s,
                              "setup_s": setup_cpu_s * NOMINAL_S / ref_s}),
                  flush=True)
            os._exit(0)
        return (yield from original(gate, call))

    SyscallGate.dispatch = dispatch
    wl = WORKLOADS[workload]()
    wl.run(wl.inputs(seed)[0])
    sys.exit("nvxbench: setup probe saw no monitored system call")


def setup_run(workload: str, seed: int) -> dict:
    """One set-up measurement in a fresh process: ``cpu_s`` and the
    calibrated ``setup_s``.

    The probe process is a measurement, and the host it runs on is
    shared: a probe that stalls past ``PROBE_TIMEOUT_S`` or dies without
    a result is reported on standard error and run again, up to
    ``PROBE_ATTEMPTS`` times in all.  ``subprocess.run`` kills a stalled
    probe and waits for it before returning.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    for attempt in range(1, PROBE_ATTEMPTS + 1):
        try:
            done = subprocess.run(command, cwd=str(ROOT),
                                  stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failure = f"no result within {PROBE_TIMEOUT_S} s"
        except OSError as exc:
            failure = f"could not start: {exc}"
        else:
            lines = done.stdout.strip().splitlines()
            if done.returncode == 0 and lines:
                try:
                    return json.loads(lines[-1])
                except ValueError:
                    pass
            failure = (f"exit code {done.returncode}, stdout "
                       f"{done.stdout[-500:]!r}, stderr:\n"
                       f"{done.stderr[-2000:]}")
        print(f"nvxbench: setup probe attempt {attempt}: {failure}",
              file=sys.stderr, flush=True)
    sys.exit(f"nvxbench: setup probe failed {PROBE_ATTEMPTS} times")


class Checker:
    """Correctness bookkeeping shared by both run modes."""

    def __init__(self) -> None:
        self.problems = []
        #: input -> fingerprint of its first run
        self.first_runs = {}

    def unit(self, inp, unit, label: str = "") -> None:
        self.problems += [f"input {inp}{label}: {p}" for p in unit.problems]
        expected = self.first_runs.setdefault(inp, unit.fingerprint)
        if unit.fingerprint != expected:
            self.problems.append(
                f"input {inp}{label}: simulated outputs differ from an "
                f"earlier run of the same input")


def run_unit(wl, inp, checker: Checker, label: str = ""):
    gc.collect()  # earlier worlds' garbage must not be timed
    unit = wl.run(inp)
    checker.unit(inp, unit, label)
    return unit


def timed_run(wl, inputs, seconds: float, checker: Checker, seed: int,
              probes: int = SETUP_PROBES):
    """Cycle through the inputs until ``seconds`` have elapsed and every
    input ran at least twice.  One set-up probe runs before each of the
    first ``probes`` units.  Returns the ``(input, unit)`` runs and the
    set-up measurements."""
    runs, setup_runs = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < 2 * len(inputs) or time.perf_counter() < deadline:
        if len(setup_runs) < probes:
            setup_runs.append(setup_run(wl.name, seed))
        inp = inputs[len(runs) % len(inputs)]
        runs.append((inp, run_unit(wl, inp, checker)))
    while len(setup_runs) < probes:
        setup_runs.append(setup_run(wl.name, seed))
    return runs, setup_runs


def traced_run(wl, inputs, seconds: float, checker: Checker):
    """Pairs of (untraced, traced) units over whole cycles of the inputs,
    until ``seconds`` have elapsed."""
    from nvxbench.spans import Shims, SpanRecorder, install_layers
    from repro.obs import metrics as obs_metrics

    rec = SpanRecorder()
    snapshots = []
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for inp in inputs:
            untraced.append((inp, run_unit(wl, inp, checker)))
            with Shims(rec) as shims:
                install_layers(shims)
                obs_metrics.start_collection()
                try:
                    traced.append((inp, run_unit(wl, inp, checker,
                                                 " (traced)")))
                finally:
                    snapshots.append(obs_metrics.drain())
    return rec, obs_metrics.merge_snapshots(snapshots), traced, untraced


def _print_table(title: str, rows) -> None:
    print(f"== {title} ==")
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {shown:>14} {unit:<8} {note}")


def report_untraced(wl, runs, setup_runs, metrics) -> None:
    import statistics

    from nvxbench.metrics import by_input
    from nvxbench.workloads import latency_summary

    units = [unit for _inp, unit in runs]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    groups = by_input(runs).values()
    pass_ops = sum(repeats[0].ops for repeats in groups)
    pass_cpu_s = sum(statistics.median(u.host_s for u in repeats)
                     for repeats in groups)
    setup_cpu_s = statistics.median(r["cpu_s"] for r in setup_runs)
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"calibrated; median of {len(setup_runs)} fresh processes "
         f"({setup_cpu_s:.4f} host CPU s)"),
        ("ops_per_s", metrics["ops_per_s"], "ops/s",
         f"calibrated; {pass_ops} ops per pass over {len(groups)} inputs, "
         f"{len(units)} units ({pass_ops / pass_cpu_s:.2f} ops per host "
         f"CPU s)"),
        ("error_rate", failed / attempted if attempted else 0.0, "fraction",
         f"{failed} failed of {attempted} attempted"),
    ]
    first = units[0]
    if wl.server:
        lat = latency_summary(first.latencies_ps)
        note = (f"{lat['samples']} samples, {lat['beyond_p99']} beyond "
                f"p99 (per unit)")
        rows += [
            ("sim_rps", first.sim_rps, "req/s", "simulated, per unit"),
            ("sim_p50_us", lat["p50_us"], "us", note),
            ("sim_p99_us", lat["p99_us"], "us", note),
        ]
    else:
        rows.append(("fuzz_novel", sum(u.novel for u in units), "count",
                     f"novel journal entries over {len(units)} campaigns"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                 "peak host memory of the measuring process"))
    _print_table(f"{wl.name}: end-to-end", rows)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)

    from nvxbench import metrics as catalogue
    from nvxbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    inputs = wl.inputs(args.seed)
    checker = Checker()
    if args.trace:
        rec, snapshot, traced, untraced = traced_run(wl, inputs,
                                                     args.seconds, checker)
        values = catalogue.per_layer(rec, snapshot, traced, untraced)
        names = catalogue.PER_LAYER
        runs = traced + untraced
        _print_table(f"{wl.name}: per layer (per traced unit)",
                     [(n, values[n], u, "") for n, u in names])
    else:
        runs, setup_runs = timed_run(wl, inputs, args.seconds, checker,
                                     args.seed)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = catalogue.end_to_end(
            runs, [r["setup_s"] for r in setup_runs], peak_rss_mb)
        names = catalogue.END_TO_END
        report_untraced(wl, runs, setup_runs, values)

    for problem in checker.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not checker.problems,
        "attempted": sum(u.attempted for _inp, u in runs),
        "failed": sum(u.failed for _inp, u in runs),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
