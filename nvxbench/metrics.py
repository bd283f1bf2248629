"""The benchmark's metric catalogue and how each metric is computed.

``END_TO_END`` and ``PER_LAYER`` list every metric the final JSON line
carries, with its unit; ``BENCHMARK.json`` names the same metrics (the
benchmark's tests keep the two in step).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from nvxbench.reference import NOMINAL_S
from nvxbench.workloads import latency_summary

#: Metrics the untraced run reports.  The simulated latency and
#: throughput, the error rate and the fuzz findings are printed in the
#: run's table but are not listed here: the final line may only carry
#: metrics every workload has and that are never zero.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("sim.self_s", "s"),
    ("sim.network.deliveries", "count"),
    ("sim.network.self_s", "s"),
    ("kernel.syscalls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.gate.self_s", "s"),
    ("kernel.epoll.waits", "count"),
    ("kernel.epoll.self_s", "s"),
    ("kernel.epoll.fds_scanned", "count"),
    ("kernel.epoll.ready_ratio", "ratio"),
    ("core.monitor.publish_s", "s"),
    ("core.monitor.await_s", "s"),
    ("core.monitor.consume_s", "s"),
    ("core.ring.publish_s", "s"),
    ("core.ring.published", "count"),
    ("core.ring.consumed", "count"),
    ("core.ring.producer_stalls", "count"),
    ("core.ring.spin_waits", "count"),
    ("core.ring.waitlock_sleeps", "count"),
    ("core.ring.stall_ns", "ns"),
    ("core.ring.occupancy_max", "count"),
    ("core.follower.wait_ns", "ns"),
    ("core.net.publish_s", "s"),
    ("core.net.frames", "count"),
    ("core.net.bytes", "bytes"),
    ("core.net.acks", "count"),
    ("core.net.payload_elided", "bytes"),
    ("core.net.bytes_per_event", "bytes"),
    ("core.session.start_s", "s"),
    ("core.session.divergences", "count"),
    ("core.session.promotions", "count"),
    ("runtime.load_image_s", "s"),
    ("runtime.images", "count"),
    ("isa.tcache.blocks_translated", "count"),
    ("clients.attempted", "count"),
    ("clients.late_arrivals", "count"),
    ("clients.timeouts", "count"),
    ("clients.reconnects", "count"),
    ("clients.error_rate", "ratio"),
    ("clients.sim_rps", "req/s"),
    ("clients.sim_p50_us", "us"),
    ("clients.sim_p99_us", "us"),
    ("clients.samples", "count"),
    ("clients.beyond_p99", "count"),
    ("faults.invariant.checks", "count"),
    ("faults.invariant.self_s", "s"),
    ("faults.injected", "count"),
    ("recordreplay.encode_s", "s"),
    ("recordreplay.decode_s", "s"),
    ("recordreplay.bytes", "bytes"),
    ("bpf.runs", "count"),
    ("bpf.self_s", "s"),
    ("fuzz.scenarios", "count"),
    ("fuzz.novel", "count"),
    ("fuzz.duplicates", "count"),
    ("fuzz.novel_ratio", "ratio"),
    ("fuzz.rules_synthesized", "count"),
    ("fuzz.rules_absorbed", "count"),
    ("fuzz.scenario_s.p50", "s"),
    ("fuzz.scenario_s.tail", "s"),
    ("fuzz.scenario_s.tail_pct", "%"),
    ("fuzz.synthesis_s", "s"),
    ("trace.units", "count"),
    ("trace.overhead", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (p50
    when there are too few samples), and the value there."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    beyond = min(10, len(ordered) // 2)
    index = len(ordered) - beyond - 1
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def calibrated_s(repeats) -> float:
    """Calibrated host seconds of one unit: for each step, the median
    over the repeats of (step CPU seconds / reference seconds measured
    right after it), summed over the steps and scaled to the reference's
    nominal time.  Every repeat of an input runs the same steps."""
    return NOMINAL_S * sum(
        statistics.median(cpu_s / ref_s for cpu_s, ref_s in step)
        for step in zip(*(u.steps for u in repeats)))


def by_input(runs) -> Dict[object, list]:
    """Group ``(input, unit)`` pairs by input, in first-run order."""
    groups: Dict[object, list] = {}
    for inp, unit in runs:
        groups.setdefault(inp, []).append(unit)
    return groups


def end_to_end(runs, setup_runs: List[float], peak_rss_mb: float
               ) -> Dict[str, float]:
    """``runs`` are the run's ``(input, unit)`` pairs and ``setup_runs``
    calibrated set-up seconds (see README.md, "Measuring on a shared
    host")."""
    groups = by_input(runs).values()
    ops = sum(repeats[0].ops for repeats in groups)
    return {
        "setup_s": statistics.median(setup_runs),
        "ops_per_s": ops / sum(map(calibrated_s, groups)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rec, snapshot: dict, traced_runs, untraced_runs
              ) -> Dict[str, float]:
    """Per-unit averages over the traced units.

    ``rec`` is the :class:`~nvxbench.spans.SpanRecorder` that saw every
    traced unit, ``snapshot`` the merged ``repro.obs`` metrics snapshot
    of their sessions, ``traced_runs``/``untraced_runs`` the paired
    ``(input, unit)`` runs.
    """
    traced = [unit for _inp, unit in traced_runs]
    n = len(traced)
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    self_s = rec.self_s
    calls = rec.calls
    sums = rec.sums

    def per_unit(value) -> float:
        return value / n

    def counter(name: str) -> float:
        return per_unit(counters.get(name, 0))

    events = per_unit(sums["sim.events"])
    untraced_groups = by_input(untraced_runs)
    untraced_s = sum(map(calibrated_s, untraced_groups.values()))
    injected = sum(1 for injector in rec.captured["injectors"]
                   for line in injector.log if ": skipped" not in line)
    novel = counter("fuzz.novel")
    duplicates = counter("fuzz.duplicates")
    scenario_s = rec.durations["fuzz.scenario"]
    tail_pct, tail_s = tail_percentile(scenario_s)
    latencies = latency_summary(traced[0].latencies_ps)
    attempted = sum(u.attempted for u in traced)
    published = counter("ring.published")
    net_bytes = counter("net.bytes")
    overhead = (sum(map(calibrated_s, by_input(traced_runs).values()))
                / untraced_s - 1.0)

    values = {
        "sim.events": events,
        "sim.us_per_event": _ratio(untraced_s * 1e6,
                                   events * len(untraced_groups)),
        "sim.self_s": per_unit(self_s["sim"]),
        "sim.network.deliveries": per_unit(calls["sim.network"]),
        "sim.network.self_s": per_unit(self_s["sim.network"]),
        "kernel.syscalls": per_unit(calls["kernel"]),
        "kernel.self_s": per_unit(self_s["kernel"]),
        "kernel.gate.self_s": per_unit(self_s["kernel.gate"]),
        "kernel.epoll.waits": per_unit(calls["kernel.epoll"]),
        "kernel.epoll.self_s": per_unit(self_s["kernel.epoll"]),
        "kernel.epoll.fds_scanned": _ratio(sums["epoll.fds_scanned"],
                                           calls["kernel.epoll"]),
        "kernel.epoll.ready_ratio": _ratio(sums["epoll.ready"],
                                           sums["epoll.fds_scanned"]),
        "core.monitor.publish_s": per_unit(self_s["core.monitor.publish"]),
        "core.monitor.await_s": per_unit(self_s["core.monitor.await"]),
        "core.monitor.consume_s": per_unit(self_s["core.monitor.consume"]),
        "core.ring.publish_s": per_unit(self_s["core.ring.publish"]),
        "core.ring.published": published,
        "core.ring.consumed": counter("ring.consumed"),
        "core.ring.producer_stalls": counter("ring.producer_stalls"),
        "core.ring.spin_waits": counter("ring.spin_waits"),
        "core.ring.waitlock_sleeps": counter("ring.waitlock_sleeps"),
        "core.ring.stall_ns": counter("ring.stall_ns"),
        "core.ring.occupancy_max": sums["ring.occupancy_max"],
        "core.follower.wait_ns": per_unit(
            histograms.get("follower.wait_ns", {}).get("total", 0)),
        "core.net.publish_s": per_unit(self_s["core.net.publish"]),
        "core.net.frames": counter("net.frames"),
        "core.net.bytes": net_bytes,
        "core.net.acks": counter("net.acks"),
        "core.net.payload_elided": counter("net.payload_elided"),
        "core.net.bytes_per_event": (_ratio(net_bytes, published)
                                     if counter("net.frames") else 0.0),
        "core.session.start_s": per_unit(self_s["core.session.start"]),
        "core.session.divergences": counter("session.divergences"),
        "core.session.promotions": counter("session.promotions"),
        "runtime.load_image_s": per_unit(self_s["runtime.load_image"]),
        "runtime.images": per_unit(calls["runtime.load_image"]),
        "isa.tcache.blocks_translated": counter("tcache.blocks_translated"),
        "clients.attempted": per_unit(attempted),
        "clients.late_arrivals": per_unit(sum(u.late_arrivals
                                              for u in traced)),
        "clients.timeouts": per_unit(sum(u.timeouts for u in traced)),
        "clients.reconnects": per_unit(sum(u.reconnects for u in traced)),
        "clients.error_rate": _ratio(sum(u.failed for u in traced),
                                     attempted),
        "clients.sim_rps": traced[0].sim_rps,
        "clients.sim_p50_us": latencies["p50_us"],
        "clients.sim_p99_us": latencies["p99_us"],
        "clients.samples": latencies["samples"],
        "clients.beyond_p99": latencies["beyond_p99"],
        "faults.invariant.checks": per_unit(calls["faults.invariant"]),
        "faults.invariant.self_s": per_unit(self_s["faults.invariant"]),
        "faults.injected": per_unit(injected),
        "recordreplay.encode_s": per_unit(self_s["recordreplay.encode"]),
        "recordreplay.decode_s": per_unit(self_s["recordreplay.decode"]),
        "recordreplay.bytes": per_unit(sums["recordreplay.bytes"]),
        "bpf.runs": per_unit(calls["bpf"]),
        "bpf.self_s": per_unit(self_s["bpf"]),
        "fuzz.scenarios": counter("fuzz.scenarios"),
        "fuzz.novel": novel,
        "fuzz.duplicates": duplicates,
        "fuzz.novel_ratio": _ratio(novel, novel + duplicates),
        "fuzz.rules_synthesized": counter("fuzz.rules_synthesized"),
        "fuzz.rules_absorbed": counter("fuzz.rules_absorbed"),
        "fuzz.scenario_s.p50": (statistics.median(scenario_s)
                                if scenario_s else 0.0),
        "fuzz.scenario_s.tail": tail_s,
        "fuzz.scenario_s.tail_pct": tail_pct,
        "fuzz.synthesis_s": per_unit(sum(rec.durations["fuzz.synthesis"])),
        "trace.units": n,
        "trace.overhead": overhead,
    }
    return values
