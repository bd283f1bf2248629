"""The benchmark's three workloads, driven through the public API only.

Each workload turns the benchmark seed into a list of *inputs* and runs
one input per :class:`Unit`.  A unit builds a fresh world, runs it and
reduces what happened to

* ``ops`` / ``attempted`` / ``failed`` — completed, attempted and failed
  operations (a request for the servers, a scenario for the fuzzer);
* ``steps`` — ``(host CPU seconds, reference seconds)`` of each step of
  the run phase, where the reference seconds time
  :mod:`nvxbench.reference` right after the step.  Every run of the same
  input takes the same steps, so step ``k`` does the same work each time;
* ``fingerprint`` — a digest of every simulated output, which two runs
  of the same input must reproduce byte for byte;
* ``problems`` — correctness failures that fail the whole benchmark run.

Nothing here reads the host clock into a simulated value, so simulated
outputs are a pure function of the input.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from nvxbench.reference import reference_s
from repro.apps import make_redis, redis_image
from repro.clients.base import ClientReport, connect_with_retry
from repro.clients.loadgen import (
    OpenLoopConfig,
    RequestClass,
    make_open_loop,
    spawn_pool,
)
from repro.clients.topology import LoadTopology
from repro.core.config import SessionConfig
from repro.core.coordinator import VersionSpec
from repro.core.netring import REPLICATE_SELECTIVE, net_transport
from repro.costmodel import SEC_PS, US_PS
from repro.fuzz import autopilot
from repro.world import World

#: Simulated time per step: a few tenths of a host second each, short
#: enough that a run holds many repeats of every step.
CLOSED_STEP_PS = 2 * SEC_PS // 1000
#: Simulated-time cap for the closed-loop run; it finishes far earlier.
CLOSED_HORIZON_PS = 30 * SEC_PS

# closed-local: redis-benchmark's connection count and 9-command mix.
CLOSED_CLIENTS = 50
CLOSED_ROUNDS = 10
CLOSED_COMMANDS = ("PING", "SET", "GET", "INCR", "LPUSH", "LPOP", "SADD",
                   "HSET", "HMGET")
#: Keys per command family and client: small, so reads mostly hit.
CLOSED_KEYS = 8

# open-remote: the dMVX deployment under 1000 independent users.
OPEN_CLIENTS = 1000
OPEN_LOADGEN_MACHINES = 8
OPEN_RATE_RPS = 20_000.0
OPEN_DURATION_PS = 80 * SEC_PS // 1000
#: Latency samples scheduled before this are left out of the percentiles:
#: for the first ~15 ms the 1000 connections are still being accepted and
#: p99 is over 1 ms; afterwards it settles near 50-65 us.
OPEN_WARMUP_PS = 20 * SEC_PS // 1000
OPEN_CHURN_EVERY = 64
#: Short slices, so the reference pass that calibrates each one samples
#: the host's speed often: at 1 ms the calibrated time of a unit varied
#: about half as much between repeats as at 5 ms on a contended host.
OPEN_STEP_PS = SEC_PS // 1000
REPLICAS = ("replica1", "replica2")

# fuzz-campaign: short campaigns, cycled through in a run.
FUZZ_CAMPAIGNS = 6
FUZZ_BUDGET = 4


@dataclass
class Unit:
    """What one run of one workload input produced."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    steps: List[Tuple[float, float]] = field(default_factory=list)
    fingerprint: str = ""
    problems: List[str] = field(default_factory=list)
    #: Exact simulated latencies (ps), server workloads only.
    latencies_ps: List[int] = field(default_factory=list)
    #: Simulated throughput (requests per simulated second).
    sim_rps: float = 0.0
    #: DES events processed by the unit's simulators.
    events: int = 0
    #: Client-plane counters (open loop only).
    late_arrivals: int = 0
    timeouts: int = 0
    reconnects: int = 0
    #: Fuzz campaign outcome.
    novel: int = 0

    @property
    def host_s(self) -> float:
        return sum(cpu_s for cpu_s, _ref_s in self.steps)


class StepTimer:
    """Times calls as steps: host CPU seconds of the call, then of one
    reference pass."""

    def __init__(self) -> None:
        self.steps: List[Tuple[float, float]] = []

    def call(self, fn, *args, **kwargs):
        started = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu_s = time.process_time() - started
            self.steps.append((cpu_s, reference_s()))


def run_in_steps(world, step_ps: int, horizon_ps: int
                 ) -> List[Tuple[float, float]]:
    """Run ``world`` in slices of ``step_ps`` simulated picoseconds until
    every client task has finished (only the servers' daemon tasks are
    left) or ``horizon_ps``; returns the :class:`StepTimer` steps.

    Slicing does not change the simulation.  Stopping with the clients
    keeps redis's serverCron thread, which sleeps 100 simulated seconds
    at a time, from stretching the run and the followers' wait counters
    long after the traffic ends.
    """
    timer = StepTimer()
    target = 0
    tasks = world.kernel.tasks
    while target < horizon_ps:
        target = min(horizon_ps, target + step_ps)
        timer.call(world.run, until_ps=target)
        if all(task.daemon for task in tasks.values()):
            break
    return timer.steps


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class LatencyTap:
    """Captures every simulated latency a :class:`ClientReport` observes.

    ``ClientReport`` keeps latencies in a bounded digest that
    interpolates inside power-of-two buckets once it holds more than
    4096 samples; the benchmark needs the exact values, so it wraps
    ``observe`` for the duration of a unit.  Samples whose request was
    due before ``warmup_ps`` are not kept.
    """

    def __init__(self, warmup_ps: int = 0) -> None:
        self.warmup_ps = warmup_ps
        self.latencies_ps: List[int] = []
        self._original = None

    def __enter__(self) -> "LatencyTap":
        original = self._original = ClientReport.observe
        sink = self.latencies_ps.append
        warmup_ps = self.warmup_ps

        def observe(report, latency_ps, command=None, now=None):
            if now - latency_ps >= warmup_ps:
                sink(latency_ps)
            return original(report, latency_ps, command=command, now=now)

        ClientReport.observe = observe
        return self

    def __exit__(self, *exc) -> None:
        ClientReport.observe = self._original


def _session_problems(session) -> List[str]:
    """Correctness failures of one NVX session after its run."""
    problems = []
    checker = session.invariants
    if checker is not None:
        checker.final_check()
        problems += [f"invariant violation: {v}" for v in checker.violations]
    problems += [f"fatal divergence: {d}"
                 for d in session.stats.fatal_divergences]
    problems += [f"crash: {c}" for c in session.stats.crashes]
    problems += [f"ring fault: {f}" for f in session.stats.ring_faults]
    return problems


# -- closed-local -------------------------------------------------------------


def _resp_length(buf: bytes) -> int:
    """Length of the first complete RESP reply in ``buf`` (0: incomplete)."""
    end = buf.find(b"\r\n")
    if end < 0:
        return 0
    kind = buf[:1]
    if kind == b"$":
        size = int(buf[1:end])
        total = end + 2 + (size + 2 if size >= 0 else 0)
        return total if len(buf) >= total else 0
    if kind == b"*":
        pos = end + 2
        for _ in range(int(buf[1:end])):
            sub = _resp_length(buf[pos:])
            if not sub:
                return 0
            pos += sub
        return pos
    return end + 2


def _bulk(value: Optional[bytes]) -> bytes:
    if value is None:
        return b"$-1\r\n"
    return b"$%d\r\n%s\r\n" % (len(value), value)


def closed_script(seed: int, client: int, rounds: int
                  ) -> List[Tuple[bytes, bytes]]:
    """The seeded request script of one closed-loop client, with the
    exact reply a correct server gives to each request.

    Every client works in its own key space, so the expected replies
    follow from the client's own requests whatever the interleaving.
    """
    rng = random.Random(seed * 1_000_003 + client)
    strings: Dict[bytes, bytes] = {}
    counters: Dict[bytes, int] = {}
    lists: Dict[bytes, List[bytes]] = {}
    sets: Dict[bytes, set] = {}
    hashes: Dict[bytes, Dict[bytes, bytes]] = {}
    script = []

    def key(family: str) -> bytes:
        return b"c%d:%s:%d" % (client, family.encode(),
                               rng.randrange(CLOSED_KEYS))

    def value() -> bytes:
        return b"%x" % rng.getrandbits(4 * rng.randint(2, 24))

    for round_index in range(rounds):
        commands = list(CLOSED_COMMANDS)
        rng.shuffle(commands)
        for command in commands:
            if command == "PING":
                line, reply = b"PING", b"+PONG\r\n"
            elif command == "SET":
                k, v = key("s"), value()
                strings[k] = v
                line, reply = b"SET %s %s" % (k, v), b"+OK\r\n"
            elif command == "GET":
                k = key("s")
                line, reply = b"GET %s" % k, _bulk(strings.get(k))
            elif command == "INCR":
                k = key("n")
                counters[k] = counters.get(k, 0) + 1
                line, reply = b"INCR %s" % k, b":%d\r\n" % counters[k]
            elif command == "LPUSH":
                k, v = key("l"), value()
                lists.setdefault(k, []).insert(0, v)
                line, reply = (b"LPUSH %s %s" % (k, v),
                               b":%d\r\n" % len(lists[k]))
            elif command == "LPOP":
                k = key("l")
                items = lists.get(k)
                line, reply = (b"LPOP %s" % k,
                               _bulk(items.pop(0) if items else None))
            elif command == "SADD":
                k, v = key("t"), b"m%d" % rng.randrange(16)
                bucket = sets.setdefault(k, set())
                added = v not in bucket
                bucket.add(v)
                line, reply = b"SADD %s %s" % (k, v), b":%d\r\n" % added
            elif command == "HSET":
                # Fresh field per round: the reply is 1 on every server.
                k, f, v = key("h"), b"f%d" % round_index, value()
                hashes.setdefault(k, {})[f] = v
                line, reply = b"HSET %s %s %s" % (k, f, v), b":1\r\n"
            else:  # HMGET
                k, f = key("h"), b"f%d" % rng.randrange(round_index + 1)
                line = b"HMGET %s %s" % (k, f)
                reply = b"*1\r\n" + _bulk(hashes.get(k, {}).get(f))
            script.append((line + b"\r\n", reply))
    return script


def _closed_client(script, report: ClientReport, wrong: List, port: int):
    def main(ctx):
        fd = yield from connect_with_retry(ctx, ("server", port))
        pending = b""
        for line, expected in script:
            start = ctx.sim.now
            yield from ctx.send(fd, line)
            while not _resp_length(pending):
                data = yield from ctx.recv(fd, 4096)
                if not data:
                    report.errors += 1
                    return report.requests
                pending += data
            size = _resp_length(pending)
            reply, pending = pending[:size], pending[size:]
            report.observe(ctx.sim.now - start, now=ctx.sim.now)
            if reply != expected:
                wrong.append((line, reply, expected))
        yield from ctx.close(fd)
        return report.requests

    return main


class ClosedLocal:
    """redis-benchmark, closed loop, under a Varan leader + 2 local
    followers on the shared-memory ring, each variant a real rewritten
    ``redis_image()``."""

    name = "closed-local"
    server = True

    def __init__(self, rounds: int = CLOSED_ROUNDS,
                 clients: int = CLOSED_CLIENTS) -> None:
        self.rounds = rounds
        self.clients = clients

    def inputs(self, seed: int) -> List[int]:
        return [seed]

    def build(self, seed: int):
        world = World(seed=seed)
        specs = [VersionSpec(f"v{i}", make_redis(), image=redis_image())
                 for i in range(3)]
        session = world.nvx(specs, config=SessionConfig(daemon=True)).start()
        report = ClientReport(name="redis-benchmark")
        wrong: List = []
        scripts = [closed_script(seed, c, self.rounds)
                   for c in range(self.clients)]
        for index, script in enumerate(scripts):
            world.kernel.spawn_task(
                world.client, _closed_client(script, report, wrong, 6379),
                name=f"client{index}")
        return world, session, report, wrong, sum(map(len, scripts))

    def run(self, seed: int) -> Unit:
        world, session, report, wrong, attempted = self.build(seed)
        with LatencyTap() as tap:
            steps = run_in_steps(world, CLOSED_STEP_PS, CLOSED_HORIZON_PS)
        unit = Unit(ops=report.requests - len(wrong), attempted=attempted,
                    steps=steps, latencies_ps=tap.latencies_ps,
                    sim_rps=report.throughput_rps,
                    events=world.sim.events_processed)
        unit.failed = attempted - unit.ops
        unit.problems = _session_problems(session)
        unit.problems += [f"wrong reply to {line!r}: {got!r} != {want!r}"
                          for line, got, want in wrong[:5]]
        if report.requests != attempted:
            unit.problems.append(f"{attempted - report.requests} of "
                                 f"{attempted} requests never completed")
        unit.fingerprint = _digest(report.requests, report.errors,
                                   tap.latencies_ps, world.sim.now,
                                   unit.events, wrong)
        return unit


# -- open-remote --------------------------------------------------------------


class OpenRemote:
    """Open loop (independent users): 1000 seeded Poisson actors on 8
    load-generator machines against Redis under Varan with 2 followers
    on remote replica machines (networked transport, selective
    replication)."""

    name = "open-remote"
    server = True

    def __init__(self, clients: int = OPEN_CLIENTS,
                 duration_ps: int = OPEN_DURATION_PS,
                 rate_rps: float = OPEN_RATE_RPS,
                 warmup_ps: int = OPEN_WARMUP_PS) -> None:
        self.clients = clients
        self.duration_ps = duration_ps
        self.rate_rps = rate_rps
        self.warmup_ps = warmup_ps

    def inputs(self, seed: int) -> List[int]:
        return [seed]

    def build(self, seed: int):
        topology = LoadTopology(clients=self.clients,
                                machines=OPEN_LOADGEN_MACHINES,
                                extra_machines=REPLICAS)
        world = World(machine_names=topology.machine_names(), seed=seed)
        specs = [VersionSpec(f"v{i}", make_redis()) for i in range(3)]
        session = world.nvx(specs, config=SessionConfig(
            daemon=True,
            placement={1: REPLICAS[0], 2: REPLICAS[1]},
            transport=net_transport(replicate=REPLICATE_SELECTIVE))).start()
        rng = random.Random(seed)
        key = b"lg:%x" % rng.getrandbits(32)
        classes = (
            RequestClass("get", b"GET %s\r\n" % key, weight=2),
            RequestClass("set", b"SET %s v%x\r\n"
                         % (key, rng.getrandbits(32)), weight=1),
        )
        config = OpenLoopConfig(rate_rps=self.rate_rps,
                                duration_ps=self.duration_ps, seed=seed,
                                churn_every=OPEN_CHURN_EVERY,
                                classes=classes)
        placements, report, stats = make_open_loop(topology, config)
        spawn_pool(world, placements)
        return world, session, report, stats

    def run(self, seed: int) -> Unit:
        world, session, report, stats = self.build(seed)
        with LatencyTap(self.warmup_ps) as tap:
            # Arrivals stop at the duration; the slack drains in-flight
            # responses so the tail is measured, not truncated.
            steps = run_in_steps(world, OPEN_STEP_PS,
                                 2 * self.duration_ps + SEC_PS)
        unit = Unit(ops=report.requests,
                    attempted=report.requests + report.errors,
                    failed=report.errors + stats.timeouts, steps=steps,
                    latencies_ps=tap.latencies_ps,
                    sim_rps=report.throughput_rps,
                    events=world.sim.events_processed,
                    late_arrivals=stats.late_arrivals,
                    timeouts=stats.timeouts, reconnects=stats.reconnects)
        unit.problems = _session_problems(session)
        unfinished = [t.name for t in world.kernel.tasks.values()
                      if not t.daemon]
        if unfinished:
            unit.problems.append(f"{len(unfinished)} client actors never "
                                 f"finished (first: {unfinished[0]})")
        unit.fingerprint = _digest(report.requests, report.errors,
                                   tap.latencies_ps, world.sim.now,
                                   unit.events, stats.timeouts,
                                   stats.reconnects, stats.late_arrivals)
        return unit


# -- fuzz-campaign ------------------------------------------------------------


class _CampaignSteps:
    """Times every scenario run and synthesis attempt of a campaign as a
    step, and keeps each scenario's result.  Rule synthesis re-runs
    scenarios through ``repro.fuzz.synthesis``'s own reference to
    ``run_scenario``; those re-runs are timed inside their synthesis
    attempt and their results are not kept."""

    def __init__(self) -> None:
        self.timer = StepTimer()
        self.results: List = []
        self._originals = None

    def __enter__(self) -> "_CampaignSteps":
        run_scenario = autopilot.run_scenario
        attempt_absorb = autopilot.attempt_absorb
        self._originals = (run_scenario, attempt_absorb)
        call = self.timer.call

        def timed_scenario(scenario, rules=None):
            result = call(run_scenario, scenario, rules=rules)
            self.results.append(result)
            return result

        autopilot.run_scenario = timed_scenario
        autopilot.attempt_absorb = (
            lambda *args, **kwargs: call(attempt_absorb, *args, **kwargs))
        return self

    def __exit__(self, *exc) -> None:
        autopilot.run_scenario, autopilot.attempt_absorb = self._originals


def scenario_failed(result, absorbed) -> bool:
    """A scenario fails when it ended in a mismatch, violation or
    deadlock (deadlocks count as mismatches) that no synthesized rule
    absorbed: a rule absorbs only the fatal divergences it was proven
    on, so a scenario is forgiven only when every one of its fatal
    divergences has an absorbing rule."""
    if not (result.mismatches or result.violations):
        return False
    keys = {(call, event) for _v, call, event in result.fatal_divergences}
    return not keys or not keys <= absorbed


class FuzzCampaign:
    """The fuzz autopilot with rule synthesis: short campaigns whose
    seeds derive from the benchmark seed, cycled through in a run."""

    name = "fuzz-campaign"
    server = False

    def __init__(self, campaigns: int = FUZZ_CAMPAIGNS,
                 budget: int = FUZZ_BUDGET) -> None:
        self.campaigns = campaigns
        self.budget = budget

    def inputs(self, seed: int) -> List[int]:
        return [seed * 1000 + i for i in range(self.campaigns)]

    def run(self, campaign_seed: int) -> Unit:
        with _CampaignSteps() as campaign:
            report = autopilot.run_fuzz(seed=campaign_seed,
                                        budget=self.budget, synthesis=True)
        absorbed = {(rule.call_name, rule.event_name)
                    for rule in report.absorbed}
        results = campaign.results
        failed = sum(scenario_failed(r, absorbed) for r in results)
        unit = Unit(ops=len(results) - failed, attempted=len(results),
                    failed=failed, steps=campaign.timer.steps,
                    novel=len(report.journal.entries))
        unit.fingerprint = _digest(
            report.render(), [(r.mismatches, r.violations, r.records)
                              for r in results])
        return unit


WORKLOADS = {w.name: w for w in (ClosedLocal, OpenRemote, FuzzCampaign)}


def percentile_ps(ordered: List[int], pct: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def latency_summary(latencies_ps: List[int]) -> Dict[str, float]:
    """p50/p99 in µs from exact samples, with the sample count and how
    many samples lie beyond p99."""
    ordered = sorted(latencies_ps)
    if not ordered:
        return {"samples": 0, "p50_us": 0.0, "p99_us": 0.0, "beyond_p99": 0}
    p99 = percentile_ps(ordered, 99)
    return {"samples": len(ordered),
            "p50_us": percentile_ps(ordered, 50) / US_PS,
            "p99_us": p99 / US_PS,
            "beyond_p99": sum(1 for v in ordered if v > p99)}
