"""The benchmark's own tests, at a tiny size.

Run from the repository root: ``python3 -m pytest nvxbench -q``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nvxbench import metrics, run, spans, workloads  # noqa: E402
from nvxbench.spans import Shims, SpanRecorder  # noqa: E402

TINY = {
    "closed-local": lambda: workloads.ClosedLocal(rounds=1, clients=4),
    "open-remote": lambda: workloads.OpenRemote(
        clients=24, duration_ps=workloads.SEC_PS // 200, rate_rps=4000.0,
        warmup_ps=0),
    "fuzz-campaign": lambda: workloads.FuzzCampaign(campaigns=1),
}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_emitted_and_shims_transparent(name):
    wl = TINY[name]()
    inputs = wl.inputs(3)
    checker = run.Checker()
    runs, setup_runs = run.timed_run(wl, inputs, 0.0, checker, 3, probes=0)
    assert len(runs) == 2 * len(inputs) and setup_runs == []
    e2e = metrics.end_to_end(runs, [0.5], 30.0)
    assert set(e2e) == {n for n, _ in metrics.END_TO_END}
    assert all(_finite(v) and v > 0 for v in e2e.values())

    # traced_run compares every traced unit's simulated outputs with the
    # untraced run of the same input and records any difference.
    rec, snapshot, traced, untraced = run.traced_run(wl, inputs, 0.0,
                                                     checker)
    assert checker.problems == []
    assert [t.fingerprint for _i, t in traced] \
        == [u.fingerprint for _i, u in untraced]
    layers = metrics.per_layer(rec, snapshot, traced, untraced)
    assert set(layers) == {n for n, _ in metrics.PER_LAYER}
    assert all(_finite(v) for v in layers.values())
    assert layers["sim.events"] > 0 and layers["kernel.syscalls"] > 0
    assert all(layers[n] >= 0 for n, u in metrics.PER_LAYER if u == "s")
    if name == "open-remote":
        assert layers["core.net.frames"] > 0
        assert layers["runtime.images"] == 0
    else:
        assert layers["core.net.frames"] == 0
    if name == "closed-local":
        assert layers["runtime.images"] == 3
    if wl.server:
        assert layers["clients.samples"] > 0
    if name == "fuzz-campaign":
        assert layers["fuzz.scenarios"] == workloads.FUZZ_BUDGET


def test_checker_flags_nondeterminism():
    checker = run.Checker()
    checker.unit(1, workloads.Unit(fingerprint="a"))
    checker.unit(1, workloads.Unit(fingerprint="a"))
    assert checker.problems == []
    checker.unit(1, workloads.Unit(fingerprint="b"), " (traced)")
    assert len(checker.problems) == 1


def test_closed_script_expects_exact_replies():
    script = workloads.closed_script(seed=5, client=0, rounds=3)
    assert len(script) == 3 * len(workloads.CLOSED_COMMANDS)
    for line, reply in script:
        assert line.endswith(b"\r\n") and b" " not in line.split()[-1]
        assert workloads._resp_length(reply) == len(reply)
    assert script != workloads.closed_script(seed=6, client=0, rounds=3)


# -- span accounting ----------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", fake)
    return fake


def test_self_time_is_span_minus_children(clock):
    class Layer:
        def outer(self):
            clock.now += 1.0
            self.inner()
            clock.now += 2.0
            self.inner()
            return "done"

        def inner(self):
            clock.now += 0.5

    rec = SpanRecorder()
    with Shims(rec) as shims:
        shims.method(Layer, "outer", "outer")
        shims.method(Layer, "inner", "inner")
        assert Layer().outer() == "done"
    assert rec.self_s["outer"] == pytest.approx(3.0)
    assert rec.self_s["inner"] == pytest.approx(1.0)
    assert rec.calls["inner"] == 2
    assert rec.stack == []
    assert not hasattr(Layer.__dict__["outer"], "__wrapped__")


def test_generator_spans_exclude_suspended_time(clock):
    class Layer:
        def work(self):
            clock.now += 1.0
            got = yield "first"
            clock.now += 2.0
            yield got
            return "result"

    rec = SpanRecorder()
    with Shims(rec) as shims:
        shims.method(Layer, "work", "work")
        gen = Layer().work()
        assert next(gen) == "first"
        clock.now += 100.0  # suspended: not the layer's time
        assert gen.send("second") == "second"
        with pytest.raises(StopIteration) as stop:
            next(gen)
    assert stop.value.value == "result"
    assert rec.self_s["work"] == pytest.approx(3.0)


def test_generator_shim_forwards_exceptions(clock):
    class Layer:
        def work(self):
            try:
                yield 1
            except KeyError:
                yield "caught"

    rec = SpanRecorder()
    with Shims(rec) as shims:
        shims.method(Layer, "work", "work")
        gen = Layer().work()
        next(gen)
        assert gen.throw(KeyError()) == "caught"
        gen.close()
    assert rec.stack == []


def test_self_time_never_negative_on_random_nesting(clock):
    rng = random.Random(11)

    class Tree:
        def node(self, depth):
            clock.now += rng.random()
            for _ in range(rng.randrange(3) if depth < 5 else 0):
                getattr(self, rng.choice(("node", "leaf")))(depth + 1)
                clock.now += rng.random()

        def leaf(self, depth):
            clock.now += rng.random()

    rec = SpanRecorder()
    with Shims(rec) as shims:
        shims.method(Tree, "node", "node")
        shims.method(Tree, "leaf", "leaf")
        started = clock.now
        for _ in range(50):
            Tree().node(0)
        total = clock.now - started
    assert all(value >= 0 for value in rec.self_s.values())
    assert sum(rec.self_s.values()) == pytest.approx(total)


def test_scenario_failed_respects_absorbing_rules():
    class Result:
        def __init__(self, mismatches, divergences):
            self.mismatches = mismatches
            self.violations = 0
            self.fatal_divergences = [("v1", c, e) for c, e in divergences]

    absorbed = {("getuid", "read")}
    assert not workloads.scenario_failed(Result(0, []), absorbed)
    assert not workloads.scenario_failed(
        Result(1, [("getuid", "read")]), absorbed)
    assert workloads.scenario_failed(Result(1, []), absorbed)
    assert workloads.scenario_failed(
        Result(1, [("getuid", "write")]), absorbed)


def test_calibrated_time_is_median_step_over_reference():
    nominal = metrics.NOMINAL_S
    # Step 0 ran on a host twice as slow in the second repeat: the same
    # ratio to its reference.  Step 1's ratios are 3, 4 and 8.
    repeats = [workloads.Unit(steps=[(1.0, 1.0), (3.0, 1.0)]),
               workloads.Unit(steps=[(2.0, 2.0), (8.0, 2.0)]),
               workloads.Unit(steps=[(1.0, 1.0), (8.0, 1.0)])]
    assert metrics.calibrated_s(repeats) == pytest.approx(nominal * 5.0)
    runs = [("a", repeats[0]), ("b", workloads.Unit(ops=10)),
            ("a", repeats[1])]
    assert list(metrics.by_input(runs)) == ["a", "b"]


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = metrics.tail_percentile([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90.0
    assert metrics.tail_percentile([]) == (0.0, 0.0)


# -- the command --------------------------------------------------------------


def test_command_prints_result_line():
    done = subprocess.run(
        [sys.executable, "nvxbench/run.py", "--workload", "closed-local",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in metrics.END_TO_END}


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "nvxbench", tmp_path / "nvxbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "nvxbench/run.py", "--workload", "closed-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
