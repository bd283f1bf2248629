"""Span shims: per-layer host time and counts, measured from outside.

The traced run wraps each layer's public entry points with a shim that
records a span around the call.  Spans nest on one stack (the simulator
is single-threaded), and a layer's *self time* is its spans' duration
minus the part covered by child spans.

Generator entry points (system-call handlers, ring publish, monitor
waits) run in slices between the simulator's resumptions; their shim
times each slice as one span, so time spent suspended is never charged.
The shims pass every value, exception and return through unchanged,
which the benchmark checks: a traced unit must reproduce the untraced
unit's simulated outputs byte for byte.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """The span stack plus per-layer self time, call counts and the
    extra observations individual shims make."""

    def __init__(self) -> None:
        #: One entry per open span: host seconds covered by its children.
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Free-form sums the special shims keep (bytes, fds scanned...).
        self.sums: Counter = Counter()
        #: Inclusive duration of every call, for layers that ask for it.
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: Objects the shims captured for reading counters afterwards.
        self.captured: Dict[str, list] = defaultdict(list)

    def open(self) -> float:
        self.stack.append(0.0)
        return perf_counter()

    def close(self, layer: str, started: float) -> float:
        """Close the innermost span; returns its duration."""
        duration = perf_counter() - started
        stack = self.stack
        self.self_s[layer] += duration - stack.pop()
        if stack:
            stack[-1] += duration
        return duration


def _call_shim(rec: SpanRecorder, layer: str, fn: Callable, before,
               after, count: bool, inclusive: bool) -> Callable:
    def shim(*args, **kwargs):
        if count:
            rec.calls[layer] += 1
        if before is not None:
            before(rec, args)
        started = rec.open()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = rec.close(layer, started)
            if inclusive:
                rec.durations[layer].append(duration)
            if after is not None:
                after(rec, args, result)

    shim.__wrapped__ = fn
    return shim


def _drive(rec: SpanRecorder, layer: str, gen, after, args):
    """Delegate to ``gen`` exactly like ``yield from``, timing each
    slice between resumptions as a span of ``layer``."""
    value = None
    thrown: Optional[BaseException] = None
    while True:
        started = rec.open()
        try:
            if thrown is not None:
                yielded = gen.throw(thrown)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            rec.close(layer, started)
            if after is not None:
                after(rec, args, stop.value)
            return stop.value
        except BaseException:
            rec.close(layer, started)
            raise
        rec.close(layer, started)
        thrown = None
        value = None
        try:
            value = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, like yield from
            thrown = exc


def _gen_shim(rec: SpanRecorder, layer: str, fn: Callable, before,
              after, count: bool) -> Callable:
    def shim(*args, **kwargs):
        if count:
            rec.calls[layer] += 1
        if before is not None:
            before(rec, args)
        return _drive(rec, layer, fn(*args, **kwargs), after, args)

    shim.__wrapped__ = fn
    return shim


class Shims:
    """Installs span shims on class methods and module functions and
    removes them again; use as a context manager around a traced unit.

    A module function is replaced in every ``repro`` module that bound
    it by name (``from x import f``), so callers cannot bypass the shim.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: List = []

    def method(self, cls, name: str, layer: str, before=None, after=None,
               count: bool = True, inclusive: bool = False) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self._shim(original, layer, before, after,
                                      count, inclusive))
        self._undo.append((cls, name, original))

    def function(self, module, name: str, layer: str, before=None,
                 after=None, count: bool = True,
                 inclusive: bool = False) -> None:
        original = getattr(module, name)
        shim = self._shim(original, layer, before, after, count, inclusive)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, shim)
                self._undo.append((mod, name, original))

    def _shim(self, fn, layer, before, after, count, inclusive):
        """``before(rec, args)`` runs ahead of the span and
        ``after(rec, args, result)`` once the call has returned."""
        if inspect.isgeneratorfunction(fn):
            return _gen_shim(self.rec, layer, fn, before, after, count)
        return _call_shim(self.rec, layer, fn, before, after, count,
                          inclusive)

    def capture(self, cls, name: str, key: str) -> None:
        """Record ``self`` of every call (no span): lets the benchmark
        read counters off objects the program builds internally."""
        original = cls.__dict__[name]
        captured = self.rec.captured[key]

        def shim(obj, *args, **kwargs):
            captured.append(obj)
            return original(obj, *args, **kwargs)

        setattr(cls, name, shim)
        self._undo.append((cls, name, original))

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# -- the layer map ------------------------------------------------------------


def _events_before(rec, args) -> None:
    rec.sums["sim.events"] -= args[0].events_processed


def _events_after(rec, args, _result) -> None:
    rec.sums["sim.events"] += args[0].events_processed


def _epoll_scanned(rec, args) -> None:
    rec.sums["epoll.fds_scanned"] += len(args[0].interest)


def _epoll_ready(rec, _args, result) -> None:
    rec.sums["epoll.ready"] += len(result) if result is not None else 0


def _ring_occupancy(rec, args, _result) -> None:
    ring = args[0]
    occupancy = ring.head - ring.min_cursor()
    if occupancy > rec.sums["ring.occupancy_max"]:
        rec.sums["ring.occupancy_max"] = occupancy


def _encoded_bytes(rec, _args, result) -> None:
    rec.sums["recordreplay.bytes"] += len(result) if result else 0


def install_layers(shims: Shims) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.bpf.interpreter import BpfProgram
    from repro.core.coordinator import NvxSession
    from repro.core.monitor import ReplicaMonitor
    from repro.core.netring import NetRing
    from repro.core.ringbuffer import RingBuffer
    from repro.faults.injector import FaultInjector
    from repro.faults.invariants import InvariantChecker
    from repro.fuzz import executor, synthesis
    from repro.kernel.epoll import Epoll
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import SyscallGate
    from repro.recordreplay import logfile
    from repro.runtime import loader
    from repro.sim.core import Simulator
    from repro.sim.network import Network

    # sim: the run loop is the root span; its self time includes app and
    # client generator bodies that no child span covers.
    shims.method(Simulator, "run", "sim", before=_events_before,
                 after=_events_after)
    shims.method(Network, "deliver", "sim.network")

    # kernel
    shims.method(Kernel, "execute", "kernel")
    shims.method(Kernel, "native", "kernel", count=False)
    shims.method(SyscallGate, "dispatch", "kernel.gate")
    shims.method(Epoll, "ready_events", "kernel.epoll",
                 before=_epoll_scanned, after=_epoll_ready)

    # core
    shims.method(ReplicaMonitor, "publish_result", "core.monitor.publish")
    shims.method(ReplicaMonitor, "await_event", "core.monitor.await")
    shims.method(ReplicaMonitor, "consume", "core.monitor.consume")
    shims.method(RingBuffer, "publish", "core.ring.publish",
                 after=_ring_occupancy)
    shims.method(NetRing, "publish", "core.net.publish")
    shims.method(NvxSession, "start", "core.session.start")

    # runtime / rewriter / isa: the load path
    shims.function(loader, "load_image", "runtime.load_image")

    # faults
    shims.method(InvariantChecker, "on_publish", "faults.invariant")
    shims.method(InvariantChecker, "on_consume", "faults.invariant")
    shims.capture(FaultInjector, "arm", "injectors")

    # recordreplay
    shims.function(logfile, "encode_event", "recordreplay.encode",
                   after=_encoded_bytes)
    shims.function(logfile, "decode_records", "recordreplay.decode")

    # bpf
    shims.method(BpfProgram, "run", "bpf")

    # fuzz
    shims.function(executor, "run_scenario", "fuzz.scenario",
                   inclusive=True)
    shims.function(synthesis, "attempt_absorb", "fuzz.synthesis",
                   inclusive=True)
