"""A fixed reference computation that calibrates host time.

The hosts this benchmark runs on are shared: other tenants slow the
program by 20-60% for seconds to minutes at a time (see README.md,
"Measuring on a shared host").  The benchmark therefore runs this
computation right after every timed step and expresses the step's host
time in *calibrated seconds*: ``step_s * NOMINAL_S / reference_s``, the
time the step would have taken on a host where the reference takes
``NOMINAL_S``.

The reference mimics the simulator's own profile — generator
resumptions, heap operations and dict updates over a working set of a
few megabytes — so that contention slows it roughly as much as it slows
the simulator.  It uses only the standard library, so no change to the
program under test changes it.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Iterator, List, Optional

#: Reference time on the development host (2 vCPUs, Python 3.11) when
#: it was not slowed by other tenants.
NOMINAL_S = 0.010

_OBJECTS = 30_000
_ACTORS = 500
_EVENTS = 4_000


class _Cell:
    __slots__ = ("key", "attrs", "items")

    def __init__(self, key: int) -> None:
        self.key = key
        self.attrs = {"count": key}
        self.items = [key]


def _actor(cells: List[_Cell], rng: random.Random) -> Iterator[int]:
    while True:
        cell = cells[rng.randrange(len(cells))]
        cell.attrs["count"] += 1
        yield cell.key


class Reference:
    """The working set, built once per process outside any timing."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        cells = [_Cell(i) for i in range(_OBJECTS)]
        self._actors = [_actor(cells, rng) for _ in range(_ACTORS)]

    def run_s(self) -> float:
        """Host CPU seconds of one pass of the reference."""
        actors = self._actors
        heap = [(i, i) for i in range(len(actors))]
        started = time.process_time()
        for _ in range(_EVENTS):
            when, index = heapq.heappop(heap)
            heapq.heappush(heap, (when + next(actors[index]) % 97 + 1,
                                  index))
        return time.process_time() - started


_reference: Optional[Reference] = None


def reference_s() -> float:
    """Host CPU seconds of one reference pass, now."""
    global _reference
    if _reference is None:
        _reference = Reference()
    return _reference.run_s()
