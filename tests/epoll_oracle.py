"""Brute-force epoll reference for differential checks of the ready list.

:func:`full_scan` is the epoll scan before the ready list existed: walk
the whole interest list in registration order and report every live fd
whose readiness meets its mask.  :func:`shadow_epoll` re-runs it next to
every real ``Epoll.ready_events`` and ``Epoll.poke`` call and fails on
the first difference in the events returned or the wakeup decision.
"""

from collections import Counter
from contextlib import contextmanager

from repro.kernel.epoll import Epoll
from repro.kernel.uapi import EPOLLERR, EPOLLHUP


def full_scan(epoll, interest=None):
    """Every live entry's hit, in interest order (``interest`` defaults
    to the epoll's own fd → (description, mask) dict)."""
    if interest is None:
        interest = epoll.interest
    out = []
    for fd, (description, mask) in interest.items():
        if description.refcount <= 0:
            continue
        hit = description.poll_mask() & (mask | EPOLLHUP | EPOLLERR)
        if hit:
            out.append((fd, hit))
    return out


@contextmanager
def shadow_epoll():
    """Check every ready-list scan and wakeup decision against
    :func:`full_scan` while the block runs; yields call counts."""
    real_ready_events = Epoll.ready_events
    real_poke = Epoll.poke
    calls = Counter()

    def ready_events(self):
        expected = full_scan(self)
        got = real_ready_events(self)
        assert got == expected, f"ready list {got} != full scan {expected}"
        calls["ready_events"] += 1
        return got

    def poke(self, description):
        parked = len(self.waiters)
        expected = bool(parked) and bool(full_scan(self))
        real_poke(self, description)
        notified = bool(parked) and not self.waiters
        assert notified == expected, \
            f"poke woke={notified}, full scan says {expected}"
        calls["poke"] += 1

    Epoll.ready_events = ready_events
    Epoll.poke = poke
    try:
        yield calls
    finally:
        Epoll.ready_events = real_ready_events
        Epoll.poke = real_poke
