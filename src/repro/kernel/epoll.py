"""A minimal but faithful epoll implementation.

Like Linux's ``eventpoll``, an epoll keeps a *ready list* next to its
interest list: the fds whose readiness may have risen since they were
last found idle.  A wait or a wakeup therefore costs O(ready), not
O(watched fds).  The ready list is a superset of the ready fds as long as
every readiness rise either pokes the description (``Pollable.poke``,
which wakes sleepers) or marks it (``Pollable.mark``, which does not);
an fd is dropped from the list only when a scan finds it idle.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.kernel.uapi import (
    EBADF,
    EEXIST,
    ENOENT,
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLERR,
    EPOLLHUP,
)
from repro.kernel.vfs import FileDescription
from repro.sim.core import TIMEOUT
from repro.sim.sync import WaitQueue

#: Reported whether or not the interest mask asks for them.
ALWAYS = EPOLLHUP | EPOLLERR


class Epoll(FileDescription):
    """Interest list + ready list, level-triggered."""

    kind = "epoll"

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        #: fd number → (description, interest mask), in registration order
        self.interest: Dict[int, Tuple[FileDescription, int]] = {}
        #: fd number → registration sequence number; ready events are
        #: reported in this order, which is the interest list's order.
        self._order: Dict[int, int] = {}
        self._next_order = 0
        #: The ready list: candidate fds of watched descriptions.
        self._ready: Set[int] = set()
        #: fds whose description keeps no ``watchers`` registry (regular
        #: files, nested epolls): nothing tells us when they change, so
        #: every scan re-checks them.
        self._polled: Dict[int, None] = {}
        #: Watched descriptions whose last reference closed since our
        #: last scan; the next scan prunes their fds.
        self._dying: List[FileDescription] = []
        self.waiters = WaitQueue(sim)

    # -- interest list ---------------------------------------------------

    def ctl(self, op: int, fd: int, description: FileDescription,
            events: int) -> int:
        entry = self.interest.get(fd)
        if entry is not None and entry[0].refcount <= 0:
            # Linux drops an fd from every epoll set when its description
            # dies, whether or not a scan has run since.
            self._drop(fd)
            entry = None
        if op == EPOLL_CTL_ADD:
            if entry is not None:
                return -EEXIST
            self.interest[fd] = (description, events)
            self._order[fd] = self._next_order
            self._next_order += 1
            self._watch(fd, description)
        elif op == EPOLL_CTL_MOD:
            if entry is None:
                return -ENOENT
            self.interest[fd] = (description, events)
            if entry[0] is not description:
                self._unwatch(fd, entry[0])
            self._watch(fd, description)
        elif op == EPOLL_CTL_DEL:
            if entry is None:
                return -ENOENT
            self._drop(fd)
        else:
            return -EBADF
        self.poke_all()
        return 0

    def _watch(self, fd: int, description: FileDescription) -> None:
        """Register ``fd`` with the description's watchers (keyed per
        (epoll, fd): a dup'd description stays watched until its last
        fd leaves) and put it on the ready list."""
        watchers = getattr(description, "watchers", None)
        if watchers is None:
            self._polled[fd] = None
            return
        fds = watchers.get(self)
        if fds is None:
            watchers[self] = {fd}
        else:
            fds.add(fd)
        self._ready.add(fd)
        if description.refcount <= 0:
            self.dying(description)

    def _unwatch(self, fd: int, description: FileDescription) -> None:
        watchers = getattr(description, "watchers", None)
        if watchers is None:
            self._polled.pop(fd, None)
            return
        fds = watchers.get(self)
        if fds is not None:
            fds.discard(fd)
            if not fds:
                del watchers[self]
        self._ready.discard(fd)

    def _drop(self, fd: int) -> None:
        description, _ = self.interest.pop(fd)
        del self._order[fd]
        self._unwatch(fd, description)

    # -- liveness --------------------------------------------------------

    def dying(self, description: FileDescription) -> None:
        """A watched description's last reference is closing."""
        self._dying.append(description)

    def _prune(self) -> None:
        """Drop the fds of descriptions that died since the last scan
        (dying watched ones, and any dead one among the polled fds)."""
        interest = self.interest
        dying = self._dying
        while dying:
            description = dying.pop()
            if description.refcount > 0:
                continue
            fds = description.watchers.get(self)
            for fd in list(fds or ()):
                if interest[fd][0] is description:
                    self._drop(fd)
        if self._polled:
            for fd in list(self._polled):
                if interest[fd][0].refcount <= 0:
                    self._drop(fd)

    # -- scans -----------------------------------------------------------

    def mark(self, fds) -> None:
        """Put ``fds`` on the ready list without waking anyone."""
        self._ready.update(fds)

    def ready_events(self) -> List[Tuple[int, int]]:
        """Level-triggered scan of the ready list.

        Revalidates the candidates, drops those no longer ready and
        returns the hits in interest-registration order.  Descriptions
        whose last reference was closed are pruned first, as Linux drops
        an fd from every epoll set when its description dies.
        """
        if self._dying or self._polled:
            self._prune()
        interest = self.interest
        order = self._order
        hits = []
        for fd in self._polled:
            description, mask = interest[fd]
            hit = description.poll_mask() & (mask | ALWAYS)
            if hit:
                hits.append((order[fd], fd, hit))
        ready = self._ready
        if ready:
            idle = []
            for fd in ready:
                description, mask = interest[fd]
                hit = description.poll_mask() & (mask | ALWAYS)
                if hit:
                    hits.append((order[fd], fd, hit))
                else:
                    idle.append(fd)
            if idle:
                ready.difference_update(idle)
        hits.sort()
        return [(fd, hit) for _, fd, hit in hits]

    def _any_ready(self) -> bool:
        """Early-exit "is anything ready?": drops the idle candidates it
        passes, never builds the result list."""
        interest = self.interest
        for fd in self._polled:
            description, mask = interest[fd]
            if description.poll_mask() & (mask | ALWAYS):
                return True
        ready = self._ready
        idle = []
        found = False
        for fd in ready:
            description, mask = interest[fd]
            if description.poll_mask() & (mask | ALWAYS):
                found = True
                break
            idle.append(fd)
        ready.difference_update(idle)
        return found

    def wait(self, max_events: int, timeout_ps=None):
        """Generator: block until ≥1 event (or timeout). Returns a list."""
        while True:
            ready = self.ready_events()
            if ready:
                return ready[:max_events]
            value = yield from self.waiters.wait(timeout_ps=timeout_ps)
            if value is TIMEOUT:
                return []

    def poke(self, description) -> None:
        """Called by a watched pollable when its state changes."""
        fds = description.watchers.get(self)
        if fds:
            self._ready.update(fds)
        if self._dying or self._polled:
            self._prune()
        if self.waiters and self._any_ready():
            self.waiters.notify_all()

    def poke_all(self) -> None:
        if self.ready_events():
            self.waiters.notify_all()

    def on_last_close(self) -> None:
        for fd, (description, _) in list(self.interest.items()):
            self._unwatch(fd, description)
        self.interest.clear()
        self._order.clear()
        self._ready.clear()
        self._polled.clear()
        self._dying.clear()
