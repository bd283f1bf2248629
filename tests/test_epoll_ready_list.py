"""The epoll ready list: regressions, ctl semantics, a complexity gate
and a differential property against the brute-force full scan."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.epoll import Epoll
from repro.kernel.kernel import Kernel
from repro.kernel.net import (
    ListenerSocket,
    PipeEnd,
    Pollable,
    StreamSocket,
)
from repro.kernel.task import FdTable
from repro.kernel.uapi import (
    EEXIST,
    ENOENT,
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLL_CTL_MOD,
    EPOLLHUP,
    EPOLLIN,
    EPOLLOUT,
    O_RDWR,
    Syscall,
)
from repro.kernel.vfs import FileDesc, Inode
from repro.sim import Machine, Simulator
from repro.world import World
from tests.epoll_oracle import full_scan, shadow_epoll


def finish(thread):
    if thread.exception is not None:
        raise thread.exception
    return thread.result


class TestWatcherRegistration:
    def test_del_of_one_dup_keeps_the_other_fd_waking(self):
        # One pipe read end registered under two fds; dropping one of
        # them must not unhook the epoll from the description, or data
        # arriving for the other fd never wakes the sleeper.
        w = World()
        shared = {}

        def waiter(ctx):
            ep = yield from ctx.epoll_create()
            r, wfd = yield from ctx.pipe()
            r2 = (yield from ctx.syscall("dup", r)).retval
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r, EPOLLIN)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_ADD, r2, EPOLLIN)
            yield from ctx.epoll_ctl(ep, EPOLL_CTL_DEL, r, 0)
            shared["writer_end"] = ctx.task.fdtable.get(wfd)
            events = yield from ctx.epoll_wait(ep, timeout_ms=10)
            return r2, events

        def writer(ctx):
            yield from ctx.nanosleep(1_000_000_000)  # 1 ms
            shared["writer_end"].write_bytes(b"x")

        task = w.spawn(waiter, name="waiter")
        w.spawn(writer, name="writer")
        w.run()
        r2, events = finish(task.threads[0])
        assert events == [(r2, EPOLLIN)]
        # ... and it woke on the write at 1 ms, not at the 10 ms timeout.
        assert w.sim.now < 10 * 1_000_000_000

    def test_watchers_map_epoll_to_its_fds(self):
        sim = Simulator()
        ep = Epoll(sim)
        sock = StreamSocket(sim, None)
        ep.ctl(EPOLL_CTL_ADD, 3, sock, EPOLLIN)
        ep.ctl(EPOLL_CTL_ADD, 4, sock, EPOLLIN)
        assert sock.watchers == {ep: {3, 4}}
        ep.ctl(EPOLL_CTL_DEL, 3, sock, 0)
        assert sock.watchers == {ep: {4}}
        ep.ctl(EPOLL_CTL_DEL, 4, sock, 0)
        assert sock.watchers == {}


class TestCtlIgnoresScanTiming:
    def test_dead_entry_is_absent_before_any_scan(self):
        # A regular file has no watchers, so nothing scans the epoll
        # when it dies; ctl must still treat its entry as gone.
        sim = Simulator()
        ep = Epoll(sim)
        dead = FileDesc(Inode("f"), O_RDWR)
        assert ep.ctl(EPOLL_CTL_ADD, 5, dead, EPOLLIN) == 0
        dead.decref()
        assert ep.ctl(EPOLL_CTL_MOD, 5, dead, EPOLLIN) == -ENOENT
        assert 5 not in ep.interest
        fresh = FileDesc(Inode("g"), O_RDWR)
        assert ep.ctl(EPOLL_CTL_ADD, 5, fresh, EPOLLIN) == 0
        assert ep.ctl(EPOLL_CTL_ADD, 5, fresh, EPOLLIN) == -EEXIST
        assert ep.ready_events() == [(5, EPOLLIN)]

    def test_dead_entry_del_is_enoent(self):
        sim = Simulator()
        ep = Epoll(sim)
        dead = FileDesc(Inode("f"), O_RDWR)
        ep.ctl(EPOLL_CTL_ADD, 5, dead, EPOLLIN)
        dead.decref()
        assert ep.ctl(EPOLL_CTL_DEL, 5, dead, 0) == -ENOENT

    def test_mod_to_a_new_description_moves_the_watch(self):
        sim = Simulator()
        ep = Epoll(sim)
        old, new = StreamSocket(sim, None), StreamSocket(sim, None)
        ep.ctl(EPOLL_CTL_ADD, 7, old, EPOLLIN)
        assert ep.ctl(EPOLL_CTL_MOD, 7, new, EPOLLIN) == 0
        assert old.watchers == {} and new.watchers == {ep: {7}}
        new.deliver(b"x")
        assert ep.ready_events() == [(7, EPOLLIN)]

    def test_hits_come_back_in_registration_order(self):
        sim = Simulator()
        ep = Epoll(sim)
        socks = [StreamSocket(sim, None) for _ in range(6)]
        for fd in (8, 3, 6, 4, 7, 5):
            ep.ctl(EPOLL_CTL_ADD, fd, socks[fd - 3], EPOLLIN)
        ep.ctl(EPOLL_CTL_DEL, 3, socks[0], 0)
        ep.ctl(EPOLL_CTL_ADD, 3, socks[0], EPOLLIN)  # re-added: now last
        for sock in reversed(socks):
            sock.deliver(b"x")
        assert [fd for fd, _ in ep.ready_events()] == [8, 6, 4, 7, 5, 3]


class TestComplexity:
    def test_one_wakeup_among_10k_idle_sockets_is_o1(self, monkeypatch):
        sim = Simulator()
        machine = Machine(sim, name="m")
        ep = Epoll(sim)
        socks = [StreamSocket(sim, machine) for _ in range(10_000)]
        for fd, sock in enumerate(socks, start=3):
            ep.ctl(EPOLL_CTL_ADD, fd, sock, EPOLLIN)
        got = []

        def waiter():
            got.append((yield from ep.wait(64)))

        machine.spawn(waiter(), name="waiter", daemon=True)
        sim.run()
        assert not got and len(ep.waiters) == 1  # parked, nothing ready

        calls = [0]
        real_poll_mask = StreamSocket.poll_mask

        def counting_poll_mask(self):
            calls[0] += 1
            return real_poll_mask(self)

        monkeypatch.setattr(StreamSocket, "poll_mask", counting_poll_mask)
        socks[5_000].deliver(b"x")
        sim.run()
        assert got == [[(5_003, EPOLLIN)]]
        # One for the socket's own poke, one for the epoll's wakeup
        # check, one for the woken wait's scan: not one per watched fd.
        assert calls[0] <= 4


class TestShadowOracle:
    def test_shadow_catches_a_lost_candidate(self):
        # Self-test of the differential fixture: a readiness rise that
        # neither pokes nor marks is exactly the bug it must report.
        sim = Simulator()
        ep = Epoll(sim)
        sock = StreamSocket(sim, None)
        ep.ctl(EPOLL_CTL_ADD, 3, sock, EPOLLIN)
        sock.rx.push(b"x")  # silent rise: bypasses deliver()'s poke
        with shadow_epoll():
            with pytest.raises(AssertionError, match="full scan"):
                ep.ready_events()


# -- differential property ------------------------------------------------


class RecordingWaiters:
    """Stands in for an epoll's wait queue: ``parked`` says whether a
    sleeper is waiting, ``notify_all`` wakes (clears) it."""

    def __init__(self) -> None:
        self.parked = False

    def __len__(self) -> int:
        return int(self.parked)

    def notify_all(self, value=None) -> int:
        woke, self.parked = int(self.parked), False
        return woke


class Harness:
    """Two epolls over one task's fd table, checked against a model
    interest list (fd → (description, mask) in registration order, dead
    entries treated as absent) and :func:`full_scan` after every step."""

    ADDR = ("m", 80)

    def __init__(self) -> None:
        self.sim = Simulator()
        self.machine = Machine(self.sim, name="m")
        self.kernel = Kernel(self.sim)
        self.task = SimpleNamespace(fdtable=FdTable(), machine=self.machine)
        self.epolls = [Epoll(self.sim) for _ in range(2)]
        self.models = [{} for _ in self.epolls]
        self.pokes = []
        for ep in self.epolls:
            ep.waiters = RecordingWaiters()
            ep.poke = self._checked_poke(ep, ep.poke)
        # Two sockets first: the low indexes hypothesis favours pick them.
        self.create("socket")
        self.create("socket")
        listener = ListenerSocket(self.sim, self.machine, self.ADDR,
                                  backlog=2)
        self.kernel.listeners[self.ADDR] = listener
        self.task.fdtable.install(listener)
        self.create("pipe")

    def _checked_poke(self, ep, real_poke):
        def poke(description):
            expected = ep.waiters.parked and bool(self.scan(ep))
            real_poke(description)
            woke = expected and not ep.waiters.parked
            assert woke == expected, "poke decision != full scan"
            self.pokes.append((ep, description))
        return poke

    def scan(self, ep):
        return full_scan(ep, self.models[self.epolls.index(ep)])

    # -- operations ------------------------------------------------------

    def fds(self):
        return self.task.fdtable.fds()

    def pick(self, index):
        fds = self.fds()
        return fds[index % len(fds)] if fds else None

    def ctl(self, which, op, index, mask):
        ep, model = self.epolls[which], self.models[which]
        fd = self.pick(index)
        if fd is None:
            return
        description = self.task.fdtable.get(fd)
        entry = model.get(fd)
        if entry is not None and entry[0].refcount <= 0:
            del model[fd]
            entry = None
        if op == EPOLL_CTL_ADD:
            want = -EEXIST if entry is not None else 0
        else:
            want = -ENOENT if entry is None else 0
        assert ep.ctl(op, fd, description, mask) == want
        if want == 0 and op == EPOLL_CTL_DEL:
            del model[fd]
        elif want == 0:
            model[fd] = (description, mask)

    def create(self, kind):
        table, sim = self.task.fdtable, self.sim
        if kind == "socket":
            table.install(StreamSocket(sim, self.machine))
        elif kind == "pipe":
            for end in PipeEnd.make_pipe(sim):
                table.install(end)
        elif kind == "socketpair":
            for end in PipeEnd.make_socketpair(sim):
                table.install(end)
        else:
            table.install(FileDesc(Inode("f"), O_RDWR))

    def dup(self, index, target):
        fd = self.pick(index)
        if fd is not None:
            at = None if target is None else self.pick(target)
            if at != fd:
                self.task.fdtable.dup(fd, at=at)

    def close(self, index):
        fd = self.pick(index)
        if fd is not None and len(self.fds()) > 1:
            self.task.fdtable.close(fd)

    def deliver(self, index, size):
        description = self.task.fdtable.get(self.pick(index))
        data = b"x" * size
        if isinstance(description, StreamSocket):
            if description.peer is not None:
                description.peer.send_bytes(data)
            elif size % 2:
                description.deliver_eof()
            else:
                description.deliver(data)
        elif isinstance(description, Pollable) and hasattr(
                description, "write_bytes"):
            description.write_bytes(data)

    def drain(self, index, size):
        description = self.task.fdtable.get(self.pick(index))
        if isinstance(description, ListenerSocket):
            if description.pending:
                self.task.fdtable.install(description.pending.popleft())
            return
        buffer = getattr(description, "rx", None) or getattr(
            description, "buffer", None)
        if buffer is not None:
            buffer.pull(size)

    def connect(self, index):
        fd = self.pick(index)
        description = self.task.fdtable.get(fd)
        if isinstance(description, StreamSocket) and description.peer is None:
            call = Syscall("connect", (fd, self.ADDR))
            with pytest.raises(StopIteration):
                next(self.kernel._sys_connect(self.task, call))

    def park(self, which):
        self.epolls[which].waiters.parked = True

    # -- checks ----------------------------------------------------------

    def check(self, mode):
        for ep, model in zip(self.epolls, self.models):
            live = {fd: entry for fd, entry in model.items()
                    if entry[0].refcount > 0}
            assert {fd: entry for fd, entry in ep.interest.items()
                    if entry[0].refcount > 0} == live
            if mode & 1:
                ep.poke(Pollable(self.sim))  # a wakeup check, nothing new
            if mode & 2:
                assert ep.ready_events() == self.scan(ep)

    def checked_pollable_poke(self, real_poke):
        """``Pollable.poke`` that asserts a live description pokes
        exactly the epolls with a live model entry on it."""
        def poke(description):
            before = len(self.pokes)
            real_poke(description)
            if description.refcount <= 0:
                return  # its close poke: the epolls prune it
            poked = [ep for ep, d in self.pokes[before:] if d is description]
            for ep, model in zip(self.epolls, self.models):
                registered = any(entry[0] is description
                                 and entry[0].refcount > 0
                                 for entry in model.values())
                assert poked.count(ep) == int(registered)
        return poke


class TestSilentRises:
    """Readiness that rises with no wakeup due must still reach the
    ready list (``Pollable.mark``), or a later scan misses it."""

    def test_connect_raises_epollout(self):
        h = Harness()
        ep = h.epolls[0]
        h.ctl(0, EPOLL_CTL_ADD, 0, EPOLLOUT)  # fd 3: unconnected socket
        assert ep.ready_events() == []
        h.connect(0)
        assert ep.ready_events() == [(3, EPOLLOUT)]

    def test_peer_close_raises_hup_without_waking(self):
        h = Harness()
        ep = h.epolls[0]
        h.connect(0)                         # fd 3 → the listener (fd 5)
        h.drain(2, 1)                        # accept: server end is fd 8
        h.ctl(0, EPOLL_CTL_ADD, 5, 0)        # fd 8, HUP/ERR only
        h.park(0)
        h.close(0)                           # the client hangs up
        assert ep.waiters.parked             # as before: no wakeup ...
        assert ep.ready_events() == [(8, EPOLLHUP)]  # ... but visible


INDEX = st.integers(0, 9)
STEP = st.one_of(
    st.tuples(st.just("ctl"), st.integers(0, 1),
              st.sampled_from((EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL)),
              INDEX, st.sampled_from((0, EPOLLIN, EPOLLOUT,
                                      EPOLLIN | EPOLLOUT))),
    st.tuples(st.just("create"),
              st.sampled_from(("socket", "pipe", "socketpair", "file"))),
    st.tuples(st.just("dup"), INDEX, st.none() | INDEX),
    st.tuples(st.just("close"), INDEX),
    st.tuples(st.just("deliver"), INDEX, st.integers(1, 3)),
    st.tuples(st.just("drain"), INDEX, st.integers(1, 3)),
    st.tuples(st.just("connect"), INDEX),
    st.tuples(st.just("park"), st.integers(0, 1)),
)
#: Each step is an operation plus the checks to run after it (bit 0: a
#: wakeup decision, bit 1: a ready_events scan).
STEPS = st.lists(st.tuples(STEP, st.integers(0, 3)), min_size=15,
                 max_size=60)


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(STEPS)
    def test_ready_list_matches_full_scan(self, steps):
        harness = Harness()
        real_poke = Pollable.poke
        Pollable.poke = harness.checked_pollable_poke(real_poke)
        try:
            for (op, *args), mode in steps:
                getattr(harness, op)(*args)
                harness.check(mode)
            harness.check(3)
        finally:
            Pollable.poke = real_poke
