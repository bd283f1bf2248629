"""Sockets, pipes and the pollable plumbing of the simulated kernel.

Stream sockets connect tasks on the same machine (loopback, UNIX domain)
or across the simulated rack link (see :mod:`repro.sim.network`).  All
buffers notify epoll watchers and blocked readers on state changes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.kernel.uapi import (
    EAGAIN,
    ECONNREFUSED,
    EPIPE,
    EPOLLHUP,
    EPOLLIN,
    EPOLLOUT,
    O_NONBLOCK,
)
from repro.kernel.vfs import FileDescription
from repro.sim.sync import WaitQueue


class Pollable(FileDescription):
    """A description whose readiness can change asynchronously."""

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        #: Epoll instance → the fds it watches this description under,
        #: epolls in registration order.  A dict, not a set: ``poke``
        #: iterates it and wakes waiters, and set order follows object
        #: addresses — two epolls ready at the same tick would wake their
        #: sleepers in a heap-layout-dependent order, breaking run-to-run
        #: determinism.
        self.watchers: Dict = {}
        self.read_waiters = WaitQueue(sim)
        self.write_waiters = WaitQueue(sim)

    def poke(self) -> None:
        """Notify blocked readers/writers and epoll watchers."""
        mask = self.poll_mask()
        if mask & (EPOLLIN | EPOLLHUP):
            self.read_waiters.notify_all()
        if mask & (EPOLLOUT | EPOLLHUP):
            self.write_waiters.notify_all()
        for epoll in list(self.watchers):
            epoll.poke(self)

    def mark(self) -> None:
        """Readiness may have risen with no wakeup due: put our fds on
        every watching epoll's ready list without waking anyone."""
        for epoll, fds in self.watchers.items():
            epoll.mark(fds)

    def decref(self) -> None:
        if self.refcount == 1:
            # Each watching epoll prunes us at its next scan.
            for epoll in self.watchers:
                epoll.dying(self)
        super().decref()


class StreamBuffer:
    """One direction of a stream connection."""

    def __init__(self, limit: int = 1 << 20) -> None:
        self.chunks: Deque[bytes] = deque()
        self.size = 0
        self.limit = limit
        self.eof = False

    def push(self, data: bytes) -> None:
        if data:
            self.chunks.append(data)
            self.size += len(data)

    def pull(self, size: int) -> bytes:
        out = bytearray()
        while self.chunks and len(out) < size:
            chunk = self.chunks.popleft()
            take = size - len(out)
            if len(chunk) > take:
                out += chunk[:take]
                self.chunks.appendleft(chunk[take:])
            else:
                out += chunk
        self.size -= len(out)
        return bytes(out)


class StreamSocket(Pollable):
    """One endpoint of a connected byte stream."""

    kind = "socket"

    def __init__(self, sim, machine, network=None,
                 flags: int = 0) -> None:
        super().__init__(sim)
        self.machine = machine
        self.network = network
        self.peer: Optional["StreamSocket"] = None
        self.rx = StreamBuffer()
        self.flags = flags
        self.closed = False
        self.local_addr: Optional[Tuple[str, int]] = None
        self.remote_addr: Optional[Tuple[str, int]] = None
        self.bytes_in = 0
        self.bytes_out = 0
        #: Arrival time of our last transmission: later segments (and
        #: the FIN) must not overtake it (in-order stream delivery).
        self._last_tx_arrival = 0

    @property
    def nonblocking(self) -> bool:
        return bool(self.flags & O_NONBLOCK)

    def poll_mask(self) -> int:
        mask = 0
        if self.rx.size > 0 or self.rx.eof:
            mask |= EPOLLIN
        if self.peer is not None and not self.closed:
            mask |= EPOLLOUT
        if self.closed or (self.peer is None and self.rx.eof):
            mask |= EPOLLHUP
        return mask

    # -- data path -------------------------------------------------------

    def deliver(self, data: bytes) -> None:
        """Called at the *receiving* endpoint when bytes arrive."""
        self.rx.push(data)
        self.bytes_in += len(data)
        self.poke()

    def deliver_eof(self) -> None:
        self.rx.eof = True
        self.poke()

    def send_bytes(self, data: bytes) -> int:
        """Transmit to the peer. Returns bytes accepted or -errno."""
        if self.closed or self.peer is None:
            return -EPIPE
        peer = self.peer
        self.bytes_out += len(data)
        if self.network is not None and peer.machine is not self.machine:
            payload = bytes(data)
            self._last_tx_arrival = self.network.deliver(
                self.machine, peer.machine, len(payload),
                lambda: peer.deliver(payload),
                floor_ps=self._last_tx_arrival)
        else:
            peer.deliver(bytes(data))
        return len(data)

    def recv_bytes(self, size: int):
        """Generator: blocking receive. Returns bytes (b'' = EOF)."""
        while self.rx.size == 0 and not self.rx.eof:
            if self.nonblocking:
                return -EAGAIN
            yield from self.read_waiters.wait()
        return self.rx.pull(size)

    def shutdown_write(self) -> None:
        peer = self.peer
        if peer is None:
            return
        if self.network is not None and peer.machine is not self.machine:
            # The FIN rides the same ordered stream as the data.
            self._last_tx_arrival = self.network.deliver(
                self.machine, peer.machine, 0, peer.deliver_eof,
                floor_ps=self._last_tx_arrival)
        else:
            peer.deliver_eof()

    def on_last_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.shutdown_write()
        if self.peer is not None:
            self.peer.peer = None
            self.peer.mark()
        self.poke()


class ListenerSocket(Pollable):
    """A bound, listening stream socket with an accept queue."""

    kind = "listener"

    def __init__(self, sim, machine, addr: Tuple[str, int],
                 backlog: int = 128, flags: int = 0) -> None:
        super().__init__(sim)
        self.machine = machine
        self.addr = addr
        self.backlog = backlog
        self.pending: Deque[StreamSocket] = deque()
        self.flags = flags
        self.closed = False

    def poll_mask(self) -> int:
        mask = EPOLLIN if self.pending else 0
        if self.closed:
            mask |= EPOLLHUP
        return mask

    def enqueue(self, server_end: StreamSocket) -> bool:
        if self.closed or len(self.pending) >= self.backlog:
            return False
        self.pending.append(server_end)
        self.poke()
        return True

    def accept_one(self):
        """Generator: blocking accept. Returns a StreamSocket or -errno."""
        while not self.pending:
            if self.closed:
                return -ECONNREFUSED
            if self.flags & O_NONBLOCK:
                return -EAGAIN
            yield from self.read_waiters.wait()
        return self.pending.popleft()

    def on_last_close(self) -> None:
        self.closed = True
        self.poke()


class PipeEnd(Pollable):
    """One end of an anonymous pipe (or of a UNIX socketpair)."""

    kind = "pipe"

    def __init__(self, sim, readable: bool) -> None:
        super().__init__(sim)
        self.readable = readable
        self.buffer: Optional[StreamBuffer] = None  # shared, set by make()
        self.other: Optional["PipeEnd"] = None
        self.closed = False
        #: Out-of-band queue for passed file descriptors (SCM_RIGHTS).
        self.fd_queue: Deque = deque()

    @staticmethod
    def make_pipe(sim) -> Tuple["PipeEnd", "PipeEnd"]:
        read_end = PipeEnd(sim, readable=True)
        write_end = PipeEnd(sim, readable=False)
        shared = StreamBuffer()
        read_end.buffer = shared
        write_end.buffer = shared
        read_end.other = write_end
        write_end.other = read_end
        return read_end, write_end

    @staticmethod
    def make_socketpair(sim) -> Tuple["PipeEnd", "PipeEnd"]:
        """Bidirectional: model as two pipes glued into two duplex ends."""
        a = DuplexPipe(sim)
        b = DuplexPipe(sim)
        a.peer = b
        b.peer = a
        return a, b

    def poll_mask(self) -> int:
        mask = 0
        if self.readable and self.buffer is not None:
            if self.buffer.size > 0 or self.buffer.eof or self.fd_queue:
                mask |= EPOLLIN
        if not self.readable and not self.closed:
            mask |= EPOLLOUT
        if self.closed:
            mask |= EPOLLHUP
        return mask

    def write_bytes(self, data: bytes) -> int:
        if self.readable:
            return -EPIPE
        if self.other is None or self.other.closed:
            return -EPIPE
        self.buffer.push(data)
        self.other.poke()
        return len(data)

    def read_bytes(self, size: int):
        """Generator: blocking pipe read."""
        if not self.readable:
            return -EPIPE
        while (self.buffer.size == 0 and not self.buffer.eof
               and not (self.other is None or self.other.closed)):
            yield from self.read_waiters.wait()
        return self.buffer.pull(size)

    def on_last_close(self) -> None:
        self.closed = True
        if self.readable:
            pass
        elif self.buffer is not None:
            self.buffer.eof = True
        if self.other is not None:
            self.other.poke()
        self.poke()


class DuplexPipe(Pollable):
    """One end of a socketpair: independent rx buffer per end."""

    kind = "socketpair"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.rx = StreamBuffer()
        self.peer: Optional["DuplexPipe"] = None
        self.closed = False
        self.fd_queue: Deque = deque()

    def poll_mask(self) -> int:
        mask = 0
        if self.rx.size > 0 or self.rx.eof or self.fd_queue:
            mask |= EPOLLIN
        if self.peer is not None and not self.peer.closed:
            mask |= EPOLLOUT
        if self.closed:
            mask |= EPOLLHUP
        return mask

    def write_bytes(self, data: bytes) -> int:
        if self.peer is None or self.peer.closed:
            return -EPIPE
        self.peer.rx.push(data)
        self.peer.poke()
        return len(data)

    def read_bytes(self, size: int):
        while (self.rx.size == 0 and not self.rx.eof
               and not (self.peer is None or self.peer.closed)):
            yield from self.read_waiters.wait()
        return self.rx.pull(size)

    def push_fd(self, description: FileDescription) -> int:
        """SCM_RIGHTS: enqueue a duplicated description at the peer."""
        if self.peer is None or self.peer.closed:
            return -EPIPE
        self.peer.fd_queue.append(description.incref())
        self.peer.poke()
        return 0

    def pop_fd(self):
        """Generator: blocking receive of a passed description."""
        while not self.fd_queue:
            if self.peer is None or self.peer.closed:
                return None
            yield from self.read_waiters.wait()
        return self.fd_queue.popleft()

    def on_last_close(self) -> None:
        self.closed = True
        if self.peer is not None:
            self.peer.rx.eof = True
            self.peer.poke()
        self.poke()
