"""Client connections.

"The connection manager detects and manages incoming connections.  It is
a daemon at a well-known port that detects incoming client connection
requests and creates new connections for the clients ...  The connection
manager keeps a container object for each client connection.  The
container objects hold everything that is related to a particular client
connection."  (paper section 6.1)

The container's socket is owned by one of a small pool of selector-based
I/O shards (``server/ioloop.py``), which read, dispatch and write
non-blockingly for many clients at once, so no client ever costs a
thread of its own and a slow client can never stall the audio hub
(docs/PERFORMANCE.md, "Connection scaling").

The outbound queue is *bounded* (graceful degradation, see
docs/RELIABILITY.md): when a client stops reading, the oldest queued
**events** are shed first -- replies and errors are never dropped,
because a client blocked in a round-trip must eventually hear back.  A
consumer whose socket stays unwritable past the server's stall deadline
is evicted entirely so its socket buffers cannot pin server memory.
"""

from __future__ import annotations

import collections
import itertools
import socket
import threading

from ..protocol.errors import ProtocolError
from ..protocol.requests import Reply
from ..protocol.types import EventMask
# write_message is unused here, but the benchmark tracer
# (perfbench/tracing.py) looks it up and patches it on this module.
from ..protocol.wire import Message, MessageKind, write_message  # noqa: F401

#: Connection order: connections are numbered as the server lists them.
_connection_order = itertools.count()


class _OutboundQueue:
    """Bounded outbound message queue with oldest-event shedding.

    Entries are ``(droppable, message)``; events are droppable, replies
    and errors are not.  When a droppable put finds the queue at its
    bound, the oldest droppable entry is shed (or, if the queue is
    somehow all replies, the new event itself is).  Non-droppable puts
    always append: the number of outstanding replies is bounded by the
    client's own in-flight requests.
    """

    __slots__ = ("bound", "_items", "_lock", "dropped", "on_ready")

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._items: collections.deque = collections.deque()
        self._lock = threading.Lock()
        #: Events shed so far (read by the owning connection's metrics).
        self.dropped = 0
        #: Optional callback fired after every put -- the owning I/O
        #: shard hooks it to schedule a flush.  Called outside the queue
        #: lock; must not block.
        self.on_ready = None

    def __len__(self) -> int:
        return len(self._items)

    def _put_locked(self, message, droppable: bool) -> None:
        if droppable and len(self._items) >= self.bound:
            for index, (can_drop, _message) in enumerate(self._items):
                if can_drop:
                    del self._items[index]
                    self.dropped += 1
                    break
            else:
                self.dropped += 1
                return      # bound full of replies: shed the new event
        self._items.append((droppable, message))

    def put(self, message, droppable: bool) -> None:
        with self._lock:
            self._put_locked(message, droppable)
        if self.on_ready is not None:
            self.on_ready()

    def put_many(self, messages, droppable: bool) -> None:
        """Append a batch under one lock round-trip and one wakeup."""
        with self._lock:
            for message in messages:
                self._put_locked(message, droppable)
        if self.on_ready is not None:
            self.on_ready()

    def pop_nowait(self):
        """The next message, or None if the queue is empty."""
        with self._lock:
            if not self._items:
                return None
            return self._items.popleft()[1]

    # The benchmark tracer looks this name up on the class.
    get = pop_nowait


class ClientConnection:
    """One connected client: its socket and outbound queue."""

    def __init__(self, server, sock: socket.socket, client_name: str,
                 id_base: int) -> None:
        self.server = server
        self.sock = sock
        self.name = client_name
        self.id_base = id_base
        self.sequence = 0           # requests processed so far (16-bit wrap)
        self.closed = False
        self.evicted = False
        #: Position in connection order; events fan out in this order.
        self.order = next(_connection_order)
        #: True when this client is the audio manager (SetRedirect).
        self.is_manager = False
        # Per-connection wire stats.  Each plain int below has exactly one
        # writing thread (the owning shard), so no lock is needed; the
        # shared aggregates go through the registry.
        self.bytes_in = 0
        self.bytes_out = 0
        self.requests_received = 0
        self.messages_sent = 0
        metrics = server.metrics
        self._m_bytes_in = metrics.counter("net.bytes_in")
        self._m_bytes_out = metrics.counter("net.bytes_out")
        self._m_messages_in = metrics.counter("net.messages_in")
        self._m_messages_out = metrics.counter("net.messages_out")
        self._m_events_sent = metrics.counter("net.events_sent")
        self._m_replies_sent = metrics.counter("net.replies_sent")
        self._m_errors_sent = metrics.counter("net.errors_sent")
        self._m_dropped_events = metrics.counter(
            "clients.outbound.dropped_events")
        self._outbound = _OutboundQueue(server.settings.outbound_bound)
        #: The server clock's reading when the owning shard started a
        #: socket write it could not finish for this client, or None
        #: while idle.  Written by the shard thread; read by the
        #: server's stall sweep.
        self._writing_since: float | None = None
        #: The owning I/O shard, set by IOShardPool.register; None
        #: before registration and after teardown.  close() defers socket
        #: teardown to the shard so the selector never polls a dead
        #: descriptor.
        self.io_shard = None

    # -- selections -----------------------------------------------------------

    def selection_for(self, resource: int) -> EventMask:
        """This client's SelectEvents mask on ``resource`` (the server's
        interest table is the record)."""
        return self.server.events.selection_for(self, resource)

    # -- outbound -------------------------------------------------------------

    def send_event(self, event: Message) -> None:
        if not self.closed:
            self._m_events_sent.inc()
            before = self._outbound.dropped
            self._outbound.put(event, droppable=True)
            shed = self._outbound.dropped - before
            if shed:
                self._m_dropped_events.inc(shed)

    def send_events(self, batched: list[Message]) -> None:
        """Enqueue a tick's coalesced events: one append, one wakeup."""
        if self.closed or not batched:
            return
        self._m_events_sent.inc(len(batched))
        before = self._outbound.dropped
        self._outbound.put_many(batched, droppable=True)
        shed = self._outbound.dropped - before
        if shed:
            self._m_dropped_events.inc(shed)

    def send_error(self, error: ProtocolError) -> None:
        if not self.closed:
            self._m_errors_sent.inc()
            self._outbound.put(error.encode(), droppable=False)

    def send_reply(self, reply: Reply, sequence: int) -> None:
        if not self.closed:
            self._m_replies_sent.inc()
            self._outbound.put(Message(MessageKind.REPLY, 0, sequence,
                                       reply.encode()), droppable=False)

    @property
    def queue_depth(self) -> int:
        """Outbound messages waiting for the owning shard."""
        return len(self._outbound)

    @property
    def dropped_events(self) -> int:
        """Events shed from this connection's outbound queue so far."""
        return self._outbound.dropped

    def stalled_for(self, now: float) -> float:
        """Seconds the shard has been stuck in one socket write."""
        writing_since = self._writing_since
        if writing_since is None:
            return 0.0
        return now - writing_since

    # -- observability --------------------------------------------------------

    def connection_stats(self) -> dict:
        """This connection's wire statistics (stats snapshot / reply)."""
        return {
            "name": self.name,
            "requests": self.requests_received,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "messages_out": self.messages_sent,
            "queue_depth": self.queue_depth,
            "dropped_events": self.dropped_events,
        }

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        shard = self.io_shard
        if shard is not None:
            # The shard owns the descriptor: closing it here would
            # leave a dead fd registered in the selector (epoll drops
            # it silently, so no event would ever fire to clean up).
            # The shard unregisters, closes and runs the disconnect
            # teardown on its own thread.
            shard.defer("close", self)
            return
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
