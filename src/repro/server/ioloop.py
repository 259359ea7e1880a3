"""Selector-based I/O shards: the server's connection layer.

Every post-handshake client socket is owned by one of a small pool of
**I/O shards**: each shard is one thread running a ``selectors`` loop
that owns N client sockets, does non-blocking reads into the
connection's :class:`~repro.protocol.wire.MessageStream` buffer
(:meth:`~repro.protocol.wire.MessageStream.read_available`: one
``recv_into`` for a burst of small requests), feeds every request that
read completed into the batched dispatch
(:meth:`~.core.AudioServer.dispatch_batch`), and drains each client's
bounded ``_OutboundQueue`` through writability callbacks.  Thread count
is O(shards), not O(clients).

The client-visible wire behaviour (replies, errors, event order,
sequence numbers, payload bytes) is pinned by golden transcripts
recorded from the thread-per-client pumps this layer replaced
(tests/golden/, checked by tests/test_ioloop.py).

Cross-thread signalling goes through a per-shard wakeup socketpair: the
stall sweep evicting a client and the connection manager registering a
fresh socket append an op and write one byte; the shard drains both on
its next loop turn.  Ops the shard queues on its own thread (every
reply, since dispatch runs inside the read handler) skip the wakeup
byte: the loop processes its op queue after each batch of ready events,
before it selects again.

The hub thread queueing events signals the same way, with one
exception.  A CPU-bound hub thread holds the GIL between blocks, so a
shard thread only gets it every few milliseconds, and each system call
it makes (select, wakeup drain, send) costs it another wait; a fast
block cycle can emit events faster than the shard drains them.  So a
thread other than the shard's that finds a connection's outbound queue
half full **writes it through**: it sends the backlog itself with
non-blocking ``send`` calls, under the connection's ``write_lock``.  A
write that would block (a full socket buffer) or fails falls back to
the shard, which owns writability and teardown, and only then can the
queue overflow and shed events.  No ranked lock is ever held across a
blocking socket op or a selector wait (scripts/check_lock_discipline.py
enforces this for the whole module); the write-through send never
blocks.

Metrics: ``ioloop.shards``, ``ioloop.clients``, ``ioloop.accepts``,
``ioloop.reads``, ``ioloop.writes`` (messages), ``ioloop.sends`` (send
calls; a flush coalesces a batch of messages into one), ``ioloop.wakeups``,
``ioloop.loop_lag_us`` (time a shard spends handling one batch of ready
events -- the latency other clients on the shard see), and
``ioloop.imbalance`` (max minus min clients across shards).
"""

from __future__ import annotations

import collections
import logging
import os
import selectors
import socket
import threading
import time

from ..obs import MICROSECOND_BUCKETS
from ..protocol.wire import (
    ConnectionClosed,
    HEADER_SIZE,
    MessageKind,
    MessageStream,
    WireFormatError,
)

log = logging.getLogger(__name__)

#: Most requests in one dispatch batch.  One read hands over every
#: request its ``recv`` completed (complete requests left in the
#: stream's buffer would raise no further readiness event), and the
#: shard dispatches them in batches of this size.
MAX_DISPATCH_BATCH = 64
#: Most messages one flush pass encodes into one buffer and one send
#: before yielding to other clients.
MAX_FLUSH_BATCH = 64


def default_shard_count() -> int:
    """A small pool scaled to the core count."""
    return max(2, min(8, os.cpu_count() or 1))


class _ShardClient:
    """Per-connection shard state: framing stream and write-out cursor."""

    __slots__ = ("client", "stream", "out_view", "out_size", "out_count",
                 "sent", "want_write", "flush_queued", "gone", "broken",
                 "write_lock")

    def __init__(self, client) -> None:
        self.client = client
        self.stream = MessageStream(client.sock)
        #: The partially-written batch of encoded messages, or None when
        #: idle; ``out_count`` messages, ``out_size`` bytes in all.
        self.out_view: memoryview | None = None
        self.out_size = 0
        self.out_count = 0
        self.sent = 0
        self.want_write = False
        #: Guarded by the shard's op lock: a flush op is already queued.
        self.flush_queued = False
        self.gone = False
        #: A write failed (encode or socket error); the shard tears the
        #: connection down at its next flush.
        self.broken = False
        #: Serializes every write of this connection (the shard's and
        #: written-through ones) and its socket close.
        self.write_lock = threading.Lock()


class IOShard:
    """One selector loop owning a share of the client sockets."""

    def __init__(self, pool: "IOShardPool", index: int) -> None:
        self.pool = pool
        self.server = pool.server
        self.index = index
        #: Clients currently assigned (written under the pool lock; the
        #: pool balances new registrations onto the smallest shard).
        self.client_count = 0
        self._selector = selectors.DefaultSelector()
        self._states: dict[object, _ShardClient] = {}
        self._ops: collections.deque = collections.deque()
        self._ops_lock = threading.Lock()
        self._wakeup_rx, self._wakeup_tx = socket.socketpair()
        self._wakeup_rx.setblocking(False)
        self._wakeup_tx.setblocking(False)
        self._selector.register(self._wakeup_rx, selectors.EVENT_READ, None)
        self._running = False
        self._thread: threading.Thread | None = None
        #: The loop thread's ident while it runs (see _signal).
        self._loop_ident: int | None = None

    # -- cross-thread entry points -------------------------------------------

    def defer(self, op: str, client) -> None:
        """Queue ``"add"`` (a freshly-handshaken connection) or
        ``"close"`` (eviction, server stop, client.close()) for the
        shard thread."""
        with self._ops_lock:
            self._ops.append((op, client))
        self._signal()

    def _make_ready_hook(self, state: _ShardClient):
        """The outbound queue's on_ready: one queued flush per burst,
        or a write-through once the shard has let the queue half fill."""
        outbound = state.client._outbound

        def on_ready() -> None:
            if (2 * len(outbound) >= outbound.bound
                    and threading.get_ident() != self._loop_ident
                    and self._write_through(state)):
                return
            with self._ops_lock:
                if state.flush_queued or state.gone:
                    return
                state.flush_queued = True
                self._ops.append(("flush", state.client))
            self._signal()
        return on_ready

    def _write_through(self, state: _ShardClient) -> bool:
        """Send everything queued from the calling thread; True if done.

        Waits for a shard flush in progress: that flush holds the lock
        only across non-blocking sends, but a starved shard thread can
        hold it while it waits for the GIL, which the wait hands over.
        False leaves the rest to the shard: the socket buffer filled up
        or the write failed.
        """
        with state.write_lock:
            if state.gone or state.broken:
                return False
            while True:
                written = self._write_batch(state)
                if written is None:
                    return True
                if not written:
                    return False

    def _signal(self) -> None:
        if threading.get_ident() == self._loop_ident:
            return  # _process_ops runs before the loop selects again
        try:
            self._wakeup_tx.send(b"\0")
        except OSError:
            pass    # pipe full (a wakeup is pending) or shard shut down

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="io-shard-%d" % self.index, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        self._signal()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for state in list(self._states.values()):
            self._teardown(state)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._wakeup_rx, self._wakeup_tx):
            try:
                sock.close()
            except OSError:
                pass

    # -- the loop ------------------------------------------------------------

    def _run(self) -> None:
        pool = self.pool
        self._loop_ident = threading.get_ident()
        while self._running:
            try:
                events = self._selector.select()
            except OSError:
                continue
            started = time.perf_counter()
            for key, mask in events:
                if key.data is None:        # the wakeup pipe
                    self._drain_wakeup()
                    continue
                state: _ShardClient = key.data
                if state.gone:
                    continue
                try:
                    if mask & selectors.EVENT_WRITE:
                        self._flush(state)
                    if not state.gone and (mask & selectors.EVENT_READ):
                        self._on_readable(state)
                except Exception:
                    log.exception("io-shard-%d: client %r handler failed",
                                  self.index, state.client.name)
                    self._teardown(state)
            self._process_ops()
            if events:
                pool._m_loop_lag.observe(
                    (time.perf_counter() - started) * 1e6)

    def _drain_wakeup(self) -> None:
        drained = 0
        while True:
            try:
                chunk = self._wakeup_rx.recv(4096)
            except OSError:     # drained (EAGAIN) or shut down
                break
            if not chunk:
                break
            drained += len(chunk)
        if drained:
            self.pool._m_wakeups.inc(drained)

    def _process_ops(self) -> None:
        while True:
            with self._ops_lock:
                if not self._ops:
                    return
                op, target = self._ops.popleft()
                if op == "flush":
                    state = self._states.get(target)
                    if state is not None:
                        state.flush_queued = False
            if op == "add":
                self._add_client(target)
            elif op == "close":
                state = self._states.get(target)
                if state is not None:
                    self._teardown(state)
            elif op == "flush":
                if state is not None and not state.gone:
                    self._flush(state)

    # -- per-client handling -------------------------------------------------

    def _add_client(self, client) -> None:
        if not self._running or client.closed:
            # Registered during shutdown (or closed mid-handshake):
            # finish the disconnect path instead of leaking the socket.
            client.io_shard = None
            self.pool.client_removed(self)
            self.server.client_disconnected(client)
            return
        client.sock.setblocking(False)
        state = _ShardClient(client)
        self._states[client] = state
        try:
            self._selector.register(client.sock, selectors.EVENT_READ,
                                    state)
        except (OSError, ValueError):
            self._states.pop(client, None)
            client.io_shard = None
            self.pool.client_removed(self)
            self.server.client_disconnected(client)
            return
        client._outbound.on_ready = self._make_ready_hook(state)
        # Events queued between the handshake and this registration had
        # no hook to fire; drain whatever is already waiting.
        self._flush(state)

    def _on_readable(self, state: _ShardClient) -> None:
        client = state.client
        try:
            messages = state.stream.read_available()
        except (ConnectionClosed, OSError, WireFormatError):
            self._teardown(state)
            return
        if not messages:
            return
        batch = []
        clean = True
        for message in messages:
            if message.kind is not MessageKind.REQUEST:
                clean = False   # clients only send requests
                break
            size = HEADER_SIZE + len(message.payload)
            client.bytes_in += size
            client.requests_received += 1
            client._m_bytes_in.inc(size)
            client._m_messages_in.inc()
            batch.append(message)
        if batch:
            self.pool._m_reads.inc(len(batch))
            # Sequence accounting happens per message inside the batch
            # dispatch, keeping replies in lockstep.
            for first in range(0, len(batch), MAX_DISPATCH_BATCH):
                self.server.dispatch_batch(
                    client, batch[first:first + MAX_DISPATCH_BATCH])
        if not clean:
            self._teardown(state)

    def _flush(self, state: _ShardClient) -> None:
        """Write one batch of queued outbound messages (shard thread).

        Up to MAX_FLUSH_BATCH messages are encoded into one buffer and
        written with one ``send``: a send per message would release the
        GIL to the CPU-bound hub thread once per message, and a shard
        that falls behind sheds events from the bounded queue.  A
        partial send resumes from the batch's cursor, on this call or,
        after ``EWOULDBLOCK``, once the socket is writable again.
        """
        with state.write_lock:
            written = None if state.broken else self._write_batch(state)
        if state.broken:
            self._teardown(state)
        elif written is False:
            self._want_write(state, True)
        else:
            # More queued than one batch holds: stay armed for
            # writability so the drain resumes next loop turn, after
            # the other clients.
            self._want_write(state, len(state.client._outbound) > 0)

    def _write_batch(self, state: _ShardClient) -> bool | None:
        """Send the pending batch, or encode and send the next one.

        Caller holds ``state.write_lock``.  Returns None if nothing was
        queued, True once a batch is fully written, False if the socket
        would block (the batch cursor keeps the rest) or the write
        failed (``state.broken`` is set).
        """
        client = state.client
        if state.out_view is None and not self._fill(state):
            return False
        if state.out_view is None:
            return None
        while state.sent < state.out_size:
            try:
                sent = client.sock.send(state.out_view[state.sent:])
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                state.broken = True
                return False
            self.pool._m_sends.inc()
            state.sent += sent
        client._writing_since = None
        client.bytes_out += state.out_size
        client.messages_sent += state.out_count
        client._m_bytes_out.inc(state.out_size)
        client._m_messages_out.inc(state.out_count)
        self.pool._m_writes.inc(state.out_count)
        state.out_view = None
        return True

    def _fill(self, state: _ShardClient) -> bool:
        """Encode the next batch into ``state.out_view`` (None when
        nothing is queued); False (and ``state.broken``) if a message
        cannot be encoded."""
        client = state.client
        encoded = []
        while len(encoded) < MAX_FLUSH_BATCH:
            message = client._outbound.pop_nowait()
            if message is None:
                break
            try:
                encoded.append(message.encode())
            except WireFormatError:
                state.broken = True
                return False
        if encoded:
            buffer = b"".join(encoded)
            state.out_view = memoryview(buffer)
            state.out_size = len(buffer)
            state.out_count = len(encoded)
            state.sent = 0
            client._writing_since = self.server.now()
        return True

    def _want_write(self, state: _ShardClient, flag: bool) -> None:
        if state.want_write == flag:
            return
        state.want_write = flag
        events = selectors.EVENT_READ
        if flag:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(state.client.sock, events, state)
        except (KeyError, OSError, ValueError):
            pass

    def _teardown(self, state: _ShardClient) -> None:
        """Unregister, close, and run the disconnect teardown."""
        # Atomic check-and-set: stop()'s direct teardown loop can race a
        # wedged shard thread, and both must not run the teardown.
        with self._ops_lock:
            if state.gone:
                return
            state.gone = True
        client = state.client
        client._outbound.on_ready = None
        self._states.pop(client, None)
        try:
            self._selector.unregister(client.sock)
        except (KeyError, OSError, ValueError):
            pass
        # The shard owns the descriptor: externally-initiated closes
        # (stall eviction, server stop) defer here without touching the
        # socket, so the FIN/RST the peer is owed must be sent now.  The
        # write lock keeps the close from racing a written-through send.
        with state.write_lock:
            try:
                client.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.sock.close()
            except OSError:
                pass
        client._writing_since = None
        # Detach before the disconnect teardown so a re-entrant
        # client.close() no longer defers back to us; its own
        # shutdown/close of the already-closed socket is harmless.
        client.io_shard = None
        self.pool.client_removed(self)
        self.server.client_disconnected(client)


class IOShardPool:
    """The shard set plus balancing and observability."""

    def __init__(self, server) -> None:
        self.server = server
        count = default_shard_count()
        metrics = server.metrics
        self._m_shards = metrics.gauge("ioloop.shards")
        self._m_clients = metrics.gauge("ioloop.clients")
        self._m_imbalance = metrics.gauge("ioloop.imbalance")
        self._m_accepts = metrics.counter("ioloop.accepts")
        self._m_reads = metrics.counter("ioloop.reads")
        self._m_writes = metrics.counter("ioloop.writes")
        self._m_sends = metrics.counter("ioloop.sends")
        self._m_wakeups = metrics.counter("ioloop.wakeups")
        self._m_loop_lag = metrics.histogram("ioloop.loop_lag_us",
                                             edges=MICROSECOND_BUCKETS)
        self._lock = threading.Lock()
        self.shards = [IOShard(self, index) for index in range(count)]
        self._m_shards.set(count)

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def shutdown(self) -> None:
        for shard in self.shards:
            shard.stop()

    def register(self, client) -> None:
        """Assign a handshaken connection to the least-loaded shard."""
        with self._lock:
            shard = min(self.shards, key=lambda s: s.client_count)
            shard.client_count += 1
            client.io_shard = shard
            self._update_gauges_locked()
        self._m_accepts.inc()
        shard.defer("add", client)

    def client_removed(self, shard: IOShard) -> None:
        with self._lock:
            shard.client_count = max(0, shard.client_count - 1)
            self._update_gauges_locked()

    def _update_gauges_locked(self) -> None:
        counts = [shard.client_count for shard in self.shards]
        self._m_clients.set(sum(counts))
        self._m_imbalance.set(max(counts) - min(counts))

    def client_counts(self) -> list[int]:
        """Per-shard client counts (stats snapshot / tests)."""
        with self._lock:
            return [shard.client_count for shard in self.shards]
