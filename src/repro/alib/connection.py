"""The Alib connection: transport, replies, events, errors, resilience.

"Requests are asynchronous, so that an application can send requests
without waiting for the completion of previous requests.  Some requests
do have return values ... which the server handles by generating a reply
which is then sent back to the application.  The client-side library
implementation can block on these requests or handle them
asynchronously.  Blocking on a request with a reply is tantamount to
synchronizing with the server."  (paper section 4.1)

A background reader thread demultiplexes the inbound stream: replies are
matched to waiting round-trips by sequence number, events land in the
event queue, and errors either wake the matching round-trip or collect
in :attr:`errors` (they are asynchronous, after all).

On top of the transport sits the resilience layer (docs/RELIABILITY.md):

* round-trips fail with typed :class:`AlibTimeout` / :class:`
  AlibDisconnected` errors naming the request, opcode and elapsed time;
* a :class:`RetryPolicy` re-sends *idempotent* requests after timeouts
  and drops, with exponential backoff and jitter;
* ``reconnect=True`` keeps a :class:`~repro.alib.journal.SessionJournal`
  of durable session state and, when the stream drops, re-establishes
  the connection (resuming the same resource-id range) and replays the
  journal, so application handles stay valid across the drop.
"""

from __future__ import annotations

import collections
import random
import socket
import threading
import time

from ..protocol.codec import decode
from ..protocol.errors import ProtocolError
from ..protocol.events import Event
from ..protocol.requests import Reply, Request
from ..protocol.setup import SetupReply, SetupRequest
from ..protocol.types import DEFAULT_PORT
from ..protocol.wire import (
    ConnectionClosed,
    Message,
    MessageKind,
    MessageStream,
    WireFormatError,
    set_nodelay,
    write_message,
)
from .errors import AlibDisconnected, AlibTimeout, ConnectionError_
from .journal import SessionJournal

__all__ = ["AudioConnection", "ConnectionError_", "AlibTimeout",
           "AlibDisconnected", "RetryPolicy"]


class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    Only idempotent requests (``Request.IDEMPOTENT``) are ever retried;
    resending a lost ``CreateLoud`` could double-create, but resending a
    lost ``QuerySound`` cannot hurt.  ``seed`` pins the jitter sequence
    for deterministic tests.
    """

    def __init__(self, attempts: int = 3, base_delay: float = 0.05,
                 max_delay: float = 1.0, multiplier: float = 2.0,
                 jitter: float = 0.25, seed: int | None = None) -> None:
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.base_delay * (self.multiplier ** attempt),
                   self.max_delay)
        if not self.jitter:
            return base
        return base * (1.0 + self.jitter * self._rng.random())


class AudioConnection:
    """One client connection to an audio server."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 client_name: str = "", *, reconnect: bool = False,
                 retry: RetryPolicy | None = None,
                 request_timeout: float = 10.0,
                 reconnect_attempts: int = 40,
                 on_reconnect=None) -> None:
        self.host = host
        self.port = port
        self.client_name = client_name
        self.request_timeout = request_timeout
        self._reconnect = reconnect
        self.reconnect_attempts = reconnect_attempts
        self.on_reconnect = on_reconnect
        if retry is None and reconnect:
            retry = RetryPolicy()
        self.retry = retry
        #: Journal of durable session state, replayed after a reconnect.
        self.journal: SessionJournal | None = \
            SessionJournal() if reconnect else None
        #: Completed reconnects (a client-side resilience counter).
        self.reconnects = 0

        self.sock, reply = self._connect()
        self.id_base = reply.id_base
        self.id_mask = reply.id_mask
        self.vendor = reply.vendor
        self._next_id = reply.id_base
        self._sequence = 0
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._wakeup = threading.Condition(self._state_lock)
        self._waiting: dict[int, object] = {}       # seq -> slot
        self._events: collections.deque[Event] = collections.deque()
        #: Errors for requests nobody was blocking on.
        self.errors: list[ProtocolError] = []
        self.on_error = None        # optional callback(ProtocolError)
        self.closed = False
        self._user_closed = False
        self._abort = threading.Event()     # set by close(): stop backoff
        #: Set while the transport can carry requests; cleared during a
        #: reconnect so senders block instead of writing to a dead socket.
        self._usable = threading.Event()
        self._usable.set()
        self._reader = threading.Thread(target=self._read_loop,
                                        name="alib-reader", daemon=True)
        self._reader.start()

    # -- transport establishment ----------------------------------------------

    def _connect(self, resume_base: int = 0
                 ) -> tuple[socket.socket, SetupReply]:
        timeout = max(self.request_timeout, 1.0)
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout)
        set_nodelay(sock)
        try:
            # The timeout stays armed through the handshake: a truncated
            # setup reply must fail the connect, not hang it.
            sock.sendall(SetupRequest(client_name=self.client_name,
                                      resume_base=resume_base).encode())
            reply = SetupReply.read_from(sock)
        except (OSError, ConnectionClosed) as exc:
            sock.close()
            raise ConnectionError_("setup failed: %s" % exc) from exc
        if not reply.accepted:
            sock.close()
            raise ConnectionError_("server refused connection: %s"
                                   % reply.reason)
        sock.settimeout(None)
        return sock, reply

    # -- ids and requests -----------------------------------------------------

    def alloc_id(self) -> int:
        """Allocate a fresh resource id from the granted range."""
        with self._state_lock:
            allocated = self._next_id
            self._next_id += 1
            if allocated > self.id_base + self.id_mask:
                raise ConnectionError_("resource id range exhausted")
            return allocated

    def send(self, request: Request) -> int:
        """Send one asynchronous request; returns its sequence number.

        In reconnect mode a write that fails parks the sender exactly
        like one that arrived during the reconnect window: the request
        goes out on the new connection, after the journal replay.
        """
        payload = request.encode()
        while True:
            self._await_usable(request)
            with self._send_lock:
                if self.closed:
                    raise AlibDisconnected(
                        "connection is closed",
                        request_name=type(request).__name__,
                        opcode=int(request.OPCODE))
                if not self._usable.is_set():
                    continue    # a reconnect began meanwhile: wait it out
                self._sequence = (self._sequence + 1) & 0xFFFF
                sequence = self._sequence
                message = Message(MessageKind.REQUEST, int(request.OPCODE),
                                  sequence, payload)
                try:
                    write_message(self.sock, message)
                except OSError as exc:
                    if not self._reconnect:
                        raise AlibDisconnected(
                            "send failed: %s" % exc,
                            request_name=type(request).__name__,
                            opcode=int(request.OPCODE)) from exc
                    # Cleared under the send lock, so before the reader's
                    # socket swap; the shutdown wakes the reader at once.
                    self._usable.clear()
                    try:
                        self.sock.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    continue
                if self.journal is not None:
                    self.journal.record(request)
            return sequence

    def round_trip(self, request: Request,
                   timeout: float | None = None) -> Reply:
        """Send a request with a reply and block for it.

        Raises the matching :class:`ProtocolError` if the server errors
        this request, :class:`AlibTimeout` if no reply arrives within
        ``timeout`` (default :attr:`request_timeout`), and
        :class:`AlibDisconnected` if the connection drops first.  With a
        :class:`RetryPolicy` configured, idempotent requests are
        retried through timeouts and drops before those errors escape.
        """
        if request.REPLY is None:
            raise ValueError("request %s has no reply"
                             % type(request).__name__)
        if timeout is None:
            timeout = self.request_timeout
        attempts = 1
        if self.retry is not None and request.IDEMPOTENT:
            attempts = self.retry.attempts
        for attempt in range(attempts):
            try:
                return self._round_trip_once(request, timeout)
            except (AlibTimeout, AlibDisconnected):
                if attempt + 1 >= attempts:
                    raise
                time.sleep(self.retry.delay(attempt))
        raise AssertionError("unreachable")

    def _round_trip_once(self, request: Request, timeout: float) -> Reply:
        name = type(request).__name__
        opcode = int(request.OPCODE)
        started = time.monotonic()
        self._await_usable(request)
        slot = _ReplySlot(name, opcode, started)
        with self._send_lock:
            if self.closed:
                raise AlibDisconnected("connection is closed",
                                       request_name=name, opcode=opcode)
            self._sequence = (self._sequence + 1) & 0xFFFF
            sequence = self._sequence
            with self._state_lock:
                self._waiting[sequence] = slot
            message = Message(MessageKind.REQUEST, opcode,
                              sequence, request.encode())
            try:
                write_message(self.sock, message)
            except OSError as exc:
                with self._state_lock:
                    self._waiting.pop(sequence, None)
                raise AlibDisconnected(
                    "send failed: %s" % exc, request_name=name,
                    opcode=opcode,
                    elapsed=time.monotonic() - started) from exc
        if not slot.done.wait(timeout):
            with self._state_lock:
                self._waiting.pop(sequence, None)
            raise AlibTimeout("no reply within %.1fs" % timeout,
                              request_name=name, opcode=opcode,
                              elapsed=time.monotonic() - started)
        if slot.error is not None:
            raise slot.error
        if slot.message is None:
            raise AlibDisconnected("connection dropped awaiting reply",
                                   request_name=name, opcode=opcode,
                                   elapsed=time.monotonic() - started)
        return decode(request.REPLY.read_payload, slot.message.payload,
                      request.REPLY.__name__)

    def _await_usable(self, request: Request | None = None) -> None:
        """Block while a reconnect is in progress (reconnect mode only)."""
        if self._usable.is_set() and not self.closed:
            return
        name = type(request).__name__ if request is not None else None
        opcode = int(request.OPCODE) if request is not None else None
        if not self._usable.wait(self.request_timeout):
            raise AlibDisconnected("reconnect still pending",
                                   request_name=name, opcode=opcode)
        if self.closed:
            raise AlibDisconnected("connection is closed",
                                   request_name=name, opcode=opcode)

    def sync(self, timeout: float = 10.0) -> None:
        """Round-trip to the server: all prior requests are processed.

        Any asynchronous errors they generated are in :attr:`errors`
        afterwards.
        """
        from ..protocol.requests import GetTime

        self.round_trip(GetTime(), timeout=timeout)

    # -- events ---------------------------------------------------------------

    def pending_events(self) -> list[Event]:
        """Drain the event queue without blocking."""
        with self._state_lock:
            drained = list(self._events)
            self._events.clear()
        return drained

    def next_event(self, timeout: float | None = None) -> Event | None:
        """Block for the next event (None on timeout or close)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wakeup:
            while not self._events:
                if self.closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._wakeup.wait(remaining)
            return self._events.popleft()

    def wait_for_event(self, predicate, timeout: float = 10.0,
                       discard_others: bool = False) -> Event | None:
        """Block until an event satisfying ``predicate`` arrives.

        Non-matching events stay queued (or are dropped when
        ``discard_others``).  Returns None on timeout.
        """
        deadline = time.monotonic() + timeout
        kept: list[Event] = []
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                event = self.next_event(timeout=remaining)
                if event is None:
                    return None
                if predicate(event):
                    return event
                if not discard_others:
                    kept.append(event)
        finally:
            if kept:
                with self._wakeup:
                    self._events.extendleft(reversed(kept))
                    self._wakeup.notify_all()

    # -- the reader thread ----------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            stream = MessageStream(self.sock)
            try:
                while not self.closed:
                    self._handle_burst(stream.read_burst())
            except (ConnectionClosed, OSError):
                pass
            except WireFormatError:
                # A truncated or corrupted stream cannot be resynced;
                # treat it exactly like a drop (and maybe reconnect).
                pass
            if self.closed or self._user_closed or not self._reconnect:
                break
            if not self._reconnect_now():
                break
        self._finalize()

    def _reconnect_now(self) -> bool:
        """Re-establish the transport and replay the session journal.

        Runs in the reader thread after the stream dropped.  Senders are
        parked on :attr:`_usable`; waiting round-trips are failed with
        :class:`AlibDisconnected` (their retry policies decide whether
        to come back).  Returns False when reconnection is abandoned.
        """
        self._usable.clear()
        self._fail_waiters()
        try:
            self.sock.close()
        except OSError:
            pass
        rng = random.Random()
        for attempt in range(self.reconnect_attempts):
            delay = min(0.05 * (2 ** min(attempt, 4)), 1.0)
            delay *= 0.5 + rng.random() / 2
            if self._abort.wait(delay) or self._user_closed:
                return False
            try:
                sock, reply = self._connect(resume_base=self.id_base)
            except (ConnectionError_, OSError):
                continue    # server gone or resume not ready yet; back off
            if reply.id_base != self.id_base:
                # The server would not resume our range: existing handle
                # ids would dangle, so a replay cannot be correct.
                sock.close()
                return False
            with self._send_lock:
                self.sock = sock
                # Replies are matched by the lockstep request count both
                # sides keep from zero; the new incarnation starts over.
                self._sequence = 0
            try:
                self._replay_journal()
            except (OSError, ConnectionClosed):
                continue    # dropped again mid-replay: go around
            self.reconnects += 1
            self._usable.set()
            if self.on_reconnect is not None:
                self.on_reconnect(self)
            return True
        return False

    def _replay_journal(self) -> None:
        for request in self.journal.replay_requests():
            with self._send_lock:
                self._sequence = (self._sequence + 1) & 0xFFFF
                message = Message(MessageKind.REQUEST, int(request.OPCODE),
                                  self._sequence, request.encode())
                write_message(self.sock, message)

    def _fail_waiters(self) -> None:
        with self._wakeup:
            for slot in self._waiting.values():
                slot.done.set()
            self._waiting.clear()
            self._wakeup.notify_all()

    def _finalize(self) -> None:
        with self._wakeup:
            self.closed = True
            for slot in self._waiting.values():
                slot.done.set()
            self._waiting.clear()
            self._wakeup.notify_all()
        self._usable.set()      # wake parked senders; they see closed

    def _handle_burst(self, messages: list[Message]) -> None:
        """Handle one read's messages in order, queueing each run of
        events under one lock acquisition.  A run is queued before the
        reply that follows it, so a round trip (``sync``) still returns
        only after every event sent ahead of its reply is pending."""
        events: list[Event] = []
        for message in messages:
            if message.kind is MessageKind.EVENT:
                events.append(Event.decode(message))
                continue
            if events:
                self._queue_events(events)
                events = []
            self._handle_message(message)
        if events:
            self._queue_events(events)

    def _queue_events(self, events: list[Event]) -> None:
        with self._wakeup:
            self._events.extend(events)
            self._wakeup.notify_all()

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.REPLY:
            with self._state_lock:
                slot = self._waiting.pop(message.sequence, None)
            if slot is not None:
                slot.message = message
                slot.done.set()
            return
        if message.kind is MessageKind.ERROR:
            error = ProtocolError.decode(message)
            with self._state_lock:
                slot = self._waiting.pop(message.sequence, None)
            if slot is not None:
                slot.error = error
                slot.done.set()
                return
            if self.on_error is not None:
                self.on_error(error)
            else:
                self.errors.append(error)

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        if self.closed and self._user_closed:
            return
        self._user_closed = True
        self.closed = True
        self._abort.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        with self._wakeup:
            self._wakeup.notify_all()
        self._usable.set()

    def __enter__(self) -> "AudioConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ReplySlot:
    __slots__ = ("done", "message", "error", "request_name", "opcode",
                 "started")

    def __init__(self, request_name: str = "", opcode: int = 0,
                 started: float = 0.0) -> None:
        self.done = threading.Event()
        self.message: Message | None = None
        self.error: ProtocolError | None = None
        self.request_name = request_name
        self.opcode = opcode
        self.started = started
