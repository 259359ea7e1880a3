"""Massive-client load generator: the C10k soak harness (E15).

Drives hundreds to thousands of concurrent protocol sessions against a
live server from **one** thread: the harness is itself a selector loop
speaking the raw wire protocol, so measuring a C10k server never caps
out on harness threads first.  Each session is a small state machine:

* **connect** -- a non-blocking TCP connect followed by the setup
  handshake (parsed incrementally; the reply may arrive in pieces);
* **query** -- closed-loop round-trips (``QueryServer`` / ``GetTime``),
  one outstanding request per session, latency measured send-to-reply;
* **play** -- a fraction of sessions build a real playback LOUD
  (catalogue beep -> player -> output, QUEUE events selected) and issue
  queued PLAY commands, so the soak exercises locked dispatch, the
  render plan and event fan-out, not just the pure-query fast path;
* **churn** -- a fraction of actions close the session cleanly and
  reconnect from scratch, holding the server's connect path hot for the
  whole run.

The health counters in :class:`LoadStats` are the soak's gate: a
well-behaved run has zero ``protocol_errors`` and zero
``unexpected_disconnects`` however many sessions it holds.  Everything
is seeded, so a run's scenario mix is reproducible.

Used by benchmarks/test_bench_c10k.py (fast mode in CI) and available
standalone for manual scale runs against ``repro-audio-server``.
"""

from __future__ import annotations

import errno
import random
import selectors
import socket
import struct
import time

from repro.protocol.attributes import AttributeList
from repro.protocol.requests import (
    ControlQueue,
    CreateLoud,
    CreateVirtualDevice,
    CreateWire,
    GetTime,
    IssueCommand,
    LoadSound,
    MapLoud,
    QueryServer,
    Request,
    SelectEvents,
)
from repro.protocol.setup import SetupRequest
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    EventMask,
    QueueOp,
)
from repro.protocol.wire import (
    ConnectionClosed,
    Message,
    MessageKind,
    MessageStream,
    WireFormatError,
    set_nodelay,
)

#: Session states.
_CONNECTING = "connecting"
_SETUP = "setup"
_RUNNING = "running"
_CLOSED = "closed"


class LoadStats:
    """Everything one soak run measured, health counters included."""

    def __init__(self, sessions_target: int) -> None:
        self.sessions_target = sessions_target
        #: Peak simultaneously-established sessions.
        self.connections_held = 0
        self.connects = 0
        self.connect_failures = 0
        self.clean_disconnects = 0
        self.unexpected_disconnects = 0
        self.requests = 0
        self.replies = 0
        self.protocol_errors = 0
        self.timeouts = 0
        self.events_received = 0
        self.duration_seconds = 0.0
        self.latencies_ms: list[float] = []

    def percentile(self, fraction: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def requests_per_sec(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.replies / self.duration_seconds

    def as_record(self) -> dict:
        """The BENCH_C10K.json record for one run."""
        return {
            "sessions_target": self.sessions_target,
            "connections_held": self.connections_held,
            "connects": self.connects,
            "connect_failures": self.connect_failures,
            "clean_disconnects": self.clean_disconnects,
            "unexpected_disconnects": self.unexpected_disconnects,
            "requests": self.requests,
            "replies": self.replies,
            "requests_per_sec": round(self.requests_per_sec, 3),
            "protocol_errors": self.protocol_errors,
            "timeouts": self.timeouts,
            "events_received": self.events_received,
            "latency_p50_ms": round(self.percentile(0.50), 3),
            "latency_p95_ms": round(self.percentile(0.95), 3),
            "latency_p99_ms": round(self.percentile(0.99), 3),
            "duration_seconds": round(self.duration_seconds, 3),
        }


class _Session:
    """One scripted client: socket, framing, and scenario state."""

    def __init__(self, generator: "LoadGenerator", index: int) -> None:
        self.generator = generator
        self.index = index
        self.rng = random.Random(generator.seed * 1_000_003 + index)
        self.plays = self.rng.random() < generator.play_fraction
        self.sock: socket.socket | None = None
        self.stream: MessageStream | None = None
        self.state = _CLOSED
        self.out = bytearray()          # unsent bytes (requests, setup)
        self.setup_buf = bytearray()    # inbound handshake bytes
        self.sequence = 0               # lockstep with the server's count
        self.pending: dict[int, float] = {}     # seq -> send time
        self.next_action_at = 0.0
        self.next_id = 0                # resource ids from the grant
        self.loud_id = 0
        self.player_id = 0
        self.sound_id = 0
        self.closing = False            # a deliberate (clean) close

    # -- lifecycle -----------------------------------------------------------

    def open(self, now: float) -> None:
        """Begin a non-blocking connect."""
        generator = self.generator
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.stream = None
        self.out = bytearray()
        self.setup_buf = bytearray()
        self.sequence = 0
        self.pending = {}
        self.closing = False
        self.state = _CONNECTING
        code = self.sock.connect_ex((generator.host, generator.port))
        if code not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            self._drop(connect_failure=True)
            return
        generator._register(self, selectors.EVENT_WRITE)
        self.next_action_at = now + generator.connect_timeout

    def on_connected(self, now: float) -> None:
        """The socket became writable: send the setup request."""
        error = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if error:
            self._drop(connect_failure=True)
            return
        set_nodelay(self.sock)
        self.state = _SETUP
        name = "loadgen-%d" % self.index
        self.out += SetupRequest(client_name=name).encode()
        self._pump_out()

    def on_setup_bytes(self, now: float) -> None:
        """Accumulate handshake bytes until the reply parses whole."""
        try:
            chunk = self.sock.recv(4096)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(connect_failure=True)
            return
        if not chunk:
            self._drop(connect_failure=True)
            return
        self.setup_buf += chunk
        parsed = _parse_setup_reply(self.setup_buf)
        if parsed is None:
            return
        accepted, id_base, consumed = parsed
        if not accepted:
            self._drop(connect_failure=True)
            return
        generator = self.generator
        self.state = _RUNNING
        self.stream = MessageStream(self.sock)
        # Bytes past the handshake (a fast first event) belong to the
        # message stream; the incremental reader has no pushback, so a
        # strict handshake boundary keeps this simple: the server never
        # sends messages before our first post-setup request anyway.
        del self.setup_buf[:consumed]
        self.next_id = id_base
        generator.stats.connects += 1
        generator._session_established()
        if self.plays:
            self._build_playback()
        self.next_action_at = now + self._think()

    # -- the scenario --------------------------------------------------------

    def act(self, now: float) -> None:
        """One scenario step: query, play, or churn."""
        generator = self.generator
        if self.state is not _RUNNING or self.pending:
            self._check_timeout(now)
            return
        if generator._draining:
            return      # the soak window closed: no new work
        roll = self.rng.random()
        if roll < generator.churn_fraction:
            # Clean churn: drop the whole session and reconnect fresh.
            self.close_cleanly()
            self.open(now)
            return
        if self.plays and roll < generator.churn_fraction + 0.25:
            self._issue_play()
        request: Request = (QueryServer() if self.rng.random() < 0.5
                            else GetTime())
        self._send_request(request, track=True)
        self.pending[self.sequence] = now
        self.next_action_at = now + generator.request_timeout

    def on_messages(self, now: float) -> None:
        """Drain whatever the server sent us."""
        generator = self.generator
        try:
            messages = self.stream.read_available()
        except ConnectionClosed:
            if self.closing:
                return
            generator.stats.unexpected_disconnects += 1
            self._drop()
            return
        except (OSError, WireFormatError):
            generator.stats.protocol_errors += 1
            self._drop()
            return
        for message in messages:
            if message.kind is MessageKind.REPLY:
                sent = self.pending.pop(message.sequence, None)
                if sent is None:
                    generator.stats.protocol_errors += 1
                    continue
                generator.stats.replies += 1
                generator.stats.latencies_ms.append((now - sent) * 1e3)
                self.next_action_at = now + self._think()
            elif message.kind is MessageKind.ERROR:
                generator.stats.protocol_errors += 1
                self.pending.pop(message.sequence, None)
            elif message.kind is MessageKind.EVENT:
                generator.stats.events_received += 1
            else:
                generator.stats.protocol_errors += 1

    def close_cleanly(self) -> None:
        """Deliberate disconnect: the server sees a normal EOF."""
        if self.state is _CLOSED:
            return
        established = self.state is _RUNNING
        self.closing = True
        self._drop(counted=False)
        if established:
            self.generator.stats.clean_disconnects += 1

    # -- plumbing ------------------------------------------------------------

    def _think(self) -> float:
        low, high = self.generator.think_seconds
        return low + (high - low) * self.rng.random()

    def _check_timeout(self, now: float) -> None:
        generator = self.generator
        for sequence, sent in list(self.pending.items()):
            if now - sent > generator.request_timeout:
                generator.stats.timeouts += 1
                del self.pending[sequence]
                self.next_action_at = now + self._think()

    def _alloc_id(self) -> int:
        allocated = self.next_id
        self.next_id += 1
        return allocated

    def _send_request(self, request: Request, track: bool = False) -> None:
        self.sequence = (self.sequence + 1) & 0xFFFF
        message = Message(MessageKind.REQUEST, int(request.OPCODE),
                          self.sequence, request.encode())
        self.out += message.encode()
        self.generator.stats.requests += 1
        self._pump_out()

    def _build_playback(self) -> None:
        """Catalogue beep -> player -> output, mapped, QUEUE events."""
        self.sound_id = self._alloc_id()
        self.loud_id = self._alloc_id()
        self.player_id = self._alloc_id()
        output_id = self._alloc_id()
        wire_id = self._alloc_id()
        for request in (
                LoadSound(self.sound_id, "beep"),
                CreateLoud(self.loud_id, 0, AttributeList()),
                CreateVirtualDevice(self.player_id, self.loud_id,
                                    DeviceClass.PLAYER, AttributeList()),
                CreateVirtualDevice(output_id, self.loud_id,
                                    DeviceClass.OUTPUT, AttributeList()),
                CreateWire(wire_id, self.player_id, 0, output_id, 0, None),
                SelectEvents(self.loud_id, EventMask.QUEUE),
                MapLoud(self.loud_id),
                ControlQueue(self.loud_id, QueueOp.START)):
            self._send_request(request)

    def _issue_play(self) -> None:
        self._send_request(IssueCommand(
            self.loud_id, self.player_id, Command.PLAY, CommandMode.QUEUED,
            AttributeList.of(sound=self.sound_id)))

    def _pump_out(self) -> None:
        """Push buffered bytes; arm write interest on a short send."""
        if self.state is _CLOSED:
            return
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                if not self.closing:
                    self.generator.stats.unexpected_disconnects += 1
                self._drop()
                return
            del self.out[:sent]
        events = selectors.EVENT_READ
        if self.out:
            events |= selectors.EVENT_WRITE
        self.generator._register(self, events)

    def _drop(self, connect_failure: bool = False,
              counted: bool = True) -> None:
        """Close the socket and leave the selector."""
        generator = self.generator
        was_running = self.state is _RUNNING
        if self.state is _CLOSED:
            return
        self.state = _CLOSED
        generator._unregister(self)
        try:
            self.sock.close()
        except OSError:
            pass
        self.sock = None
        self.stream = None
        self.pending.clear()
        if connect_failure and counted:
            generator.stats.connect_failures += 1
        if was_running:
            generator._session_lost()


def _parse_setup_reply(buffer: bytearray):
    """(accepted, id_base, bytes consumed), or None if incomplete.

    Mirrors SetupReply.read_from against a growing buffer: bool, u32
    id_base, u32 id_mask, string vendor, string reason.
    """
    if len(buffer) < 9:
        return None
    accepted = buffer[0] != 0
    id_base = struct.unpack_from("<I", buffer, 1)[0]
    offset = 9
    for _ in range(2):          # vendor, reason
        if len(buffer) < offset + 4:
            return None
        size = struct.unpack_from("<I", buffer, offset)[0]
        offset += 4
        if len(buffer) < offset + size:
            return None
        offset += size
    return accepted, id_base, offset


class LoadGenerator:
    """The selector loop that owns every scripted session."""

    def __init__(self, host: str, port: int, sessions: int,
                 duration: float, seed: int = 1,
                 play_fraction: float = 0.1,
                 churn_fraction: float = 0.02,
                 think_seconds: tuple[float, float] = (0.005, 0.05),
                 connect_batch: int = 50,
                 connect_timeout: float = 10.0,
                 request_timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.sessions_target = sessions
        self.duration = duration
        self.seed = seed
        self.play_fraction = play_fraction
        self.churn_fraction = churn_fraction
        self.think_seconds = think_seconds
        self.connect_batch = connect_batch
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.stats = LoadStats(sessions)
        self._selector = selectors.DefaultSelector()
        self._registered: dict[_Session, int] = {}
        self._established = 0
        self._draining = False

    # -- selector bookkeeping -------------------------------------------------

    def _register(self, session: _Session, events: int) -> None:
        current = self._registered.get(session)
        if current == events:
            return
        if current is None:
            self._selector.register(session.sock, events, session)
        else:
            self._selector.modify(session.sock, events, session)
        self._registered[session] = events

    def _unregister(self, session: _Session) -> None:
        if self._registered.pop(session, None) is not None:
            try:
                self._selector.unregister(session.sock)
            except (KeyError, ValueError, OSError):
                pass

    def _session_established(self) -> None:
        self._established += 1
        if self._established > self.stats.connections_held:
            self.stats.connections_held = self._established

    def _session_lost(self) -> None:
        self._established -= 1

    # -- the run --------------------------------------------------------------

    def run(self) -> LoadStats:
        """Ramp up, hold the scenario mix for ``duration``, tear down."""
        sessions = [_Session(self, index)
                    for index in range(self.sessions_target)]
        not_opened = list(reversed(sessions))
        started = time.monotonic()
        deadline = started + self.duration
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            # Ramp in bounded batches so the connect burst never
            # outruns the listener backlog.
            connecting = sum(1 for s in sessions
                             if s.state in (_CONNECTING, _SETUP))
            while not_opened and connecting < self.connect_batch:
                not_opened.pop().open(now)
                connecting += 1
            self._poll(now, deadline)
        # Drain stragglers briefly so in-flight replies are counted.
        self._draining = True
        drain_until = time.monotonic() + min(2.0, self.request_timeout)
        while (any(session.pending for session in sessions)
               and time.monotonic() < drain_until):
            self._poll(time.monotonic(), drain_until)
        self.stats.duration_seconds = time.monotonic() - started
        for session in sessions:
            session.close_cleanly()
        self._selector.close()
        return self.stats

    def _poll(self, now: float, deadline: float) -> None:
        next_deadline = deadline
        for session, _events in self._registered.items():
            action_at = session.next_action_at
            if action_at and action_at < next_deadline:
                next_deadline = action_at
        timeout = max(0.0, min(next_deadline - now, 0.05))
        for key, mask in self._selector.select(timeout):
            session: _Session = key.data
            if session.state is _CONNECTING:
                if mask & selectors.EVENT_WRITE:
                    session.on_connected(now)
                continue
            if mask & selectors.EVENT_WRITE:
                session._pump_out()
            if session.state is _CLOSED:
                continue
            if mask & selectors.EVENT_READ:
                if session.state is _SETUP:
                    session.on_setup_bytes(now)
                elif session.state is _RUNNING:
                    session.on_messages(now)
        now = time.monotonic()
        for session in list(self._registered):
            if session.state is _CONNECTING and now > session.next_action_at:
                session._drop(connect_failure=True)   # connect timed out
            elif session.state is _RUNNING and now >= session.next_action_at:
                session.act(now)


def run_load(host: str, port: int, sessions: int, duration: float,
             **kwargs) -> LoadStats:
    """One-call soak: build a generator, run it, return its stats."""
    return LoadGenerator(host, port, sessions, duration, **kwargs).run()
