"""Mesh discovery: a tiny registry where gateways find each other.

Hand-wiring ``--trunk-route PREFIX=host:port`` pairs does not scale past
a lab bench.  The mesh replaces it with one well-known *registry*
endpoint (served by any node via ``--mesh-registry``): every gateway
registers ``(name, trunk listen address, owned prefixes)`` once per
poll interval and receives the full list of live peers in the same
round trip.  From that list the gateway auto-establishes trunk links
(its neighbor policy permitting) and the ROUTE_ADVERT plane
(trunk/routing.py) does the rest; the registry itself never sees a
route or a call.

The wire format mirrors the trunk's: a fixed magic+version preamble,
then one length-prefixed frame each way per connection --

    preamble := magic "RMSH"  u16 version
    frame    := u32 length  u8 op  payload[length - 1]
    REGISTER := string name  string host  u16 port
                u16 count  count * string prefix
    PEERS    := u16 count  count * (string name  string host  u16 port
                                    u16 n  n * string prefix)

A poll is one short-lived TCP connection: connect, send the preamble
and a REGISTER, read back a PEERS, close.  Registration doubles as the
liveness signal -- entries older than the registry's TTL are pruned, so
a crashed node disappears from the next poll's answer.  Malformed input
raises :class:`RegistryProtocolError` and costs the offender only its
own connection.

Threading: :class:`MeshRegistry` serves each request on its own
connection thread (``repro.listener``).  :class:`MeshDiscovery` keeps no
thread and no timer: the gateway's tick starts each poll on a
short-lived thread when its clock says one is due, and otherwise only
reads the latest snapshot.  Those threads are the lock-discipline
exemptions for this file.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..listener import Listener
from ..protocol.wire import ConnectionClosed, Reader, WireFormatError, \
    Writer, recv_exact
from .wire import TrunkProtocolError

log = logging.getLogger(__name__)

REGISTRY_MAGIC = b"RMSH"
REGISTRY_VERSION = 1

#: Registry frame opcodes.
OP_REGISTER = 1
OP_PEERS = 2

#: Upper bound on one registry frame's encoded size.
MAX_REGISTRY_FRAME_BYTES = 1 << 20

#: Upper bound on peers in one PEERS frame (and prefixes per peer); a
#: corrupted count must not drive an allocation loop.
MAX_REGISTRY_PEERS = 4096
MAX_PEER_PREFIXES = 256

#: Seconds a registration stays live without being refreshed.
REGISTRY_TTL = 5.0

#: Seconds one registry request or poll may spend on its socket.
REGISTRY_IO_TIMEOUT = 2.0

_LENGTH = struct.Struct("<I")
_PREAMBLE = struct.Struct("<4sH")


class RegistryProtocolError(TrunkProtocolError):
    """The peer violated the registry wire format."""


@dataclass(frozen=True)
class PeerRecord:
    """One registered gateway: where its trunk listener is and which
    prefixes it claims to originate."""

    name: str
    host: str
    port: int
    prefixes: tuple = field(default_factory=tuple)


def _write_record(writer: Writer, record: PeerRecord) -> None:
    writer.string(record.name)
    writer.string(record.host)
    writer.u16(record.port)
    writer.u16(len(record.prefixes))
    for prefix in record.prefixes:
        writer.string(prefix)


def _read_record(reader: Reader) -> PeerRecord:
    name = reader.string()
    host = reader.string()
    port = reader.u16()
    count = reader.u16()
    if count > MAX_PEER_PREFIXES:
        raise RegistryProtocolError(
            "peer claims %d prefixes, too many" % count)
    prefixes = tuple(reader.string() for _ in range(count))
    return PeerRecord(name, host, port, prefixes)


def _frame(op: int, writer: Writer) -> bytes:
    body = bytes([op]) + writer.getvalue()
    return _LENGTH.pack(len(body)) + body


def encode_register(record: PeerRecord) -> bytes:
    """One REGISTER frame (length prefix included)."""
    writer = Writer()
    _write_record(writer, record)
    return _frame(OP_REGISTER, writer)


def encode_peers(records) -> bytes:
    """One PEERS frame (length prefix included)."""
    writer = Writer()
    writer.u16(len(records))
    for record in records:
        _write_record(writer, record)
    return _frame(OP_PEERS, writer)


def decode_registry_frame(body: bytes) -> tuple[int, list[PeerRecord]]:
    """Decode one frame body into ``(op, records)``.

    REGISTER yields a single-record list; PEERS yields the full roster.
    """
    reader = Reader(body)
    try:
        op = reader.u8()
        if op == OP_REGISTER:
            records = [_read_record(reader)]
        elif op == OP_PEERS:
            count = reader.u16()
            if count > MAX_REGISTRY_PEERS:
                raise RegistryProtocolError(
                    "PEERS frame of %d records too large" % count)
            records = [_read_record(reader) for _ in range(count)]
        else:
            raise RegistryProtocolError("unknown registry op %d" % op)
        reader.expect_end()
    except WireFormatError as exc:
        raise RegistryProtocolError(str(exc)) from None
    return op, records


def read_registry_frame(sock: socket.socket) -> tuple[int, list[PeerRecord]]:
    """Read one length-prefixed registry frame (blocking)."""
    (length,) = _LENGTH.unpack(recv_exact(sock, _LENGTH.size))
    if length == 0 or length > MAX_REGISTRY_FRAME_BYTES:
        raise RegistryProtocolError("bad registry frame length %d" % length)
    return decode_registry_frame(recv_exact(sock, length))


def read_preamble(sock: socket.socket) -> None:
    """Consume and validate the RMSH magic + version."""
    magic, version = _PREAMBLE.unpack(recv_exact(sock, _PREAMBLE.size))
    if magic != REGISTRY_MAGIC:
        raise RegistryProtocolError("bad registry magic %r" % magic)
    if version != REGISTRY_VERSION:
        raise RegistryProtocolError(
            "registry version mismatch: %d vs %d"
            % (version, REGISTRY_VERSION))


def encode_preamble() -> bytes:
    return _PREAMBLE.pack(REGISTRY_MAGIC, REGISTRY_VERSION)


class MeshRegistry:
    """The registry server: any node can host it.

    Each request runs on its own short-lived thread, bounded by
    :data:`REGISTRY_IO_TIMEOUT`, so a client that connects and never
    speaks delays only itself.  ``clock`` times registrations against
    :data:`REGISTRY_TTL`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.host = host
        self.port = port
        self.now = clock
        self._lock = threading.Lock()
        #: name -> (record, ``clock()`` when it last registered).
        self._peers: dict[str, tuple[PeerRecord, float]] = {}
        self._listener: Listener | None = None
        self._running = False
        # Plain tallies; a hosting gateway folds them into mesh.registry.*.
        self.registrations = 0
        self.expired = 0
        self.bad_requests = 0

    def start(self) -> "MeshRegistry":
        if self._listener is not None:
            return self
        self._running = True
        self._listener = Listener(self.host, self.port, self._serve,
                                  "mesh-registry").start()
        self.port = self._listener.port
        return self

    def stop(self) -> None:
        with self._lock:
            self._running = False
        if self._listener is not None:
            self._listener.stop()
            self._listener = None

    def _prune(self, now: float) -> None:
        """Drop registrations older than the TTL (lock held)."""
        dead = [name for name, (_record, seen) in self._peers.items()
                if now - seen > REGISTRY_TTL]
        for name in dead:
            del self._peers[name]
        self.expired += len(dead)

    # -- one request, on its own connection thread ---------------------------

    def _serve(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(REGISTRY_IO_TIMEOUT)
            self._handle(sock)
        except (OSError, ConnectionClosed, RegistryProtocolError) as exc:
            with self._lock:
                self.bad_requests += 1
            log.debug("mesh registry: dropped request: %s", exc)
        finally:
            sock.close()

    def _handle(self, sock: socket.socket) -> None:
        read_preamble(sock)
        op, records = read_registry_frame(sock)
        if op != OP_REGISTER:
            raise RegistryProtocolError(
                "expected REGISTER, got op %d" % op)
        record = records[0]
        if not record.name:
            raise RegistryProtocolError("peer registered without a name")
        now = self.now()
        with self._lock:
            if not self._running:
                return
            self._prune(now)
            self._peers[record.name] = (record, now)
            self.registrations += 1
            roster = [peer for peer, _seen in self._peers.values()]
        sock.sendall(encode_peers(roster))


class MeshDiscovery:
    """One gateway's registry client: register, poll, remember peers.

    ``record_fn`` is called per poll so the registration always carries
    the listener's *resolved* port (ephemeral listeners bind during
    gateway start).  :meth:`poll_once` owns all socket I/O and runs off
    the tick; the tick reads :meth:`peers` -- a dict copy under a flick
    of a lock.
    """

    def __init__(self, registry: tuple[str, int], record_fn) -> None:
        self.registry = registry
        self.record_fn = record_fn
        self._lock = threading.Lock()
        self._peers: dict[str, PeerRecord] = {}
        # Plain tallies; the gateway folds them into mesh.discovery.*.
        self.polls = 0
        self.poll_failures = 0
        #: Bumped per successful poll; lets the gateway distinguish "no
        #: peers yet" from "registry unreachable".
        self.generation = 0

    def peers(self) -> dict[str, PeerRecord]:
        with self._lock:
            return dict(self._peers)

    def poll_once(self) -> bool:
        """One register/poll round trip; True on success.

        Called on a poll thread the gateway's tick starts (and directly
        by tests); never on the tick itself.
        """
        record = self.record_fn()
        try:
            with socket.create_connection(
                    self.registry, timeout=REGISTRY_IO_TIMEOUT) as sock:
                sock.sendall(encode_preamble() + encode_register(record))
                op, records = read_registry_frame(sock)
        except (OSError, ConnectionClosed, RegistryProtocolError) as exc:
            self.poll_failures += 1
            log.debug("mesh discovery: poll failed: %s", exc)
            return False
        if op != OP_PEERS:
            self.poll_failures += 1
            return False
        roster = {peer.name: peer for peer in records
                  if peer.name and peer.name != record.name}
        with self._lock:
            self._peers = roster
        self.polls += 1
        self.generation += 1
        return True
