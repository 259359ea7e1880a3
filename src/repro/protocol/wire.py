"""Byte-stream framing and primitive marshalling.

Clients and the server communicate over a reliable full duplex 8-bit byte
stream; "a simple protocol is layered on top of this stream" (paper
section 4.1).  This module implements that layer:

* every message is a fixed 8-byte header followed by a payload,
* the header carries the message *kind* (request / reply / event / error),
  a kind-specific *code* (opcode, event code or error code), a 16-bit
  sequence number, and the payload length,
* :class:`Writer` and :class:`Reader` marshal the primitive types payloads
  are built from, and :class:`Kind` names the integer widths for the
  body declarations (``U8`` ... ``I64``).

All integers are little-endian on the wire.  The tight definition makes the
protocol independent of operating system, transport and language.

The receive path avoids per-chunk allocation: :class:`MessageStream`
owns one receive buffer per connection and fills it with ``recv_into``
on a ``memoryview``, so one system call lands a whole burst of messages
and each costs exactly one ``bytes`` materialization however many TCP
segments carried it.  :class:`Writer` marshals into a single ``bytearray``
instead of a chunk list, and :func:`set_nodelay` turns off Nagle on
both ends of a connection (small request/reply messages must not wait
out a delayed ACK).
"""

from __future__ import annotations

import enum
import socket
import struct
import sys
from dataclasses import dataclass
from typing import Annotated

#: Magic bytes opening the connection-setup request.
SETUP_MAGIC = b"AUDS"

HEADER = struct.Struct("<BBHI")
HEADER_SIZE = HEADER.size

#: Refuse to parse payloads beyond this size; protects both ends against a
#: corrupted length field consuming unbounded memory.
MAX_PAYLOAD = 1 << 26


class MessageKind(enum.IntEnum):
    """Top-level discriminator in the message header."""

    REQUEST = 0
    REPLY = 1
    EVENT = 2
    ERROR = 3


class WireFormatError(Exception):
    """The byte stream does not parse as protocol messages."""


class ConnectionClosed(Exception):
    """The peer closed the byte stream."""


@dataclass
class Message:
    """One framed protocol message."""

    kind: MessageKind
    code: int
    sequence: int
    payload: bytes

    def encode(self) -> bytes:
        """Serialize header + payload to raw bytes (one concatenation)."""
        payload = self.payload
        if len(payload) > MAX_PAYLOAD:
            raise WireFormatError(
                "payload of %d bytes exceeds maximum" % len(payload))
        return HEADER.pack(self.kind, self.code, self.sequence & 0xFFFF,
                           len(payload)) + payload


# Precompiled marshalling structs, shared by Writer and Reader.
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class Writer:
    """Typed put methods marshalling into one append-only bytearray."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def u8(self, value: int) -> "Writer":
        self._buffer += _U8.pack(value)
        return self

    def u16(self, value: int) -> "Writer":
        self._buffer += _U16.pack(value)
        return self

    def u32(self, value: int) -> "Writer":
        self._buffer += _U32.pack(value)
        return self

    def u64(self, value: int) -> "Writer":
        self._buffer += _U64.pack(value)
        return self

    def i32(self, value: int) -> "Writer":
        self._buffer += _I32.pack(value)
        return self

    def i64(self, value: int) -> "Writer":
        self._buffer += _I64.pack(value)
        return self

    def f64(self, value: float) -> "Writer":
        self._buffer += _F64.pack(value)
        return self

    def boolean(self, value: bool) -> "Writer":
        return self.u8(1 if value else 0)

    def string(self, value: str) -> "Writer":
        """Length-prefixed UTF-8 string."""
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self._buffer += raw
        return self

    def blob(self, value: bytes) -> "Writer":
        """Length-prefixed opaque bytes."""
        self.u32(len(value))
        self._buffer += value
        return self

    def raw(self, value: bytes) -> "Writer":
        """Bytes with no length prefix (caller knows the length)."""
        self._buffer += value
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


def _unpacker(fmt: struct.Struct):
    """A Reader method taking one ``fmt`` value straight out of the
    payload (no slice), or raising on truncation."""
    unpack_from, size = fmt.unpack_from, fmt.size

    def take(self: "Reader"):
        pos = self._pos
        if pos + size > len(self._data):
            self._truncated(size)
        self._pos = pos + size
        return unpack_from(self._data, pos)[0]

    return take


class Reader:
    """Cursor over a payload with typed take methods.

    Raises :class:`WireFormatError` on truncation so a malformed request
    turns into a BadRequest error rather than a server crash.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _truncated(self, size: int) -> None:
        raise WireFormatError(
            "truncated payload: wanted %d bytes at offset %d of %d"
            % (size, self._pos, len(self._data)))

    def _take(self, size: int) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            self._truncated(size)
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    u8 = _unpacker(_U8)
    u16 = _unpacker(_U16)
    u32 = _unpacker(_U32)
    u64 = _unpacker(_U64)
    i32 = _unpacker(_I32)
    i64 = _unpacker(_I64)
    f64 = _unpacker(_F64)

    def boolean(self) -> bool:
        return self.u8() != 0

    def string(self) -> str:
        size = self.u32()
        return self._take(size).decode("utf-8")

    def blob(self) -> bytes:
        size = self.u32()
        return self._take(size)

    def raw(self, size: int) -> bytes:
        return self._take(size)

    def parse(self, take, *headers):
        """Run an emitted body decoder, ``take(data, pos, *headers) ->
        (value, pos)``, at the cursor (:func:`repro.protocol.codec.plan`)."""
        value, self._pos = take(self._data, self._pos, *headers)
        return value

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.at_end():
            raise WireFormatError(
                "%d unexpected trailing bytes in payload" % self.remaining())


class Kind:
    """One declared wire kind.  Body fields name theirs in their
    annotations (:mod:`repro.protocol.codec`); a fixed-width kind also
    carries its struct format character, so the codec can move a run of
    them with one ``struct`` call."""

    __slots__ = ("name", "fmt")

    def __init__(self, name: str, fmt: str | None = None) -> None:
        self.name = name
        self.fmt = fmt

    def __repr__(self) -> str:
        return "Kind(%s)" % self.name


U8 = Annotated[int, Kind("u8", "B")]
U16 = Annotated[int, Kind("u16", "H")]
U32 = Annotated[int, Kind("u32", "I")]
U64 = Annotated[int, Kind("u64", "Q")]
I32 = Annotated[int, Kind("i32", "i")]
I64 = Annotated[int, Kind("i64", "q")]


def recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`ConnectionClosed`."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    got = 0
    while got < size:
        received = sock.recv_into(view[got:])
        if received == 0:
            raise ConnectionClosed("peer closed the connection")
        got += received
    return bytes(buffer)


class BufferedStream:
    """One receive buffer under a length-prefixed byte stream.

    Bytes received but not yet handed out live in ``_rx[_start:_end]``.
    A subclass's ``_parse(items, limit)`` checks each header there,
    appends every complete item (at most ``limit``) and returns how many
    bytes the next one needs from ``_start``; :meth:`_receive` makes room
    for that many and takes whatever the socket holds with one
    ``recv_into``.  A burst of small items therefore costs one system
    call, and an item torn across TCP segments stays buffered until a
    later read completes it.  The decode is the same however the stream
    is split (tests/test_protocol_fuzz.py checks it against the
    unbuffered :func:`read_message` and ``trunk.wire.read_frame``).

    The buffer starts at :attr:`RECV_BYTES`, grows to fit a pending item
    larger than that, and drops back once the oversized item has been
    handed out, so an idle connection holds only the base size.
    """

    __slots__ = ("sock", "recvs", "_rx", "_view", "_start", "_end")

    #: Base buffer size, and so the most one ``recv`` takes unless a
    #: larger pending item needs more.
    RECV_BYTES = 4096

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.recvs = 0          # system calls spent reading
        self._rx = bytearray(self.RECV_BYTES)
        self._view = memoryview(self._rx)
        self._start = self._end = 0

    def read_burst(self, limit: int = 256) -> list:
        """Block for the next item; return it and every item that
        arrived complete behind it (at most ``limit``).

        Blocks for one ``recv_into`` only while nothing complete is
        buffered.  Raises :class:`ConnectionClosed` on EOF and the
        format's own error on an unframeable stream.
        """
        items: list = []
        needed = self._parse(items, limit)
        while not items:
            if not self._receive(needed):
                raise ConnectionClosed("peer closed the connection")
            needed = self._parse(items, limit)
        return items

    def _consumed(self, start: int) -> None:
        """Everything before ``_rx[start]`` has been handed out."""
        if start < self._end:
            self._start = start
            return
        self._start = self._end = 0
        if len(self._rx) > self.RECV_BYTES:
            self._rx = bytearray(self.RECV_BYTES)
            self._view = memoryview(self._rx)

    def _receive(self, needed: int) -> int:
        """Move the unread tail to the front of a buffer with room for
        a ``needed``-byte item, then one ``recv_into``.  Returns the
        byte count: 0 at EOF."""
        start, end = self._start, self._end
        pending = end - start
        size = max(needed, self.RECV_BYTES)
        if len(self._rx) != size:
            resized = bytearray(size)
            resized[:pending] = self._view[start:end]
            self._rx = resized
            self._view = memoryview(resized)
        elif start:
            self._rx[:pending] = self._rx[start:end]
        self._start, self._end = 0, pending
        received = self.sock.recv_into(self._view[pending:])
        self.recvs += 1
        self._end = pending + received
        return received


#: Message kinds indexed by their wire value.
_KINDS = tuple(MessageKind)


class MessageStream(BufferedStream):
    """Framed-message reader: the blocking client side and the
    non-blocking server shards parse through the same buffer."""

    __slots__ = ()

    def _parse(self, messages: list, limit: int) -> int:
        rx, start, end = self._rx, self._start, self._end
        needed = HEADER_SIZE
        while end - start >= HEADER_SIZE and len(messages) < limit:
            kind, code, sequence, length = HEADER.unpack_from(rx, start)
            if length > MAX_PAYLOAD:
                raise WireFormatError(
                    "declared payload of %d bytes too large" % length)
            if kind >= len(_KINDS):
                raise WireFormatError("unknown message kind %d" % kind)
            needed = HEADER_SIZE + length
            if end - start < needed:
                break
            payload = (bytes(self._view[start + HEADER_SIZE:start + needed])
                       if length else b"")
            messages.append(Message(_KINDS[kind], code, sequence, payload))
            start += needed
            needed = HEADER_SIZE
        self._consumed(start)
        return needed

    #: The benchmark's tracer wraps ``read_batch`` by name; it is the
    #: same function as ``read_burst``.
    read_batch = BufferedStream.read_burst

    def read_message(self) -> Message:
        """Read one framed message (blocking): a one-message burst."""
        return self.read_burst(1)[0]

    def read_available(self, limit: int = sys.maxsize) -> list[Message]:
        """:meth:`read_burst` on a *non-blocking* socket: every complete
        message, or none where the socket would block.

        Receives only while nothing complete is buffered, so a burst of
        small messages costs one ``recv_into``, and a large message is
        read until it is complete or the socket would block.  Raises
        :class:`ConnectionClosed` on EOF once nothing complete is left,
        and :class:`WireFormatError` on an unframeable stream.  A
        ``limit`` leaves the messages past it in the buffer for the next
        call, where no selector sees them, so a selector-driven caller
        passes none.
        """
        try:
            return self.read_burst(limit)
        except (BlockingIOError, InterruptedError):
            return []


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm; request/reply messages are small and
    must not wait out the peer's delayed ACK."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass    # non-TCP transports (socketpair in tests) lack the option


def read_message(sock: socket.socket) -> Message:
    """Read one framed message from a socket (blocking).

    The unbuffered reference framer: two ``recv`` loops and nothing read
    past the message.  The fuzz tests check :class:`MessageStream`
    against it; long-lived readers hold a stream instead.
    """
    header = recv_exact(sock, HEADER_SIZE)
    kind, code, sequence, length = HEADER.unpack(header)
    if length > MAX_PAYLOAD:
        raise WireFormatError("declared payload of %d bytes too large"
                              % length)
    try:
        kind = MessageKind(kind)
    except ValueError as exc:
        raise WireFormatError("unknown message kind %d" % kind) from exc
    payload = recv_exact(sock, length) if length else b""
    return Message(kind, code, sequence, payload)


def write_message(sock: socket.socket, message: Message) -> None:
    """Write one framed message to a socket (blocking)."""
    sock.sendall(message.encode())
