"""Byte-stream framing and primitive marshalling.

Clients and the server communicate over a reliable full duplex 8-bit byte
stream; "a simple protocol is layered on top of this stream" (paper
section 4.1).  This module implements that layer:

* every message is a fixed 8-byte header followed by a payload,
* the header carries the message *kind* (request / reply / event / error),
  a kind-specific *code* (opcode, event code or error code), a 16-bit
  sequence number, and the payload length,
* :class:`Writer` and :class:`Reader` marshal the primitive types payloads
  are built from, and :class:`Kind` names each one for the body
  declarations (``U8`` ... ``I64`` and :data:`PLAIN_KINDS`).

All integers are little-endian on the wire.  The tight definition makes the
protocol independent of operating system, transport and language.

The receive path avoids per-chunk allocation: :class:`MessageStream`
owns one header buffer and one growable payload buffer per connection
and fills them with ``recv_into`` on a ``memoryview``, so a message
costs exactly one ``bytes`` materialization however many TCP segments
carried it.  :class:`Writer` marshals into a single ``bytearray``
instead of a chunk list, and :func:`set_nodelay` turns off Nagle on
both ends of a connection (small request/reply messages must not wait
out a delayed ACK).
"""

from __future__ import annotations

import enum
import select
import socket
import struct
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
        """Serialize header + payload to raw bytes (one buffer, no
        intermediate concatenation)."""
        if len(self.payload) > MAX_PAYLOAD:
            raise WireFormatError(
                "payload of %d bytes exceeds maximum" % len(self.payload))
        buffer = bytearray(HEADER_SIZE + len(self.payload))
        HEADER.pack_into(buffer, 0, int(self.kind), self.code,
                         self.sequence & 0xFFFF, len(self.payload))
        buffer[HEADER_SIZE:] = self.payload
        return bytes(buffer)


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

    def pack(self, fmt: struct.Struct, values) -> "Writer":
        """Several fixed-width values in one ``fmt``."""
        self._buffer += fmt.pack(*values)
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

    def unpack(self, fmt: struct.Struct) -> tuple:
        """Several fixed-width values in one ``fmt``."""
        pos = self._pos
        if pos + fmt.size > len(self._data):
            self._truncated(fmt.size)
        self._pos = pos + fmt.size
        return fmt.unpack_from(self._data, pos)

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def at_end(self) -> bool:
        return self._pos == len(self._data)

    def expect_end(self) -> None:
        if not self.at_end():
            raise WireFormatError(
                "%d unexpected trailing bytes in payload" % self.remaining())


class Kind:
    """One wire kind: how a value is put to a :class:`Writer` and taken
    from a :class:`Reader`.  Body fields declare theirs in their
    annotations (:mod:`repro.protocol.codec`).  Fixed-width kinds also
    carry their struct format character, so the codec can move a run of
    them with one ``struct`` call, and ``convert`` maps a raw unpacked
    value to the field's type (an enum member)."""

    __slots__ = ("name", "put", "take", "fmt", "convert")

    def __init__(self, name: str, put, take, fmt: str | None = None,
                 convert=None) -> None:
        self.name = name
        self.put = put
        self.take = take
        self.fmt = fmt
        self.convert = convert

    def __repr__(self) -> str:
        return "Kind(%s)" % self.name


U8 = Annotated[int, Kind("u8", Writer.u8, Reader.u8, "B")]
U16 = Annotated[int, Kind("u16", Writer.u16, Reader.u16, "H")]
U32 = Annotated[int, Kind("u32", Writer.u32, Reader.u32, "I")]
U64 = Annotated[int, Kind("u64", Writer.u64, Reader.u64, "Q")]
I32 = Annotated[int, Kind("i32", Writer.i32, Reader.i32, "i")]
I64 = Annotated[int, Kind("i64", Writer.i64, Reader.i64, "q")]

#: Kinds of the plain annotations that need no width.
PLAIN_KINDS = {
    bool: Kind("bool", Writer.boolean, Reader.boolean, "?"),
    float: Kind("f64", Writer.f64, Reader.f64, "d"),
    str: Kind("string", Writer.string, Reader.string),
    bytes: Kind("blob", Writer.blob, Reader.blob),
}


def recv_exact_into(sock: socket.socket, view: memoryview,
                    size: int) -> None:
    """Fill ``view[:size]`` from the socket or raise
    :class:`ConnectionClosed`.  No allocation per TCP segment."""
    got = 0
    while got < size:
        received = sock.recv_into(view[got:size])
        if received == 0:
            raise ConnectionClosed("peer closed the connection")
        got += received


def recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`ConnectionClosed`."""
    buffer = bytearray(size)
    recv_exact_into(sock, memoryview(buffer), size)
    return bytes(buffer)


#: Payload buffers are reused between messages up to this size; larger
#: payloads (bulk sound data) get a one-shot allocation so a single big
#: transfer does not pin a big buffer for the connection's lifetime.
_REUSE_LIMIT = 1 << 16


class MessageStream:
    """Framed-message reader owning reusable receive buffers.

    One stream per reader thread: the 8-byte header and payloads up to
    :data:`_REUSE_LIMIT` land in buffers allocated once, filled with
    ``recv_into``, so each message costs exactly one ``bytes``
    materialization (the payload handed to the parser, which may outlive
    this read call) regardless of how many TCP segments carried it.
    """

    __slots__ = ("sock", "_header", "_header_view", "_payload",
                 "_payload_view", "_nb_got", "_nb_in_payload", "_nb_kind",
                 "_nb_code", "_nb_sequence", "_nb_length", "_nb_view",
                 "_rx", "_rx_view", "_rx_start", "_rx_end")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._header = bytearray(HEADER_SIZE)
        self._header_view = memoryview(self._header)
        self._payload = bytearray(4096)
        self._payload_view = memoryview(self._payload)
        # Incremental (non-blocking) framing state: how many bytes of
        # the current header or payload have arrived so far, and the
        # decoded header once it is complete.  Used only by
        # :meth:`read_available`; the blocking path never leaves a
        # partial message behind, so the two modes share the buffers.
        self._nb_got = 0
        self._nb_in_payload = False
        self._nb_kind = MessageKind.REQUEST
        self._nb_code = 0
        self._nb_sequence = 0
        self._nb_length = 0
        self._nb_view: memoryview | None = None
        # Burst framing state (:meth:`read_burst`): received bytes not
        # yet handed out live in ``_rx[_rx_start:_rx_end]``.
        self._rx = bytearray(0)
        self._rx_view = memoryview(self._rx)
        self._rx_start = 0
        self._rx_end = 0

    def read_message(self) -> Message:
        """Read one framed message (blocking)."""
        recv_exact_into(self.sock, self._header_view, HEADER_SIZE)
        kind, code, sequence, length = HEADER.unpack_from(self._header)
        if length > MAX_PAYLOAD:
            raise WireFormatError("declared payload of %d bytes too large"
                                  % length)
        try:
            kind = MessageKind(kind)
        except ValueError as exc:
            raise WireFormatError("unknown message kind %d" % kind) from exc
        if length == 0:
            return Message(kind, code, sequence, b"")
        if length <= _REUSE_LIMIT:
            if length > len(self._payload):
                self._payload = bytearray(length)
                self._payload_view = memoryview(self._payload)
            view = self._payload_view
        else:
            view = memoryview(bytearray(length))
        recv_exact_into(self.sock, view, length)
        return Message(kind, code, sequence, bytes(view[:length]))

    def _parse_header(self) -> None:
        """Decode the filled header buffer into the incremental state."""
        kind, code, sequence, length = HEADER.unpack_from(self._header)
        if length > MAX_PAYLOAD:
            raise WireFormatError("declared payload of %d bytes too large"
                                  % length)
        try:
            self._nb_kind = MessageKind(kind)
        except ValueError as exc:
            raise WireFormatError("unknown message kind %d" % kind) from exc
        self._nb_code = code
        self._nb_sequence = sequence
        self._nb_length = length
        self._nb_got = 0
        self._nb_in_payload = True
        if length == 0:
            self._nb_view = None
        elif length <= _REUSE_LIMIT:
            if length > len(self._payload):
                self._payload = bytearray(length)
                self._payload_view = memoryview(self._payload)
            self._nb_view = self._payload_view
        else:
            self._nb_view = memoryview(bytearray(length))

    def _complete_message(self) -> Message:
        payload = (bytes(self._nb_view[:self._nb_length])
                   if self._nb_length else b"")
        message = Message(self._nb_kind, self._nb_code, self._nb_sequence,
                          payload)
        self._nb_got = 0
        self._nb_in_payload = False
        self._nb_view = None
        return message

    def read_available(self, limit: int = 64) -> list[Message]:
        """Drain complete messages from a *non-blocking* socket.

        Returns every fully-arrived message (possibly none); a message
        torn across TCP segments stays buffered as partial header or
        payload bytes and is finished by a later call, so the decode is
        byte-for-byte identical to the blocking :meth:`read_message`
        however the stream is split (tests/test_protocol_fuzz.py proves
        the property).  Never blocks: a read that would wait returns
        what has been assembled so far.  Raises
        :class:`ConnectionClosed` on EOF and :class:`WireFormatError`
        on an unframeable stream, exactly like the blocking path.
        """
        messages: list[Message] = []
        while len(messages) < limit:
            if not self._nb_in_payload:
                try:
                    received = self.sock.recv_into(
                        self._header_view[self._nb_got:])
                except (BlockingIOError, InterruptedError):
                    break
                if received == 0:
                    # EOF.  Hand back what this call already assembled;
                    # the next call sees EOF again (recv keeps returning
                    # zero) and raises with nothing pending, so a peer's
                    # final burst is dispatched before the teardown.
                    if messages:
                        break
                    raise ConnectionClosed("peer closed the connection")
                self._nb_got += received
                if self._nb_got < HEADER_SIZE:
                    continue
                self._parse_header()
                if self._nb_length == 0:
                    messages.append(self._complete_message())
                continue
            try:
                received = self.sock.recv_into(
                    self._nb_view[self._nb_got:self._nb_length])
            except (BlockingIOError, InterruptedError):
                break
            if received == 0:
                if messages:
                    break
                raise ConnectionClosed("peer closed the connection")
            self._nb_got += received
            if self._nb_got == self._nb_length:
                messages.append(self._complete_message())
        return messages

    def read_burst(self, limit: int = 256) -> list[Message]:
        """Block for the next message; return it and every message that
        arrived complete behind it (at most ``limit``).

        One ``recv_into`` takes everything the socket holds, so a burst
        of small messages -- a block's worth of events -- costs one
        system call, and on a busy process one GIL hand-off, instead of
        two per message.  Bytes past the last complete message stay
        buffered for the next call.  Decodes exactly what
        :meth:`read_message` would, however TCP splits the stream, and
        raises the same errors.  Not to be mixed with the other read
        methods on one stream.
        """
        messages: list[Message] = []
        while True:
            rx, start, end = self._rx, self._rx_start, self._rx_end
            needed = HEADER_SIZE
            while end - start >= HEADER_SIZE and len(messages) < limit:
                kind, code, sequence, length = HEADER.unpack_from(rx, start)
                if length > MAX_PAYLOAD:
                    raise WireFormatError(
                        "declared payload of %d bytes too large" % length)
                try:
                    kind = MessageKind(kind)
                except ValueError as exc:
                    raise WireFormatError(
                        "unknown message kind %d" % kind) from exc
                needed = HEADER_SIZE + length
                if end - start < needed:
                    break
                payload = (bytes(self._rx_view[start + HEADER_SIZE:
                                               start + needed])
                           if length else b"")
                messages.append(Message(kind, code, sequence, payload))
                start += needed
                needed = HEADER_SIZE
            self._rx_start = start
            if messages:
                if start == end and len(rx) > _REUSE_LIMIT:
                    self._rx_start = self._rx_end = 0
                    self._rx = bytearray(0)
                    self._rx_view = memoryview(self._rx)
                return messages
            self._receive_more(needed)

    def _receive_more(self, needed: int) -> None:
        """Move the unread tail to the front, make room for ``needed``
        bytes, and block for one ``recv_into``."""
        pending = self._rx_end - self._rx_start
        size = max(needed, _REUSE_LIMIT)
        if len(self._rx) < size:
            grown = bytearray(size)
            grown[:pending] = self._rx[self._rx_start:self._rx_end]
            self._rx = grown
            self._rx_view = memoryview(grown)
        elif self._rx_start:
            self._rx[:pending] = self._rx[self._rx_start:self._rx_end]
        self._rx_start, self._rx_end = 0, pending
        received = self.sock.recv_into(self._rx_view[pending:])
        if received == 0:
            raise ConnectionClosed("peer closed the connection")
        self._rx_end = pending + received

    def _readable(self) -> bool:
        """Whether a recv would return immediately (zero-timeout poll)."""
        try:
            ready, _, _ = select.select([self.sock], [], [], 0)
        except (OSError, ValueError):
            return False
        return bool(ready)

    def read_batch(self, limit: int = 64) -> list[Message]:
        """One blocking read, then drain whatever has already arrived.

        Returns at least one message; keeps reading while the socket
        reports pending bytes, up to ``limit`` messages, so a chatty
        client's backlog can be dispatched as one batch.  A message torn
        across TCP segments makes the last read block briefly for its
        remainder -- the same exposure a lone ``read_message`` has, and
        only to the sender of that message.
        """
        messages = [self.read_message()]
        while len(messages) < limit and self._readable():
            messages.append(self.read_message())
        return messages


def set_nodelay(sock: socket.socket) -> None:
    """Disable Nagle's algorithm; request/reply messages are small and
    must not wait out the peer's delayed ACK."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass    # non-TCP transports (socketpair in tests) lack the option


def read_message(sock: socket.socket) -> Message:
    """Read one framed message from a socket (blocking).

    One-shot convenience; long-lived reader threads should hold a
    :class:`MessageStream` to reuse receive buffers.
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
