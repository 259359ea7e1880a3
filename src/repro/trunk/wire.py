"""The trunk wire format: how two exchanges talk to each other.

One trunk link is a TCP byte stream opened with a fixed-size versioned
handshake, then carrying length-prefixed frames in both directions.
Frames split into *signaling* (call control: SETUP2, ALERTING, ANSWER,
RELEASE, DTMF) and *bearer* (AUDIO_BATCH: sequence-numbered blocks of
G.711 mu-law, reusing the table-driven codec from
``repro.dsp.encodings``).
The grammar is deliberately tiny -- small enough to hold in your head
while reading a packet capture:

    handshake := magic(4) u16 major u16 minor u32 sample_rate string name
    frame     := u32 length  u8 type  payload[length - 1]

    SETUP2    := u32 call_id  string number  string caller_id
                 string forwarded_from      ("" = not forwarded)
                 u8 hops  u8 via_count  via_count * string via_node
    ALERTING  := u32 call_id
    ANSWER    := u32 call_id
    RELEASE   := u32 call_id  string reason
    DTMF      := u32 call_id  string digits
    PING      := u32 token
    PONG      := u32 token
    AUDIO_BATCH := u32 count
                   count * (u32 call_id  u32 seq  blob mulaw_payload)
    ROUTE_ADVERT := u16 count
                    count * (string prefix  string origin
                             u16 hops  u32 seq)

Call ids are allocated by the endpoint that *originates* the call; the
endpoint that initiated the TCP connection uses odd ids and the acceptor
even ids, so simultaneous calls in both directions can never collide.

``AUDIO_BATCH`` is the only bearer frame: one flush window's worth of
*every* call's audio packed into a single length-prefixed frame, so a
256-call link costs one frame (and one ``sendall``) per window instead
of 256.  A window holding one block is a one-entry batch.

``SETUP2`` is the one call-setup frame.  Besides the dialed number it
carries the tandem-switching context: ``hops`` counts the trunk links
the call has already crossed and ``via`` lists the gateways it has
left, so a node that finds its own name in ``via`` refuses the loop
and one at its hop ceiling refuses the call.  ``ROUTE_ADVERT`` is the
mesh routing plane (docs/TELEPHONY.md, "Mesh routing"): an advert entry
announces that ``origin`` can be reached through the sender at ``hops``
trunk hops, and hop count :data:`UNREACHABLE_HOPS` withdraws a
previously advertised route.  A gateway outside the mesh ignores
adverts.

Frame types 1 (the plain SETUP of major version 2) and 6 (the
per-frame AUDIO of major version 1) are unassigned and decode as
unknown types.  There is one protocol version, major 3 minor 0; the
handshake refuses any other major, so an older peer is turned away
before a frame flows.

Marshalling reuses the :class:`~repro.protocol.wire.Writer` /
:class:`~repro.protocol.wire.Reader` primitives of the client protocol
(same endianness, same string/blob encoding), except that AUDIO_BATCH,
the per-tick bulk, is packed and parsed with one prebound ``struct``
call per entry and decodes to payload views of the frame body.  Errors
raise :class:`TrunkProtocolError` so a bad peer drops the link instead
of crashing the gateway.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass

from ..protocol.wire import BufferedStream, Reader, WireFormatError, \
    Writer, recv_exact

#: First bytes on the wire, both directions.
TRUNK_MAGIC = b"RTRK"
TRUNK_MAJOR = 3
TRUNK_MINOR = 0

#: Upper bound on one frame's encoded size; anything bigger is a
#: protocol violation (a 20 ms block at 8 kHz is ~160 bytes, and a
#: 256-call AUDIO_BATCH stays well under 64 KiB).
MAX_FRAME_BYTES = 1 << 20

#: Upper bound on payloads packed into one AUDIO_BATCH; a corrupted
#: count field must not drive an unbounded allocation loop.
MAX_BATCH_ENTRIES = 4096

#: Upper bound on route entries packed into one ROUTE_ADVERT frame;
#: bigger tables are chunked across frames by the sender.
MAX_ADVERT_ENTRIES = 1024

#: Upper bound on the SETUP2 via list (the loop-prevention hop trail);
#: real paths are bounded far lower by the gateway's max hop count.
MAX_VIA_NODES = 64

#: ROUTE_ADVERT hop count that *withdraws* the (prefix, origin) route
#: instead of announcing it.
UNREACHABLE_HOPS = 0xFFFF

_LENGTH = struct.Struct("<I")
_HANDSHAKE_HEAD = struct.Struct("<4sHHI")

# Prebound structs for the hot bearer encoders (PR 2 style): the whole
# frame header in one pack instead of a Writer's append-per-field.
_BATCH_HEAD = struct.Struct("<IBI")        # length  type  count
_ENTRY_HEAD = struct.Struct("<III")        # call_id  seq  len


class TrunkProtocolError(Exception):
    """The peer violated the trunk wire format or version contract."""


class FrameType(enum.IntEnum):
    # 1 is unassigned: the plain SETUP of major version 2.
    ALERTING = 2
    ANSWER = 3
    RELEASE = 4
    DTMF = 5
    # 6 is unassigned: the per-frame AUDIO of major version 1.
    PING = 7
    PONG = 8
    AUDIO_BATCH = 9
    ROUTE_ADVERT = 10
    SETUP2 = 11


@dataclass(frozen=True)
class TrunkFrame:
    """One decoded trunk frame; unused fields stay at their defaults."""

    type: FrameType
    call_id: int = 0
    number: str = ""
    caller_id: str = ""
    forwarded_from: str = ""
    reason: str = ""
    digits: str = ""
    token: int = 0
    #: AUDIO_BATCH only: ``(call_id, seq, mulaw_payload)`` per call.
    entries: tuple = ()
    #: SETUP2 only: trunk hops already crossed, and the names of the
    #: gateways the call has left (oldest first) for loop prevention.
    hops: int = 0
    via: tuple = ()
    #: ROUTE_ADVERT only: ``(prefix, origin, hops, seq)`` per route;
    #: hops == UNREACHABLE_HOPS withdraws the route.
    adverts: tuple = ()

    def encode(self) -> bytes:
        if self.type is FrameType.AUDIO_BATCH:
            out = bytearray()
            encode_audio_batch_into(out, self.entries)
            return bytes(out)
        writer = Writer()
        writer.u8(int(self.type))
        if self.type in (FrameType.PING, FrameType.PONG):
            writer.u32(self.token)
        elif self.type is FrameType.ROUTE_ADVERT:
            writer.u16(len(self.adverts))
            for prefix, origin, hops, seq in self.adverts:
                writer.string(prefix)
                writer.string(origin)
                writer.u16(hops)
                writer.u32(seq)
        else:
            writer.u32(self.call_id)
            if self.type is FrameType.SETUP2:
                writer.string(self.number)
                writer.string(self.caller_id)
                writer.string(self.forwarded_from)
                writer.u8(self.hops)
                writer.u8(len(self.via))
                for node in self.via:
                    writer.string(node)
            elif self.type is FrameType.RELEASE:
                writer.string(self.reason)
            elif self.type is FrameType.DTMF:
                writer.string(self.digits)
        body = writer.getvalue()
        return _LENGTH.pack(len(body)) + body


def encode_audio_batch_into(out: bytearray, entries) -> None:
    """Append one AUDIO_BATCH frame to a reused sweep buffer.

    Prebound structs, no intermediate frame objects: one header pack
    per frame and per entry, however many calls ride it (the frame
    header is filled in once its length is known).  Entries are
    ``(call_id, seq, payload)`` where the payload is any bytes-like
    mu-law block.
    """
    start = len(out)
    out += bytes(_BATCH_HEAD.size)
    pack = _ENTRY_HEAD.pack
    for call_id, seq, payload in entries:
        out += pack(call_id, seq, len(payload))
        out += payload
    _BATCH_HEAD.pack_into(out, start, len(out) - start - _LENGTH.size,
                          FrameType.AUDIO_BATCH, len(entries))


def decode_frame(body: bytes) -> TrunkFrame:
    """Decode one frame body (everything after the length prefix)."""
    reader = Reader(body)
    try:
        raw_type = reader.u8()
        try:
            frame_type = FrameType(raw_type)
        except ValueError:
            raise TrunkProtocolError("unknown frame type %d" % raw_type)
        if frame_type in (FrameType.PING, FrameType.PONG):
            frame = TrunkFrame(frame_type, token=reader.u32())
        elif frame_type is FrameType.ROUTE_ADVERT:
            count = reader.u16()
            if count > MAX_ADVERT_ENTRIES:
                raise TrunkProtocolError(
                    "ROUTE_ADVERT of %d entries too large" % count)
            adverts = []
            for _ in range(count):
                prefix = reader.string()
                origin = reader.string()
                adverts.append((prefix, origin, reader.u16(),
                                reader.u32()))
            frame = TrunkFrame(frame_type, adverts=tuple(adverts))
        elif frame_type is FrameType.AUDIO_BATCH:
            return _decode_audio_batch(body)
        else:
            call_id = reader.u32()
            if frame_type is FrameType.SETUP2:
                number = reader.string()
                caller_id = reader.string()
                forwarded_from = reader.string()
                hops = reader.u8()
                via_count = reader.u8()
                if via_count > MAX_VIA_NODES:
                    raise TrunkProtocolError(
                        "SETUP2 via list of %d nodes too long" % via_count)
                via = tuple(reader.string() for _ in range(via_count))
                frame = TrunkFrame(frame_type, call_id, number=number,
                                   caller_id=caller_id,
                                   forwarded_from=forwarded_from,
                                   hops=hops, via=via)
            elif frame_type is FrameType.RELEASE:
                frame = TrunkFrame(frame_type, call_id,
                                   reason=reader.string())
            elif frame_type is FrameType.DTMF:
                frame = TrunkFrame(frame_type, call_id,
                                   digits=reader.string())
            else:
                frame = TrunkFrame(frame_type, call_id)
        reader.expect_end()
    except WireFormatError as exc:
        raise TrunkProtocolError(str(exc)) from None
    return frame


def _decode_audio_batch(body) -> TrunkFrame:
    """AUDIO_BATCH in one pass: one prebound unpack per entry header.

    Payloads are memoryview slices of ``body`` (the framer copies each
    frame out of its receive buffer), so no payload is copied here.
    """
    view = memoryview(body)
    size = len(view)
    pos = 5     # u8 type + u32 count
    entries = []
    try:
        (count,) = _LENGTH.unpack_from(view, 1)
        if count > MAX_BATCH_ENTRIES:
            raise TrunkProtocolError(
                "AUDIO_BATCH of %d entries too large" % count)
        for _ in range(count):
            call_id, seq, length = _ENTRY_HEAD.unpack_from(view, pos)
            pos += _ENTRY_HEAD.size
            entries.append((call_id, seq, view[pos:pos + length]))
            pos += length
    except struct.error:
        raise TrunkProtocolError("truncated AUDIO_BATCH at offset %d of %d"
                                 % (pos, size)) from None
    # A payload cut short by the body's end leaves pos past it.
    if pos != size:
        raise TrunkProtocolError("AUDIO_BATCH entries span %d of its %d "
                                 "bytes" % (pos, size))
    return TrunkFrame(FrameType.AUDIO_BATCH, entries=tuple(entries))


def read_frame(sock: socket.socket) -> TrunkFrame:
    """Read one length-prefixed frame from a socket (blocking).

    Two syscalls per frame: the reference framer that
    :class:`FrameStream` is fuzz-tested against, and the reader raw-socket
    tests speak the protocol with.
    """
    (length,) = _LENGTH.unpack(recv_exact(sock, _LENGTH.size))
    if length == 0 or length > MAX_FRAME_BYTES:
        raise TrunkProtocolError("bad frame length %d" % length)
    return decode_frame(recv_exact(sock, length))


class FrameStream(BufferedStream):
    """Buffered trunk framer: amortized ~0 syscalls/frame.

    The client protocol's receive buffer
    (:class:`~repro.protocol.wire.BufferedStream`) under the trunk's
    ``u32 length`` framing: one ``recv_into`` lands however many frames
    the peer's last flush carried, and they are parsed out of the buffer
    in one pass.  Decodes exactly what looping :func:`read_frame` does
    however the stream is split (tests/test_protocol_fuzz.py).
    """

    __slots__ = ()

    #: Comfortably bigger than the largest flush window a 256-call link
    #: emits per 20 ms tick, so one recv takes a whole window.
    RECV_BYTES = 1 << 16

    def _parse(self, frames: list, limit: int) -> int:
        rx, start, end = self._rx, self._start, self._end
        needed = _LENGTH.size
        while end - start >= _LENGTH.size and len(frames) < limit:
            (length,) = _LENGTH.unpack_from(rx, start)
            if length == 0 or length > MAX_FRAME_BYTES:
                raise TrunkProtocolError("bad frame length %d" % length)
            needed = _LENGTH.size + length
            if end - start < needed:
                break
            frames.append(decode_frame(
                bytes(self._view[start + _LENGTH.size:start + needed])))
            start += needed
            needed = _LENGTH.size
        self._consumed(start)
        return needed

    #: At least one frame (blocking), plus everything already here.
    read_frames = BufferedStream.read_burst


@dataclass(frozen=True)
class Handshake:
    """The fixed preamble each side sends when a link opens.

    ``sample_rate`` guards bearer compatibility: audio frames carry raw
    mu-law at the sender's exchange rate, so both ends must agree before
    any call is placed.
    """

    name: str = ""
    major: int = TRUNK_MAJOR
    minor: int = TRUNK_MINOR
    sample_rate: int = 8000

    def encode(self) -> bytes:
        head = _HANDSHAKE_HEAD.pack(TRUNK_MAGIC, self.major, self.minor,
                                    self.sample_rate)
        return head + Writer().string(self.name).getvalue()

    @classmethod
    def read_from(cls, sock: socket.socket) -> "Handshake":
        head = recv_exact(sock, _HANDSHAKE_HEAD.size)
        magic, major, minor, sample_rate = _HANDSHAKE_HEAD.unpack(head)
        if magic != TRUNK_MAGIC:
            raise TrunkProtocolError("bad trunk magic %r" % magic)
        (name_len,) = _LENGTH.unpack(recv_exact(sock, _LENGTH.size))
        if name_len > 1024:
            raise TrunkProtocolError("oversized peer name (%d bytes)"
                                     % name_len)
        try:
            name = recv_exact(sock, name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise TrunkProtocolError("undecodable peer name") from None
        return cls(name=name, major=major, minor=minor,
                   sample_rate=sample_rate)

    def compatible_with(self, other: "Handshake") -> str | None:
        """None if the peers can interoperate, else the refusal reason.

        Gateway names must differ: the ``via`` list of every SETUP2
        names the gateways a call crossed, and a gateway refuses any
        call that names it, so a same-named peer could connect but
        never complete a call.
        """
        if self.name == other.name:
            return "peer uses our own name %r" % other.name
        if self.major != other.major:
            return ("trunk protocol version mismatch: %d vs %d"
                    % (self.major, other.major))
        if self.sample_rate != other.sample_rate:
            return ("sample rate mismatch: %d vs %d Hz"
                    % (self.sample_rate, other.sample_rate))
        return None
