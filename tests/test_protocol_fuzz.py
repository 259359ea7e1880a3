"""Fuzzing the protocol decoders.

Property: no byte sequence, however hostile, makes a decoder raise
anything but WireFormatError (or ProtocolError semantics downstream) --
the server turns WireFormatError into BadRequest instead of crashing, so
the decoders are the crash surface worth fuzzing.
"""

import dataclasses
import enum
import operator
import typing
from typing import Annotated

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import codec
from repro.protocol import requests as requests_module
from repro.protocol.attributes import AttributeList, AttrValue
from repro.protocol.errors import ProtocolError
from repro.protocol.events import Event
from repro.protocol.requests import (
    REQUEST_CLASSES,
    ClientStat,
    DeviceDescription,
    GetPropertyReply,
    HistogramStat,
    Reply,
    Request,
    decode_request,
)
from repro.protocol.types import ErrorCode, EventCode, OpCode, SoundType
from repro.protocol.wire import (
    HEADER_SIZE,
    ConnectionClosed,
    Message,
    MessageKind,
    MessageStream,
    Reader,
    WireFormatError,
    read_message,
)


class _ChunkedFakeSocket:
    """A socket double that serves a byte string in scripted chunks.

    ``recv_into`` hands out at most the next scripted chunk size per
    call (and never more than the caller's buffer), mimicking arbitrary
    TCP segmentation: byte-at-a-time dribble, giant coalesced reads, or
    splits at any offset.
    """

    def __init__(self, data: bytes, chunk_sizes: list[int]) -> None:
        self._data = data
        self._offset = 0
        self._chunks = list(chunk_sizes)

    def recv_into(self, view) -> int:
        remaining = len(self._data) - self._offset
        if remaining == 0:
            return 0
        limit = self._chunks.pop(0) if self._chunks else remaining
        count = max(1, min(limit, remaining, len(view)))
        view[:count] = self._data[self._offset:self._offset + count]
        self._offset += count
        return count


class TestDecodeRequestFuzz:
    @given(st.integers(0, 255), st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_crash(self, opcode, payload):
        try:
            request = decode_request(opcode, payload)
        except WireFormatError:
            return
        except (ValueError, OverflowError) as exc:
            pytest.fail("leaked %r for opcode %d" % (exc, opcode))
        # A successful decode must re-encode without error.
        request.encode()

    @given(st.sampled_from(sorted(OpCode, key=int)),
           st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_valid_opcodes_with_garbage_payloads(self, opcode, payload):
        try:
            decode_request(int(opcode), payload)
        except WireFormatError:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_attribute_list_decoder(self, payload):
        try:
            codec.decode(lambda reader: reader.parse(
                codec.plan(AttributeList).take), payload, "attributes")
        except WireFormatError:
            pass

    @given(st.binary(max_size=128), st.integers(0, 0xFFFF))
    @settings(max_examples=200, deadline=None)
    def test_event_decoder(self, payload, sequence):
        # Any EVENT-kind message body must decode or fail cleanly.
        message = Message(MessageKind.EVENT, int(EventCode.SYNC),
                          sequence, payload)
        try:
            Event.decode(message)
        except WireFormatError:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_error_decoder(self, payload):
        message = Message(MessageKind.ERROR, int(ErrorCode.BAD_VALUE),
                          0, payload)
        try:
            ProtocolError.decode(message)
        except WireFormatError:
            pass


class TestAdversarialFraming:
    """MessageStream must decode what the unbuffered reference reader
    does however TCP splits the bytes -- the chaos proxy's throttle and
    the real network both fragment writes at arbitrary offsets."""

    MESSAGES = st.lists(
        st.builds(Message,
                  st.sampled_from([MessageKind.REQUEST, MessageKind.REPLY,
                                   MessageKind.EVENT, MessageKind.ERROR]),
                  st.integers(0, 255),
                  st.integers(0, 0xFFFF),
                  st.binary(max_size=200)),
        min_size=1, max_size=6)

    @staticmethod
    def _decode_all(data, chunk_sizes, count):
        """The oracle: the module-level unbuffered reader."""
        sock = _ChunkedFakeSocket(data, chunk_sizes)
        return [read_message(sock) for _index in range(count)]

    @staticmethod
    def _stream_all(data, chunk_sizes, count):
        stream = MessageStream(_ChunkedFakeSocket(data, chunk_sizes))
        return [stream.read_message() for _index in range(count)]

    @given(MESSAGES, st.lists(st.integers(1, 64), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_decodes_identically(self, messages, chunk_sizes):
        data = b"".join(message.encode() for message in messages)
        whole = self._decode_all(data, [], len(messages))
        chunked = self._stream_all(data, chunk_sizes, len(messages))
        assert chunked == whole

    @given(MESSAGES)
    @settings(max_examples=50, deadline=None)
    def test_byte_at_a_time_decodes_identically(self, messages):
        data = b"".join(message.encode() for message in messages)
        whole = self._decode_all(data, [], len(messages))
        dribbled = self._stream_all(data, [1] * len(data), len(messages))
        assert dribbled == whole

    @given(MESSAGES.filter(lambda m: len(m) >= 2), st.data())
    @settings(max_examples=100, deadline=None)
    def test_split_at_every_message_boundary_offset(self, messages, data):
        """One split placed anywhere -- including mid-header and exactly
        on a frame boundary -- never changes the decode."""
        stream_bytes = b"".join(message.encode() for message in messages)
        split = data.draw(st.integers(1, len(stream_bytes) - 1))
        whole = self._decode_all(stream_bytes, [], len(messages))
        halved = self._stream_all(stream_bytes, [split], len(messages))
        assert halved == whole


class _NonBlockingFakeSocket:
    """A non-blocking socket double: scripted chunks plus EWOULDBLOCKs.

    Like :class:`_ChunkedFakeSocket`, but a scripted size of 0 makes the
    next ``recv_into`` raise ``BlockingIOError`` -- the shape a selector
    shard sees: partial reads split anywhere, interleaved with
    would-block returns whenever the kernel buffer runs dry.
    """

    def __init__(self, data: bytes, script: list[int]) -> None:
        self._data = data
        self._offset = 0
        self._script = list(script)

    def recv_into(self, view) -> int:
        if self._script and self._script[0] == 0:
            self._script.pop(0)
            raise BlockingIOError
        remaining = len(self._data) - self._offset
        if remaining == 0:
            return 0
        limit = self._script.pop(0) if self._script else remaining
        count = max(1, min(limit, remaining, len(view)))
        view[:count] = self._data[self._offset:self._offset + count]
        self._offset += count
        return count


class TestNonBlockingReassembly:
    """MessageStream.read_available (the I/O-shard read path) must
    reassemble exactly what the blocking reader decodes, whatever the
    split points and however many would-block pauses interrupt it."""

    MESSAGES = TestAdversarialFraming.MESSAGES

    @staticmethod
    def _drain(stream, count, limit=64):
        """Call read_available until ``count`` messages came out."""
        out = []
        for _attempt in range(10_000):
            if len(out) >= count:
                return out
            out.extend(stream.read_available(limit))
        raise AssertionError("stream never produced %d messages" % count)

    @given(MESSAGES, st.lists(st.integers(0, 64), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_nonblocking_reads_match_blocking_reader(self, messages,
                                                     script):
        data = b"".join(message.encode() for message in messages)
        whole = TestAdversarialFraming._decode_all(data, [], len(messages))
        stream = MessageStream(_NonBlockingFakeSocket(data, script))
        assert self._drain(stream, len(messages)) == whole

    @given(MESSAGES)
    @settings(max_examples=50, deadline=None)
    def test_byte_at_a_time_with_blocks_between_every_byte(self, messages):
        data = b"".join(message.encode() for message in messages)
        whole = TestAdversarialFraming._decode_all(data, [], len(messages))
        script = [0, 1] * len(data)     # block, one byte, block, ...
        stream = MessageStream(_NonBlockingFakeSocket(data, script))
        assert self._drain(stream, len(messages)) == whole

    @given(st.lists(MESSAGES, min_size=2, max_size=4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_interleaved_clients_on_one_shard(self, per_client, data):
        """Round-robin read_available over several streams -- one shard
        servicing many clients -- decodes each stream independently and
        identically to its own blocking read, even with a small batch
        limit forcing re-entry mid-burst."""
        streams, totals, expected = [], [], []
        for messages in per_client:
            raw = b"".join(message.encode() for message in messages)
            script = data.draw(st.lists(st.integers(0, 32), max_size=60))
            streams.append(MessageStream(_NonBlockingFakeSocket(raw,
                                                                script)))
            totals.append(len(messages))
            expected.append(TestAdversarialFraming._decode_all(
                raw, [], len(messages)))
        results = [[] for _stream in streams]
        for _sweep in range(10_000):
            progress_needed = False
            for index, stream in enumerate(streams):
                if len(results[index]) < totals[index]:
                    results[index].extend(stream.read_available(2))
                    if len(results[index]) < totals[index]:
                        progress_needed = True
            if not progress_needed:
                break
        assert results == expected


class TestBurstFraming:
    """MessageStream.read_burst (the client reader's path) must decode
    exactly what the blocking reader does however TCP splits the bytes,
    across bursts of any size and payloads larger than its buffer."""

    MESSAGES = TestAdversarialFraming.MESSAGES

    @staticmethod
    def _bursts(data, chunk_sizes, count, limit=256):
        stream = MessageStream(_ChunkedFakeSocket(data, chunk_sizes))
        out = []
        while len(out) < count:
            burst = stream.read_burst(limit)
            assert 1 <= len(burst) <= limit
            out.extend(burst)
        return out

    @given(MESSAGES, st.lists(st.integers(1, 64), max_size=200),
           st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_any_chunking_matches_blocking_reader(self, messages,
                                                  chunk_sizes, limit):
        data = b"".join(message.encode() for message in messages)
        whole = TestAdversarialFraming._decode_all(data, [], len(messages))
        assert self._bursts(data, chunk_sizes, len(messages),
                            limit) == whole

    @given(MESSAGES)
    @settings(max_examples=50, deadline=None)
    def test_byte_at_a_time(self, messages):
        data = b"".join(message.encode() for message in messages)
        whole = TestAdversarialFraming._decode_all(data, [], len(messages))
        assert self._bursts(data, [1] * len(data), len(messages)) == whole

    @staticmethod
    def _available(data, chunk_sizes, count):
        """The I/O shard's path over the same chunked bytes."""
        stream = MessageStream(_ChunkedFakeSocket(data, chunk_sizes))
        return TestNonBlockingReassembly._drain(stream, count)

    def test_payload_larger_than_buffer_then_small(self):
        big = Message(MessageKind.REPLY, 7, 1, bytes(range(256)) * 600)
        small = Message(MessageKind.EVENT, 3, 2, b"tail")
        data = big.encode() + small.encode()
        assert self._bursts(data, [5000] * 100, 2) == [big, small]
        assert self._available(data, [5000] * 100, 2) == [big, small]

    def test_eof_and_bad_kind_raise_like_blocking_reader(self):
        bad_kind = bytes([99]) + bytes(7)
        torn = Message(MessageKind.REPLY, 1, 1, b"payload").encode()[:-2]
        for data, error in ((b"", ConnectionClosed),
                            (bad_kind, WireFormatError),
                            (torn, ConnectionClosed)):
            with pytest.raises(error):
                read_message(_ChunkedFakeSocket(data, []))
            stream = MessageStream(_ChunkedFakeSocket(data, []))
            with pytest.raises(error):
                stream.read_burst()
            stream = MessageStream(_ChunkedFakeSocket(data, []))
            with pytest.raises(error):
                TestNonBlockingReassembly._drain(stream, 1)


class TestReceiveBuffer:
    def test_buffer_no_bigger_than_before_and_shrinks_after_bulk(self):
        # A connection used to hold an 8-byte header buffer and a 4 KiB
        # payload buffer; its one receive buffer may not exceed that,
        # and must drop back to it once a bulk payload has been read.
        bulk = Message(MessageKind.REQUEST, 9, 1, bytes(200 * 1024))
        small = Message(MessageKind.REQUEST, 2, 2, b"x")
        data = bulk.encode() + small.encode()
        stream = MessageStream(_ChunkedFakeSocket(data, [3000] * 100))
        baseline = 4096 + HEADER_SIZE
        assert len(stream._rx) <= baseline
        assert TestNonBlockingReassembly._drain(stream, 1) == [bulk]
        assert len(stream._rx) <= baseline
        assert stream.read_available() == [small]
        assert len(stream._rx) <= baseline


# -- every declared body round-trips ---------------------------------------

_INT_RANGES = {
    "u8": (0, (1 << 8) - 1), "u16": (0, (1 << 16) - 1),
    "u32": (0, (1 << 32) - 1), "u64": (0, (1 << 64) - 1),
    "i32": (-(1 << 31), (1 << 31) - 1), "i64": (-(1 << 63), (1 << 63) - 1),
}
_FLOATS = st.floats(allow_nan=False)
_PLAIN = {bool: st.booleans(), float: _FLOATS, str: st.text(max_size=12),
          bytes: st.binary(max_size=16)}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 53), 1 << 53)
    | _FLOATS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)


def _attr_values():
    return st.one_of(
        st.integers(*_INT_RANGES["i64"]), st.text(max_size=12),
        st.booleans(), _FLOATS, _strategy(SoundType),
        st.lists(st.integers(*_INT_RANGES["i64"]), max_size=4),
        st.lists(st.text(max_size=6), min_size=1, max_size=4),
        st.binary(max_size=12))


def _enum_values(cls):
    members = st.sampled_from(list(cls))
    if issubclass(cls, enum.Flag):
        return st.builds(operator.or_, members, members)
    return members


def _strategy(hint):
    """Values of one declared field kind, read off its annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        base, kind = args[0], args[1]
        if typing.get_origin(kind) is Annotated:
            kind = kind.__metadata__[0]
        if kind is codec.JSON:
            return st.dictionaries(st.text(max_size=8), _JSON, max_size=3)
        if kind is codec.HEADER and base is int:
            return st.integers(0, 0xFFFF)   # the header's u16 sequence
        if int in typing.get_args(base):
            (base,) = [arg for arg in typing.get_args(base) if arg is not int]
            low = max(member.value for member in base) + 1
            return _enum_values(base) | st.integers(
                low, _INT_RANGES[kind.name][1])
        if isinstance(base, type) and issubclass(base, enum.Enum):
            return _enum_values(base)
        return st.integers(*_INT_RANGES[kind.name])
    if hint in _PLAIN:
        return _PLAIN[hint]
    if hint is AttributeList:
        return st.builds(AttributeList, st.dictionaries(
            st.text(max_size=8), _attr_values(), max_size=4))
    if hint == AttrValue:
        return _attr_values()
    if type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | _strategy(inner)
    if origin is list:
        return st.lists(_strategy(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(_strategy(args[0]), _strategy(args[1]),
                               max_size=3)
    if origin is tuple:
        return st.tuples(*[_strategy(arg) for arg in args])
    if dataclasses.is_dataclass(hint):
        return _body_strategy(hint)
    raise TypeError("no strategy for %r" % (hint,))


def _body_strategy(cls):
    if cls in _HAND_WRITTEN:
        return _HAND_WRITTEN[cls]()
    hints = typing.get_type_hints(cls, include_extras=True)
    return st.builds(cls, *[_strategy(hints[field.name])
                            for field in dataclasses.fields(cls)])


#: Bodies with hand-written layouts (a field's value decides another's
#: presence or length), drawn by hand to match.
_HAND_WRITTEN = {
    GetPropertyReply: lambda: st.just(GetPropertyReply(False, None))
    | st.builds(lambda value: GetPropertyReply(True, value), _attr_values()),
    HistogramStat: lambda: st.lists(_FLOATS, max_size=4).flatmap(
        lambda edges: st.builds(
            HistogramStat, st.just(edges),
            st.lists(st.integers(*_INT_RANGES["u64"]),
                     min_size=len(edges) + 1, max_size=len(edges) + 1),
            _FLOATS, st.integers(*_INT_RANGES["u64"]))),
}


def _roundtrip(value):
    cls = type(value)
    if cls in (Event, ProtocolError):
        return cls.decode(value.encode())
    if issubclass(cls, Request):
        return decode_request(int(cls.OPCODE), value.encode())
    reader = Reader(value.encode())
    decoded = cls.read_payload(reader)
    reader.expect_end()
    return decoded


_BODIES = sorted(
    {*REQUEST_CLASSES.values(), DeviceDescription, HistogramStat, ClientStat,
     Event, ProtocolError,
     *(cls for cls in vars(requests_module).values()
       if isinstance(cls, type) and issubclass(cls, Reply)
       and cls is not Reply)},
    key=lambda cls: cls.__name__)


class TestDeclaredRoundTrip:
    """Random values of every body, drawn from its declared field kinds,
    survive encode/decode unchanged (types included)."""

    def test_every_request_and_reply_is_covered(self):
        covered = set(_BODIES)
        assert set(REQUEST_CLASSES.values()) <= covered
        assert {cls.REPLY for cls in REQUEST_CLASSES.values()
                if cls.REPLY is not None} <= covered

    @pytest.mark.parametrize("cls", _BODIES, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, cls, data):
        value = data.draw(_body_strategy(cls))
        decoded = _roundtrip(value)
        assert decoded == value
        assert repr(decoded) == repr(value)


# -- trunk bearer framing -----------------------------------------------------

from repro.trunk.wire import (  # noqa: E402
    MAX_BATCH_ENTRIES,
    FrameStream,
    FrameType,
    TrunkFrame,
    TrunkProtocolError,
)
from tests.trunk_oracle import decode_audio_batch_reference  # noqa: E402


_batch_entries = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
              st.binary(max_size=48)),
    max_size=8)

_trunk_frames = st.lists(
    st.one_of(
        st.builds(
            lambda frame_type, token: TrunkFrame(frame_type, token=token),
            st.sampled_from((FrameType.PING, FrameType.PONG)),
            st.integers(0, 2**32 - 1)),
        _batch_entries.map(
            lambda entries: TrunkFrame(FrameType.AUDIO_BATCH,
                                       entries=tuple(entries))),
        st.builds(
            lambda call_id, reason: TrunkFrame(
                FrameType.RELEASE, call_id, reason=reason),
            st.integers(0, 2**32 - 1), st.text(max_size=16)),
    ),
    min_size=1, max_size=6)


class TestTrunkBatchFuzz:
    """AUDIO_BATCH round-trips and FrameStream reassembly properties."""

    @given(_batch_entries)
    @settings(max_examples=200, deadline=None)
    def test_batch_roundtrip_any_entries(self, entries):
        from repro.trunk.wire import decode_frame

        frame = TrunkFrame(FrameType.AUDIO_BATCH, entries=tuple(entries))
        encoded = frame.encode()
        assert int.from_bytes(encoded[:4], "little") == len(encoded) - 4
        assert decode_frame(encoded[4:]) == frame

    @given(_trunk_frames, st.lists(st.integers(1, 64), max_size=64))
    @settings(max_examples=150, deadline=None)
    def test_frame_stream_any_chunking(self, frames, chunk_sizes):
        blob = b"".join(frame.encode() for frame in frames)
        stream = FrameStream(_ChunkedFakeSocket(blob, chunk_sizes))
        got = []
        while len(got) < len(frames):
            got.extend(stream.read_frames())
        assert got == frames

    @given(_trunk_frames)
    @settings(max_examples=50, deadline=None)
    def test_frame_stream_byte_at_a_time(self, frames):
        blob = b"".join(frame.encode() for frame in frames)
        stream = FrameStream(_ChunkedFakeSocket(blob, [1] * len(blob)))
        got = []
        while len(got) < len(frames):
            got.extend(stream.read_frames())
        assert got == frames

    @given(st.binary(min_size=1, max_size=128))
    @settings(max_examples=300, deadline=None)
    def test_random_frame_body_never_crashes(self, body):
        from repro.trunk.wire import decode_frame

        try:
            decode_frame(body)
        except TrunkProtocolError:
            pass

    @given(st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
                  st.integers(0, 400).map(lambda size: bytes(
                      (size + index) % 256 for index in range(size)))),
        max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_batch_decodes_as_the_field_by_field_oracle(self, entries):
        from repro.trunk.wire import decode_frame

        body = TrunkFrame(FrameType.AUDIO_BATCH,
                          entries=tuple(entries)).encode()[4:]
        decoded = decode_frame(body).entries
        assert decoded == decode_audio_batch_reference(body)
        assert decoded == tuple(entries)

    @given(_batch_entries)
    @settings(max_examples=60, deadline=None)
    def test_truncated_or_padded_batch_rejected_by_both(self, entries):
        from repro.trunk.wire import decode_frame

        body = TrunkFrame(FrameType.AUDIO_BATCH,
                          entries=tuple(entries)).encode()[4:]
        bad = [body[:cut] for cut in range(len(body))] + [body + b"\0"]
        for decoder in (decode_frame, decode_audio_batch_reference):
            for malformed in bad:
                with pytest.raises(TrunkProtocolError):
                    decoder(malformed)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_batch_count_over_the_bound_rejected_by_both(self, extra):
        from repro.trunk.wire import decode_frame

        count = MAX_BATCH_ENTRIES + 1
        body = bytes([FrameType.AUDIO_BATCH]) + count.to_bytes(4, "little")
        body += bytes(12) * count * extra    # empty entries, or none
        for decoder in (decode_frame, decode_audio_batch_reference):
            with pytest.raises(TrunkProtocolError, match="too large"):
                decoder(body)

    def test_payload_views_survive_the_next_burst(self):
        """A burst's payloads are views of frame bodies copied out of
        the receive buffer: the next burst compacting or reusing that
        buffer leaves them intact."""
        first = [TrunkFrame(FrameType.AUDIO_BATCH, entries=tuple(
            (call, seq, bytes([call * 16 + seq]) * 160)
            for call in range(4))) for seq in range(3)]
        second = [TrunkFrame(FrameType.AUDIO_BATCH, entries=tuple(
            (call, seq, bytes([0xAA ^ seq]) * 160) for call in range(4)))
            for seq in range(3, 9)]
        blob = b"".join(frame.encode() for frame in first + second)
        # The first recv ends mid-frame, so the second compacts the
        # partial frame to the front of the buffer and overwrites it.
        cut = len(b"".join(frame.encode() for frame in first)) + 7
        stream = FrameStream(_ChunkedFakeSocket(blob, [cut]))
        got = stream.read_frames()
        assert got == first
        payloads = [payload for frame in got
                    for _call, _seq, payload in frame.entries]
        while len(got) < len(first) + len(second):
            got.extend(stream.read_frames())
        assert got == first + second
        assert payloads == [payload for frame in first
                            for _call, _seq, payload in frame.entries]


# -- mesh route propagation and registry framing ------------------------------

from repro.trunk.discovery import (  # noqa: E402
    OP_PEERS,
    OP_REGISTER,
    PeerRecord,
    RegistryProtocolError,
    decode_registry_frame,
    encode_peers,
    encode_register,
)
from repro.trunk.wire import MAX_VIA_NODES, decode_frame  # noqa: E402

_short_text = st.text(max_size=12)

_advert_entries = st.lists(
    st.tuples(_short_text, _short_text,
              st.integers(0, 0xFFFF), st.integers(0, 2**32 - 1)),
    max_size=12)

_peer_records = st.builds(
    PeerRecord, _short_text, _short_text, st.integers(0, 0xFFFF),
    st.lists(_short_text, max_size=8).map(tuple))


class TestMeshWireFuzz:
    """ROUTE_ADVERT / SETUP2 round-trips and failure containment.

    (Random whole-frame bodies are already covered by
    :class:`TestTrunkBatchFuzz`, whose generator reaches the new frame
    types through the shared decoder.)
    """

    @given(_advert_entries)
    @settings(max_examples=200, deadline=None)
    def test_route_advert_roundtrip(self, entries):
        frame = TrunkFrame(FrameType.ROUTE_ADVERT, adverts=tuple(entries))
        encoded = frame.encode()
        assert int.from_bytes(encoded[:4], "little") == len(encoded) - 4
        assert decode_frame(encoded[4:]) == frame

    @given(st.integers(0, 2**32 - 1), _short_text, _short_text,
           st.integers(0, 255),
           st.lists(_short_text, max_size=MAX_VIA_NODES))
    @settings(max_examples=200, deadline=None)
    def test_setup2_roundtrip(self, call_id, number, caller_id, hops, via):
        frame = TrunkFrame(FrameType.SETUP2, call_id, number=number,
                           caller_id=caller_id, hops=hops, via=tuple(via))
        assert decode_frame(frame.encode()[4:]) == frame

    @given(_advert_entries.filter(bool), st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_advert_rejected_cleanly(self, entries, data):
        body = TrunkFrame(FrameType.ROUTE_ADVERT,
                          adverts=tuple(entries)).encode()[4:]
        cut = data.draw(st.integers(1, len(body) - 1))
        with pytest.raises(TrunkProtocolError):
            decode_frame(body[:cut])

    @given(st.lists(_short_text, min_size=1, max_size=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_setup2_rejected_cleanly(self, via, data):
        body = TrunkFrame(FrameType.SETUP2, 7, number="200",
                          caller_id="100", hops=3,
                          via=tuple(via)).encode()[4:]
        cut = data.draw(st.integers(1, len(body) - 1))
        with pytest.raises(TrunkProtocolError):
            decode_frame(body[:cut])


class TestRegistryWireFuzz:
    """The RMSH registry decoder: same containment property as the
    trunk's -- hostile bytes cost RegistryProtocolError, never a crash."""

    @given(_peer_records)
    @settings(max_examples=200, deadline=None)
    def test_register_roundtrip(self, record):
        op, records = decode_registry_frame(encode_register(record)[4:])
        assert (op, records) == (OP_REGISTER, [record])

    @given(st.lists(_peer_records, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_peers_roundtrip(self, roster):
        op, records = decode_registry_frame(encode_peers(roster)[4:])
        assert (op, records) == (OP_PEERS, roster)

    @given(st.lists(_peer_records, min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncated_registry_frame_rejected(self, roster, data):
        body = encode_peers(roster)[4:]
        cut = data.draw(st.integers(1, len(body) - 1))
        with pytest.raises(RegistryProtocolError):
            decode_registry_frame(body[:cut])

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_registry_body_never_crashes(self, body):
        try:
            decode_registry_frame(body)
        except RegistryProtocolError:
            pass
