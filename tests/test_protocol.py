"""Unit and property tests for the wire protocol layer."""

import pathlib
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import codec
from repro.protocol.attributes import AttributeList
from repro.protocol.errors import ProtocolError, bad
from repro.protocol.events import Event
from repro.protocol.requests import (
    REQUEST_CLASSES,
    AllowRequest,
    AugmentVirtualDevice,
    ChangeProperty,
    ControlQueue,
    CreateLoud,
    CreateSound,
    CreateVirtualDevice,
    CreateWire,
    GetProperty,
    GetPropertyReply,
    IssueCommand,
    ListCatalogueReply,
    LoadSound,
    NoOperation,
    QueryDeviceLoudReply,
    QueryLoudReply,
    QueryQueueReply,
    QueryServerReply,
    QueryVirtualDeviceReply,
    ReadSoundData,
    Reply,
    Request,
    SelectEvents,
    SetRedirect,
    SetSoundStream,
    WriteSoundData,
    decode_request,
    DeviceDescription,
)
from repro.protocol.setup import SetupReply, SetupRequest
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    ErrorCode,
    EventCode,
    EventMask,
    EVENT_MASK_FOR_CODE,
    MULAW_8K,
    OpCode,
    QueueOp,
    QueueState,
    StackPosition,
)
from repro.protocol.wire import (
    ConnectionClosed,
    Message,
    MessageKind,
    Reader,
    WireFormatError,
    Writer,
    read_message,
    write_message,
)


class TestWriterReader:
    def test_primitive_roundtrip(self):
        writer = Writer()
        writer.u8(200).u16(60000).u32(4_000_000_000).u64(2**40)
        writer.i32(-5).i64(-2**40).f64(3.25).boolean(True)
        writer.string("héllo").blob(b"\x00\x01").raw(b"xy")
        reader = Reader(writer.getvalue())
        assert reader.u8() == 200
        assert reader.u16() == 60000
        assert reader.u32() == 4_000_000_000
        assert reader.u64() == 2**40
        assert reader.i32() == -5
        assert reader.i64() == -(2**40)
        assert reader.f64() == 3.25
        assert reader.boolean() is True
        assert reader.string() == "héllo"
        assert reader.blob() == b"\x00\x01"
        assert reader.raw(2) == b"xy"
        assert reader.at_end()

    def test_truncation_raises(self):
        reader = Reader(b"\x01")
        with pytest.raises(WireFormatError):
            reader.u32()

    def test_expect_end(self):
        reader = Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(WireFormatError):
            reader.expect_end()

    def test_message_roundtrip_over_socket(self):
        server_sock, client_sock = socket.socketpair()
        try:
            message = Message(MessageKind.EVENT, 7, 42, b"payload-bytes")
            write_message(client_sock, message)
            received = read_message(server_sock)
            assert received == message
        finally:
            server_sock.close()
            client_sock.close()

    def test_connection_closed(self):
        server_sock, client_sock = socket.socketpair()
        client_sock.close()
        try:
            with pytest.raises(ConnectionClosed):
                read_message(server_sock)
        finally:
            server_sock.close()

    def test_oversized_payload_rejected(self):
        message = Message(MessageKind.REQUEST, 1, 0, b"")
        message.payload = b"x"  # fine
        assert message.encode()
        big = Message(MessageKind.REQUEST, 1, 0, b"x" * (1 << 26 + 1))
        with pytest.raises(WireFormatError):
            big.encode()


class TestAttributes:
    def test_roundtrip_all_types(self):
        attrs = AttributeList.of(
            device_id=3,
            name="left speaker",
            agc=True,
            gain=0.5,
            encoding_type=MULAW_8K,
            numbers=[1, 2, 3],
            words=["a", "b"],
            raw=b"\x00\xff",
        )
        writer = Writer()
        writer.raw(codec.plan(AttributeList).encode(attrs))
        back = Reader(writer.getvalue()).parse(
            codec.plan(AttributeList).take)
        assert back.items == attrs.items

    def test_of_converts_underscores(self):
        attrs = AttributeList.of(sample_rate=8000)
        assert "sample-rate" in attrs
        assert attrs["sample-rate"] == 8000

    def test_merged_with(self):
        base = AttributeList.of(a=1, b=2)
        override = AttributeList.of(b=3, c=4)
        merged = base.merged_with(override)
        assert merged.items == {"a": 1, "b": 3, "c": 4}
        assert base.items == {"a": 1, "b": 2}

    def test_bool_is_not_int(self):
        attrs = AttributeList.of(flag=True, count=1)
        writer = Writer()
        writer.raw(codec.plan(AttributeList).encode(attrs))
        back = Reader(writer.getvalue()).parse(
            codec.plan(AttributeList).take)
        assert back["flag"] is True
        assert back["count"] == 1
        assert not isinstance(back["count"], bool)

    def test_mixed_list_rejected(self):
        with pytest.raises(WireFormatError):
            codec.value_bytes([1, "two"])

    def test_unsupported_value_rejected(self):
        with pytest.raises(WireFormatError):
            codec.value_bytes(object())

    @given(st.dictionaries(
        st.text(min_size=1, max_size=16),
        st.one_of(
            st.integers(-2**62, 2**62),
            st.text(max_size=32),
            st.booleans(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.binary(max_size=32),
            st.lists(st.integers(-1000, 1000), max_size=8),
        ),
        max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, items):
        attrs = AttributeList(dict(items))
        writer = Writer()
        writer.raw(codec.plan(AttributeList).encode(attrs))
        back = Reader(writer.getvalue()).parse(
            codec.plan(AttributeList).take)
        assert back.items == attrs.items


def _roundtrip_request(request: Request) -> Request:
    payload = request.encode()
    return decode_request(int(request.OPCODE), payload)


class TestRequests:
    def test_registry_is_complete(self):
        assert set(REQUEST_CLASSES) == set(OpCode)

    def test_create_loud(self):
        request = CreateLoud(10, 0, AttributeList.of(name="machine"))
        assert _roundtrip_request(request) == request

    def test_create_virtual_device(self):
        request = CreateVirtualDevice(
            11, 10, DeviceClass.PLAYER, AttributeList.of(encoding=1))
        back = _roundtrip_request(request)
        assert back == request
        assert back.device_class is DeviceClass.PLAYER

    def test_create_wire_with_and_without_type(self):
        typed = CreateWire(12, 11, 0, 13, 0, MULAW_8K)
        untyped = CreateWire(12, 11, 0, 13, 0, None)
        assert _roundtrip_request(typed) == typed
        assert _roundtrip_request(untyped) == untyped

    def test_issue_command(self):
        request = IssueCommand(
            10, 11, Command.PLAY, CommandMode.QUEUED,
            AttributeList.of(sound=20))
        back = _roundtrip_request(request)
        assert back.command is Command.PLAY
        assert back.mode is CommandMode.QUEUED
        assert back.args["sound"] == 20

    def test_control_queue(self):
        request = ControlQueue(10, QueueOp.PAUSE)
        assert _roundtrip_request(request) == request

    def test_sound_requests(self):
        assert _roundtrip_request(CreateSound(20, MULAW_8K)) == \
            CreateSound(20, MULAW_8K)
        write = WriteSoundData(20, -1, b"\x01\x02\x03")
        assert _roundtrip_request(write) == write
        read = ReadSoundData(20, 100, 50)
        assert _roundtrip_request(read) == read
        load = LoadSound(21, "beep", "system")
        assert _roundtrip_request(load) == load
        stream = SetSoundStream(22, 16000, 4000)
        assert _roundtrip_request(stream) == stream

    def test_select_events(self):
        request = SelectEvents(10, EventMask.QUEUE | EventMask.TELEPHONE)
        back = _roundtrip_request(request)
        assert back.mask & EventMask.QUEUE
        assert back.mask & EventMask.TELEPHONE
        assert not back.mask & EventMask.SYNC

    def test_properties(self):
        change = ChangeProperty(10, "DOMAIN", "desktop")
        assert _roundtrip_request(change) == change
        get = GetProperty(10, "DOMAIN")
        assert _roundtrip_request(get) == get

    def test_manager_requests(self):
        assert _roundtrip_request(SetRedirect(True)) == SetRedirect(True)
        allow = AllowRequest(10, OpCode.MAP_LOUD, True, StackPosition.BOTTOM)
        assert _roundtrip_request(allow) == allow

    def test_augment(self):
        request = AugmentVirtualDevice(11, AttributeList.of(device_id=2))
        assert _roundtrip_request(request) == request

    def test_no_operation(self):
        assert _roundtrip_request(NoOperation()) == NoOperation()

    def test_unknown_opcode(self):
        with pytest.raises(WireFormatError):
            decode_request(200, b"")

    def test_malformed_payload(self):
        with pytest.raises(WireFormatError):
            decode_request(int(OpCode.CREATE_LOUD), b"\x01")


def _roundtrip_reply(reply: Reply) -> Reply:
    payload = reply.encode()
    return type(reply).read_payload(Reader(payload))


class TestReplies:
    def test_query_loud_reply(self):
        reply = QueryLoudReply(0, [2, 3], [4], True, False, 1,
                               AttributeList.of(name="x"))
        assert _roundtrip_reply(reply) == reply

    def test_query_virtual_device_reply(self):
        reply = QueryVirtualDeviceReply(
            DeviceClass.RECORDER, AttributeList.of(agc=True),
            [(0, 1, MULAW_8K)], [5, 6])
        assert _roundtrip_reply(reply) == reply

    def test_query_queue_reply(self):
        reply = QueryQueueReply(QueueState.STARTED, 3, 1, 17)
        assert _roundtrip_reply(reply) == reply

    def test_query_server_reply(self):
        reply = QueryServerReply("repro", 1, 0, [1, 2, 3], 160, 8000)
        assert _roundtrip_reply(reply) == reply

    def test_device_loud_reply(self):
        description = DeviceDescription(
            1, DeviceClass.OUTPUT, "speaker",
            AttributeList.of(ambient_domain="desktop"), [2])
        reply = QueryDeviceLoudReply([description])
        back = _roundtrip_reply(reply)
        assert back.devices[0] == description

    def test_get_property_reply_absent(self):
        reply = GetPropertyReply(False, None)
        assert _roundtrip_reply(reply) == reply

    def test_list_catalogue_reply(self):
        reply = ListCatalogueReply(["beep", "ring"])
        assert _roundtrip_reply(reply) == reply


class TestEventsAndErrors:
    def test_event_roundtrip(self):
        event = Event(EventCode.COMMAND_DONE, resource=10, detail=2,
                      sample_time=123456,
                      args=AttributeList.of(command_serial=9), sequence=77)
        back = Event.decode(event.encode())
        assert back == event

    def test_every_event_code_has_a_mask(self):
        for code in EventCode:
            assert code in EVENT_MASK_FOR_CODE

    def test_error_roundtrip(self):
        error = ProtocolError(ErrorCode.BAD_MATCH, 5, int(OpCode.CREATE_WIRE),
                              12, "type mismatch")
        back = ProtocolError.decode(error.encode())
        assert back == error

    def test_error_str(self):
        error = bad(ErrorCode.BAD_LOUD, "no such loud", resource=9)
        assert "BAD_LOUD" in str(error)
        assert "no such loud" in str(error)


class TestSetup:
    def test_setup_roundtrip(self):
        server_sock, client_sock = socket.socketpair()
        try:
            request = SetupRequest(1, 0, "test-client")
            client_sock.sendall(request.encode())
            received = SetupRequest.read_from(server_sock)
            assert received == request

            reply = SetupReply(True, id_base=1 << 20, vendor="repro")
            server_sock.sendall(reply.encode())
            got = SetupReply.read_from(client_sock)
            assert got == reply
        finally:
            server_sock.close()
            client_sock.close()

    def test_bad_magic(self):
        server_sock, client_sock = socket.socketpair()
        try:
            client_sock.sendall(b"XXXX" + b"\x00" * 8)
            with pytest.raises(WireFormatError):
                SetupRequest.read_from(server_sock)
        finally:
            server_sock.close()
            client_sock.close()


class TestProtocolDoc:
    def test_opcode_table_matches_registry(self):
        """docs/PROTOCOL.md's opcode table lists exactly the registered
        requests: opcode, class name, and whether a reply comes back."""
        doc = (pathlib.Path(__file__).parents[1] / "docs" / "PROTOCOL.md")
        text = doc.read_text()
        table = text[text.index("| op | request | reply |"):]
        table = table[:table.index("\n\n")]
        rows = set()
        for line in table.splitlines()[2:]:
            op, request, reply = [cell.strip()
                                  for cell in line.split("|")[1:4]]
            rows.add((int(op), request.split("(")[0], reply == "yes"))
        assert rows == {(int(opcode), cls.__name__, cls.REPLY is not None)
                        for opcode, cls in REQUEST_CLASSES.items()}
