"""Unit tests for the Alib connection machinery."""

import socket
import struct
import threading
import time

import pytest

from repro.alib import AudioClient, ConnectionError_
from repro.alib.connection import AudioConnection
from repro.protocol.errors import ProtocolError
from repro.protocol.requests import (
    GetTime,
    ListCatalogue,
    NoOperation,
    QueryLoud,
    QueryQueue,
)
from repro.protocol.setup import SetupReply, SetupRequest
from repro.protocol.types import ErrorCode, EventCode, EventMask
from repro.protocol.wire import (
    Message,
    MessageKind,
    WireFormatError,
    read_message,
    write_message,
)



class TestConnectionLifecycle:
    def test_context_managers(self, server):
        with AudioClient(port=server.port) as client:
            assert client.server_info().sample_rate == 8000
        assert client.conn.closed

    def test_vendor_and_id_range_from_setup(self, server, client):
        assert client.conn.vendor == "repro desktop audio"
        assert client.conn.id_base > 0
        assert client.conn.id_mask > 0

    def test_send_after_close_raises(self, server, client):
        client.close()
        with pytest.raises(ConnectionError_):
            client.conn.send(NoOperation())

    def test_round_trip_after_server_stop(self, server):
        client = AudioClient(port=server.port)
        server.stop()
        with pytest.raises((ConnectionError_, ProtocolError, TimeoutError,
                            OSError)):
            for _ in range(3):
                client.conn.round_trip(GetTime(), timeout=2.0)
        client.close()

    def test_alloc_id_monotonic_and_unique(self, server, client):
        allocated = [client.conn.alloc_id() for _ in range(100)]
        assert len(set(allocated)) == 100
        assert allocated == sorted(allocated)


class TestRoundTrips:
    def test_reply_matches_request(self, server, client):
        # Interleave: pipeline no-ops, then a round trip; the reply must
        # match the GetTime, not any earlier request.
        for _ in range(50):
            client.conn.send(NoOperation())
        reply = client.conn.round_trip(GetTime())
        assert reply.sample_time >= 0

    def test_error_raised_on_matching_round_trip(self, server, client):
        with pytest.raises(ProtocolError) as info:
            client.conn.round_trip(QueryLoud(999_999_999))
        assert info.value.code is ErrorCode.BAD_LOUD

    def test_round_trip_requires_reply_request(self, server, client):
        with pytest.raises(ValueError):
            client.conn.round_trip(NoOperation())

    def test_concurrent_round_trips(self, server, client):
        results = []
        errors = []

        def worker():
            try:
                results.append(client.conn.round_trip(GetTime()))
            except Exception as exc:    # noqa: BLE001 - collecting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8


class TestErrorHandling:
    def test_async_errors_collect(self, server, client):
        from repro.protocol.requests import DestroyLoud

        client.conn.send(DestroyLoud(42))
        client.sync()
        assert len(client.conn.errors) == 1

    def test_on_error_callback(self, server, client):
        from repro.protocol.requests import DestroyLoud

        seen = []
        client.conn.on_error = seen.append
        client.conn.send(DestroyLoud(42))
        client.sync()
        assert len(seen) == 1
        assert not client.conn.errors   # callback consumed it


class TestEventQueue:
    def test_wait_for_event_preserves_order(self, server, client):
        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.LIFECYCLE)
        from repro.protocol.types import DeviceClass

        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        loud.start_queue()
        loud.stop_queue()
        # Wait for the *stop*; the earlier events must still be queued,
        # in order, afterwards.
        stopped = client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STOPPED, timeout=10)
        assert stopped is not None
        remaining = [e.code for e in client.pending_events()]
        assert EventCode.MAP_NOTIFY in remaining
        assert EventCode.QUEUE_STARTED in remaining
        assert remaining.index(EventCode.MAP_NOTIFY) \
            < remaining.index(EventCode.QUEUE_STARTED)

    def test_next_event_timeout(self, server, client):
        started = time.monotonic()
        assert client.next_event(timeout=0.1) is None
        assert time.monotonic() - started < 2.0

    def test_wait_for_event_discard_others(self, server, client):
        from repro.protocol.types import DeviceClass

        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.LIFECYCLE)
        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        loud.start_queue()
        loud.stop_queue()
        stopped = client.conn.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STOPPED, timeout=10,
            discard_others=True)
        assert stopped is not None
        assert client.pending_events() == []

    def test_events_only_for_selected_resources(self, server, client,
                                                second_client):
        from repro.protocol.types import DeviceClass

        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.LIFECYCLE)
        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        client.sync()
        second_client.sync()
        # The second client selected nothing: it sees nothing.
        assert second_client.next_event(timeout=0.2) is None

    def test_deselect_stops_events(self, server, client):
        from repro.protocol.types import DeviceClass

        loud = client.create_loud()
        loud.create_device(DeviceClass.OUTPUT)
        loud.select_events(EventMask.LIFECYCLE)
        loud.map()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.MAP_NOTIFY, timeout=10)
        loud.select_events(EventMask.NONE)
        client.sync()
        client.pending_events()
        loud.unmap()
        client.sync()
        assert client.next_event(timeout=0.2) is None


class TestAuFileHelpers:
    def test_sound_from_au_and_save_au(self, server, client, tmp_path):

        from repro.dsp import tones
        from repro.dsp.aufile import read_au, write_au
        from repro.dsp.encodings import mulaw_encode
        from repro.protocol.types import MULAW_8K

        original = mulaw_encode(tones.sine(440.0, 0.2, 8000))
        source_path = tmp_path / "in.au"
        write_au(source_path, original, MULAW_8K, annotation="greeting")
        sound = client.sound_from_au(source_path)
        assert sound.query().frame_length == len(original)
        # Round-trip back out through the server.
        out_path = tmp_path / "out.au"
        sound.save_au(out_path, annotation="copy")
        data, sound_type, annotation = read_au(out_path)
        assert data == original
        assert sound_type == MULAW_8K
        assert annotation == "copy"


def _serve_one_reply(listener: socket.socket, payload: bytes) -> None:
    """A one-connection fake server: accept, hand out an id range, answer
    the first request with ``payload``, then wait for the client to go."""
    sock, _ = listener.accept()
    with sock:
        SetupRequest.read_from(sock)
        sock.sendall(SetupReply(True, id_base=1 << 20).encode())
        request = read_message(sock)
        write_message(sock, Message(MessageKind.REPLY, request.code,
                                    request.sequence, payload))
        try:
            sock.recv(1)
        except OSError:
            pass


class TestMalformedReply:
    """A reply that frames correctly but does not decode reaches the
    caller as WireFormatError, never as a raw decoder exception."""

    @pytest.mark.parametrize("request_, payload", [
        # QueryQueueReply whose state byte names no QueueState.
        (QueryQueue(1), bytes([99]) + bytes(16)),
        # ListCatalogueReply whose one name is not UTF-8.
        (ListCatalogue(), struct.pack("<II", 1, 2) + b"\xff\xfe"),
    ], ids=["bad-enum", "bad-utf8"])
    def test_undecodable_reply_raises_wire_format_error(self, request_,
                                                        payload):
        listener = socket.create_server(("127.0.0.1", 0))
        server = threading.Thread(target=_serve_one_reply,
                                  args=(listener, payload))
        server.start()
        try:
            conn = AudioConnection(port=listener.getsockname()[1],
                                   request_timeout=5.0)
            try:
                with pytest.raises(WireFormatError, match="malformed"):
                    conn.round_trip(request_)
            finally:
                conn.close()
        finally:
            server.join(timeout=5.0)
            listener.close()
