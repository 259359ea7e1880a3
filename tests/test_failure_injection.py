"""Failure injection: the server must survive hostile or dying clients.

A multi-client audio server is only useful if one broken application
cannot take down everyone's audio (the resource-arbitration requirement
of paper section 2 implies resilience).  These tests throw garbage
bytes, truncated messages, surprise disconnects mid-playback, and
protocol misuse at a live server while a well-behaved client keeps
playing.
"""

import socket
import struct


from repro.alib import AudioClient
from repro.chaos.fixtures import raw_setup
from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
)
from repro.protocol.wire import Message, MessageKind

from conftest import wait_for

RATE = 8000


def start_playing(client, seconds=30.0):
    """A long-running playback to check for collateral damage."""
    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    sound = client.sound_from_samples(
        tones.sine(440.0, seconds, RATE), PCM16_8K)
    player.play(sound)
    loud.start_queue()
    return loud


def server_is_healthy(server):
    """The server still accepts connections and serves requests."""
    probe = AudioClient(port=server.port, client_name="probe")
    try:
        info = probe.server_info()
        return info.vendor == "repro desktop audio"
    finally:
        probe.close()


class TestGarbageBytes:
    def test_garbage_before_setup(self, server, client):
        raw = socket.create_connection(("127.0.0.1", server.port))
        raw.sendall(b"\xde\xad\xbe\xef" * 16)
        raw.close()
        assert server_is_healthy(server)

    def test_garbage_after_setup(self, server, client):
        start_playing(client)
        raw = raw_setup(server.port, "evil")
        raw.sendall(b"\xff" * 1024)
        raw.close()
        assert server_is_healthy(server)
        # The good client's playback survives.
        assert wait_for(
            lambda: rms(server.hub.speakers[0].capture.samples()) > 0)

    def test_truncated_message_then_close(self, server, client):
        raw = raw_setup(server.port, "trunc")
        # A header promising 100 payload bytes, then nothing.
        raw.sendall(struct.pack("<BBHI", 0, 35, 1, 100))
        raw.close()
        assert server_is_healthy(server)

    def test_huge_declared_payload_rejected(self, server, client):
        raw = raw_setup(server.port, "huge")
        raw.sendall(struct.pack("<BBHI", 0, 35, 1, 1 << 30))
        # The server drops the connection: wait for its FIN, not a timer.
        raw.settimeout(5.0)
        assert raw.recv(4096) == b""
        raw.close()
        assert server_is_healthy(server)

    def test_wrong_message_kind_drops_connection(self, server, client):
        raw = raw_setup(server.port, "kinds")
        # Clients only send requests; an EVENT from a client is a
        # protocol violation and the connection is dropped.
        raw.sendall(Message(MessageKind.EVENT, 2, 0, b"").encode())
        raw.settimeout(5.0)
        assert raw.recv(4096) == b""
        raw.close()
        assert server_is_healthy(server)

    def test_malformed_payload_yields_error_not_crash(self, server,
                                                      client):
        from repro.protocol.types import ErrorCode, OpCode

        # CREATE_LOUD with a 1-byte payload: BadRequest, stream intact.
        client.conn.send_raw = None     # (no such API; use the socket)
        message = Message(MessageKind.REQUEST, int(OpCode.CREATE_LOUD),
                          0, b"\x01")
        from repro.protocol.wire import write_message

        with client.conn._send_lock:
            client.conn._sequence = (client.conn._sequence + 1) & 0xFFFF
            message.sequence = client.conn._sequence
            write_message(client.conn.sock, message)
        client.sync()
        assert any(error.code is ErrorCode.BAD_REQUEST
                   for error in client.conn.errors)
        assert server_is_healthy(server)


class TestSurpriseDisconnects:
    def test_client_dies_mid_playback(self, server, make_client, client):
        victim = make_client("dying")
        loud = start_playing(victim)
        victim.sync()
        assert len(server.stack) == 1
        # Kill the socket without any protocol goodbye (shutdown
        # actually sends the FIN even with our reader thread live).
        victim.conn.sock.shutdown(socket.SHUT_RDWR)
        victim.conn.sock.close()
        assert wait_for(lambda: len(server.stack) == 0)
        assert server_is_healthy(server)
        # Another client can immediately use the hardware.
        survivor_loud = start_playing(client)
        done = client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STARTED, timeout=10)
        assert done is not None

    def test_client_dies_mid_recording(self, server, make_client):
        victim = make_client("recorder-death")
        loud = victim.create_loud()
        microphone = loud.create_device(DeviceClass.INPUT)
        recorder = loud.create_device(DeviceClass.RECORDER)
        loud.wire(microphone, 0, recorder, 0)
        loud.map()
        take = victim.create_sound(PCM16_8K)
        recorder.record(take)
        loud.start_queue()
        victim.sync()
        victim.conn.sock.shutdown(socket.SHUT_RDWR)
        victim.conn.sock.close()
        assert wait_for(lambda: len(server.stack) == 0)
        assert server_is_healthy(server)

    def test_manager_dies_restores_defaults(self, server, make_client,
                                            client):
        manager = make_client("manager")
        manager.set_redirect(True)
        manager.sync()
        manager.conn.sock.shutdown(socket.SHUT_RDWR)
        manager.conn.sock.close()
        assert wait_for(lambda: server.manager is None)
        # Maps work directly again.
        loud = client.create_loud()
        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        assert wait_for(lambda: loud.query().mapped)

    def test_many_connect_disconnect_cycles(self, server):
        for index in range(20):
            churn = AudioClient(port=server.port,
                                client_name="churn-%d" % index)
            churn.create_loud()
            churn.close()
        assert server_is_healthy(server)
        assert wait_for(lambda: len(server.clients_snapshot()) <= 1)


class TestProtocolMisuse:
    def test_commands_to_other_clients_resources(self, server, client,
                                                 second_client):
        from repro.protocol.requests import DestroyLoud
        from repro.protocol.types import ErrorCode

        loud = client.create_loud()
        client.sync()
        # Another client touches it: allowed for cooperation (properties,
        # sounds) -- but destroying with a bogus id fails cleanly.
        second_client.conn.send(DestroyLoud(123))
        second_client.sync()
        assert any(error.code is ErrorCode.BAD_LOUD
                   for error in second_client.conn.errors)

    def test_queue_control_on_nonexistent_loud(self, server, client):
        from repro.protocol.requests import ControlQueue
        from repro.protocol.types import ErrorCode, QueueOp

        client.conn.send(ControlQueue(987654, QueueOp.START))
        client.sync()
        assert any(error.code is ErrorCode.BAD_LOUD
                   for error in client.conn.errors)

    def test_event_storm_does_not_wedge_server(self, server, client):
        """A client that selects everything and triggers a flood of sync
        events must not stall the hub.

        The server may shed events past the client's outbound bound, so
        the check is an accounting one: every SYNC the server emitted
        was either received or counted as dropped for this client.
        """
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        loud.select_events(EventMask.ALL)
        loud.map()
        sound = client.sound_from_samples(
            tones.sine(440.0, 10.0, RATE), PCM16_8K)
        player.play(sound, sync_interval_ms=1)  # 1000 events/audio-second
        loud.start_queue()
        empty = client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=60)
        assert empty is not None
        received = sum(1 for e in client.pending_events()
                       if e.code is EventCode.SYNC)
        emitted = server.metrics.counter("events.SYNC").value
        assert emitted > 5000
        assert received > 0
        dropped = sum(peer.dropped_events
                      for peer in server.clients_snapshot()
                      if peer.name == "test")
        assert received + dropped >= emitted
        assert server_is_healthy(server)
