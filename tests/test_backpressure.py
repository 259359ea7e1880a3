"""Bounded outbound queues: a slow consumer degrades, others don't.

The server's per-client outbound queue is bounded; when a client stops
reading its socket, the oldest queued *events* are shed (replies and
errors never are) and a consumer whose socket stays unwritable past the
stall deadline is evicted outright.  This is the server half of the
chaos harness's graceful-degradation contract (docs/RELIABILITY.md).
"""

import socket

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.hardware import HardwareConfig
from repro.protocol import requests as rq
from repro.protocol.attributes import AttributeList
from repro.protocol.setup import SetupReply, SetupRequest
from repro.protocol.types import (
    Command,
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
    QueueOp,
)
from repro.protocol.wire import Message, MessageKind
from repro.server import AudioServer, ServerConfig
from repro.server.clients import _OutboundQueue

from conftest import wait_for
from manual_clock import ManualClock

RATE = 8000
BOUND = 64
STALL_DEADLINE = 1.0


class TestOutboundQueue:
    def test_events_shed_oldest_first_at_bound(self):
        queue = _OutboundQueue(bound=3)
        for index in range(3):
            queue.put("event-%d" % index, droppable=True)
        queue.put("event-3", droppable=True)
        assert queue.dropped == 1
        assert len(queue) == 3
        assert queue.pop_nowait() == "event-1"  # event-0 was shed

    def test_replies_never_shed(self):
        queue = _OutboundQueue(bound=2)
        queue.put("reply-0", droppable=False)
        queue.put("reply-1", droppable=False)
        queue.put("reply-2", droppable=False)   # over bound, still kept
        assert queue.dropped == 0
        assert len(queue) == 3

    def test_event_shed_before_reply(self):
        queue = _OutboundQueue(bound=2)
        queue.put("reply", droppable=False)
        queue.put("event-old", droppable=True)
        queue.put("event-new", droppable=True)
        assert queue.dropped == 1
        assert [queue.pop_nowait(), queue.pop_nowait()] == [
            "reply", "event-new"]
        assert queue.pop_nowait() is None

    def test_all_replies_at_bound_sheds_new_event(self):
        queue = _OutboundQueue(bound=2)
        queue.put("reply-0", droppable=False)
        queue.put("reply-1", droppable=False)
        queue.put("event", droppable=True)
        assert queue.dropped == 1
        assert len(queue) == 2


@pytest.fixture
def tight_server():
    """A server with a small outbound bound and a short stall deadline."""
    server = AudioServer(HardwareConfig(), ServerConfig(
        outbound_bound=BOUND, stall_deadline=STALL_DEADLINE))
    server.start()
    yield server
    server.stop()


def start_stalled_flood(server, seconds=30.0):
    """A raw client that triggers an event storm and never reads.

    Returns the open socket (the caller closes it).  A tiny receive
    buffer set *before* connecting keeps the TCP window small, so the
    server's socket writes stall quickly once we stop reading.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(("127.0.0.1", server.port))
    sock.sendall(SetupRequest(client_name="staller").encode())
    reply = SetupReply.read_from(sock)
    base = reply.id_base
    loud, player, output = base, base + 1, base + 2
    wire, sound = base + 3, base + 4
    ramp = np.arange(int(seconds * RATE), dtype=np.int64)
    samples = (np.sin(2 * np.pi * 440.0 * ramp / RATE)
               * 16000).astype("<i2")
    requests = [
        rq.CreateLoud(loud),
        rq.CreateVirtualDevice(player, loud, DeviceClass.PLAYER),
        rq.CreateVirtualDevice(output, loud, DeviceClass.OUTPUT),
        rq.CreateWire(wire, player, 0, output, 0),
        rq.SelectEvents(loud, EventMask.ALL),
        rq.MapLoud(loud),
        rq.CreateSound(sound, PCM16_8K),
        rq.WriteSoundData(sound, 0, samples.tobytes()),
        rq.IssueCommand(loud, player, Command.PLAY,
                        args=AttributeList.of(sound=sound,
                                              sync_interval_ms=1)),
        rq.ControlQueue(loud, QueueOp.START),
    ]
    for sequence, request in enumerate(requests, start=1):
        sock.sendall(Message(MessageKind.REQUEST, int(request.OPCODE),
                             sequence, request.encode()).encode())
    # ... and from here on the client never reads a byte.
    return sock


def staller_connection(server):
    for client in server.clients_snapshot():
        if client.name == "staller":
            return client
    return None


class TestSlowConsumer:
    def test_stalled_consumer_is_bounded_shed_and_evicted(
            self, tight_server):
        server = tight_server
        # A well-behaved client plays concurrently throughout.
        clean = AudioClient(port=server.port, client_name="clean")
        sock = None
        try:
            c_loud = clean.create_loud()
            c_player = c_loud.create_device(DeviceClass.PLAYER)
            c_output = c_loud.create_device(DeviceClass.OUTPUT)
            c_loud.wire(c_player, 0, c_output, 0)
            c_loud.select_events(EventMask.QUEUE)
            c_loud.map()
            c_sound = clean.sound_from_samples(
                tones.sine(440.0, 2.0, RATE), PCM16_8K)

            sock = start_stalled_flood(server)
            assert wait_for(lambda: staller_connection(server) is not None)
            victim = staller_connection(server)
            # Shrink the server-side send buffer too, so kernel
            # buffering cannot hide the stall from the server.
            victim.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   4096)

            # Events are shed once the flood outruns the dead socket...
            assert wait_for(lambda: victim.dropped_events > 0, timeout=30)
            # ...while the queue depth stays at or under the bound
            # (only droppable events are in flight here).
            for _sample in range(50):
                assert victim.queue_depth <= BOUND
            # The stall sweep evicts the dead consumer.
            assert wait_for(lambda: victim.evicted, timeout=30)
            assert wait_for(lambda: staller_connection(server) is None,
                            timeout=10)
            evictions = server.metrics.counter("clients.evicted_slow").value
            assert evictions >= 1
            dropped = server.metrics.counter(
                "clients.outbound.dropped_events").value
            assert dropped > 0

            # The clean client felt nothing: its playback still renders
            # audio and completes.
            c_player.play(c_sound)
            c_loud.start_queue()
            done = clean.wait_for_event(
                lambda e: e.code is EventCode.COMMAND_DONE, timeout=30)
            assert done is not None
            assert rms(server.hub.speakers[0].capture.samples()) > 0
        finally:
            clean.close()
            if sock is not None:
                sock.close()

    def test_eviction_happens_within_deadline_order(self, tight_server):
        """Eviction lands within a small multiple of the deadline --
        the sweep must actually run from the tick loop."""
        import time

        server = tight_server
        sock = start_stalled_flood(server)
        try:
            assert wait_for(lambda: staller_connection(server) is not None)
            victim = staller_connection(server)
            victim.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   4096)
            assert wait_for(lambda: victim.stalled_for(
                time.monotonic()) > 0, timeout=30)
            stall_seen = time.monotonic()
            assert wait_for(lambda: victim.evicted, timeout=30)
            elapsed = time.monotonic() - stall_seen
            # Deadline plus generous sweep/scheduling slack.
            assert elapsed < STALL_DEADLINE * 10
        finally:
            sock.close()


class TestStallDeadlineOnManualClock:
    def test_stalled_client_evicted_only_past_the_deadline(self):
        clock = ManualClock()
        server = AudioServer(HardwareConfig(), ServerConfig(
            outbound_bound=BOUND, stall_deadline=STALL_DEADLINE),
            clock=clock)
        server.start(start_hub=False)
        sock = start_stalled_flood(server)
        try:
            # The setup reply is sent after the client is registered.
            victim = staller_connection(server)
            victim.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                   4096)
            # Blocks of sync events fill both socket buffers: sheds
            # start, and a further 50 blocks leave no room for a write
            # to finish.  The clock stands still meanwhile.
            for _block in range(20000):
                if victim.dropped_events:
                    break
                server.hub.step(1)
            server.hub.step(50)
            assert victim.dropped_events > 0
            stuck_at = clock.time
            assert victim.stalled_for(stuck_at + 1.0) == 1.0

            clock.time = stuck_at + STALL_DEADLINE
            server.hub.step(1)
            assert not victim.evicted
            # The sweep runs at most every quarter second.
            clock.advance(0.25)
            server.hub.step(1)
            assert victim.evicted
            assert server.metrics.counter(
                "clients.evicted_slow").value == 1
        finally:
            sock.close()
            server.stop()
