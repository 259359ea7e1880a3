"""The selector I/O shards against golden wire transcripts.

The server's connection layer (src/repro/server/ioloop.py) is a pool of
selector loops.  It replaced per-client reader/writer thread pumps, and
everything a client can observe must be what those pumps produced:
tests/golden/ holds the complete per-client wire transcripts (replies,
errors, event order, sequence numbers, payload bytes, hex-encoded) the
thread pumps recorded for two seeded workloads, and the shards must
reproduce them byte for byte.  The remaining tests cover shard
bookkeeping, coalesced writes under short sends, server-initiated
closes, thread counts and the chaos-tier story (jittery links, resets,
session resume).

Determinism recipe: the hub is stepped manually (``start_hub=False``),
every asynchronous request is followed by a sync round-trip before the
next hub step, and all randomness comes from one seeded RNG.
"""

import json
import pathlib
import random
import socket
import struct
import sys
import threading
import time
from types import SimpleNamespace

from repro.alib import AudioClient
from repro.hardware import HardwareConfig
from repro.obs import MetricsRegistry
from repro.protocol import requests as rq
from repro.protocol.attributes import AttributeList
from repro.protocol.setup import SetupReply, SetupRequest
from repro.protocol.types import (
    Command,
    DeviceClass,
    EventMask,
    PCM16_8K,
    QueueOp,
    StackPosition,
)
from repro.protocol.wire import (
    Message,
    MessageKind,
    MessageStream,
    set_nodelay,
)
from repro.server import AudioServer, ServerConfig, ioloop
from repro.server.clients import ClientConnection
from testkit.chaos.proxy import ChaosProxy
from testkit.chaos.schedule import FaultSchedule
from testkit.loadgen import run_load

from conftest import wait_for
from manual_clock import ManualClock

GOLDEN = pathlib.Path(__file__).parent / "golden"


class WireClient:
    """A blocking raw-protocol client that records its whole inbound
    stream in order -- the equivalence transcript."""

    def __init__(self, port: int, name: str) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        set_nodelay(self.sock)
        self.sock.sendall(SetupRequest(client_name=name).encode())
        reply = SetupReply.read_from(self.sock)
        assert reply.accepted
        self.id_base = reply.id_base
        self._next_id = reply.id_base
        self.stream = MessageStream(self.sock)
        self.sequence = 0
        #: Every inbound message as (kind, code, sequence, payload).
        self.transcript: list[tuple] = []

    def alloc(self) -> int:
        allocated = self._next_id
        self._next_id += 1
        return allocated

    def send(self, request: rq.Request) -> int:
        self.sequence = (self.sequence + 1) & 0xFFFF
        self.sock.sendall(Message(MessageKind.REQUEST, int(request.OPCODE),
                                  self.sequence, request.encode()).encode())
        return self.sequence

    def round_trip(self, request: rq.Request) -> Message:
        """Send and read (recording everything) until the reply lands."""
        want = self.send(request)
        while True:
            message = self.stream.read_message()
            self.transcript.append((int(message.kind), message.code,
                                    message.sequence, message.payload))
            if (message.kind in (MessageKind.REPLY, MessageKind.ERROR)
                    and message.sequence == want):
                return message

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _build_session(client: WireClient) -> dict:
    """A playback LOUD with QUEUE+LOUD events and a one-block sound."""
    ids = {"loud": client.alloc(), "player": client.alloc(),
           "output": client.alloc(), "wire": client.alloc(),
           "sound": client.alloc()}
    samples = bytes(range(256)) * 10        # 1280 bytes = 640 pcm frames
    for request in (
            rq.CreateLoud(ids["loud"]),
            rq.CreateVirtualDevice(ids["player"], ids["loud"],
                                   DeviceClass.PLAYER),
            rq.CreateVirtualDevice(ids["output"], ids["loud"],
                                   DeviceClass.OUTPUT),
            rq.CreateWire(ids["wire"], ids["player"], 0, ids["output"], 0),
            rq.SelectEvents(ids["loud"],
                            EventMask.QUEUE | EventMask.LIFECYCLE),
            rq.MapLoud(ids["loud"]),
            rq.CreateSound(ids["sound"], PCM16_8K),
            rq.WriteSoundData(ids["sound"], 0, samples),
            rq.ControlQueue(ids["loud"], QueueOp.START)):
        client.send(request)
    client.round_trip(rq.GetTime())     # barrier: all of it dispatched
    return ids


def run_workload(seed: int = 1234, clients: int = 3,
                 rounds: int = 60) -> list[list[tuple]]:
    """The seeded workload's complete per-client transcripts."""
    # Command serials are allocated from a process-global counter
    # (qprogram._serials); pin it so COMMAND_DONE events carry the
    # golden serials and transcripts compare byte-for-byte.
    import itertools

    from repro.server import qprogram
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    wire_clients = []
    try:
        rng = random.Random(seed)
        wire_clients = [WireClient(server.port, "eq-%d" % index)
                        for index in range(clients)]
        sessions = [_build_session(client) for client in wire_clients]
        for _round in range(rounds):
            index = rng.randrange(clients)
            client, ids = wire_clients[index], sessions[index]
            action = rng.random()
            if action < 0.2:
                client.send(rq.IssueCommand(
                    ids["loud"], ids["player"], Command.PLAY,
                    args=AttributeList.of(sound=ids["sound"])))
                client.round_trip(rq.GetTime())
            elif action < 0.4:
                client.round_trip(rq.QueryLoud(ids["loud"]))
            elif action < 0.55:
                client.round_trip(rq.QueryQueue(ids["loud"]))
            elif action < 0.7:
                client.round_trip(rq.QueryServer())
            elif action < 0.85:
                position = (StackPosition.TOP if rng.random() < 0.5
                            else StackPosition.BOTTOM)
                client.send(rq.RestackLoud(ids["loud"], position))
                client.round_trip(rq.GetTime())
            else:
                server.hub.step(rng.randint(1, 3))
        server.hub.step(5)
        # Final barrier per client so every queued event is transcribed.
        for client in wire_clients:
            client.round_trip(rq.GetTime())
        return [client.transcript for client in wire_clients]
    finally:
        for client in wire_clients:
            client.close()
        server.stop()


def golden_workload(seed: int) -> tuple[dict, list[list[tuple]]]:
    """A golden file's workload parameters and its transcripts."""
    with open(GOLDEN / ("ioloop_seed%d.json" % seed)) as handle:
        golden = json.load(handle)
    transcripts = [[(kind, code, sequence, bytes.fromhex(payload))
                    for kind, code, sequence, payload in transcript]
                   for transcript in golden.pop("transcripts")]
    return golden, transcripts


class TestBackendEquivalence:
    def test_identical_transcripts(self):
        """Same replies, errors, event order and payload bytes."""
        workload, golden = golden_workload(1234)
        assert sum(map(len, golden)) == 72
        assert run_workload(**workload) == golden

    def test_identical_transcripts_second_seed(self):
        workload, golden = golden_workload(99)
        assert sum(map(len, golden)) == 57
        assert run_workload(**workload) == golden

    def test_errors_reach_the_client(self):
        """A bad request produces a visible error."""
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        try:
            client = WireClient(server.port, "errs")
            message = client.round_trip(rq.QueryLoud(999999))
            assert message.kind is MessageKind.ERROR
            client.close()
        finally:
            server.stop()


class TestShardBookkeeping:
    def test_clients_balance_across_shards(self):
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        clients = []
        try:
            clients = [WireClient(server.port, "bal-%d" % index)
                       for index in range(9)]
            for client in clients:
                client.round_trip(rq.GetTime())
            counts = server.ioloop.client_counts()
            assert sum(counts) == 9
            assert max(counts) - min(counts) <= 1
            gauges = server.metrics.snapshot()["gauges"]
            assert gauges["ioloop.shards"] == len(server.ioloop.shards)
            assert gauges["ioloop.clients"] == 9
        finally:
            for client in clients:
                client.close()
            server.stop()

    def test_disconnects_release_shard_slots(self):
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        try:
            clients = [WireClient(server.port, "rel-%d" % index)
                       for index in range(6)]
            for client in clients:
                client.round_trip(rq.GetTime())
            for client in clients:
                client.close()
            assert wait_for(
                lambda: sum(server.ioloop.client_counts()) == 0)
            assert wait_for(lambda: not server.clients_snapshot())
        finally:
            server.stop()


class ShortSendSocket:
    """A non-blocking socket stand-in that takes 1-7 bytes per send and
    refuses every third call outright (EAGAIN), recording the stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.received = bytearray()
        self.sends = 0
        self.calls = 0

    def send(self, data) -> int:
        self.calls += 1
        if self.calls % 3 == 0:
            raise BlockingIOError
        taken = min(len(data), self.rng.randint(1, 7))
        self.received += bytes(data[:taken])
        self.sends += 1
        return taken


class AcceptAllSocket:
    """A socket stand-in whose every send takes the whole buffer."""

    def __init__(self) -> None:
        self.received = bytearray()
        self.sends = 0

    def send(self, data) -> int:
        self.received += bytes(data)
        self.sends += 1
        return len(data)


def _detached_shard_client(sock):
    """An I/O shard and one connection on ``sock``, no loop thread."""
    server = SimpleNamespace(metrics=MetricsRegistry(),
                             settings=ServerConfig(outbound_bound=1024),
                             now=ManualClock())
    pool = ioloop.IOShardPool(server)
    client = ClientConnection(server, sock, "short", 0x100000)
    return pool, pool.shards[0], client, ioloop._ShardClient(client)


def _queue_messages(client, count: int) -> bytes:
    """Queue ``count`` mixed replies and events; the expected stream."""
    rng = random.Random(count)
    expected = bytearray()
    for index in range(count):
        payload = bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 40)))
        kind = MessageKind.REPLY if index % 4 == 0 else MessageKind.EVENT
        message = Message(kind, index % 200, index & 0xFFFF, payload)
        client._outbound.put(message, droppable=kind is MessageKind.EVENT)
        expected += message.encode()
    return bytes(expected)


class TestCoalescedWrites:
    def test_short_sends_deliver_the_concatenated_encodings(self):
        sock = ShortSendSocket(seed=7)
        pool, shard, client, state = _detached_shard_client(sock)
        try:
            expected = _queue_messages(client, 150)
            flushes = 0
            while len(client._outbound) or state.out_view is not None:
                shard._flush(state)
                flushes += 1
                assert flushes < 100_000, "flush made no progress"
            assert bytes(sock.received) == expected
            assert client.messages_sent == 150
            assert client.bytes_out == len(expected)
            counters = pool.server.metrics.snapshot()["counters"]
            assert counters["net.messages_out"] == 150
            assert counters["net.bytes_out"] == len(expected)
            assert counters["ioloop.writes"] == 150
            assert counters["ioloop.sends"] == sock.sends
            assert client._writing_since is None
        finally:
            pool.shutdown()

    def test_one_send_per_flushed_batch(self):
        sock = AcceptAllSocket()
        pool, shard, client, state = _detached_shard_client(sock)
        try:
            batch = ioloop.MAX_FLUSH_BATCH
            expected = _queue_messages(client, batch + 10)
            shard._flush(state)
            assert sock.sends == 1
            assert client.messages_sent == batch
            shard._flush(state)
            assert sock.sends == 2
            assert client.messages_sent == batch + 10
            assert bytes(sock.received) == expected
            counters = pool.server.metrics.snapshot()["counters"]
            assert counters["ioloop.sends"] == 2
            assert counters["net.messages_out"] == batch + 10
        finally:
            pool.shutdown()


class TestWriteThrough:
    """A queue half full of messages from another thread is sent by that
    thread; whatever would block is left for the shard."""

    def test_half_full_queue_is_written_through(self):
        sock = AcceptAllSocket()
        pool, shard, client, state = _detached_shard_client(sock)
        try:
            client._outbound.on_ready = shard._make_ready_hook(state)
            half = client._outbound.bound // 2
            expected = _queue_messages(client, half - 1)
            assert sock.sends == 0      # below half full: the shard's job
            expected += _queue_messages(client, 1)
            assert bytes(sock.received) == expected
            assert len(client._outbound) == 0
            assert client.messages_sent == half
        finally:
            pool.shutdown()

    def test_blocked_write_through_leaves_the_rest_to_the_shard(self):
        sock = ShortSendSocket(seed=3)
        pool, shard, client, state = _detached_shard_client(sock)
        try:
            client._outbound.on_ready = shard._make_ready_hook(state)
            expected = _queue_messages(client, client._outbound.bound // 2)
            assert 0 < len(sock.received) < len(expected)
            while len(client._outbound) or state.out_view is not None:
                shard._flush(state)
            assert bytes(sock.received) == expected
        finally:
            pool.shutdown()


    def test_concurrent_producers_and_shard_keep_the_stream_whole(self):
        """Producer threads writing through while the shard flushes, with
        a tiny switch interval: every message arrives intact, in each
        producer's order -- interleaved or lost bytes would break it."""
        producers, count = 4, 3000
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        client = WireClient(server.port, "stress")
        interval = sys.getswitchinterval()
        threads = []
        try:
            client.round_trip(rq.GetTime())
            conn = server.clients_snapshot()[0]
            client.sock.settimeout(20)

            def produce(producer: int) -> None:
                for index in range(count):
                    conn._outbound.put(Message(
                        MessageKind.REPLY, producer, index & 0xFFFF,
                        struct.pack("<II", producer, index)),
                        droppable=False)

            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=produce, args=(producer,))
                       for producer in range(producers)]
            for thread in threads:
                thread.start()
            seen = [0] * producers
            for _ in range(producers * count):
                message = client.stream.read_message()
                producer, index = struct.unpack("<II", message.payload)
                assert message.code == producer
                assert index == seen[producer]
                seen[producer] += 1
            assert seen == [count] * producers
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
            client.close()
            server.stop()
        assert not any(thread.is_alive() for thread in threads)


class TestExternallyInitiatedClose:
    def test_server_side_close_reaches_the_peer(self):
        """A close the server initiates (stall eviction, admin stop)
        must actually shut the socket: the peer observes FIN/RST
        instead of a connection it believes is still live, and no fd
        is left open server-side."""
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        client = None
        try:
            client = WireClient(server.port, "peer-eof")
            client.round_trip(rq.GetTime())
            victim = next(c for c in server.clients_snapshot()
                          if c.name == "peer-eof")
            victim.close()       # the stall sweep's eviction path
            client.sock.settimeout(10.0)
            observed_close = False
            try:
                while client.sock.recv(4096):
                    pass
                observed_close = True           # clean FIN
            except ConnectionResetError:
                observed_close = True           # RST: also a close
            except TimeoutError:
                pass                            # the leak: still "live"
            assert observed_close, (
                "peer never saw FIN/RST after server-side close")
            assert wait_for(lambda: not server.clients_snapshot())
            assert victim.sock.fileno() == -1   # fd actually released
        finally:
            if client is not None:
                client.close()
            server.stop()


class TestThreadCount:
    def test_no_per_client_threads_and_shards_joined_on_stop(self):
        """Twenty clients cost no thread of their own, and stop()
        leaves no shard thread behind."""
        def shard_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name.startswith("io-shard-")}

        before = shard_threads()
        server = AudioServer(HardwareConfig())
        server.start(start_hub=False)
        clients = []
        try:
            clients = [WireClient(server.port, "count-%d" % index)
                       for index in range(20)]
            for client in clients:
                client.round_trip(rq.GetTime())
            assert sum(server.ioloop.client_counts()) == 20
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names
                        if name.startswith(("client-reader-",
                                            "client-writer-"))]
            assert len(shard_threads() - before) == len(server.ioloop.shards)
        finally:
            for client in clients:
                client.close()
            server.stop()
        assert not shard_threads() - before


class TestChaosUnderShards:
    """The chaos-tier soak: jittery, resetting links under shards."""

    def _shard_server(self) -> AudioServer:
        server = AudioServer(HardwareConfig(), ServerConfig(realtime=True))
        server.start()
        return server

    def test_clean_clients_unaffected_by_chaotic_load(self):
        """Load through a jittery, resetting proxy; a direct client
        sees zero errors the whole time."""
        server = self._shard_server()
        proxy = ChaosProxy(("127.0.0.1", server.port),
                           schedule=FaultSchedule(seed=5, latency=0.001,
                                                  jitter=0.003)).start()
        clean = AudioClient(port=server.port, client_name="clean-chaos")
        clean_errors = []
        stop = threading.Event()

        def clean_loop():
            while not stop.is_set():
                try:
                    clean.conn.round_trip(rq.GetTime())
                except Exception as exc:    # noqa: BLE001 - recorded
                    clean_errors.append(exc)
                    return
                time.sleep(0.01)

        pounder = threading.Thread(target=clean_loop, daemon=True)
        severs = threading.Thread(
            target=lambda: (time.sleep(0.8), proxy.sever_all(),
                            time.sleep(0.8), proxy.sever_all()),
            daemon=True)
        try:
            pounder.start()
            severs.start()
            stats = run_load("127.0.0.1", proxy.port, sessions=25,
                             duration=2.5, seed=21, churn_fraction=0.05)
            severs.join(timeout=10)
            stop.set()
            pounder.join(timeout=10)
            # The chaotic cohort took real faults (severed mid-run)...
            assert stats.connects > 0
            # ...but faults never became protocol corruption, and the
            # direct client rode through untouched.
            assert stats.protocol_errors == 0
            assert not clean_errors
            clean.sync()
        finally:
            stop.set()
            clean.close()
            proxy.stop()
            server.stop()

    def test_reconnect_and_resume_under_shards(self):
        """A reconnect=True session severed mid-life resumes its id
        range and its journal, with shards owning every socket."""
        server = self._shard_server()
        proxy = ChaosProxy(("127.0.0.1", server.port)).start()
        client = AudioClient(port=proxy.port, client_name="resume",
                             reconnect=True, request_timeout=5.0)
        try:
            loud = client.create_loud()
            loud.select_events(EventMask.QUEUE)
            loud.map()
            client.sync()
            id_base = client.conn.id_base
            before = client.conn.reconnects
            proxy.sever_all()
            assert wait_for(lambda: client.conn.reconnects > before,
                            timeout=30)
            assert client.conn.id_base == id_base
            # The replayed session still owns its resources.
            reply = loud.query()
            assert reply.mapped
            client.sync()
        finally:
            client.close()
            proxy.stop()
            server.stop()
