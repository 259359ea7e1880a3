"""E8/E14 -- dispatch rate and the 16-LOUD block cycle.

E8 measures the dispatch layer's pipelined request rate.  E14 records
the serial block cycle's throughput at 16 playing LOUDs, the render
path's headline number.
"""

import time

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.bench import record_perf, scaled
from repro.chaos.fixtures import raw_setup
from repro.hardware import HardwareConfig
from repro.protocol.requests import GetTime
from repro.protocol.types import DeviceClass
from repro.protocol.wire import Message, MessageKind, MessageStream
from repro.server import AudioServer

RATE = 8000
BLOCK = 160


@pytest.fixture
def server_rig():
    server = AudioServer(HardwareConfig())
    server.start()
    sock = raw_setup(server.port, client_name="pipeline-bench")
    yield server, sock
    sock.close()
    server.stop()


def _build_louds(client, loud_count):
    """``loud_count`` playback LOUDs, each playing its own long tone."""
    for index in range(loud_count):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        tone = (np.sin(np.arange(RATE * 10) * (0.01 + 0.003 * index))
                * 9000).astype(np.int16)
        sound = client.sound_from_samples(tone)
        player.play(sound)
        loud.map()
        loud.start_queue()


def test_block_cycle_16_louds(report):
    """E14: serial block-cycle throughput with 16 LOUDs playing."""
    blocks = scaled(400, 40)
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)   # manual stepping: measured time only
    client = AudioClient(port=server.port, client_name="scaling")
    try:
        _build_louds(client, 16)
        client.sync()
        server.hub.step(10)         # warm caches and the render plan
        started = time.perf_counter()
        server.hub.step(blocks)
        elapsed = time.perf_counter() - started
        capture = server.hub.speakers[0].capture.samples()
    finally:
        client.close()
        server.stop()
    assert np.any(capture), "16 playing LOUDs rendered silence"
    rate = blocks / elapsed
    record_perf("block_cycle.serial.16louds", rate, louds=16)
    report.row("E14", "block cycle 16 LOUDs, serial",
               "%.0f blk/s (%.0f us/block)" % (rate, 1e6 / rate))


def test_pipelined_dispatch_throughput(server_rig, report):
    """Requests/second with the reader draining pipelined batches."""
    server, sock = server_rig
    count = scaled(4000, 400)
    blob = b"".join(
        Message(MessageKind.REQUEST, int(GetTime.OPCODE), index + 1,
                GetTime().encode()).encode()
        for index in range(count))
    stream = MessageStream(sock)
    sock.settimeout(60.0)
    started = time.perf_counter()
    sock.sendall(blob)
    for _ in range(count):
        stream.read_message()
    elapsed = time.perf_counter() - started
    rate = count / elapsed
    histogram = server.stats_snapshot()["histograms"]["dispatch.batch_size"]
    mean_batch = histogram["sum"] / max(histogram["count"], 1)
    record_perf("dispatch.pipelined_get_time", rate,
                mean_batch=round(mean_batch, 2))
    report.row("E8", "pipelined GET_TIME round trips",
               "%.0f req/s (batch mean %.1f)" % (rate, mean_batch),
               "batched reads amortize the lock")
    assert rate > 0
