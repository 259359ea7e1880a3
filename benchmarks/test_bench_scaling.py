"""E8/E14 -- dispatch rate and multicore block cycle.

E8 measures the dispatch layer's pipelined request rate.  E14 measures
multicore rendering with the process-sharded backend
(``render_proc.py``): serial vs procs block-cycle throughput at 16 LOUDs
with byte-identity asserted on every host.  The >= 2x speedup gate arms
only where there are cores to scale onto (``os.cpu_count() >= 4``) --
on a single-core runner the procs path still runs and the equivalence
assertions always hold.
"""

import os
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


def _tick_run(render_workers, loud_count, blocks, backend):
    """Step ``blocks`` ticks; return (blocks/sec, capture, snapshot)."""
    server = AudioServer(HardwareConfig(), render_workers=render_workers,
                         render_min_rows=2, render_backend=backend)
    server.start(start_hub=False)   # manual stepping: measured time only
    client = AudioClient(port=server.port, client_name="scaling")
    try:
        if backend == "procs":
            # The first measured tick must already be parallel.
            server.render_pool.wait_ready(30.0)
        _build_louds(client, loud_count)
        client.sync()
        server.hub.step(10)         # warm caches and the render plan
        started = time.perf_counter()
        server.hub.step(blocks)
        elapsed = time.perf_counter() - started
        capture = server.hub.speakers[0].capture.samples().copy()
        return blocks / elapsed, capture, server.stats_snapshot()
    finally:
        client.close()
        server.stop()


def test_process_backend_scaling(report):
    """E14: serial oracle vs process-sharded backend at 16 LOUDs.

    Byte-identity is asserted on every host, including single-core CI
    (workers forced >= 2 so the procs path genuinely renders in worker
    processes); the >= 2x throughput gate arms on >= 4 cores.
    """
    blocks = scaled(400, 40)
    cpus = os.cpu_count() or 1
    fast = bool(os.environ.get("REPRO_BENCH_FAST"))
    workers = max(2, min(cpus, 8))
    serial_rate, serial_capture, _ = _tick_run(
        0, 16, blocks, backend="serial")
    procs_rate, procs_capture, snapshot = _tick_run(
        workers, 16, blocks, backend="procs")
    assert np.array_equal(serial_capture, procs_capture), (
        "process render backend diverged from the serial oracle")
    counters = snapshot["counters"]
    assert counters["renderproc.parallel_ticks"] > 0
    assert counters["renderproc.rows"] > 0
    speedup = procs_rate / serial_rate
    record_perf("block_cycle.serial.16louds.oracle", serial_rate, louds=16)
    record_perf("block_cycle.procs.16louds", procs_rate, louds=16,
                speedup=round(speedup, 2), cpus=cpus, fast=fast,
                workers=workers,
                ipc_us_count=snapshot["histograms"]
                .get("renderproc.ipc_us", {}).get("count", 0))
    report.row("E14", "block cycle 16 LOUDs, %d proc workers" % workers,
               "%.0f blk/s (%.2fx serial)" % (procs_rate, speedup),
               ">= 2x vs serial on >= 4 cores")
    if cpus >= 4 and not fast:
        assert speedup >= 2.0, (
            "16-LOUD procs speedup %.2fx below 2x on a %d-core machine"
            % (speedup, cpus))
    else:
        report.note("E14  | speedup gate skipped (cpus=%d, fast=%s)"
                    % (cpus, fast))


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
