"""Benchmark harness: server/client rigs and measurement helpers.

Each experiment in EXPERIMENTS.md builds on these pieces: a one-call
server+client rig, playback-LOUD builders, CPU and wall-clock meters,
and capture analysis (gap counting, signal location).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..alib.api import AudioClient, DeviceHandle, LoudHandle
from ..hardware.config import HardwareConfig
from ..protocol.types import DeviceClass, EventCode, EventMask
from ..server.config import ServerConfig
from ..server.core import AudioServer

#: CI smoke mode: REPRO_BENCH_FAST=1 shrinks iteration counts and
#: durations so the whole benchmark suite finishes in seconds.
FAST = os.environ.get("REPRO_BENCH_FAST", "") == "1"


def scaled(normal, fast):
    """Pick the full-size or smoke-size value of a bench parameter."""
    return fast if FAST else normal


#: Server stats snapshots captured by every Rig at close, labelled with
#: :data:`CURRENT_LABEL`; the benchmark conftest folds these into the
#: emitted BENCH_STATS.json.
SESSION_STATS: list[dict] = []

#: Set by the benchmark conftest to the running test's node id so rig
#: snapshots can be attributed to their experiment.
CURRENT_LABEL: str | None = None

#: Machine-readable throughput results (name -> record with at least
#: ``ops_per_sec``), filled by the perf benchmarks and written to
#: BENCH_PERF.json by the benchmark conftest so CI can diff speedups
#: across commits.
PERF_RESULTS: dict[str, dict] = {}

#: Per-file result sinks: filename -> {name -> record}.  Each non-empty
#: sink is written as its own JSON file at session end, so a subsystem
#: bench (e.g. the trunk soak's BENCH_TRUNK.json) gets a stable artifact
#: CI can diff without mixing it into the main perf table.
RESULT_SINKS: dict[str, dict[str, dict]] = {"BENCH_PERF.json": PERF_RESULTS}


def record_perf(name: str, ops_per_sec: float,
                sink: str = "BENCH_PERF.json", **extra) -> None:
    """Register one throughput measurement for a result file.

    The default sink is BENCH_PERF.json; passing ``sink`` routes the
    record to another session artifact instead.
    """
    record = {"ops_per_sec": round(float(ops_per_sec), 3)}
    record.update(extra)
    RESULT_SINKS.setdefault(sink, {})[name] = record


@dataclass
class Rig:
    """A running server plus one connected client."""

    server: AudioServer
    client: AudioClient
    extra_clients: list[AudioClient] = field(default_factory=list)

    def new_client(self, name: str = "bench") -> AudioClient:
        client = AudioClient(port=self.server.port, client_name=name)
        self.extra_clients.append(client)
        return client

    def stats_snapshot(self) -> dict:
        """The server-side metrics snapshot for this rig, right now."""
        return self.server.stats_snapshot()

    def close(self) -> None:
        try:
            snapshot = self.server.stats_snapshot()
            snapshot["label"] = CURRENT_LABEL
            SESSION_STATS.append(snapshot)
        except Exception:
            pass    # stats collection must never fail a benchmark
        for client in self.extra_clients:
            client.close()
        self.client.close()
        self.server.stop()

    def __enter__(self) -> "Rig":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_rig(sample_rate: int = 8000, block_frames: int = 160,
             realtime: bool = False, metrics=None) -> Rig:
    config = HardwareConfig(sample_rate=sample_rate,
                            block_frames=block_frames)
    server = AudioServer(config, ServerConfig(realtime=realtime),
                         metrics=metrics)
    server.start()
    client = AudioClient(port=server.port, client_name="bench")
    return Rig(server, client)


def build_playback_loud(client: AudioClient,
                        select: EventMask = EventMask.QUEUE
                        ) -> tuple[LoudHandle, DeviceHandle, DeviceHandle]:
    """player -> output, mapped, queue events selected."""
    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(select)
    loud.map()
    return loud, player, output


def wait_queue_empty(client: AudioClient, loud: LoudHandle,
                     timeout: float = 120.0) -> None:
    event = client.wait_for_event(
        lambda e: (e.code is EventCode.QUEUE_EMPTY
                   and e.resource == loud.loud_id), timeout=timeout)
    if event is None:
        raise TimeoutError("queue did not drain within %.0fs" % timeout)


def find_signal(buffer: np.ndarray, reference: np.ndarray) -> int | None:
    """Locate an exact copy of ``reference`` inside ``buffer``."""
    if len(reference) == 0 or len(buffer) < len(reference):
        return None
    nonzero = np.nonzero(reference)[0]
    if len(nonzero) == 0:
        return None
    anchor = int(nonzero[0])
    candidates = np.nonzero(buffer == reference[anchor])[0]
    for start in candidates:
        begin = int(start) - anchor
        if begin < 0 or begin + len(reference) > len(buffer):
            continue
        if np.array_equal(buffer[begin:begin + len(reference)], reference):
            return begin
    return None


def count_gap_samples(buffer: np.ndarray, pieces: list[np.ndarray]) -> int:
    """Samples dropped or inserted between consecutive pieces.

    Locates each piece in the output and sums the distance between each
    piece's end and the next piece's start (0 = perfectly gapless).
    Returns -1 if any piece is missing entirely.
    """
    positions = []
    for piece in pieces:
        start = find_signal(buffer, piece)
        if start is None:
            return -1
        positions.append((start, start + len(piece)))
    gaps = 0
    for (_, end), (next_start, _) in zip(positions, positions[1:]):
        gaps += abs(next_start - end)
    return gaps


class CpuMeter:
    """Process CPU time and audio time over a measured region."""

    def __init__(self, server: AudioServer) -> None:
        self.server = server
        self._cpu_start = 0.0
        self._audio_start = 0
        self._wall_start = 0.0
        self.cpu_seconds = 0.0
        self.audio_seconds = 0.0
        self.wall_seconds = 0.0

    def __enter__(self) -> "CpuMeter":
        self._cpu_start = time.process_time()
        self._wall_start = time.monotonic()
        self._audio_start = self.server.hub.clock.sample_time
        return self

    def __exit__(self, *exc_info) -> None:
        self.cpu_seconds = time.process_time() - self._cpu_start
        self.wall_seconds = time.monotonic() - self._wall_start
        audio_frames = self.server.hub.clock.sample_time - self._audio_start
        self.audio_seconds = audio_frames / self.server.hub.sample_rate

    @property
    def utilization(self) -> float:
        """CPU seconds per second of audio produced (the paper's <10%)."""
        if self.audio_seconds == 0:
            return float("inf")
        return self.cpu_seconds / self.audio_seconds
