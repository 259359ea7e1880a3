"""E1 -- playback start latency (paper section 6 goal).

"We would like to be able to start playback of a sound, using an
existing server connection, in less than several hundred milliseconds."

Measured: wall-clock time from issuing Play + StartQueue on an existing
connection to the first nonzero sample reaching the (real-time paced)
speaker.  Also swept across hub block sizes, the latency/overhead
trade-off DESIGN.md section 7 calls out.  A Play waits for the next
block boundary, so the rounds issue their Plays at phases spread evenly
across one block period: their mean is the path's mean, not the reading
at one fixed phase.
"""

import time

import numpy as np
import pytest

from repro.dsp import tones
from repro.protocol.types import PCM16_8K
from testkit.rig import build_playback_loud, make_rig

RATE = 8000
ROUNDS = 5
#: Arrival phases, as fractions of a block period, spread evenly.
PHASES = [index / ROUNDS for index in range(ROUNDS)]


def measure_start_latency(rig, phase: float) -> float:
    """One Play on an existing connection, issued ``phase`` of a block
    period after a block boundary; seconds to first sample.  The LOUD
    is destroyed afterwards, so the next round starts from silence."""
    loud, player, _output = build_playback_loud(rig.client)
    hub = rig.server.hub
    capture = hub.speakers[0].capture
    tone = tones.sine(440.0, 0.5, RATE)
    sound = rig.client.sound_from_samples(tone, PCM16_8K)
    rig.client.sync()
    boundary = hub.sample_time
    while hub.sample_time == boundary:
        time.sleep(0.0002)
    time.sleep(phase * hub.block_frames / hub.sample_rate)
    capture.clear()
    started = time.monotonic()
    player.play(sound)
    loud.start_queue()
    try:
        while True:
            if np.any(capture.samples()):
                return time.monotonic() - started
            if time.monotonic() - started > 10.0:
                raise TimeoutError("no audio within 10 s")
            time.sleep(0.0005)
    finally:
        loud.destroy()


@pytest.mark.parametrize("block_frames", [80, 160, 320])
def test_playback_start_latency(benchmark, report, block_frames):
    rig = make_rig(block_frames=block_frames, realtime=True)
    latencies = []

    def one_round():
        phase = PHASES[len(latencies)]
        latencies.append(measure_start_latency(rig, phase))

    try:
        benchmark.pedantic(one_round, rounds=ROUNDS, iterations=1)
        # The mean of the measured latencies, one Play at each phase
        # (the benchmark's own timing also covers each round's set-up).
        mean_ms = 1000.0 * sum(latencies) / len(latencies)
        report.row("E1",
                   "play start latency, %d-frame (%.0f ms) blocks"
                   % (block_frames, 1000.0 * block_frames / RATE),
                   "%.1f ms" % mean_ms,
                   "< 'several hundred ms'")
        assert mean_ms < 300.0, "latency goal missed: %.1f ms" % mean_ms
    finally:
        rig.close()


def test_round_trip_latency_beats_delayed_ack(mean_seconds, report):
    """With TCP_NODELAY set on both ends, a request/reply pair must not
    wait out Nagle against the peer's delayed ACK: the mean round trip
    has to come in far below the classic ~40 ms delayed-ACK timer."""
    rig = make_rig()
    try:
        from repro.protocol.requests import GetTime

        rig.client.sync()
        _, mean = mean_seconds(
            lambda: rig.client.conn.round_trip(GetTime()))
        mean_ms = mean * 1000.0
        report.row("E1", "request/reply round trip (TCP_NODELAY)",
                   "%.3f ms" % mean_ms, "<< 40 ms delayed-ACK timer")
        assert mean_ms < 20.0, \
            "round trip %.1f ms suggests Nagle/delayed-ACK stall" % mean_ms
    finally:
        rig.close()


def test_latency_dominated_by_block_size(benchmark, report):
    """The ablation claim: latency tracks the block period, not the
    protocol -- smaller blocks, faster starts."""
    means = {}

    def run_comparison():
        for block_frames in (80, 320):
            rig = make_rig(block_frames=block_frames, realtime=True)
            try:
                samples = [measure_start_latency(rig, phase)
                           for phase in PHASES]
                means[block_frames] = sum(samples) / len(samples)
            finally:
                rig.close()

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report.row("E1", "latency ratio 320- vs 80-frame blocks",
               "%.2fx" % (means[320] / means[80]),
               "> 1 (block size is the lever)")
    assert means[320] > means[80]
