"""E9 -- synchronization primitive accuracy (paper section 5.5).

"The CoBegin command causes all of the commands up to the bounding
CoEnd command to be started simultaneously."  "The Delay command waits
some interval time before processing."

Measured, in samples, from the captured speaker output: the start skew
between two CoBegin'd plays (must be 0) and the error of a Delay
interval (must be 0 at block-divisible intervals, bounded by rounding
otherwise)."""

import numpy as np
import pytest

from repro.bench.harness import find_signal
from repro.protocol.types import DeviceClass, EventMask, PCM16_8K
from testkit.rig import make_rig, wait_queue_empty

RATE = 8000


def build_two_players(client):
    loud = client.create_loud()
    player_a = loud.create_device(DeviceClass.PLAYER)
    player_b = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player_a, 0, output, 0)
    loud.wire(player_b, 0, output, 0)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    return loud, player_a, player_b


def test_cobegin_start_skew(benchmark, report):
    rig = make_rig()
    try:
        def run() -> int:
            client = rig.client
            loud, player_a, player_b = build_two_players(client)
            # Distinct constants: their sum marks simultaneity exactly.
            a = np.full(1000, 1000, dtype=np.int16)
            b = np.full(1000, 300, dtype=np.int16)
            loud.co_begin()
            player_a.play(client.sound_from_samples(a, PCM16_8K))
            player_b.play(client.sound_from_samples(b, PCM16_8K))
            loud.co_end()
            loud.start_queue()
            wait_queue_empty(client, loud)
            output = rig.server.hub.speakers[0].capture.samples()
            # Perfect overlap: 1000 samples of 1300, no 1000-only or
            # 300-only prefix/suffix.
            skew = len(output[(output == 1000) | (output == 300)])
            loud.unmap()
            return skew

        skew = benchmark.pedantic(run, rounds=3, iterations=1)
        report.row("E9", "CoBegin start skew, two players",
                   "%d samples" % skew, "0 samples (simultaneous)")
        assert skew == 0
    finally:
        rig.close()


@pytest.mark.parametrize("delay_ms", [100, 250, 1000])
def test_delay_interval_accuracy(benchmark, report, delay_ms):
    rig = make_rig()
    try:
        def run() -> int:
            client = rig.client
            loud, player_a, player_b = build_two_players(client)
            a = np.full(RATE * 2, 1000, dtype=np.int16)  # 2 s bed
            b = np.full(800, 200, dtype=np.int16)
            loud.co_begin()
            player_a.play(client.sound_from_samples(a, PCM16_8K))
            loud.delay(delay_ms)
            player_b.play(client.sound_from_samples(b, PCM16_8K))
            loud.delay_end()
            loud.co_end()
            loud.start_queue()
            wait_queue_empty(client, loud)
            output = rig.server.hub.speakers[0].capture.samples()
            bed_start = find_signal(
                output, np.full(64, 1000, dtype=np.int16))
            overlap_start = find_signal(
                output, np.full(64, 1200, dtype=np.int16))
            loud.unmap()
            assert bed_start is not None and overlap_start is not None
            expected = delay_ms * RATE // 1000
            return abs((overlap_start - bed_start) - expected)

        error = benchmark.pedantic(run, rounds=3, iterations=1)
        report.row("E9", "Delay(%d ms) interval error" % delay_ms,
                   "%d samples" % error, "0 samples")
        assert error == 0
    finally:
        rig.close()
