"""E5 -- multi-client mixing at one speaker (paper section 2).

"For instance, the multiplexing of output requests from a number of
applications to a single speaker, to be heard simultaneously."

Measured: correctness of the mixed sum for simultaneous clients, and
the hub's processing cost as the number of concurrently playing clients
grows (roughly linear is the expectation)."""

import numpy as np
import pytest

from repro.protocol.types import PCM16_8K
from testkit.rig import (
    CpuMeter,
    build_playback_loud,
    make_rig,
    scaled,
    wait_queue_empty,
)
from testkit.workloads import tone_seconds

RATE = 8000


def play_n_clients(rig, client_count: int, seconds: float) -> float:
    """N clients playing simultaneously; returns CPU per audio second."""
    clients = [rig.new_client("mix-%d" % index)
               for index in range(client_count)]
    louds = []
    audio = tone_seconds(seconds, RATE)
    for client in clients:
        loud, player, _output = build_playback_loud(client)
        sound = client.sound_from_samples(audio, PCM16_8K)
        player.play(sound)
        client.sync()
        louds.append((client, loud))
    with CpuMeter(rig.server) as meter:
        for client, loud in louds:
            loud.start_queue()
        for client, loud in louds:
            wait_queue_empty(client, loud, timeout=300)
    for client, loud in louds:
        loud.unmap()
    return meter.utilization


class TestMixingCorrectness:
    def test_two_client_sum_is_exact(self, benchmark, report):
        rig = make_rig()
        try:
            def run() -> bool:
                client_a = rig.new_client("a")
                client_b = rig.new_client("b")
                loud_a, player_a, _out = build_playback_loud(client_a)
                loud_b, player_b, _out = build_playback_loud(client_b)
                tone_a = np.full(4 * RATE, 2000, dtype=np.int16)
                tone_b = np.full(4 * RATE, 333, dtype=np.int16)
                player_a.play(client_a.sound_from_samples(tone_a, PCM16_8K))
                player_b.play(client_b.sound_from_samples(tone_b, PCM16_8K))
                client_a.sync()
                client_b.sync()
                loud_a.start_queue()
                loud_b.start_queue()
                wait_queue_empty(client_a, loud_a)
                wait_queue_empty(client_b, loud_b)
                output = rig.server.hub.speakers[0].capture.samples()
                mixed = bool(np.any(output == 2333))
                loud_a.unmap()
                loud_b.unmap()
                return mixed

            mixed = benchmark.pedantic(run, rounds=1, iterations=1)
            report.row("E5", "two-client simultaneous mix (2000 + 333)",
                       "sum == 2333" if mixed else "NOT MIXED",
                       "exact integer sum at the speaker")
            assert mixed
        finally:
            rig.close()


@pytest.mark.parametrize("client_count", [1, 2, 4, 8])
def test_mixing_cost_scales(benchmark, report, client_count):
    rig = make_rig()
    try:
        utilization = benchmark.pedantic(
            lambda: play_n_clients(rig, client_count, scaled(10.0, 1.0)),
            rounds=scaled(2, 1), iterations=1)
        report.row("E5", "CPU per audio second, %d client(s) playing"
                   % client_count,
                   "%.1f%%" % (utilization * 100.0),
                   "grows roughly linearly, stays < 100%")
        assert utilization < 1.0
    finally:
        rig.close()
