"""E7 -- input event latency and sync-event regularity (paper 2, 5.7).

"Quality user interactions demand ... deliver input events to
applications with little latency."  And sync events must be regular
enough to drive graphics.

Measured: wall-clock latency from a DTMF tone appearing on the line to
the client receiving DTMF_NOTIFY (real-time pacing); sync-event period
jitter in *samples* (virtual pacing, so the measurement is exact).
"""

import time

import numpy as np

from repro.dsp.dtmf import generate_digit
from repro.protocol import events as ev
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
)
from repro.telephony import SimulatedParty
from testkit.rig import build_playback_loud, make_rig, scaled, wait_queue_empty
from testkit.workloads import tone_seconds

RATE = 8000


def test_dtmf_event_latency(benchmark, report):
    """Tone-on-the-line to client notification, against the wall clock."""
    rig = make_rig(realtime=True)
    try:
        client = rig.client
        loud = client.create_loud()
        telephone = loud.create_device(DeviceClass.TELEPHONE)
        loud.select_events(EventMask.TELEPHONE | EventMask.DTMF
                           | EventMask.QUEUE)
        loud.map()
        remote_line = rig.server.hub.exchange.add_line("5550199")
        party = SimulatedParty(remote_line, answer_after_rings=1)
        rig.server.hub.exchange.add_party(party)
        telephone.dial("5550199")
        loud.start_queue()
        connected = client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_ANSWERED, timeout=30)
        assert connected is not None
        tone = generate_digit("5", RATE, duration=0.08)

        def one_digit() -> float:
            client.pending_events()
            started = time.monotonic()
            with rig.server.lock:
                party.line.send_audio(tone)
            event = client.wait_for_event(
                lambda e: e.code is EventCode.DTMF_NOTIFY, timeout=10)
            assert event is not None
            latency = time.monotonic() - started
            time.sleep(0.1)     # inter-digit gap so the detector re-arms
            return latency

        latency = benchmark.pedantic(one_digit, rounds=scaled(8, 3),
                                     iterations=1)
        mean_ms = benchmark.stats.stats.mean * 1000.0
        report.row("E7", "DTMF on line -> client event",
                   "%.0f ms" % mean_ms,
                   "'little latency' (tone itself is 80 ms)")
        # The tone must be heard for ~2 detector frames (26 ms) plus
        # block and delivery cost; anything near 100 ms is fine.
        assert mean_ms < 250.0
    finally:
        rig.close()


def test_sync_event_regularity(benchmark, report):
    """Sync-event spacing in sample time: exact period, zero jitter."""
    rig = make_rig()
    try:
        def run() -> tuple[int, int]:
            client = rig.client
            loud, player, _output = build_playback_loud(
                client, EventMask.QUEUE | EventMask.SYNC)
            audio = tone_seconds(scaled(5.0, 2.0), RATE)
            sound = client.sound_from_samples(audio, PCM16_8K)
            player.play(sound, sync_interval_ms=100)
            loud.start_queue()
            wait_queue_empty(client, loud)
            marks = [event.args[ev.ARG_FRAMES_DONE]
                     for event in client.pending_events()
                     if event.code is EventCode.SYNC]
            loud.unmap()
            # Interior spacing (the final completion mark may be short).
            spacing = np.diff(marks[:-1])
            period = RATE // 10     # 100 ms at 8 kHz
            jitter = int(np.max(np.abs(spacing - period))) if len(spacing) \
                else -1
            return len(marks), jitter

        count, jitter = benchmark.pedantic(run, rounds=scaled(3, 1),
                                           iterations=1)
        report.row("E7", "sync-event period jitter (100 ms requested)",
                   "%d samples (%d events)" % (jitter, count),
                   "0 samples in audio time")
        assert jitter == 0
        assert count >= scaled(49, 19)
    finally:
        rig.close()
