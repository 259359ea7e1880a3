"""E3 -- CPU cost of continuous playback (paper section 6 goal).

"...and support continuous playback without gaps, using well under 10%
of the CPU."

Measured: process CPU seconds consumed per second of audio streamed
(utilization) while the server sustains continuous telephone-quality
playback; repeated at the CD-quality rate from section 1.1 as the
high-rate comparison point.  The hub free-runs (virtual pacing), so the
measurement is pure processing cost with no sleep time in it.
"""


from repro.protocol.types import MULAW_8K, PCM16_CD, SoundType
from testkit.rig import (
    CpuMeter,
    build_playback_loud,
    make_rig,
    scaled,
    wait_queue_empty,
)
from testkit.workloads import tone_seconds


def stream_seconds(rig, sound_type, seconds: float) -> CpuMeter:
    """Play `seconds` of audio; meter CPU over the playback region."""
    rate = rig.server.hub.sample_rate
    loud, player, _output = build_playback_loud(rig.client)
    audio = tone_seconds(seconds, rate)
    sound = rig.client.sound_from_samples(audio, sound_type)
    rig.client.sync()
    with CpuMeter(rig.server) as meter:
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(rig.client, loud, timeout=300)
    loud.unmap()
    return meter


def test_telephone_rate_utilization(benchmark, report):
    """8 kHz mu-law: the paper's primary workload."""
    rig = make_rig(sample_rate=8000)
    try:
        def run():
            return stream_seconds(rig, MULAW_8K,
                                  scaled(30.0, 2.0)).utilization

        utilization = benchmark.pedantic(run, rounds=scaled(3, 1),
                                         iterations=1)
        report.row("E3", "CPU per audio second, mu-law 8 kHz",
                   "%.1f%%" % (utilization * 100.0),
                   "'well under 10% of the CPU'")
        assert utilization < 0.10
    finally:
        rig.close()


def test_cd_rate_utilization(benchmark, report):
    """44.1 kHz PCM16 end to end (hub at CD rate): the section 1.1
    high end; more expensive but must still be sustainable."""
    rig = make_rig(sample_rate=44100, block_frames=882)
    cd_type = SoundType(PCM16_CD.encoding, 16, 44100)
    try:
        def run():
            return stream_seconds(rig, cd_type,
                                  scaled(10.0, 1.0)).utilization

        utilization = benchmark.pedantic(run, rounds=scaled(3, 1),
                                         iterations=1)
        report.row("E3", "CPU per audio second, PCM16 44.1 kHz",
                   "%.1f%%" % (utilization * 100.0),
                   "sustainable (< 100%)")
        assert utilization < 1.0
    finally:
        rig.close()


def test_idle_server_is_cheap(benchmark, report):
    """An active LOUD with nothing playing must cost almost nothing."""
    rig = make_rig()
    try:
        loud, _player, _output = build_playback_loud(rig.client)
        rig.client.sync()

        def run():
            start = rig.server.hub.clock.sample_time
            with CpuMeter(rig.server) as meter:
                rig.server.hub.clock.wait_until(
                    start + 8000 * scaled(30, 2))
            return meter.utilization

        utilization = benchmark.pedantic(run, rounds=scaled(3, 1),
                                         iterations=1)
        report.row("E3", "CPU per audio second, idle active LOUD",
                   "%.1f%%" % (utilization * 100.0), "near zero")
        assert utilization < 0.10
    finally:
        rig.close()
