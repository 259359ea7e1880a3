"""E4 -- data-rate headroom across encodings (paper sections 1.1, 6.2).

"Telephone quality recording requires 8,000 bytes per second; at the
other extreme the quality of a stereo compact audio disc consumes just
over 175,000 bytes per second."  And: "If the data is cached by the
server ... the performance should be acceptable.  If the application
wants to supply real-time data to the server, the constraints are
harder to satisfy."

Measured: how many times faster than real time the server can stream
each coding (server-cached path), plus the client-supplied real-time
stream path with DATA_REQUEST flow control.
"""

import pytest

from repro.dsp import encodings
from repro.protocol.types import (
    ADPCM_8K,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
    SoundType,
)
from testkit.rig import build_playback_loud, make_rig, scaled, wait_queue_empty
from testkit.workloads import tone_seconds

CASES = [
    ("mu-law 8k (8,000 B/s)", 8000, 160, MULAW_8K),
    ("ADPCM 8k (4,000 B/s)", 8000, 160, ADPCM_8K),
    ("PCM16 8k (16,000 B/s)", 8000, 160, PCM16_8K),
    ("PCM16 44.1k (88,200 B/s)", 44100, 882,
     SoundType(PCM16_8K.encoding, 16, 44100)),
]


@pytest.mark.parametrize("label,rate,block,sound_type", CASES)
def test_cached_streaming_speed(benchmark, report, label, rate, block,
                                sound_type):
    rig = make_rig(sample_rate=rate, block_frames=block)
    try:
        loud, player, _output = build_playback_loud(rig.client)
        seconds = scaled(20.0, 2.0)
        audio = tone_seconds(seconds, rate)
        sound = rig.client.sound_from_samples(audio, sound_type)
        rig.client.sync()

        def run():
            player.play(sound)
            loud.start_queue()
            wait_queue_empty(rig.client, loud, timeout=300)

        benchmark.pedantic(run, rounds=scaled(3, 1), iterations=1)
        wall = benchmark.stats.stats.mean
        speedup = seconds / wall
        data_rate = sound_type.bytes_per_second() * speedup
        report.row("E4", "cached streaming, %s" % label,
                   "%.0fx realtime" % speedup,
                   "comfortably > 1x (%.0f kB/s sustained)"
                   % (data_rate / 1000.0))
        assert speedup > 1.0
    finally:
        rig.close()


def test_client_supplied_realtime_stream(benchmark, report):
    """The harder path: the client feeds data against DATA_REQUEST
    flow-control events while the player drains the stream."""
    rig = make_rig()
    rate = 8000
    try:
        def run():
            client = rig.client
            loud, player, _output = build_playback_loud(
                client, EventMask.QUEUE | EventMask.DATA)
            stream = client.create_sound(MULAW_8K)
            stream.make_stream(buffer_frames=rate,  # 1 s of buffer
                               low_water_frames=rate // 4)
            stream.select_events(EventMask.DATA)
            total_seconds = scaled(5.0, 1.0)
            audio = tone_seconds(total_seconds, rate)
            data = encodings.encode(audio, MULAW_8K)
            # Prime the buffer, start playback, then feed on demand.
            chunk = rate // 2   # half-second writes
            cursor = 0
            stream.write(data[cursor:cursor + chunk])
            cursor += chunk
            player.play(stream)
            loud.start_queue()
            delivered = chunk
            while cursor < len(data):
                event = client.wait_for_event(
                    lambda e: e.code is EventCode.DATA_REQUEST, timeout=60)
                assert event is not None, "no flow-control event"
                stream.write(data[cursor:cursor + chunk])
                cursor += chunk
                delivered += chunk
            # Signal end of stream by letting it drain: once all data is
            # written, stop the player when the buffer empties.
            while True:
                info = stream.query()
                if info.frame_length == 0:
                    break
            player.stop()
            loud.unmap()
            return delivered

        delivered = benchmark.pedantic(run, rounds=scaled(3, 1),
                                       iterations=1)
        wall = benchmark.stats.stats.mean
        report.row("E4", "client-supplied real-time stream (5 s fed)",
                   "%.0f B/s over the wire" % (delivered / wall),
                   ">= 8,000 B/s to sustain telephone quality")
        assert delivered / wall > 8000
    finally:
        rig.close()
