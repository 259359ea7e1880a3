"""E10 -- block-cycle fast paths: codec tables, mixer, cache, wire.

The perf work (table-driven G.711, int32 mixer, decoded-sound cache,
precompiled render plan, zero-copy wire reads) is pure optimization:
identical output, less CPU.  This experiment quantifies each piece and
emits machine-readable throughput records to BENCH_PERF.json (via
``testkit.rig.record_perf``) so CI can track speedups across commits.
"""

import time

import numpy as np

from repro.bench.harness import find_signal
from repro.dsp import encodings, tones
from repro.dsp.encodings import (
    mulaw_decode,
    mulaw_decode_reference,
    mulaw_encode,
    mulaw_encode_reference,
)
from repro.dsp.mixing import mix
from repro.protocol.requests import GetTime
from repro.protocol.types import MULAW_8K, PCM16_8K
from testkit.rig import (
    CpuMeter,
    build_playback_loud,
    make_rig,
    record_perf,
    scaled,
    wait_queue_empty,
)

from tests.mix_oracle import mix_reference

RATE = 8000


def _best_seconds(operation, repeats):
    """Fastest of ``repeats`` timed runs (noise-resistant speedup base)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best


def test_codec_tables_speedup(benchmark, report):
    """Encode + decode one second of 8 kHz audio; the table path must be
    at least 3x the per-sample-shift reference (acceptance criterion)."""
    tone = tones.sine(440.0, 1.0, RATE)
    repeats = scaled(20, 5)

    def fast_cycle():
        mulaw_decode(mulaw_encode(tone))

    def reference_cycle():
        mulaw_decode_reference(mulaw_encode_reference(tone))

    benchmark.pedantic(fast_cycle, rounds=repeats, iterations=1)
    fast = _best_seconds(fast_cycle, repeats)
    reference = _best_seconds(reference_cycle, scaled(5, 2))
    speedup = reference / fast
    record_perf("codec.mulaw_cycle_1s", 1.0 / fast,
                reference_ops_per_sec=1.0 / reference,
                speedup=round(speedup, 2))
    report.row("E10", "mu-law encode+decode 1 s of audio",
               "%.0f /s (%.1fx ref)" % (1.0 / fast, speedup), ">= 3x")
    assert speedup >= 3.0, "codec speedup %.2fx below 3x" % speedup
    # And identical bytes, or the speed is meaningless.
    assert mulaw_encode(tone) == mulaw_encode_reference(tone)


def test_mix_fast_path_speedup(benchmark, report):
    """Unity-gain int16 mixing: the int32 accumulator vs float64."""
    rng = np.random.default_rng(7)
    blocks = [rng.integers(-32768, 32768, size=RATE,
                           dtype=np.int16) for _ in range(4)]
    repeats = scaled(50, 5)

    def fast_mix():
        mix(blocks)

    benchmark.pedantic(fast_mix, rounds=repeats, iterations=1)
    fast = _best_seconds(fast_mix, repeats)
    reference = _best_seconds(lambda: mix_reference(blocks),
                              scaled(10, 3))
    speedup = reference / fast
    record_perf("mix.four_blocks_1s", 1.0 / fast,
                reference_ops_per_sec=1.0 / reference,
                speedup=round(speedup, 2))
    report.row("E10", "mix 4x 1 s int16 blocks",
               "%.0f /s (%.1fx ref)" % (1.0 / fast, speedup), "> 1x")
    assert speedup > 1.0
    assert np.array_equal(mix(blocks), mix_reference(blocks))


def test_block_cycle_throughput_with_cache(benchmark, report):
    """Replay one sound many times on a virtual-paced rig: the decode
    cache must take every decode after the first, and the block cycle
    must outrun the audio it renders by a wide margin."""
    rig = make_rig()
    try:
        loud, player, _output = build_playback_loud(rig.client)
        tone = encodings.mulaw_decode(encodings.mulaw_encode(
            tones.sine(330.0, scaled(0.5, 0.1), RATE)))
        sound = rig.client.sound_from_samples(tone, MULAW_8K)
        plays = scaled(40, 6)

        def replay_batch():
            for _ in range(plays):
                player.play(sound)
            loud.start_queue()
            wait_queue_empty(rig.client, loud)
            loud.stop_queue()
            rig.client.sync()

        with CpuMeter(rig.server) as meter:
            benchmark.pedantic(replay_batch, rounds=1, iterations=1)
        audio_seconds = plays * len(tone) / RATE
        snapshot = rig.stats_snapshot()
        counters = snapshot["counters"]
        hits = counters.get("sounds.decode_cache.hits", 0)
        record_perf(
            "blockcycle.playback_audio_seconds_per_cpu_second",
            audio_seconds / max(meter.cpu_seconds, 1e-9),
            decode_cache_hits=hits,
            decode_cache_misses=counters.get(
                "sounds.decode_cache.misses", 0),
            renderplan_rebuilds=counters.get("renderplan.rebuilds", 0),
            renderplan_ticks=counters.get("renderplan.ticks", 0))
        report.row("E10", "audio seconds rendered per CPU second",
                   "%.1f" % (audio_seconds / max(meter.cpu_seconds,
                                                 1e-9)),
                   "cache turns replays into lookups")
        # Replaying the same sound must hit the decode cache; a zero
        # here means the cache is disconnected (CI gate).
        assert hits >= plays - 1, \
            "decode cache hit only %d of %d replays" % (hits, plays)
        # The precompiled plan is reused across blocks.
        assert counters.get("renderplan.rebuilds", 0) \
            < counters.get("renderplan.ticks", 1)
    finally:
        rig.close()


def test_protocol_round_trip_throughput(mean_seconds, report):
    """Round trips per second over the zero-copy read path."""
    rig = make_rig()
    try:
        rig.client.sync()

        def one_round_trip():
            rig.client.conn.round_trip(GetTime())

        _, mean = mean_seconds(one_round_trip)
        record_perf("protocol.round_trip", 1.0 / mean,
                    mean_ms=round(mean * 1000.0, 4))
        report.row("E10", "protocol round trips (zero-copy reads)",
                   "%.0f /s" % (1.0 / mean), "> 200 /s")
        assert 1.0 / mean > 200
    finally:
        rig.close()


def test_rendered_output_identical_with_fast_paths(report):
    """The whole point: faster, byte-identical.  Mixed two-player
    playback must land exactly the samples the reference mixer
    predicts."""
    rig = make_rig()
    try:
        from repro.protocol.types import DeviceClass, EventMask

        client = rig.client
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(1600, 11000, dtype=np.int16)
        b = np.full(1600, 25000, dtype=np.int16)    # sum saturates
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.co_end()
        loud.start_queue()
        wait_queue_empty(client, loud)
        expected = mix_reference([a, b])
        captured = rig.server.hub.speakers[0].capture.samples()
        assert find_signal(captured, expected) is not None
        report.row("E10", "saturating mixed output vs float64 reference",
                   "identical", "bit-exact")
    finally:
        rig.close()
