"""The block cycle against golden vectors for a mixed, eventful graph.

tests/golden/blockcycle_seed*.json were recorded with the every-row
conductor (``tick_pre``/``tick_post`` on every active LOUD every block)
and the per-row render (``begin_tick``/``consume`` on every device).
They pin, for a seeded 12-LOUD graph on two speakers over 200 manually
stepped blocks:

* both speaker captures' lengths and SHA-256;
* the complete client-visible ``(code, resource, detail, sample_time)``
  event list, in order;
* the final ``audio.*`` and ``commands.*`` counters (the active-LOUD
  gauge included).

The graph covers what the render goldens do not: mu-law and PCM16
players, player and output gains other than 1.0, a queued ChangeGain
between Plays, a queue pause/resume, a mid-block Delay inside a CoBegin,
a stream sound ended by an immediate Stop, a player fanning out to two
outputs, a restack, a flush, a device-level pause/resume, a Play whose
sound is gone by the time it starts, and voices loud enough that the
speaker sums saturate.  Any change to how the block cycle schedules
queues or renders rows must reproduce them byte for byte.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_block_cycle_golden.py``.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.hardware.config import two_speaker_config
from repro.protocol.types import (
    MULAW_8K,
    PCM16_8K,
    CommandMode,
    DeviceClass,
    EventMask,
)
from repro.server import AudioServer, qprogram

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEEDS = (5, 13)
LOUDS = 12
BLOCKS = 200
RATE = 8000
SPEAKERS = ("left-speaker", "right-speaker")
KINDS = ("steady", "fanout", "cobegin", "steady", "stream", "paused")


def _tone(rng, seconds: float, peak: int) -> np.ndarray:
    frames = int(seconds * RATE)
    step = rng.uniform(0.004, 0.06)
    noise = rng.integers(-peak // 8, peak // 8 + 1, size=frames)
    return np.clip(np.sin(np.arange(frames) * step) * peak + noise,
                   -32768, 32767).astype(np.int16)


def _sound(client, rng, index: int, seconds: float):
    peak = int(rng.integers(6000, 16000))
    sound_type = MULAW_8K if index % 2 == 0 else PCM16_8K
    return client.sound_from_samples(_tone(rng, seconds, peak), sound_type)


def _player_loud(client, rng, index: int, players: int = 1,
                 outputs: int = 1):
    """A mapped LOUD of players wired to outputs, the first player at a
    random device gain (immediate commands need a mapped LOUD)."""
    loud = client.create_loud()
    loud.select_events(EventMask.ALL)
    sources = [loud.create_device(DeviceClass.PLAYER)
               for _ in range(players)]
    sinks = [loud.create_device(
                 DeviceClass.OUTPUT,
                 {"name": SPEAKERS[(index + number) % len(SPEAKERS)]})
             for number in range(outputs)]
    for sink in sinks:
        for source in sources:
            loud.wire(source, 0, sink, 0)
    loud.map()
    gain = int(rng.choice([50, 75, 125, 150]))
    sources[0].change_gain(gain, mode=CommandMode.IMMEDIATE)
    return loud, sources, sinks


def _build(client, rng) -> dict:
    """Every LOUD of the graph; returns the handles the schedule uses."""
    rig = {"steady": [], "louds": []}
    for index in range(LOUDS):
        kind = KINDS[index % len(KINDS)]
        if kind == "steady":
            loud, (player,), _outputs = _player_loud(client, rng, index)
            first = _sound(client, rng, index, rng.uniform(1.2, 2.5))
            second = _sound(client, rng, index + 1, rng.uniform(0.3, 0.9))
            player.play(first)
            player.change_gain(int(rng.choice([60, 90, 140])))
            player.play(second)
            player.play(first)
            rig["steady"].append((loud, player, second))
        elif kind == "fanout":
            loud, (player,), outputs = _player_loud(
                client, rng, index, outputs=2)
            outputs[1].change_gain(80, mode=CommandMode.IMMEDIATE)
            player.play(_sound(client, rng, index, rng.uniform(0.6, 1.4)))
            player.play(_sound(client, rng, index + 1, 0.5),
                        sync_interval_ms=100)
        elif kind == "cobegin":
            loud, (first, second), _outputs = _player_loud(
                client, rng, index, players=2)
            loud.co_begin()
            first.play(_sound(client, rng, index, rng.uniform(0.4, 0.8)))
            loud.delay(int(rng.integers(11, 97)))
            second.play(_sound(client, rng, index + 1, 0.35))
            loud.delay_end()
            loud.co_end()
            first.play(_sound(client, rng, index, rng.uniform(0.5, 1.0)))
            doomed = _sound(client, rng, index + 1, 0.2)
            first.play(doomed)
            rig["doomed"] = doomed
        elif kind == "stream":
            loud, (player,), _outputs = _player_loud(client, rng, index)
            stream = client.create_sound(MULAW_8K)
            stream.make_stream(RATE, RATE // 4)
            stream.select_events(EventMask.DATA)
            stream.write_samples(_tone(rng, 0.9, 9000))
            player.play(stream)
            player.play(_sound(client, rng, index, 0.6))
            rig["stream_player"] = player
        else:   # paused
            loud, (player,), _outputs = _player_loud(client, rng, index)
            player.play(_sound(client, rng, index, rng.uniform(0.8, 1.6)))
            loud.delay(int(rng.integers(150, 450)))
            player.play(_sound(client, rng, index + 1, 0.4))
            loud.delay_end()
            rig["paused"] = loud
        loud.start_queue()
        rig["louds"].append(loud)
    return rig


def _schedule(rig: dict) -> dict:
    """Client actions keyed by the block before which they happen."""
    steady = rig["steady"]
    _first_loud, first_player, first_sound = steady[0]
    second_loud, second_player, second_sound = steady[1]
    return {
        10: lambda: rig["doomed"].destroy(),
        25: lambda: first_player.change_gain(
            130, mode=CommandMode.IMMEDIATE),
        40: lambda: rig["paused"].pause_queue(),
        55: lambda: rig["stream_player"].stop(),
        70: lambda: rig["paused"].resume_queue(),
        80: lambda: (second_player.play(second_sound),
                     second_player.play(second_sound),
                     second_loud.flush_queue()),
        95: lambda: rig["louds"][0].lower_to_bottom(),
        110: lambda: second_player.pause(),
        130: lambda: second_player.resume(),
        150: lambda: first_player.play(first_sound),
    }


def block_cycle_scenario(seed: int) -> dict:
    """One run, digested into the golden files' shape."""
    qprogram._serials = itertools.count(1)
    server = AudioServer(two_speaker_config())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="golden")
    try:
        rng = np.random.default_rng(seed)
        rig = _build(client, rng)
        client.sync()
        schedule = _schedule(rig)
        for block in range(BLOCKS):
            action = schedule.get(block)
            if action is not None:
                action()
                client.sync()
            server.hub.step(1)
        client.sync()       # tick events precede the reply on the wire
        captures = [np.asarray(speaker.capture.samples(), dtype="<i2")
                    for speaker in server.hub.speakers]
        snapshot = server.metrics.snapshot()
        counters = {name: value
                    for name, value in sorted(snapshot["counters"].items())
                    if name.startswith(("audio.", "commands."))}
        counters["audio.active_louds"] = \
            snapshot["gauges"]["audio.active_louds"]
        return {
            "seed": seed, "louds": LOUDS, "blocks": BLOCKS,
            "capture_samples": [int(capture.size) for capture in captures],
            "capture_sha256": [hashlib.sha256(capture.tobytes()).hexdigest()
                               for capture in captures],
            "events": [[int(event.code), event.resource, event.detail,
                        event.sample_time]
                       for event in client.pending_events()],
            "counters": counters,
        }
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize("seed", SEEDS)
def test_block_cycle_matches_golden(seed):
    with open(GOLDEN / ("blockcycle_seed%d.json" % seed)) as handle:
        golden = json.load(handle)
    assert golden["events"] and golden["counters"]["commands.failed"]
    assert golden["counters"]["audio.stream_underruns"]
    assert golden["counters"]["audio.mix_operations"]
    result = block_cycle_scenario(seed)
    assert result == golden


if __name__ == "__main__":
    for seed in SEEDS:
        path = GOLDEN / ("blockcycle_seed%d.json" % seed)
        with open(path, "w") as handle:
            json.dump(block_cycle_scenario(seed), handle, indent=1)
            handle.write("\n")
        print("wrote", path)
