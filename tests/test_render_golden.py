"""The serial block cycle against golden render vectors.

The hub thread renders every mapped LOUD each block (§4.1, §6.1).
tests/golden/render_seed*.json pin what that produces for a randomized
16-LOUD graph -- playback LOUDs with one or two players and sync marks,
mixed with recorders on an injected microphone -- over 80 manually
stepped blocks: the speaker capture's length and SHA-256, the complete
client-visible ``(code, resource, detail, sample_time)`` event list in
order, and the SHA-256 of every recorded take.  Any change to the block
cycle (vectorizing the mix, reordering rows) must reproduce them
exactly.

Determinism recipe: the hub is stepped manually (``start_hub=False``),
command serials restart at 1, and every graph choice comes from one
seeded RNG.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp import tones
from repro.hardware import HardwareConfig, InjectedSource
from repro.protocol.types import (
    DeviceClass,
    EventMask,
    PCM16_8K,
    RecordTermination,
)
from repro.server import AudioServer, qprogram

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _build_random_graphs(client, rng, loud_count):
    """Seed-deterministic graphs; returns the recorders' take sounds."""
    take_sounds = []
    for index in range(loud_count):
        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.PLAYER
                           | EventMask.RECORDER)
        if rng.integers(0, 4) == 0:
            microphone = loud.create_device(DeviceClass.INPUT)
            recorder = loud.create_device(DeviceClass.RECORDER)
            loud.wire(microphone, 0, recorder, 0)
            loud.map()
            take = client.create_sound(PCM16_8K)
            recorder.record(
                take, termination=int(RecordTermination.MAX_LENGTH),
                max_length_ms=int(rng.integers(200, 800)))
            take_sounds.append(take)
        else:
            output = loud.create_device(DeviceClass.OUTPUT)
            for _ in range(int(rng.integers(1, 3))):
                player = loud.create_device(DeviceClass.PLAYER)
                loud.wire(player, 0, output, 0)
                tone = (np.sin(np.arange(4000) * (0.01 + 0.004 * index))
                        * 11000).astype(np.int16)
                sound = client.sound_from_samples(tone)
                player.play(sound, sync_interval_ms=60)
            loud.map()
        loud.start_queue()
    return take_sounds


def render_scenario(seed: int, loud_count: int, blocks: int) -> dict:
    """One run, digested into the golden files' shape."""
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="golden")
    try:
        server.hub.rooms["desktop"].inject(InjectedSource(
            tones.sine(313.0, 1.0, 8000), repeat=True))
        takes = _build_random_graphs(
            client, np.random.default_rng(seed), loud_count)
        client.sync()
        server.hub.step(blocks)
        client.sync()       # tick events precede the reply on the wire
        capture = np.asarray(server.hub.speakers[0].capture.samples(),
                             dtype="<i2")
        return {
            "seed": seed, "louds": loud_count, "blocks": blocks,
            "capture_samples": int(capture.size),
            "capture_sha256": hashlib.sha256(capture.tobytes()).hexdigest(),
            "takes_sha256": [hashlib.sha256(take.read()).hexdigest()
                             for take in takes],
            "events": [[int(event.code), event.resource, event.detail,
                        event.sample_time]
                       for event in client.pending_events()],
        }
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize("seed", [7, 23])
def test_serial_render_matches_golden(seed):
    with open(GOLDEN / ("render_seed%d.json" % seed)) as handle:
        golden = json.load(handle)
    assert golden["events"] and golden["takes_sha256"]
    result = render_scenario(seed, golden["louds"], golden["blocks"])
    assert result == golden
