"""Spliced boundary rows against the per-row render.

A steady-shaped row (lone player -> lone output -> speaker) whose clip
ends inside a block joins the batched render when the successor the
conductor pre-issued starts at exactly that sample (paper section 6.2:
"plays occur without a single dropped or inserted sample").  Random
gapless programs -- clips of 1 sample, shorter than a block, exact block
multiples and long; queued ChangeGains between clips; sync intervals;
queue and device pause/resume mid-clip; immediate Stops -- run twice,
once as the server renders them and once with every row forced through
the per-row path.  Both must give the same capture, sample for sample,
and the same events, COMMAND_DONE ``(serial, sample_time, detail)``
sequence included.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alib import AudioClient
from repro.hardware import HardwareConfig
from repro.protocol import events as ev
from repro.protocol.types import (
    PCM16_8K,
    CommandMode,
    DeviceClass,
    EventCode,
    EventMask,
)
from repro.server import AudioServer, qprogram, render_pool
from repro.server.vdevices.player import PlayerDevice

BLOCK = 160
BLOCKS = 48
CLIP = st.one_of(
    st.just(1),
    st.integers(2, BLOCK - 1),
    st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]),
    st.integers(BLOCK + 1, 2500),
)
STEP = st.one_of(
    st.tuples(st.just("play"), CLIP),
    st.tuples(st.just("play"), CLIP),
    st.tuples(st.just("sync"), CLIP, st.sampled_from([5, 20, 45])),
    st.tuples(st.just("gain"), st.sampled_from([30, 100, 160])),
)
LOUD = st.fixed_dictionaries({
    "gain": st.sampled_from([100, 60, 150]),
    "output_gain": st.sampled_from([100, 140]),
    "steps": st.lists(STEP, min_size=1, max_size=10),
})
ACTION = st.tuples(
    st.integers(0, BLOCKS - 1),
    st.sampled_from(["pause", "resume", "device_pause", "device_resume",
                     "stop"]),
    st.integers(0, 2))
PROGRAM = st.fixed_dictionaries({
    "louds": st.lists(LOUD, min_size=1, max_size=3),
    "actions": st.lists(ACTION, max_size=6),
})


def _clip(client, frames: int, seed: int):
    samples = (np.sin(np.arange(frames) * (0.02 + 0.001 * seed))
               * (3000 + 37 * seed)).astype(np.int16)
    samples[samples == 0] = 1 + seed % 5
    return client.sound_from_samples(samples, PCM16_8K)


def _build(client, spec, seed: int):
    loud = client.create_loud()
    loud.select_events(EventMask.ALL)
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.map()
    if spec["gain"] != 100:
        player.change_gain(spec["gain"], mode=CommandMode.IMMEDIATE)
    if spec["output_gain"] != 100:
        output.change_gain(spec["output_gain"], mode=CommandMode.IMMEDIATE)
    for index, step in enumerate(spec["steps"]):
        if step[0] == "gain":
            player.change_gain(step[1])
        else:
            sound = _clip(client, step[1], seed + index)
            player.play(sound, sync_interval_ms=(step[2] if step[0] == "sync"
                                                 else 0))
    loud.start_queue()
    return loud, player


def _act(action: str, loud, player) -> None:
    if action == "pause":
        loud.pause_queue()
    elif action == "resume":
        loud.resume_queue()
    elif action == "device_pause":
        player.pause()
    elif action == "device_resume":
        player.resume()
    else:
        player.stop()


def run(program, per_row: bool) -> dict:
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="splice")
    patch = (mock.patch.object(render_pool, "_steady_shape",
                               lambda devices: None)
             if per_row else contextlib.nullcontext())
    try:
        with patch:
            rigs = [_build(client, spec, 100 * index)
                    for index, spec in enumerate(program["louds"])]
            client.sync()
            actions = sorted(program["actions"], key=lambda act: act[0])
            for block in range(BLOCKS):
                for when, action, target in actions:
                    if when == block:
                        _act(action, *rigs[target % len(rigs)])
                        client.sync()
                server.hub.step(1)
            client.sync()
        events = client.pending_events()
        return {
            "capture": server.hub.speakers[0].capture.samples().tolist(),
            "done": [(event.args.get(ev.ARG_COMMAND_SERIAL),
                      event.sample_time, event.detail)
                     for event in events
                     if event.code is EventCode.COMMAND_DONE],
            "events": [(int(event.code), event.resource, event.detail,
                        event.sample_time) for event in events],
        }
    finally:
        client.close()
        server.stop()


GAPLESS = {"gain": 150, "output_gain": 140,
           "steps": [("play", 333), ("gain", 30), ("play", 160),
                     ("play", 1), ("play", 2477), ("play", 80)]}


@given(PROGRAM)
@example({"louds": [GAPLESS, GAPLESS], "actions": []})
@example({"louds": [GAPLESS],
          "actions": [(3, "device_pause", 0), (5, "device_resume", 0),
                      (9, "pause", 0), (11, "resume", 0), (20, "stop", 0)]})
@settings(max_examples=30, deadline=None)
def test_spliced_rows_match_per_row_render(program):
    assert run(program, per_row=False) == run(program, per_row=True)


def test_gapless_boundaries_take_the_batch():
    """Three pre-issued boundaries splice; the row renders row by row
    only in the block where the last clip ends with no successor, and
    not at all once its program is empty."""
    calls = []
    consume = PlayerDevice.consume

    def counted(self, sample_time, frames):
        calls.append(sample_time)
        consume(self, sample_time, frames)

    program = {"louds": [{"gain": 100, "output_gain": 100,
                          "steps": [("play", 333)] * 4}], "actions": []}
    with mock.patch.object(PlayerDevice, "consume", counted):
        spliced = run(program, per_row=False)
    assert calls == [1280]      # the block holding sample 4 * 333
    assert [time for _serial, time, _detail in spliced["done"]] == [
        333, 666, 999, 1332]
    assert spliced == run(program, per_row=True)
