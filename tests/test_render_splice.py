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
sequence included.  A second program set binds each LOUD to one of two
speakers, so the batch's per-speaker grouping is compared too.
"""

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alib import AudioClient
from repro.dsp import mixing
from repro.hardware import HardwareConfig, two_speaker_config
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
SPEAKERS = ("left-speaker", "right-speaker")
SPLIT_PROGRAM = st.fixed_dictionaries({
    "louds": st.lists(
        st.fixed_dictionaries({
            "gain": st.sampled_from([100, 60, 150]),
            "output_gain": st.sampled_from([100, 140]),
            "steps": st.lists(STEP, min_size=1, max_size=10),
            "speaker": st.sampled_from(SPEAKERS),
        }), min_size=2, max_size=4),
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
    output = loud.create_device(
        DeviceClass.OUTPUT,
        {"name": spec["speaker"]} if "speaker" in spec else None)
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


def run(program, per_row: bool, config=None) -> dict:
    qprogram._serials = itertools.count(1)
    server = AudioServer(config or HardwareConfig())
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
            "capture": [speaker.capture.samples().tolist()
                        for speaker in server.hub.speakers],
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


#: Every row gained at every stage once the queued ChangeGain lands:
#: automation 0.3, player 1.5, output 1.4.
GAINED = {"gain": 150, "output_gain": 140,
          "steps": [("play", 500), ("gain", 30), ("play", 3000)]}


#: ``(uses_to_build, table_rows)``: a table for every gain from its
#: first use; tables once gains are in use, so one batch mixes table rows
#: and float rows; never a table; a float pass however few rows gain.
GAIN_PATHS = ((1, 6), (3, 6), (10**9, 6), (1, 0))


@contextlib.contextmanager
def gain_tables(path):
    """An empty gain-table cache whose gains earn tables after
    ``uses_to_build`` uses, and a batch that looks up at most
    ``table_rows`` gained rows."""
    uses_to_build, table_rows = path
    with mock.patch.multiple(mixing, _gain_tables={}, _gain_uses={},
                             _USES_TO_BUILD=uses_to_build), \
            mock.patch.object(render_pool, "_TABLE_ROWS", table_rows):
        yield


@pytest.mark.parametrize("path", GAIN_PATHS)
@given(SPLIT_PROGRAM)
@example({"louds": [{**GAINED, "speaker": "left-speaker"},
                    {**GAPLESS, "speaker": "right-speaker"},
                    {**GAINED, "speaker": "right-speaker"}],
          "actions": []})
@settings(max_examples=15, deadline=None)
def test_two_speaker_batch_matches_per_row_render(path, program):
    config = two_speaker_config()
    with gain_tables(path):
        batched = run(program, per_row=False, config=config)
    with gain_tables(path):
        assert batched == run(program, per_row=True, config=config)


@pytest.mark.parametrize("path", GAIN_PATHS)
def test_gained_rows_on_two_speakers_take_the_batch(path):
    """The example above batches rows gained at all three stages, and
    batches them split over both speakers."""
    batches = []
    render_steady = render_pool._render_steady

    def recorded(rows, sample_time, frames):
        batches.append(sorted((row[2].name, row[0]._current_gain,
                               row[0].gain, row[1].gain) for row in rows))
        render_steady(rows, sample_time, frames)

    program = {"louds": [{**GAINED, "speaker": "left-speaker"},
                         {**GAINED, "speaker": "right-speaker"}],
               "actions": []}
    config = two_speaker_config()
    with (mock.patch.object(render_pool, "_render_steady", recorded),
          gain_tables(path)):
        batched = run(program, per_row=False, config=config)
    assert [("left-speaker", 0.3, 1.5, 1.4),
            ("right-speaker", 0.3, 1.5, 1.4)] in batches
    assert all(batched["capture"])
    with gain_tables(path):
        assert batched == run(program, per_row=True, config=config)
