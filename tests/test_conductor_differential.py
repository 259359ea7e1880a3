"""The wake-time conductor against an every-row reference conductor.

The server visits a command queue only in blocks where its wake falls
(a predicted command end, a ready leaf's start, a mutation or a reported
finish), and renders steady rows in one batch.  The reference below is
the block cycle without either shortcut: every active queue runs
``tick_pre`` and ``tick_post`` (polling every device for finished
handles) every block, and every row renders through ``begin_tick`` and
``consume``.  Random queue programs -- Plays of lengths that end on and
off block edges, queued ChangeGains, CoBegin brackets with mid-block
Delays, Delay blocks, failed starts, stream sounds, player and output
gains -- driven through random client actions (queue pause/resume/stop/
start/flush, restacks, unmap/map, immediate Stops and ChangeGains,
device pauses, more Plays) must produce the same events, captures,
errors and counters on both.
"""

import hashlib
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.alib import AudioClient
from repro.hardware import HardwareConfig
from repro.protocol.types import (
    MULAW_8K,
    PCM16_8K,
    CommandMode,
    DeviceClass,
    EventMask,
)
from repro.server import AudioServer, qprogram

BLOCKS = 60
#: Sound lengths in frames: shorter than a block, exactly one and two
#: blocks (an item that ends on a block edge), and off-edge lengths.
SOUND_FRAMES = (1, 159, 160, 320, 333, 801, 1600, 2477)


class EveryRowServer(AudioServer):
    """The reference: no wake heap, no steady-row batch."""

    def _conduct(self, plan, sample_time, frames):
        self.wakes.take_reported()
        for queue, _devices in plan:
            queue.tick_pre(sample_time, frames)
        for _queue, devices in plan:
            for device in devices:
                device.begin_tick(sample_time, frames)
        for _queue, devices in plan:
            for device in devices:
                device.consume(sample_time, frames)
        for queue, devices in plan:
            queue._finished = True      # poll every device
            queue.tick_post(sample_time, frames, devices)


SOUND = st.integers(0, len(SOUND_FRAMES) - 1)
PLAYER = st.integers(0, 1)
STEP = st.one_of(
    st.tuples(st.just("play"), SOUND, PLAYER),
    st.tuples(st.just("gain"), st.sampled_from([40, 100, 170]), PLAYER),
    st.tuples(st.just("cobegin"), SOUND, SOUND, st.integers(0, 90)),
    st.tuples(st.just("delay"), st.integers(0, 90), SOUND),
    st.tuples(st.just("doomed"), PLAYER),
    st.tuples(st.just("stream"), PLAYER),
)
LOUD = st.fixed_dictionaries({
    "players": st.integers(1, 2),
    "outputs": st.integers(1, 2),
    "gain": st.sampled_from([100, 60, 150]),
    "output_gain": st.sampled_from([100, 70, 140]),
    "steps": st.lists(STEP, min_size=1, max_size=6),
})
ACTION = st.tuples(
    st.integers(0, BLOCKS - 1),
    st.sampled_from(["pause", "resume", "flush", "stop_player", "gain_now",
                     "output_gain_now", "device_pause", "device_resume",
                     "lower", "raise", "play_more", "stop_queue",
                     "start_queue", "unmap", "map"]),
    st.integers(0, 3))
SCENARIO = st.fixed_dictionaries({
    "louds": st.lists(LOUD, min_size=1, max_size=4),
    "actions": st.lists(ACTION, max_size=20),
})


def _tones(client):
    sounds = []
    for index, frames in enumerate(SOUND_FRAMES):
        samples = (np.sin(np.arange(frames) * (0.01 + 0.003 * index))
                   * (7000 + 1500 * index)).astype(np.int16)
        samples[samples == 0] = 1
        sound_type = MULAW_8K if index % 2 else PCM16_8K
        sounds.append(client.sound_from_samples(samples, sound_type))
    return sounds


def _build(client, sounds, spec):
    loud = client.create_loud()
    loud.select_events(EventMask.ALL)
    players = [loud.create_device(DeviceClass.PLAYER)
               for _ in range(spec["players"])]
    outputs = [loud.create_device(DeviceClass.OUTPUT)
               for _ in range(spec["outputs"])]
    for output in outputs:
        for player in players:
            loud.wire(player, 0, output, 0)
    loud.map()      # immediate commands need a mapped LOUD
    if spec["output_gain"] != 100:
        outputs[0].change_gain(spec["output_gain"],
                               mode=CommandMode.IMMEDIATE)
    if spec["gain"] != 100:
        players[0].change_gain(spec["gain"], mode=CommandMode.IMMEDIATE)
    doomed = []
    for step in spec["steps"]:
        kind = step[0]
        if kind == "play":
            players[step[2] % len(players)].play(sounds[step[1]])
        elif kind == "gain":
            players[step[2] % len(players)].change_gain(step[1])
        elif kind == "cobegin":
            loud.co_begin()
            players[0].play(sounds[step[1]])
            loud.delay(step[3])
            players[-1].play(sounds[step[2]])
            loud.delay_end()
            loud.co_end()
        elif kind == "delay":
            loud.delay(step[1])
            players[0].play(sounds[step[2]])
            loud.delay_end()
        elif kind == "doomed":
            sound = client.sound_from_samples(np.ones(50, dtype=np.int16))
            players[step[1] % len(players)].play(sound)
            doomed.append(sound)
        else:   # stream
            stream = client.create_sound(MULAW_8K)
            stream.make_stream(4000, 1000)
            stream.write_samples(np.full(700, 3000, dtype=np.int16))
            players[step[1] % len(players)].play(stream)
    loud.start_queue()
    return loud, players, outputs, doomed


def _act(action, rig, sounds):
    loud, players, outputs, _doomed = rig
    if action == "pause":
        loud.pause_queue()
    elif action == "resume":
        loud.resume_queue()
    elif action == "flush":
        loud.flush_queue()
    elif action == "stop_player":
        players[0].stop()
    elif action == "gain_now":
        players[-1].change_gain(130, mode=CommandMode.IMMEDIATE)
    elif action == "output_gain_now":
        outputs[-1].change_gain(55, mode=CommandMode.IMMEDIATE)
    elif action == "device_pause":
        players[0].pause()
    elif action == "device_resume":
        players[0].resume()
    elif action == "lower":
        loud.lower_to_bottom()
    elif action == "raise":
        loud.raise_to_top()
    elif action == "play_more":
        players[0].play(sounds[5])
        players[-1].play(sounds[2])
    elif action == "stop_queue":
        loud.stop_queue()
    elif action == "start_queue":
        loud.start_queue()
    elif action == "unmap":
        loud.unmap()
    else:
        loud.map()


def run(server_class, scenario) -> dict:
    qprogram._serials = itertools.count(1)
    server = server_class(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="differential")
    try:
        sounds = _tones(client)
        rigs = [_build(client, sounds, spec) for spec in scenario["louds"]]
        for rig in rigs:
            for sound in rig[3]:
                sound.destroy()
        client.sync()
        actions = sorted(scenario["actions"], key=lambda action: action[0])
        for block in range(BLOCKS):
            for when, action, target in actions:
                if when == block:
                    _act(action, rigs[target % len(rigs)], sounds)
                    client.sync()
            server.hub.step(1)
        client.sync()
        capture = np.asarray(server.hub.speakers[0].capture.samples(),
                             dtype="<i2")
        counters = server.metrics.snapshot()["counters"]
        return {
            "capture": hashlib.sha256(capture.tobytes()).hexdigest(),
            "events": [(int(event.code), event.resource, event.detail,
                        event.sample_time)
                       for event in client.pending_events()],
            "errors": [(int(error.code), error.resource)
                       for error in client.conn.errors],
            "counters": {name: value for name, value in counters.items()
                         if name.startswith(("audio.", "commands."))},
        }
    finally:
        client.close()
        server.stop()


STEADY_PAIR = {"players": 1, "outputs": 1, "gain": 150, "output_gain": 70,
               "steps": [("play", 7, 0), ("gain", 40, 0), ("play", 6, 0)]}


@given(SCENARIO)
@example({"louds": [STEADY_PAIR, STEADY_PAIR],
          "actions": [(4, "unmap", 0), (9, "map", 0)]})
@example({"louds": [STEADY_PAIR, STEADY_PAIR],
          "actions": [(12, "pause", 1), (15, "resume", 1),
                      (17, "device_pause", 0), (21, "device_resume", 0),
                      (25, "output_gain_now", 1), (30, "lower", 0)]})
@settings(max_examples=40, deadline=None)
def test_wake_time_conductor_matches_every_row(scenario):
    assert run(AudioServer, scenario) == run(EveryRowServer, scenario)
