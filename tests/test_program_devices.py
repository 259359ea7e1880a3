"""What every device that plays a program shares.

The player, the speech synthesizer and the music synthesizer queue their
material on one playback program: a queued ChangeGain between two items
lands on the exact sample the first one ends, and a ``sync-interval-ms``
argument makes the device emit SYNC events as the item plays.  The
telephone's SendDTMF plays its tones from the same program.  Every test
here steps the hub by hand, so sample times are exact.
"""

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp.dtmf import generate_digits
from repro.dsp.mixing import apply_gain
from repro.dsp.music import MusicSynthesizer
from repro.dsp.synthesis import FormantSynthesizer
from repro.hardware import HardwareConfig
from repro.protocol import events as ev
from repro.protocol.types import Command, DeviceClass, EventCode, EventMask
from repro.server import AudioServer

RATE = 8000
BLOCK = 160


@pytest.fixture
def stepped():
    """A server whose hub only moves when the test steps it."""
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="program")
    yield server, client
    client.close()
    server.stop()


def _source_loud(client, device_class):
    loud = client.create_loud()
    source = loud.create_device(device_class)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(source, 0, output, 0)
    loud.select_events(EventMask.QUEUE | EventMask.SYNC)
    loud.map()
    return loud, source


def _run(server, client, loud, frames: int) -> np.ndarray:
    """Start the queue, step past ``frames`` and return the speaker's
    capture."""
    loud.start_queue()
    client.sync()
    server.hub.step(frames // BLOCK + 2)
    client.sync()
    return server.hub.speakers[0].capture.samples()


def _gain_lands_on_the_seam(capture, first, second, gain):
    seam = len(first)
    expected = np.concatenate([first, apply_gain(second, gain)])
    assert np.array_equal(capture[:len(expected)], expected)
    assert not capture[len(expected):].any()
    # A gain point anywhere between the first's last audible sample and
    # the second's first one sounds the same; one outside that run would
    # not.
    audible_end = np.flatnonzero(first)[-1]
    audible_start = seam + np.flatnonzero(second)[0]
    for wrong in (audible_end, audible_start + 1):
        shifted = np.concatenate([first, second])
        shifted[wrong:] = apply_gain(shifted[wrong:], gain)
        assert not np.array_equal(shifted, expected)


def test_queued_gain_between_notes_lands_on_the_seam(stepped):
    server, client = stepped
    loud, music = _source_loud(client, DeviceClass.MUSIC)
    music.issue(Command.SET_VOICE, waveform="square")
    music.note("A4", beats=0.33)
    music.change_gain(40)
    music.note("E5", beats=0.75)
    engine = MusicSynthesizer(RATE)
    engine.set_voice(waveform="square")
    first = engine.render_note("A4", 0.33)
    second = engine.render_note("E5", 0.75)
    assert len(first) % BLOCK     # the seam falls inside a block
    capture = _run(server, client, loud, len(first) + len(second))
    _gain_lands_on_the_seam(capture, first, second, 0.4)


def test_queued_gain_between_speak_texts_lands_on_the_seam(stepped):
    server, client = stepped
    loud, synthesizer = _source_loud(client, DeviceClass.SYNTHESIZER)
    synthesizer.speak_text("one")
    synthesizer.change_gain(160)
    synthesizer.speak_text("two")
    engine = FormantSynthesizer(RATE)
    first = engine.synthesize_text("one")
    second = engine.synthesize_text("two")
    assert len(first) % BLOCK
    capture = _run(server, client, loud, len(first) + len(second))
    _gain_lands_on_the_seam(capture, first, second, 1.6)


def test_speak_text_emits_sync_points(stepped):
    server, client = stepped
    loud, synthesizer = _source_loud(client, DeviceClass.SYNTHESIZER)
    synthesizer.speak_text("sync points", sync_interval_ms=100)
    total = len(FormantSynthesizer(RATE).synthesize_text("sync points"))
    _run(server, client, loud, total)
    syncs = [event for event in client.pending_events()
             if event.code is EventCode.SYNC]
    interval = 100 * RATE // 1000
    assert len(syncs) >= total // interval
    done = [event.args[ev.ARG_FRAMES_DONE] for event in syncs]
    assert done == sorted(done)
    assert done[0] >= interval and done[-1] == total
    assert {event.args[ev.ARG_FRAMES_TOTAL] for event in syncs} == {total}
    assert {event.resource for event in syncs} == {synthesizer.device_id}


def test_send_dtmf_in_one_cobegin_play_one_after_the_other(stepped):
    """Two SendDTMF that start together on one telephone (the branches
    of a CoBegin) play in order, the second from the sample the first
    ends, rather than on top of each other."""
    server, client = stepped
    loud = client.create_loud()
    telephone = loud.create_device(DeviceClass.TELEPHONE)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    telephone.answer()
    loud.co_begin()
    telephone.send_dtmf("1")
    telephone.send_dtmf("2")
    loud.co_end()
    first = generate_digits("1", RATE)
    tones = generate_digits("12", RATE)
    loud.start_queue()
    client.sync()
    server.hub.step(len(tones) // BLOCK + 2)
    client.sync()
    line = server.hub.lines[0].capture.samples()
    assert np.array_equal(line[:len(tones)], tones)
    assert not line[len(tones):].any()
    done = [(event.args[ev.ARG_COMMAND], event.sample_time)
            for event in client.pending_events()
            if event.code is EventCode.COMMAND_DONE]
    send = int(Command.SEND_DTMF)
    assert done == [(int(Command.ANSWER), 0), (send, len(first)),
                    (send, len(tones))]
