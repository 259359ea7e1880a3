"""Unit tests for the simulated hardware layer (hub, rooms, devices)."""

import numpy as np
import pytest

from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.hardware import (
    AudioHub,
    CaptureBuffer,
    HardwareConfig,
    InjectedSource,
    Room,
    SampleClock,
    two_speaker_config,
)
from repro.hardware.clock import RealTimePacer

RATE = 8000
BLOCK = 160


class TestSampleClock:
    def test_advance_and_seconds(self):
        clock = SampleClock(RATE)
        clock.advance(4000)
        assert clock.sample_time == 4000
        assert clock.seconds() == 0.5

    def test_negative_advance_rejected(self):
        clock = SampleClock(RATE)
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SampleClock(0)

    def test_wait_until_satisfied_immediately(self):
        clock = SampleClock(RATE)
        clock.advance(100)
        assert clock.wait_until(50, timeout=0.1)

    def test_wait_until_timeout(self):
        clock = SampleClock(RATE)
        assert not clock.wait_until(100, timeout=0.05)

    def test_realtime_pacer_tracks_schedule(self):
        import time

        pacer = RealTimePacer()
        pacer.start()
        start = time.monotonic()
        for _ in range(5):
            pacer.pace(BLOCK, RATE)
        elapsed = time.monotonic() - start
        expected = 5 * BLOCK / RATE
        assert elapsed >= expected * 0.9


class TestRoom:
    def test_speaker_audible_next_block(self):
        room = Room("desktop")
        tone = tones.sine(440.0, BLOCK / RATE, RATE)
        room.speaker_output(tone)
        room.advance(BLOCK)
        heard = room.microphone_signal(BLOCK)
        assert rms(heard) > 0.3 * rms(tone)

    def test_injected_source(self):
        room = Room("desktop")
        room.inject(InjectedSource(tones.sine(440.0, 0.1, RATE)))
        room.advance(BLOCK)
        assert rms(room.microphone_signal(BLOCK)) > 1000

    def test_source_exhausts(self):
        room = Room("desktop")
        room.inject(InjectedSource(np.ones(BLOCK, dtype=np.int16) * 1000))
        room.advance(BLOCK)
        assert rms(room.microphone_signal(BLOCK)) > 0
        room.advance(BLOCK)
        assert rms(room.microphone_signal(BLOCK)) == 0
        assert room.quiet

    def test_repeating_source(self):
        room = Room("desktop")
        room.inject(InjectedSource(np.ones(10, dtype=np.int16) * 1000,
                                   repeat=True))
        for _ in range(5):
            room.advance(BLOCK)
            assert rms(room.microphone_signal(BLOCK)) > 0

    def test_quiet_room(self):
        room = Room("x")
        room.advance(BLOCK)
        assert room.quiet
        assert np.all(room.microphone_signal(BLOCK) == 0)

    def test_mixed_only_when_heard(self, monkeypatch):
        from repro.hardware import room as room_module

        mixes = []
        mix = room_module.mix

        def counted(*args, **kwargs):
            mixes.append(1)
            return mix(*args, **kwargs)

        monkeypatch.setattr(room_module, "mix", counted)
        hub = AudioHub(HardwareConfig())
        hub.add_tick_callback(lambda _time, frames: hub.speakers[0].play(
            np.full(frames, 4000, dtype=np.int16)))
        hub.step(3)
        assert mixes == []      # no microphone was read
        microphone = hub.microphones[0]
        heard = microphone.read(BLOCK)
        assert np.all(heard == 4000 * Room.SPEAKER_BLEED)
        assert microphone.read(BLOCK) is heard
        assert len(mixes) == 1


class TestIdleLine:
    def test_on_hook_line_mixes_nothing(self, monkeypatch):
        from repro.hardware import devices

        mixes = []
        mix = devices.mix

        def counted(*args, **kwargs):
            mixes.append(1)
            return mix(*args, **kwargs)

        monkeypatch.setattr(devices, "mix", counted)
        hub = AudioHub(HardwareConfig())
        line = hub.lines[0]
        hub.add_tick_callback(lambda _time, frames: line.play(
            np.full(frames, 900, dtype=np.int16)))
        hub.step(50)
        assert mixes == []
        assert len(line.capture) == 0
        assert np.array_equal(line.read(BLOCK), np.zeros(BLOCK))
        # Off hook, the same line mixes, sends and records every block.
        line.answer()
        hub.step(3)
        assert len(mixes) == 3
        assert np.all(line.capture.samples() == 900)
        assert len(line.capture) == 3 * BLOCK


class TestCaptureBuffer:
    def test_append_and_samples(self):
        capture = CaptureBuffer()
        capture.append(np.array([1, 2], dtype=np.int16))
        capture.append(np.array([3], dtype=np.int16))
        assert np.array_equal(capture.samples(), [1, 2, 3])
        assert len(capture) == 3

    def test_disabled(self):
        capture = CaptureBuffer(enabled=False)
        capture.append(np.ones(5, dtype=np.int16))
        assert len(capture) == 0

    def test_clear(self):
        capture = CaptureBuffer()
        capture.append(np.ones(5, dtype=np.int16))
        capture.clear()
        assert len(capture.samples()) == 0


class TestHubBasics:
    def test_default_devices(self):
        hub = AudioHub()
        assert len(hub.speakers) == 1
        assert len(hub.microphones) == 1
        assert len(hub.lines) == 1
        assert hub.lines[0].number == "5550100"

    def test_speakerphone_config(self):
        hub = AudioHub(HardwareConfig(speakerphone=True))
        names = [device.name for device in hub.devices]
        assert "speakerphone-speaker" in names
        assert "speakerphone-mic" in names
        assert "speakerphone-line" in names

    def test_find_device(self):
        hub = AudioHub()
        assert hub.find_device("speaker-0") is hub.speakers[0]
        with pytest.raises(KeyError):
            hub.find_device("nope")

    def test_step_advances_clock(self):
        hub = AudioHub()
        hub.step(3)
        assert hub.sample_time == 3 * BLOCK

    def test_step_seconds(self):
        hub = AudioHub()
        hub.step_seconds(0.5)
        assert hub.sample_time >= RATE // 2

    def test_cannot_step_while_running(self):
        hub = AudioHub()
        hub.start()
        try:
            with pytest.raises(RuntimeError):
                hub.step()
        finally:
            hub.stop()

    def test_thread_runs_and_stops(self):
        hub = AudioHub()
        hub.start()
        assert hub.wait_for(lambda: hub.sample_time > 10 * BLOCK,
                            timeout_seconds=5.0)
        hub.stop()
        # stop() joins the hub thread, so the clock is provably frozen
        # the moment it returns -- no wall-clock settling needed.
        assert hub._thread is None
        frozen = hub.sample_time
        assert hub.sample_time == frozen

    def test_mismatched_exchange_rate(self):
        from repro.telephony import TelephoneExchange

        with pytest.raises(ValueError):
            AudioHub(HardwareConfig(sample_rate=8000),
                     exchange=TelephoneExchange(16000))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            HardwareConfig(sample_rate=0)
        with pytest.raises(ValueError):
            HardwareConfig(block_frames=0)
        with pytest.raises(ValueError):
            HardwareConfig(
                speakers=(two_speaker_config().speakers[0],) * 2)


class TestHubDataFlow:
    def test_speaker_to_capture(self):
        hub = AudioHub()
        tone = tones.sine(440.0, BLOCK / RATE, RATE)

        def feed(sample_time, frames):
            hub.speakers[0].play(tone)

        hub.add_tick_callback(feed)
        hub.step(4)
        captured = hub.speakers[0].capture.samples()
        assert len(captured) == 4 * BLOCK
        assert np.array_equal(captured[:BLOCK], tone)

    def test_two_writers_mix_at_speaker(self):
        hub = AudioHub()
        a = np.full(BLOCK, 100, dtype=np.int16)
        b = np.full(BLOCK, 25, dtype=np.int16)

        def feed(sample_time, frames):
            hub.speakers[0].play(a)
            hub.speakers[0].play(b)

        hub.add_tick_callback(feed)
        hub.step(1)
        assert np.all(hub.speakers[0].capture.samples() == 125)

    def test_speaker_bleeds_to_microphone(self):
        hub = AudioHub()
        tone = tones.sine(440.0, BLOCK / RATE, RATE)
        heard = []

        def feed(sample_time, frames):
            hub.speakers[0].play(tone)
            heard.append(hub.microphones[0].read(frames))

        hub.add_tick_callback(feed)
        hub.step(3)
        # Block 0: silence (one block of propagation); later: bleed.
        assert rms(heard[0]) == 0
        assert rms(heard[2]) > 1000

    def test_injected_speech_reaches_microphone(self):
        hub = AudioHub()
        hub.rooms["desktop"].inject(
            InjectedSource(tones.sine(300.0, 0.1, RATE)))
        heard = []
        hub.add_tick_callback(
            lambda t, frames: heard.append(hub.microphones[0].read(frames)))
        hub.step(2)
        assert rms(np.concatenate(heard)) > 1000

    def test_microphone_read_is_idempotent_per_block(self):
        hub = AudioHub()
        hub.rooms["desktop"].inject(
            InjectedSource(tones.white_noise(0.1, RATE, seed=3)))
        reads = []

        def feed(sample_time, frames):
            reads.append((hub.microphones[0].read(frames),
                          hub.microphones[0].read(frames)))

        hub.add_tick_callback(feed)
        hub.step(2)
        for first, second in reads:
            assert np.array_equal(first, second)

    def test_remove_tick_callback(self):
        hub = AudioHub()
        calls = []
        callback = lambda t, frames: calls.append(t)
        hub.add_tick_callback(callback)
        hub.step(1)
        hub.remove_tick_callback(callback)
        hub.step(1)
        assert len(calls) == 1
