"""Integration tests: the remaining device classes over the protocol.

Covers recognizers (Train/SetVocabulary/Listen end to end, with audio
entering through the simulated room), crossbars, DSP programs, music and
synthesizer command surfaces, and client-supplied stream sounds.
"""

import json

import numpy as np

from repro.dsp import encodings, tones
from repro.dsp.mixing import rms
from repro.dsp.synthesis import FormantSynthesizer
from repro.hardware import InjectedSource
from repro.protocol import events as ev
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    ErrorCode,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
)

from conftest import wait_blocks, wait_for, wait_queue_empty

RATE = 8000


def captured(server):
    return server.hub.speakers[0].capture.samples()


class TestRecognizerDevice:
    def _build(self, client):
        loud = client.create_loud()
        microphone = loud.create_device(DeviceClass.INPUT)
        recognizer = loud.create_device(DeviceClass.RECOGNIZER)
        loud.wire(microphone, 0, recognizer, 0)
        loud.select_events(EventMask.QUEUE | EventMask.RECOGNITION)
        loud.map()
        return loud, recognizer

    def _training_sound(self, client, synth, word):
        audio = np.concatenate([
            tones.silence(0.1, RATE), synth.synthesize_text(word),
            tones.silence(0.1, RATE)])
        return client.sound_from_samples(audio, PCM16_8K), audio

    def test_train_and_recognize_live(self, server, client):
        synth = FormantSynthesizer(RATE)
        loud, recognizer = self._build(client)
        for word in ("open", "close"):
            sound, _audio = self._training_sound(client, synth, word)
            recognizer.issue(Command.TRAIN, word=word,
                             sound=sound.sound_id)
        recognizer.issue(Command.LISTEN)
        loud.start_queue()
        client.sync()
        # A user says "close" into the room.
        _sound, spoken = self._training_sound(client, synth, "close")
        server.hub.rooms["desktop"].inject(InjectedSource(np.concatenate(
            [spoken, tones.silence(0.5, RATE)])))
        event = client.wait_for_event(
            lambda e: e.code is EventCode.RECOGNITION, timeout=20)
        assert event is not None
        assert event.args[ev.ARG_WORD] == "close"
        assert float(event.args[ev.ARG_SCORE]) >= 0.0

    def test_set_vocabulary_restricts_live(self, server, client):
        synth = FormantSynthesizer(RATE)
        loud, recognizer = self._build(client)
        for word in ("yes", "no"):
            sound, _audio = self._training_sound(client, synth, word)
            recognizer.issue(Command.TRAIN, word=word,
                             sound=sound.sound_id)
        recognizer.issue(Command.SET_VOCABULARY, words=["yes"])
        recognizer.issue(Command.LISTEN)
        loud.start_queue()
        client.sync()
        _sound, spoken = self._training_sound(client, synth, "no")
        server.hub.rooms["desktop"].inject(InjectedSource(np.concatenate(
            [spoken, tones.silence(0.5, RATE)])))
        event = client.wait_for_event(
            lambda e: e.code is EventCode.RECOGNITION, timeout=8)
        # Either nothing matched, or it matched the only allowed word.
        assert event is None or event.args[ev.ARG_WORD] == "yes"

    def test_save_vocabulary_to_sound(self, server, client):
        synth = FormantSynthesizer(RATE)
        loud, recognizer = self._build(client)
        sound, _audio = self._training_sound(client, synth, "save")
        recognizer.issue(Command.TRAIN, word="save", sound=sound.sound_id)
        snapshot_sound = client.create_sound(PCM16_8K)
        recognizer.issue(Command.SAVE_VOCABULARY,
                         sound=snapshot_sound.sound_id)
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        snapshot = json.loads(snapshot_sound.read().decode("utf-8"))
        assert snapshot["rate"] == RATE
        assert snapshot["templates"][0]["word"] == "save"

    def test_train_untrained_vocabulary_fails(self, server, client):
        loud, recognizer = self._build(client)
        recognizer.issue(Command.SET_VOCABULARY, words=["ghost"])
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None and done.detail == 2

    def test_stop_listening(self, server, client):
        loud, recognizer = self._build(client)
        recognizer.issue(Command.LISTEN)
        loud.start_queue()
        client.sync()
        # The queue starts LISTEN in the hub's next block; a stop that
        # lands before it finds nothing to stop.
        wait_blocks(server, 1)
        recognizer.issue(Command.STOP_LISTENING, CommandMode.IMMEDIATE)
        # LISTEN completes once STOP_LISTENING lands.
        done = client.wait_for_event(
            lambda e: (e.code is EventCode.COMMAND_DONE
                       and e.args.get("command") == int(Command.LISTEN)),
            timeout=10)
        assert done is not None


class TestCrossbarDevice:
    def test_routing_controls_flow(self, server, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        crossbar = loud.create_device(DeviceClass.CROSSBAR,
                                      {"input_count": 2,
                                       "output_count": 2})
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, crossbar, 0)       # into input 0
        loud.wire(crossbar, 3, output, 0)       # output 1 -> speaker
        loud.select_events(EventMask.QUEUE)
        loud.map()
        tone = np.full(800, 4000, dtype=np.int16)
        sound = client.sound_from_samples(tone, PCM16_8K)
        # Not routed yet: silence.
        player.play(sound)
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        assert rms(captured(server)) == 0
        # Route input 0 -> output 1 and play again.
        crossbar.issue(Command.SET_ROUTING, CommandMode.IMMEDIATE,
                       routing=[0, 1])
        player.play(sound)
        assert wait_queue_empty(client, loud)
        assert np.any(captured(server) == 4000)

    def test_bad_routing_rejected(self, server, client):
        loud = client.create_loud()
        crossbar = loud.create_device(DeviceClass.CROSSBAR)
        loud.map()
        crossbar.issue(Command.SET_ROUTING, CommandMode.IMMEDIATE,
                       routing=[5, 0])
        client.sync()
        assert any(error.code is ErrorCode.BAD_VALUE
                   for error in client.conn.errors)

    def test_odd_routing_list_rejected(self, server, client):
        loud = client.create_loud()
        crossbar = loud.create_device(DeviceClass.CROSSBAR)
        loud.map()
        crossbar.issue(Command.SET_ROUTING, CommandMode.IMMEDIATE,
                       routing=[0])
        client.sync()
        assert any(error.code is ErrorCode.BAD_VALUE
                   for error in client.conn.errors)


class TestDspDevice:
    def _build(self, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        dsp = loud.create_device(DeviceClass.DSP)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, dsp, 0)
        loud.wire(dsp, 1, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        return loud, player, dsp

    def test_echo_program_produces_tail(self, server, client):
        loud, player, dsp = self._build(client)
        dsp.issue(Command.SET_PROGRAM, CommandMode.IMMEDIATE,
                  program="echo:100:0.5")
        burst = np.full(400, 8000, dtype=np.int16)  # 50 ms burst
        player.play(client.sound_from_samples(burst, PCM16_8K))
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        # Keep the hub running past the burst so echoes emerge.
        start = server.hub.clock.sample_time
        server.hub.clock.wait_until(start + RATE)
        output = captured(server)
        nonzero = np.nonzero(output)[0]
        # The echo tail extends well beyond the 400-sample burst.
        assert nonzero[-1] - nonzero[0] > 1000

    def test_lowpass_program(self, server, client):
        loud, player, dsp = self._build(client)
        dsp.issue(Command.SET_PROGRAM, CommandMode.IMMEDIATE,
                  program="lowpass:0.05")
        high = tones.sine(3500.0, 0.2, RATE)
        player.play(client.sound_from_samples(high, PCM16_8K))
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        # Heavy lowpass: the 3.5 kHz tone is strongly attenuated.
        assert rms(captured(server)) < 0.2 * rms(high)

    def test_bad_program_rejected(self, server, client):
        loud, _player, dsp = self._build(client)
        dsp.issue(Command.SET_PROGRAM, CommandMode.IMMEDIATE,
                  program="reverb:9")
        client.sync()
        assert any(error.code is ErrorCode.BAD_VALUE
                   for error in client.conn.errors)


class TestSynthesizerCommands:
    def _build(self, client):
        loud = client.create_loud()
        synthesizer = loud.create_device(DeviceClass.SYNTHESIZER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(synthesizer, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        return loud, synthesizer

    def test_set_values_changes_duration(self, server, client):
        loud, synthesizer = self._build(client)
        text = "testing one two three"
        synthesizer.speak_text(text)
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        slow_frames = int(np.count_nonzero(captured(server)))
        server.hub.speakers[0].capture.clear()
        synthesizer.issue(Command.SET_VALUES, rate=2.0)
        synthesizer.speak_text(text)
        assert wait_queue_empty(client, loud)
        fast_frames = int(np.count_nonzero(captured(server)))
        assert fast_frames < slow_frames

    def test_exception_list_changes_audio(self, server, client):
        loud, synthesizer = self._build(client)
        synthesizer.speak_text("dec")
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        default_audio = captured(server).copy()
        server.hub.speakers[0].capture.clear()
        synthesizer.issue(Command.SET_EXCEPTION_LIST,
                          words=["dec"],
                          pronunciations=["D IY EH K"])
        synthesizer.speak_text("dec")
        assert wait_queue_empty(client, loud)
        override_audio = captured(server)
        default_nz = default_audio[default_audio != 0]
        override_nz = override_audio[override_audio != 0]
        assert len(override_nz) != len(default_nz)

    def test_bad_exception_list_rejected(self, server, client):
        loud, synthesizer = self._build(client)
        synthesizer.issue(Command.SET_EXCEPTION_LIST,
                          words=["x"], pronunciations=["QQ ZZ"])
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None and done.detail == 2

    def test_set_language_validation(self, server, client):
        loud, synthesizer = self._build(client)
        synthesizer.issue(Command.SET_TEXT_LANGUAGE, language="french")
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None and done.detail == 2


class TestMusicCommands:
    def test_set_voice_waveform_over_protocol(self, server, client):
        loud = client.create_loud()
        music = loud.create_device(DeviceClass.MUSIC)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(music, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        music.issue(Command.SET_VOICE, waveform="square", volume=0.8)
        music.note("A4", beats=2.0)
        loud.start_queue()
        assert wait_queue_empty(client, loud)
        from repro.dsp.goertzel import goertzel_power

        output_samples = captured(server)
        # A square wave has strong odd harmonics: 3x440 = 1320 Hz.
        fundamental = goertzel_power(output_samples, 440.0, RATE)
        third = goertzel_power(output_samples, 1320.0, RATE)
        assert third > 0.05 * fundamental

    def test_bad_note_fails_command(self, server, client):
        loud = client.create_loud()
        music = loud.create_device(DeviceClass.MUSIC)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        music.issue(Command.NOTE, note="H9")
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None and done.detail == 2


class TestStreamSounds:
    def test_stream_playback_with_flow_control(self, server, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        loud.select_events(EventMask.QUEUE | EventMask.DATA)
        loud.map()
        stream = client.create_sound(MULAW_8K)
        stream.make_stream(buffer_frames=RATE, low_water_frames=RATE // 4)
        stream.select_events(EventMask.DATA)
        audio = tones.sine(440.0, 3.0, RATE)
        data = encodings.encode(audio, MULAW_8K)
        chunk = RATE // 2
        cursor = chunk
        stream.write(data[:chunk])
        player.play(stream)
        loud.start_queue()
        requests_seen = 0
        while cursor < len(data):
            event = client.wait_for_event(
                lambda e: e.code is EventCode.DATA_REQUEST, timeout=15)
            assert event is not None, "no DATA_REQUEST flow control"
            assert int(event.args[ev.ARG_FRAMES_WANTED]) > 0
            stream.write(data[cursor:cursor + chunk])
            cursor += chunk
            requests_seen += 1
        assert requests_seen >= 4
        assert wait_for(
            lambda: rms(captured(server)) > 0)

    def test_stream_on_nonempty_sound_rejected(self, server, client):
        sound = client.sound_from_samples(tones.sine(440, 0.1, RATE),
                                          MULAW_8K)
        sound.make_stream(8000, 2000)
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_stream_read_drains_fifo(self, server, client):
        # Stream reads are destructive FIFO drains (paper 6.2's
        # client-side reading of real-time data).
        stream = client.create_sound(MULAW_8K)
        stream.make_stream(8000, 2000)
        from repro.dsp.encodings import mulaw_encode

        stream.write(mulaw_encode(np.full(100, 5000, dtype=np.int16)))
        first = stream.read(0, 60)
        second = stream.read(0, 60)
        assert len(first) == 60
        assert len(second) == 40    # the rest; the FIFO is now empty
        assert stream.read(0, 60) == b""

    def test_adpcm_stream_rejected(self, server, client):
        from repro.protocol.types import ADPCM_8K, ErrorCode

        stream = client.create_sound(ADPCM_8K)
        stream.make_stream(8000, 2000)
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_live_recording_monitor(self, server, client):
        """Record into a stream sound and drain it live over the
        protocol, guided by DATA_AVAILABLE events."""
        loud = client.create_loud()
        microphone = loud.create_device(DeviceClass.INPUT)
        recorder = loud.create_device(DeviceClass.RECORDER)
        loud.wire(microphone, 0, recorder, 0)
        loud.select_events(EventMask.QUEUE | EventMask.RECORDER
                           | EventMask.DATA)
        loud.map()
        from repro.hardware import InjectedSource

        server.hub.rooms["desktop"].inject(
            InjectedSource(tones.sine(440.0, 1.0, RATE), repeat=True))
        live = client.create_sound(MULAW_8K)
        live.make_stream(4 * RATE, RATE)
        live.select_events(EventMask.DATA)
        from repro.protocol.types import RecordTermination

        recorder.record(live, termination=int(RecordTermination.MAX_LENGTH),
                        max_length_ms=1000)
        loud.start_queue()
        drained = bytearray()
        while len(drained) < RATE:  # collect at least one second
            event = client.wait_for_event(
                lambda e: e.code is EventCode.DATA_AVAILABLE, timeout=15)
            assert event is not None
            chunk = live.read(0, 4000)
            drained.extend(chunk)
        from repro.dsp.encodings import mulaw_decode
        from repro.dsp.goertzel import goertzel_power

        audio = mulaw_decode(bytes(drained))
        assert goertzel_power(audio, 440.0, RATE) > 1e4

    def test_stream_rate_must_match_device_layer(self, server, client):
        from repro.protocol.types import PCM16_CD

        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        stream = client.create_sound(PCM16_CD)
        stream.make_stream(44100, 4410)
        player.issue(Command.PLAY, sound=stream.sound_id)
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None and done.detail == 2


class TestDeviceSubclassing:
    """The extension story: 'Our approach is to provide a device
    subclassing mechanism in the server, allowing extension of the class
    hierarchy using existing protocol capabilities' (paper section 2).

    A reversed-player subclass registers under a fresh class code and is
    immediately creatable through the unmodified protocol.
    """

    CUSTOM_CLASS_CODE = 200     # an extension class, beyond the base enum

    def test_register_and_use_custom_class(self, server, client):
        from repro.protocol.attributes import AttributeList
        from repro.protocol.requests import (
            CreateVirtualDevice,
            CreateWire,
            IssueCommand,
        )
        from repro.protocol.types import DeviceClass as DC
        from repro.server.vdevices import PlayerDevice
        from repro.server.vdevices.base import DEVICE_CLASS_REGISTRY

        custom_code = self.CUSTOM_CLASS_CODE

        class ReversedPlayer(PlayerDevice):
            """Plays sounds backwards (a subclass, per paper section 2)."""

            DEVICE_CLASS = custom_code

            def _start_play(self, leaf, at_time):
                handle = super()._start_play(leaf, at_time)
                if handle.samples is not None:
                    handle.samples = handle.samples[::-1].copy()
                return handle

        DEVICE_CLASS_REGISTRY[self.CUSTOM_CLASS_CODE] = ReversedPlayer
        try:
            loud = client.create_loud()
            # CreateVirtualDevice carries the extension class code over
            # the unmodified protocol.
            device_id = client.conn.alloc_id()
            client.conn.send(CreateVirtualDevice(
                device_id, loud.loud_id, self.CUSTOM_CLASS_CODE,
                AttributeList()))
            output = loud.create_device(DC.OUTPUT)
            wire_id = client.conn.alloc_id()
            client.conn.send(CreateWire(wire_id, device_id, 0,
                                        output.device_id, 0))
            loud.select_events(EventMask.QUEUE)
            loud.map()
            ramp = np.arange(1, 1001, dtype=np.int16)
            sound = client.sound_from_samples(ramp, PCM16_8K)
            client.conn.send(IssueCommand(
                loud.loud_id, device_id, Command.PLAY,
                CommandMode.QUEUED, AttributeList({"sound":
                                                   sound.sound_id})))
            loud.start_queue()
            assert wait_queue_empty(client, loud)
            assert not client.conn.errors, client.conn.errors
            played = captured(server)
            nonzero = played[played != 0]
            # Reversed: descending ramp.
            assert np.array_equal(nonzero, ramp[::-1])
        finally:
            DEVICE_CLASS_REGISTRY.pop(self.CUSTOM_CLASS_CODE, None)
