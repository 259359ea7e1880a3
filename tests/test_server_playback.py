"""Integration tests: playback, mixing, queue semantics, gapless output.

These tests assert the paper's core claims at sample granularity:
back-to-back plays with zero dropped or inserted samples (section 6.2),
CoBegin simultaneity and Delay timing (section 5.5), and multi-client
mixing at a shared speaker (section 2).
"""

import numpy as np

from repro.bench.harness import find_signal
from repro.dsp import encodings, tones
from repro.dsp.mixing import rms
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
    PCM16_CD,
    QueueState,
)

from testkit.rig import build_playback_loud

from conftest import speaker_audio, wait_for, wait_queue_empty

RATE = 8000
#: What the playback LOUDs here select.
EVENTS = (EventMask.QUEUE | EventMask.LIFECYCLE | EventMask.PLAYER
          | EventMask.SYNC)


def lossless(samples):
    """What mu-law storage turns these samples into (for comparisons)."""
    return encodings.mulaw_decode(encodings.mulaw_encode(samples))


def captured(server):
    return speaker_audio(server)


class TestBasicPlayback:
    def test_pcm16_playback_is_sample_exact(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = tones.sine(440.0, 0.25, RATE)
        sound = client.sound_from_samples(tone, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server), tone) is not None

    def test_mulaw_playback_decodes(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = tones.sine(440.0, 0.25, RATE)
        sound = client.sound_from_samples(tone, MULAW_8K)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server), lossless(tone)) is not None

    def test_cd_rate_sound_resampled_to_device_rate(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = tones.sine(440.0, 0.25, 44100)
        sound = client.sound_from_samples(tone, PCM16_CD)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        from repro.dsp.goertzel import goertzel_power

        output = captured(server)
        # The free-running hub captures a varying amount of silence
        # around the tone; measure the played region, not the padding.
        nonzero = np.nonzero(output)[0]
        assert len(nonzero) > 0, "nothing reached the speaker"
        signal = output[nonzero[0]:nonzero[-1] + 1]
        assert goertzel_power(signal, 440.0, RATE) > 1e4

    def test_play_emits_play_started_and_command_done(self, client, server):
        loud, player, _output = build_playback_loud(client, EVENTS)
        sound = client.sound_from_samples(tones.sine(300, 0.1, RATE),
                                          PCM16_8K)
        player.play(sound)
        loud.start_queue()
        started = client.wait_for_event(
            lambda e: e.code is EventCode.PLAY_STARTED, timeout=10)
        assert started is not None
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None
        assert done.args["command"] == int(Command.PLAY)
        assert done.detail == 0    # completed, not stopped

    def test_unmapped_loud_plays_nothing(self, server, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        sound = client.sound_from_samples(tones.sine(440, 0.1, RATE),
                                          PCM16_8K)
        player.play(sound)
        loud.start_queue()
        client.sync()
        before = len(captured(server))
        assert wait_for(lambda: len(captured(server)) > before + RATE // 2)
        tail = captured(server)[before:]
        assert rms(tail) == 0

    def test_change_gain_scales_output(self, server, client):
        loud, player, output = build_playback_loud(client, EVENTS)
        tone = np.full(RATE // 4, 10000, dtype=np.int16)
        sound = client.sound_from_samples(tone, PCM16_8K)
        output.change_gain(50, mode=CommandMode.IMMEDIATE)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server),
                           np.full(RATE // 4, 5000, dtype=np.int16)) \
            is not None


class TestGaplessQueue:
    """Paper section 6.2: zero dropped or inserted samples."""

    def test_back_to_back_plays_are_seamless(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        pieces = [np.full(777, fill, dtype=np.int16)
                  for fill in (1000, 2000, 3000)]
        sounds = [client.sound_from_samples(piece, PCM16_8K)
                  for piece in pieces]
        for sound in sounds:
            player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        expected = np.concatenate(pieces)
        assert find_signal(captured(server), expected) is not None

    def test_many_tiny_sounds_in_one_block(self, server, client):
        # Sounds shorter than a block chain within a single block.
        loud, player, _output = build_playback_loud(client, EVENTS)
        pieces = [np.full(37, 100 * (index + 1), dtype=np.int16)
                  for index in range(20)]
        for piece in pieces:
            player.play(client.sound_from_samples(piece, PCM16_8K))
        loud.start_queue()
        wait_queue_empty(client, loud)
        expected = np.concatenate(pieces)
        assert find_signal(captured(server), expected) is not None

    def test_queue_preloaded_before_start(self, server, client):
        # "The queue commands can be preloaded" (paper section 5.9).
        loud, player, _output = build_playback_loud(client, EVENTS)
        a = np.full(500, 123, dtype=np.int16)
        b = np.full(500, -321, dtype=np.int16)
        player.play(client.sound_from_samples(a, PCM16_8K))
        player.play(client.sound_from_samples(b, PCM16_8K))
        client.sync()
        assert loud.query_queue().pending == 2
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server), np.concatenate([a, b])) \
            is not None

    def test_gapless_across_two_players(self, server, client):
        # Play A on player 1, then B on player 2, still seamless.
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(555, 1111, dtype=np.int16)
        b = np.full(555, 2222, dtype=np.int16)
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server), np.concatenate([a, b])) \
            is not None


class TestCoBeginDelay:
    def test_cobegin_starts_simultaneously(self, server, client):
        # Two sounds through two players to one speaker, CoBegin'd:
        # they must mix from the same first sample.
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(800, 1000, dtype=np.int16)
        b = np.full(800, 300, dtype=np.int16)
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.co_end()
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server),
                           np.full(800, 1300, dtype=np.int16)) is not None

    def test_command_after_coend_waits_for_all(self, server, client):
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        short = np.full(300, 500, dtype=np.int16)
        long = np.full(900, 700, dtype=np.int16)
        after = np.full(400, 3000, dtype=np.int16)
        loud.co_begin()
        player_a.play(client.sound_from_samples(short, PCM16_8K))
        player_b.play(client.sound_from_samples(long, PCM16_8K))
        loud.co_end()
        player_a.play(client.sound_from_samples(after, PCM16_8K))
        loud.start_queue()
        wait_queue_empty(client, loud)
        output_samples = captured(server)
        # 'after' must start exactly when 'long' ends: mixed region then
        # solo 700s, then 3000s contiguously.
        start_long = find_signal(output_samples,
                                 np.full(300, 1200, dtype=np.int16))
        assert start_long is not None
        expected_tail = np.concatenate([
            np.full(600, 700, dtype=np.int16),
            np.full(400, 3000, dtype=np.int16)])
        assert find_signal(output_samples, expected_tail) == start_long + 300

    def test_delay_shifts_start_by_exact_frames(self, server, client):
        # The paper's example: cobegin {play A; delay { play B; stop A }}.
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(4000, 1000, dtype=np.int16)     # 500 ms of 1000s
        b = np.full(800, 200, dtype=np.int16)
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        loud.delay(250)     # 250 ms = 2000 frames
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.delay_end()
        loud.co_end()
        loud.start_queue()
        wait_queue_empty(client, loud)
        output_samples = captured(server)
        # Expect exactly 2000 frames of solo A, then 800 mixed, then A.
        expected = np.concatenate([
            np.full(2000, 1000, dtype=np.int16),
            np.full(800, 1200, dtype=np.int16),
            np.full(1200, 1000, dtype=np.int16)])
        assert find_signal(output_samples, expected) is not None

    def test_unbalanced_coend_errors(self, client):
        loud = client.create_loud()
        loud.co_end()
        client.sync()
        assert client.conn.errors


class TestQueueControl:
    def test_queue_states(self, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        assert loud.query_queue().state is QueueState.STOPPED
        loud.start_queue()
        assert loud.query_queue().state is QueueState.STARTED
        loud.pause_queue()
        assert loud.query_queue().state is QueueState.CLIENT_PAUSED
        loud.resume_queue()
        assert loud.query_queue().state is QueueState.STARTED
        loud.stop_queue()
        assert loud.query_queue().state is QueueState.STOPPED

    def test_queue_events(self, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STARTED, timeout=5)
        loud.pause_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_PAUSED, timeout=5)
        loud.resume_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_RESUMED, timeout=5)
        loud.stop_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STOPPED, timeout=5)

    def test_pause_silences_resume_continues_exactly(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        ramp = np.arange(1, 8001, dtype=np.int16)   # distinguishable
        sound = client.sound_from_samples(ramp, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        # Let some play, then pause.
        assert wait_for(lambda: rms(captured(server)) > 0)
        loud.pause_queue()
        client.sync()
        marker = len(captured(server))
        assert wait_for(lambda: len(captured(server)) > marker + RATE // 4)
        paused_region = captured(server)[marker + 800:marker + 1600]
        assert rms(paused_region) == 0      # silence while paused
        loud.resume_queue()
        wait_queue_empty(client, loud)
        # Every sample of the ramp must appear, in order, with no
        # duplication: extract nonzero samples and compare.
        played = captured(server)
        nonzero = played[played != 0]
        assert np.array_equal(nonzero, ramp)

    def test_stop_queue_cancels_play(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        long_tone = tones.sine(440.0, 5.0, RATE)
        sound = client.sound_from_samples(long_tone, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: rms(captured(server)) > 0)
        loud.stop_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=5)
        assert done is not None
        assert done.detail == 1     # stopped, not completed

    def test_immediate_stop_device(self, server, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        sound = client.sound_from_samples(tones.sine(440, 5.0, RATE),
                                          PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: rms(captured(server)) > 0)
        player.stop()   # immediate mode
        done = client.wait_for_event(
            lambda e: (e.code is EventCode.COMMAND_DONE
                       and e.args.get("command") == int(Command.PLAY)),
            timeout=5)
        assert done is not None
        assert done.detail == 1

    def test_flush_discards_pending(self, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        sound = client.sound_from_samples(tones.sine(440, 0.5, RATE),
                                          PCM16_8K)
        player.play(sound)
        player.play(sound)
        player.play(sound)
        client.sync()
        assert loud.query_queue().pending == 3
        loud.flush_queue()
        assert loud.query_queue().pending == 0

    def test_queued_change_gain_between_plays(self, server, client):
        # The paper's footnote 4: Play, queued ChangeGain, Play.
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = np.full(600, 8000, dtype=np.int16)
        sound = client.sound_from_samples(tone, PCM16_8K)
        player.play(sound)
        player.change_gain(25, mode=CommandMode.QUEUED)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        expected = np.concatenate([
            np.full(600, 8000, dtype=np.int16),
            np.full(600, 2000, dtype=np.int16)])
        assert find_signal(captured(server), expected) is not None


class TestMixing:
    def test_two_clients_share_the_speaker(self, server, client,
                                           second_client):
        """The core desktop-audio scenario: two applications, one
        speaker, simultaneous output (paper section 2)."""
        loud_a, player_a, _out_a = build_playback_loud(client, EVENTS)
        loud_b, player_b, _out_b = build_playback_loud(second_client, EVENTS)
        tone_a = np.full(4000, 2000, dtype=np.int16)
        tone_b = np.full(4000, 300, dtype=np.int16)
        sound_a = client.sound_from_samples(tone_a, PCM16_8K)
        sound_b = second_client.sound_from_samples(tone_b, PCM16_8K)
        player_a.play(sound_a)
        player_b.play(sound_b)
        client.sync()
        second_client.sync()
        loud_a.start_queue()
        loud_b.start_queue()
        wait_queue_empty(client, loud_a)
        wait_queue_empty(second_client, loud_b)
        output = captured(server)
        # Somewhere both played at once: 2300s present.
        assert np.any(output == 2300)

    def test_mixer_device_with_gains(self, server, client):
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        mixer = loud.create_device(DeviceClass.MIXER, {"input_count": 2})
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, mixer, 0)
        loud.wire(player_b, 0, mixer, 1)
        loud.wire(mixer, 2, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        mixer.issue(Command.SET_GAIN, CommandMode.IMMEDIATE,
                    input=1, percent=50)
        a = np.full(800, 1000, dtype=np.int16)
        b = np.full(800, 1000, dtype=np.int16)
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.co_end()
        loud.start_queue()
        wait_queue_empty(client, loud)
        # input 0 at 100% + input 1 at 50% = 1500.
        assert find_signal(captured(server),
                           np.full(800, 1500, dtype=np.int16)) is not None


class TestSyncEvents:
    def test_sync_events_track_progress(self, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = tones.sine(440.0, 1.0, RATE)
        sound = client.sound_from_samples(tone, PCM16_8K)
        player.play(sound, sync_interval_ms=100)
        loud.start_queue()
        wait_queue_empty(client, loud)
        progress = [event.args["frames-done"]
                    for event in client.pending_events()
                    if event.code is EventCode.SYNC]
        assert len(progress) >= 9
        assert progress == sorted(progress)
        assert progress[-1] == len(tone)

    def test_sync_events_carry_totals(self, client):
        loud, player, _output = build_playback_loud(client, EVENTS)
        tone = tones.sine(440.0, 0.5, RATE)
        sound = client.sound_from_samples(tone, PCM16_8K)
        player.play(sound, sync_interval_ms=100)
        loud.start_queue()
        event = client.wait_for_event(
            lambda e: e.code is EventCode.SYNC, timeout=10)
        assert event is not None
        assert event.args["frames-total"] == len(tone)


class TestSynthesizerAndMusic:
    def test_speak_text_to_speaker(self, server, client):
        loud = client.create_loud()
        synthesizer = loud.create_device(DeviceClass.SYNTHESIZER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(synthesizer, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        synthesizer.speak_text("hello world")
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert rms(captured(server)) > 100

    def test_set_values_pitch_out_of_range(self, client):
        loud = client.create_loud()
        synthesizer = loud.create_device(DeviceClass.SYNTHESIZER)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        synthesizer.issue(Command.SET_VALUES, pitch=9999.0)
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=5)
        assert done is not None
        assert done.detail == 2     # failed
        assert wait_for(lambda: bool(client.conn.errors))

    def test_music_notes_play_gapless(self, server, client):
        loud = client.create_loud()
        music = loud.create_device(DeviceClass.MUSIC)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(music, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        music.issue(Command.SET_STATE, **{"tempo-bpm": 240.0})
        for name in ("C4", "E4", "G4"):
            music.note(name, beats=1.0)
        loud.start_queue()
        wait_queue_empty(client, loud)
        from repro.dsp.goertzel import goertzel_power

        output_samples = captured(server)
        # All three pitches occurred.
        for frequency in (261.63, 329.63, 392.0):
            assert goertzel_power(output_samples, frequency, RATE) > 10

    def test_dsp_gain_program(self, server, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        dsp = loud.create_device(DeviceClass.DSP)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, dsp, 0)
        loud.wire(dsp, 1, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        dsp.issue(Command.SET_PROGRAM, CommandMode.QUEUED,
                  program="gain:0.5")
        tone = np.full(800, 10000, dtype=np.int16)
        player.play(client.sound_from_samples(tone, PCM16_8K))
        loud.start_queue()
        wait_queue_empty(client, loud)
        assert find_signal(captured(server),
                           np.full(800, 5000, dtype=np.int16)) is not None
