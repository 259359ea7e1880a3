"""Tests for the toolkit: components, Soundviewer, menus, media sync."""

import pytest

from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.protocol import events as ev
from repro.protocol.attributes import AttributeList
from repro.protocol.events import Event
from repro.protocol.types import EventCode, PCM16_8K
from repro.telephony import Dial, SendDtmf, WaitForConnect, \
    WaitForSilence
from repro.toolkit import (
    DesktopPlayer,
    MediaSynchronizer,
    PhoneDialer,
    Soundviewer,
    TapeRecorder,
    build_phone_menu,
)

from conftest import wait_blocks, wait_for

RATE = 8000


def sync_event(frames_done, frames_total):
    return Event(EventCode.SYNC, args=AttributeList({
        ev.ARG_FRAMES_DONE: frames_done,
        ev.ARG_FRAMES_TOTAL: frames_total,
    }))


class TestSoundviewer:
    def test_initial_render_is_empty_bar(self):
        viewer = Soundviewer(total_frames=8000, width=10)
        assert viewer.render().startswith("░" * 10)

    def test_progress_fills_bar(self):
        viewer = Soundviewer(total_frames=8000, width=10)
        assert viewer.handle_event(sync_event(4000, 8000))
        bar = viewer.render()
        assert bar.count("▓") == 5
        assert bar.count("░") == 5
        assert viewer.fraction_done == 0.5

    def test_complete_playback(self):
        viewer = Soundviewer(total_frames=8000, width=10)
        viewer.handle_event(sync_event(8000, 8000))
        assert viewer.render().startswith("▓" * 10)

    def test_non_sync_events_ignored(self):
        viewer = Soundviewer(total_frames=8000)
        assert not viewer.handle_event(Event(EventCode.QUEUE_STARTED))
        assert viewer.repaints == 0

    def test_selection_rendering(self):
        # "The dashes in the middle denote a part of the sound that has
        # been selected, to be pasted into another application."
        viewer = Soundviewer(total_frames=8000, width=10)
        viewer.select(3200, 4800)
        bar = viewer.render()
        assert "-" in bar
        assert viewer.selected_range == (3200, 4800)
        viewer.clear_selection()
        assert "-" not in viewer.render()

    def test_selection_validation(self):
        viewer = Soundviewer(total_frames=8000)
        with pytest.raises(ValueError):
            viewer.select(5000, 4000)
        with pytest.raises(ValueError):
            viewer.select(-1, 100)

    def test_ticks_one_per_second(self):
        viewer = Soundviewer(total_frames=4 * RATE, sample_rate=RATE,
                             width=40)
        ruler = viewer.render_ticks()
        assert ruler.count("|") == 4

    def test_repaint_listener(self):
        viewer = Soundviewer(total_frames=8000)
        seen = []
        viewer.on_repaint(lambda v: seen.append(v.frames_done))
        viewer.handle_event(sync_event(1000, 8000))
        viewer.handle_event(sync_event(2000, 8000))
        assert seen == [1000, 2000]

    def test_bad_total(self):
        with pytest.raises(ValueError):
            Soundviewer(total_frames=0)

    def test_live_sync_events_drive_viewer(self, server, client):
        """Figure 6-1 end-to-end: playback drives the bar graph."""
        player = DesktopPlayer(client)
        player.map()
        tone = tones.sine(440.0, 1.0, RATE)
        sound = client.sound_from_samples(tone, PCM16_8K)
        viewer = Soundviewer(total_frames=len(tone), sample_rate=RATE)
        player.play(sound, sync_interval_ms=100)
        assert player.wait_queue_empty()
        for event in client.pending_events():
            viewer.handle_event(event)
        assert viewer.fraction_done == 1.0
        assert viewer.repaints >= 9


class TestDesktopPlayer:
    def test_play_reaches_speaker(self, server, client):
        player = DesktopPlayer(client)
        player.map()
        player.play_samples(tones.sine(440.0, 0.3, RATE), PCM16_8K,
                            wait=True)
        assert rms(server.hub.speakers[0].capture.samples()) > 0

    def test_say_synthesizes(self, server, client):
        player = DesktopPlayer(client)
        player.map()
        player.say("hello", wait=True)
        assert rms(server.hub.speakers[0].capture.samples()) > 50


class TestTapeRecorder:
    def test_record_and_play_back(self, server, client):
        from repro.hardware import InjectedSource

        recorder = TapeRecorder(client)
        recorder.map()
        server.hub.rooms["desktop"].inject(
            InjectedSource(tones.sine(330.0, 1.0, RATE), repeat=True))
        tape = recorder.record(max_length_ms=500)
        assert client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STOPPED, timeout=15)
        assert tape.query().frame_length == RATE // 2
        recorder.play_back()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=15)

    def test_stop_recording_ends_an_open_ended_recording(self, server,
                                                        client):
        """With no limit the recording runs until stop_recording: the
        only way to end the component's default (explicit) recording."""
        from repro.hardware import InjectedSource

        recorder = TapeRecorder(client)
        recorder.map()
        server.hub.rooms["desktop"].inject(
            InjectedSource(tones.sine(330.0, 1.0, RATE), repeat=True))
        tape = recorder.record()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STARTED, timeout=15)
        wait_blocks(server, 25)     # half a second
        recorder.stop_recording()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STOPPED, timeout=15)
        recorded = tape.query().frame_length
        assert recorded >= RATE // 4
        assert rms(tape.read_samples()) > 1000
        server.hub.speakers[0].capture.clear()
        recorder.play_back()
        assert wait_for(
            lambda: rms(server.hub.speakers[0].capture.samples()) > 1000)

    def test_play_back_before_record_fails(self, server, client):
        recorder = TapeRecorder(client)
        with pytest.raises(RuntimeError):
            recorder.play_back()


class TestPhoneDialer:
    def test_call_and_send_digits(self, server, client):
        from repro.telephony import SimulatedParty

        line = server.hub.exchange.add_line("5550123")
        party = SimulatedParty(line, answer_after_rings=1)
        server.hub.exchange.add_party(party)
        dialer = PhoneDialer(client)
        dialer.call("5550123")
        assert dialer.wait_connected()
        dialer.send_digits("99")
        from repro.dsp.dtmf import DtmfDetector

        def digits_heard():
            return DtmfDetector(RATE).feed(party.heard_audio()) == ["9", "9"]

        assert wait_for(digits_heard, timeout=15)
        dialer.hang_up()


class TestTouchToneMenu:
    def test_menu_dispatches_on_digit(self, server, client):
        from repro.telephony import SimulatedParty

        results = []
        menu, loud = build_phone_menu(
            client, "press one for weather, two for news")
        menu.add_choice("1", "weather",
                        action=lambda: results.append("weather"))
        menu.add_choice("2", "news", action=lambda: results.append("news"))
        loud.map()
        client.sync()
        line = server.hub.exchange.add_line("5550150")
        party = SimulatedParty(
            line, answer_after_rings=None,
            script=[Dial("5550100"), WaitForConnect(),
                    WaitForSilence(0.4), SendDtmf("2")])
        server.hub.exchange.add_party(party)
        # Answer the incoming call, then run the menu.
        assert client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=15)
        menu.telephone.answer()
        result = menu.run_once(timeout=30)
        assert result == "news" or results == ["news"]

    def test_duplicate_digit_rejected(self, server, client):
        menu, _loud = build_phone_menu(client, "prompt")
        menu.add_choice("1", "a")
        with pytest.raises(ValueError):
            menu.add_choice("1", "b")


class TestMediaSynchronizer:
    def test_cues_fire_in_order(self):
        synchronizer = MediaSynchronizer()
        fired = []
        synchronizer.add_cue(100, "first", lambda: fired.append(1))
        synchronizer.add_cue(200, "second", lambda: fired.append(2))
        names = synchronizer.handle_event(sync_event(150, 1000))
        assert names == ["first"]
        names = synchronizer.handle_event(sync_event(250, 1000))
        assert names == ["second"]
        assert fired == [1, 2]
        assert synchronizer.remaining == 0

    def test_multiple_cues_in_one_event(self):
        synchronizer = MediaSynchronizer()
        synchronizer.add_cues_every(100, 5)
        names = synchronizer.handle_event(sync_event(450, 1000))
        assert len(names) == 5

    def test_cue_validation(self):
        with pytest.raises(ValueError):
            MediaSynchronizer().add_cue(-1, "bad")

    def test_slideshow_against_live_playback(self, server, client):
        """Paper section 5.7's scenario: image flips timed by the audio
        server's sync events."""
        player = DesktopPlayer(client)
        player.map()
        sound = client.sound_from_samples(tones.sine(440.0, 1.0, RATE),
                                          PCM16_8K)
        shown = []
        synchronizer = MediaSynchronizer()
        synchronizer.add_cues_every(RATE // 4, 4,
                                    action=lambda i: shown.append(i))
        player.play(sound, sync_interval_ms=50)
        assert player.wait_queue_empty()
        for event in client.pending_events():
            synchronizer.handle_event(event)
        assert shown == [0, 1, 2, 3]
