"""Tests for toolkit dialogue pieces: PromptAndRecord, submenus,
and queue pause timing behaviour exposed at the toolkit level."""

import numpy as np

from repro.dsp import tones
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
    QueueState,
)
from repro.telephony import (
    Dial,
    SendDtmf,
    SimulatedParty,
    Wait,
    WaitForConnect,
    WaitForSilence,
)
from repro.toolkit import PromptAndRecord, TouchToneMenu, build_phone_menu


RATE = 8000


class TestPromptAndRecord:
    def _build(self, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        microphone = loud.create_device(DeviceClass.INPUT)
        recorder = loud.create_device(DeviceClass.RECORDER)
        loud.wire(player, 0, output, 0)
        loud.wire(microphone, 0, recorder, 0)
        loud.select_events(EventMask.QUEUE | EventMask.RECORDER)
        loud.map()
        return PromptAndRecord(client, loud, player, recorder)

    def test_full_dialogue(self, server, client):
        dialogue = self._build(client)
        prompt = client.sound_from_samples(
            tones.sine(500.0, 0.4, RATE), MULAW_8K)
        beep = client.load_sound("beep")
        take = dialogue.run(prompt, beep, max_length_ms=400,
                            pause_seconds=None)
        assert dialogue.wait_done(timeout=30)
        assert take.query().frame_length == int(0.4 * RATE)

    def test_prompt_heard_at_speaker(self, server, client):
        dialogue = self._build(client)
        prompt = client.sound_from_samples(
            tones.sine(500.0, 0.4, RATE), MULAW_8K)
        beep = client.load_sound("beep")
        dialogue.run(prompt, beep, max_length_ms=200, pause_seconds=None)
        assert dialogue.wait_done(timeout=30)
        from repro.dsp.goertzel import goertzel_power

        played = server.hub.speakers[0].capture.samples()
        assert goertzel_power(played, 500.0, RATE) > 100   # prompt
        assert goertzel_power(played, 1000.0, RATE) > 100  # beep


class TestSubmenus:
    def test_submenu_descends(self, server, client):
        results = []
        menu, loud = build_phone_menu(client, "main menu")
        submenu = TouchToneMenu(client, loud, menu.telephone,
                                menu.synthesizer, "sub menu")
        def deep_action():
            results.append("deep")
            return "deep"

        submenu.add_choice("1", "deep-option", action=deep_action)
        menu.add_choice("9", "more", submenu=submenu)
        loud.map()
        client.sync()
        line = server.hub.exchange.add_line("5550160")
        server.hub.exchange.add_party(SimulatedParty(line, script=[
            Dial("5550100"), WaitForConnect(),
            WaitForSilence(0.5), SendDtmf("9"),
            WaitForSilence(0.5), SendDtmf("1"),
            Wait(3.0)]))
        assert client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=15)
        menu.telephone.answer()
        result = menu.run_once(timeout=40)
        assert results == ["deep"]
        assert result == "deep"

    def test_invalid_digit_speaks_error(self, server, client):
        menu, loud = build_phone_menu(client, "pick one")
        menu.add_choice("1", "only")
        loud.map()
        client.sync()
        line = server.hub.exchange.add_line("5550161")
        server.hub.exchange.add_party(SimulatedParty(line, script=[
            Dial("5550100"), WaitForConnect(),
            WaitForSilence(0.5), SendDtmf("7"), Wait(3.0)]))
        assert client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=15)
        menu.telephone.answer()
        result = menu.run_once(timeout=40)
        assert result is None


class TestQueuePauseTiming:
    def test_pause_shifts_delay_intervals(self, server, client):
        """Queue-relative time suspends while paused (paper 5.5): a
        Delay interval must not 'burn down' during a client pause."""
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        marker = np.full(800, 3000, dtype=np.int16)
        sound = client.sound_from_samples(marker, PCM16_8K)
        loud.delay(250)
        player.play(sound)
        loud.delay_end()
        # Start and pause with the audio clock stopped.  The hub free-runs
        # at CPU speed, so a shard thread that dispatches the two requests
        # a few milliseconds apart would let the Delay burn down -- and
        # the Play finish, emitting QUEUE_EMPTY -- before the pause.
        server.hub.stop()
        try:
            loud.start_queue()
            loud.pause_queue()
            client.sync()
            assert loud.query_queue().state is QueueState.CLIENT_PAUSED
        finally:
            server.hub.start()
        # Let a lot of audio time pass while paused.
        start = server.hub.clock.sample_time
        server.hub.clock.wait_until(start + RATE)
        loud.resume_queue()
        empty = client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        assert empty
        # Reconstruct exact times from the event stream: the playback
        # must begin at started + 250 ms + (resumed - paused), because
        # queue-relative time was suspended across the pause.
        events = client.pending_events()
        times = {}
        for event in events:
            times.setdefault(event.code, event.sample_time)
        counters = server.stats_snapshot()["counters"]
        missing = {EventCode.QUEUE_STARTED, EventCode.QUEUE_PAUSED,
                   EventCode.QUEUE_RESUMED} - set(times)
        assert not missing, (
            "missing %s; received %s then QUEUE_EMPTY at %d; server "
            "events.QUEUE_RESUMED=%s clients.resumed=%s "
            "clients.evicted_slow=%s" % (
                sorted(code.name for code in missing),
                [(event.code.name, event.sample_time) for event in events],
                empty.sample_time,
                counters.get("events.QUEUE_RESUMED"),
                counters.get("clients.resumed"),
                counters.get("clients.evicted_slow")))
        expected = (times[EventCode.QUEUE_STARTED]
                    + 250 * RATE // 1000
                    + (times[EventCode.QUEUE_RESUMED]
                       - times[EventCode.QUEUE_PAUSED]))
        played = server.hub.speakers[0].capture.samples()
        first = int(np.nonzero(played)[0][0])
        # The capture began at hub sample 0, so `first` is an absolute
        # sample time; allow a block of rounding.
        assert abs(first - expected) <= 2 * 160

    def test_resume_before_anything_started(self, server, client):
        loud = client.create_loud()
        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        loud.start_queue()
        loud.pause_queue()
        loud.resume_queue()
        client.sync()
        assert loud.query_queue().state is QueueState.STARTED
