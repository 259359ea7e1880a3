"""Integration tests: the telephone device and the answering machine.

This file walks the paper's section 5.9 example end to end: the LOUD of
Figure 5-2, the wiring of Figure 5-3, the command queue of Figure 5-4,
ring monitoring via the device LOUD, and the hangup exception path.
"""


from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.protocol import events as ev
from repro.protocol.types import (
    CallProgress,
    Command,
    CommandMode,
    DeviceClass,
    DeviceState,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
    RecordTermination,
)
from repro.telephony import (
    Dial,
    HangUp,
    SendDtmf,
    SimulatedParty,
    Speak,
    Wait,
    WaitForConnect,
    WaitForSilence,
)

from conftest import build_phone_loud, wait_for

RATE = 8000


def add_remote_party(server, number="5550111", answer_after_rings=1,
                     script=None):
    line = server.hub.exchange.add_line(number)
    party = SimulatedParty(line, answer_after_rings=answer_after_rings,
                           script=script)
    server.hub.exchange.add_party(party)
    return party


class TestOutgoingCalls:
    def test_dial_connects(self, server, client):
        add_remote_party(server)
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        loud.start_queue()
        event = client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.CONNECTED)),
            timeout=15)
        assert event is not None

    def test_dial_command_completes_on_connect(self, server, client):
        add_remote_party(server)
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: (e.code is EventCode.COMMAND_DONE
                       and e.args.get("command") == int(Command.DIAL)),
            timeout=15)
        assert done is not None
        assert done.detail == 0

    def test_dial_bad_number_fails(self, server, client):
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("9999999")
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: (e.code is EventCode.COMMAND_DONE
                       and e.args.get("command") == int(Command.DIAL)),
            timeout=15)
        assert done is not None
        assert done.detail == 2     # failed

    def test_dial_busy_reports_busy(self, server, client):
        # The remote party is already off hook.
        party = add_remote_party(server, answer_after_rings=None)
        party.line.off_hook()
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        loud.start_queue()
        event = client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.BUSY)),
            timeout=15)
        assert event is not None

    def test_play_prompt_to_callee(self, server, client):
        party = add_remote_party(server)
        loud, telephone = build_phone_loud(client)
        player = loud.create_device(DeviceClass.PLAYER)
        loud.wire(player, 0, telephone, 1)
        loud.map()
        prompt = client.sound_from_samples(tones.sine(440.0, 0.5, RATE),
                                           PCM16_8K)
        telephone.dial("5550111")
        player.play(prompt)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        assert wait_for(lambda: rms(party.heard_audio()) > 1000)

    def test_send_dtmf_heard_by_callee(self, server, client):
        party = add_remote_party(server)
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        telephone.send_dtmf("123")
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        assert wait_for(lambda: len(party.heard_audio()) > 0)
        from repro.dsp.dtmf import DtmfDetector

        detector = DtmfDetector(RATE)
        digits = detector.feed(party.heard_audio())
        assert digits == ["1", "2", "3"]

    def test_pause_queue_during_dial_stops_it(self, server, client):
        # Dial cannot pause -> pausing the queue stops it (paper 5.5).
        party = add_remote_party(server, answer_after_rings=3)
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.DIALING)),
            timeout=15)
        loud.pause_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STOPPED, timeout=15)

    def test_hang_up_immediate(self, server, client):
        add_remote_party(server)
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.dial("5550111")
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.CONNECTED)),
            timeout=15)
        telephone.issue(Command.HANG_UP, CommandMode.IMMEDIATE)
        assert client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.IDLE)),
            timeout=15)


class TestIncomingCalls:
    def test_device_loud_ring_monitoring(self, server, client):
        """Unmapped LOUDs cannot see rings; the device LOUD can
        (paper section 5.9, footnote 6)."""
        phone_id = [device.device_id for device in client.device_loud()
                    if device.device_class is DeviceClass.TELEPHONE][0]
        client.select_events(phone_id, EventMask.DEVICE_STATE)
        client.sync()
        add_remote_party(server, answer_after_rings=None,
                         script=[Dial("5550100")])
        event = client.wait_for_event(
            lambda e: (e.code is EventCode.DEVICE_STATE
                       and e.detail == int(DeviceState.RINGING)),
            timeout=15)
        assert event is not None
        assert event.args[ev.ARG_CALLER_ID] == "5550111"

    def test_ring_event_on_mapped_telephone(self, server, client):
        loud, telephone = build_phone_loud(client)
        loud.map()
        client.sync()
        add_remote_party(server, answer_after_rings=None,
                         script=[Dial("5550100")])
        event = client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=15)
        assert event is not None
        assert event.args[ev.ARG_CALLER_ID] == "5550111"

    def test_forwarded_call_reports_original_number(self, server, client):
        # A call to 5550200 forwards to our line after no answer.  Map
        # and sync *before* the caller dials: forwarding fires after 6
        # virtual seconds of ringing, which can beat a slow map.
        loud, telephone = build_phone_loud(client)
        loud.map()
        client.sync()
        forwarded_line = server.hub.exchange.add_line("5550200")
        forwarded_line.forward_to = "5550100"
        add_remote_party(server, answer_after_rings=None,
                         script=[Dial("5550200")])
        event = client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=20)
        assert event is not None
        assert event.args[ev.ARG_CALLER_ID] == "5550111"
        assert event.args[ev.ARG_FORWARDED_FROM] == "5550200"

    def test_incoming_dtmf_decoded(self, server, client):
        loud, telephone = build_phone_loud(client)
        loud.map()
        telephone.answer()      # preloaded; runs when the queue starts
        client.sync()           # selections and mapping are in place
        add_remote_party(server, answer_after_rings=None,
                         script=[Dial("5550100"), WaitForConnect(),
                                 Wait(0.3), SendDtmf("42")])
        assert client.wait_for_event(
            lambda e: e.code is EventCode.TELEPHONE_RING, timeout=15)
        loud.start_queue()
        digits = []
        for _ in range(2):
            event = client.wait_for_event(
                lambda e: e.code is EventCode.DTMF_NOTIFY, timeout=15)
            assert event is not None
            digits.append(event.args[ev.ARG_DIGIT])
        assert digits == ["4", "2"]


class TestAnsweringMachine:
    """The paper's full section 5.9 walk-through."""

    def build_answering_machine(self, client):
        """Figure 5-2/5-3: telephone + player + recorder, wired."""
        machine = client.create_loud(attributes={"name":
                                                 "answering-machine"})
        telephone = machine.create_device(DeviceClass.TELEPHONE)
        player = machine.create_device(DeviceClass.PLAYER)
        recorder = machine.create_device(DeviceClass.RECORDER)
        # "The output sink of the player is connected to the input of the
        # telephone ... The output of the telephone is connected to the
        # recorder's input source."
        machine.wire(player, 0, telephone, 1)
        machine.wire(telephone, 0, recorder, 0)
        machine.select_events(EventMask.QUEUE | EventMask.TELEPHONE
                              | EventMask.RECORDER | EventMask.LIFECYCLE)
        return machine, telephone, player, recorder

    def preload_queue(self, client, machine, telephone, player, recorder,
                      greeting, beep, message,
                      termination=RecordTermination.ON_PAUSE,
                      max_length_ms=None):
        """Figure 5-4: Answer; Play greeting; Play beep; Record."""
        telephone.answer()
        player.play(greeting)
        player.play(beep)
        recorder.record(message, termination=int(termination),
                        max_length_ms=max_length_ms,
                        pause_seconds=0.6)

    def test_take_a_message(self, server, client):
        caller_speech = tones.sine(350.0, 1.0, RATE, amplitude=9000)
        machine, telephone, player, recorder = \
            self.build_answering_machine(client)
        greeting = client.sound_from_samples(
            tones.sine(500.0, 0.8, RATE), MULAW_8K)
        beep = client.load_sound("beep")
        message = client.create_sound(MULAW_8K)
        # "Since most of the time the phone is not ringing, the LOUD can
        # stay unmapped.  The queue commands can be preloaded."
        self.preload_queue(client, machine, telephone, player, recorder,
                           greeting, beep, message)
        client.sync()
        # Monitor the device LOUD for the ring.
        phone_id = [device.device_id for device in client.device_loud()
                    if device.device_class is DeviceClass.TELEPHONE][0]
        client.select_events(phone_id, EventMask.DEVICE_STATE)
        client.sync()
        # Only now does the caller dial, so the ring cannot race the
        # event selection.
        party = add_remote_party(
            server, answer_after_rings=None,
            script=[Dial("5550100"), WaitForConnect(),
                    WaitForSilence(0.3),    # greeting then beep end
                    Speak(caller_speech),
                    Wait(1.2)])             # pause -> recording terminates
        ring = client.wait_for_event(
            lambda e: (e.code is EventCode.DEVICE_STATE
                       and e.detail == int(DeviceState.RINGING)),
            timeout=15)
        assert ring is not None
        # "When the phone rings, the application would raise the LOUD to
        # the top of the active stack, map it and start the queue."
        machine.map()
        machine.start_queue()
        stopped = client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STOPPED, timeout=30)
        assert stopped is not None
        # The caller heard the greeting and the beep.
        heard = party.heard_audio()
        from repro.dsp.goertzel import goertzel_power

        assert goertzel_power(heard, 500.0, RATE) > 100    # greeting
        assert goertzel_power(heard, 1000.0, RATE) > 100   # beep
        # The machine recorded the caller's 350 Hz message.
        recorded = message.read_samples()
        assert len(recorded) > RATE // 2
        assert goertzel_power(recorded, 350.0, RATE) > 100

    def test_caller_hangs_up_early(self, server, client):
        """The exception path: 'The caller may hang up before the beep
        is played ... The application will get a CallProgress event that
        says that the phone is now hung up, and can then stop the queue
        and get ready for the next call.'"""
        party = add_remote_party(
            server, answer_after_rings=None,
            script=[Dial("5550100"), WaitForConnect(), Wait(0.3),
                    HangUp()])
        machine, telephone, player, recorder = \
            self.build_answering_machine(client)
        greeting = client.sound_from_samples(
            tones.sine(500.0, 5.0, RATE), MULAW_8K)   # long greeting
        beep = client.load_sound("beep")
        message = client.create_sound(MULAW_8K)
        self.preload_queue(client, machine, telephone, player, recorder,
                           greeting, beep, message,
                           termination=RecordTermination.ON_HANGUP)
        machine.map()
        machine.start_queue()
        hangup = client.wait_for_event(
            lambda e: (e.code is EventCode.CALL_PROGRESS
                       and e.detail == int(CallProgress.HANGUP)),
            timeout=20)
        assert hangup is not None
        machine.stop_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_STOPPED, timeout=10)

    def test_record_terminates_on_hangup(self, server, client):
        """Record with ON_HANGUP termination ends when the caller
        hangs up (paper: termination condition 'when the caller hangs
        up')."""
        caller_speech = tones.sine(350.0, 0.6, RATE, amplitude=9000)
        party = add_remote_party(
            server, answer_after_rings=None,
            script=[Dial("5550100"), WaitForConnect(),
                    WaitForSilence(0.3),
                    Speak(caller_speech), HangUp()])
        machine, telephone, player, recorder = \
            self.build_answering_machine(client)
        greeting = client.sound_from_samples(
            tones.sine(500.0, 0.5, RATE), MULAW_8K)
        beep = client.load_sound("beep")
        message = client.create_sound(MULAW_8K)
        self.preload_queue(client, machine, telephone, player, recorder,
                           greeting, beep, message,
                           termination=RecordTermination.ON_HANGUP)
        machine.map()
        machine.start_queue()
        stopped = client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STOPPED, timeout=30)
        assert stopped is not None
        recorded = message.read_samples()
        from repro.dsp.goertzel import goertzel_power

        assert goertzel_power(recorded, 350.0, RATE) > 100
