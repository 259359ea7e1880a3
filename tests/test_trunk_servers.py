"""End-to-end tests: two audio servers federated by a telephony trunk.

This is the acceptance scenario for the distributed exchange: a client
of server A dials a number homed on server B's exchange.  The trunk link
rides through a chaos proxy so fault injection (link reset mid-call) can
exercise the supervision and reconnect paths.

Both servers run with real-time pacing: each hub's block cycle drives
one side of the trunk at 1x, which is what the jitter buffer is designed
against (free-running virtual pacers would shear the two clocks apart).
"""

import pytest

from repro.alib import AudioClient
from repro.chaos import ChaosProxy
from repro.dsp import tones
from repro.dsp.goertzel import goertzel_power
from repro.hardware import HardwareConfig
from repro.protocol import events as ev
from repro.protocol.types import (
    CallProgress,
    DeviceClass,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
    RecordTermination,
)
from repro.server import AudioServer, ServerConfig
from repro.telephony import (
    HangUp,
    SendDtmfSignaled,
    SimulatedParty,
    Speak,
    Wait,
    WaitForConnect,
    WaitForSilence,
)

from conftest import wait_for

RATE = 8000
REMOTE_NUMBER = "5550200"


@pytest.fixture
def federation():
    """Server B (homes 5550200) <- chaos proxy <- server A's trunk."""
    server_b = AudioServer(HardwareConfig(), ServerConfig(
        realtime=True, trunk_listen=("127.0.0.1", 0),
        trunk_name="server-b"))
    server_b.start()
    proxy = ChaosProxy(("127.0.0.1", server_b.trunk.port)).start()
    server_a = AudioServer(HardwareConfig(), ServerConfig(
        realtime=True, trunk_routes=(("55502", "127.0.0.1", proxy.port),),
        trunk_name="server-a"))
    server_a.start()
    assert server_a.trunk.wait_connected(10.0), "trunk never connected"
    yield server_a, server_b, proxy
    server_a.stop()
    proxy.stop()
    server_b.stop()


def add_remote_party(server_b, script=None, answer_after_rings=1):
    """A scripted subscriber on B's exchange, reachable over the trunk."""
    line = server_b.hub.exchange.add_line(REMOTE_NUMBER)
    party = SimulatedParty(line, answer_after_rings=answer_after_rings,
                           script=script)
    server_b.hub.exchange.add_party(party)
    return line, party


def build_phone_loud(client, extra_events=EventMask.NONE):
    loud = client.create_loud()
    telephone = loud.create_device(DeviceClass.TELEPHONE)
    loud.select_events(EventMask.QUEUE | EventMask.TELEPHONE
                       | EventMask.DTMF | extra_events)
    return loud, telephone


class TestCrossServerCalls:
    def test_full_call_lifecycle_across_trunk(self, federation):
        """Dial B's number from A: ring with caller ID, answer, two-way
        audio, signaled DTMF, and clean hangup supervision."""
        server_a, server_b, _proxy = federation
        speech = tones.sine(350.0, 0.6, RATE, amplitude=9000)
        line_b, party = add_remote_party(
            server_b,
            script=[WaitForConnect(),
                    WaitForSilence(0.3),     # until A's prompt ends
                    Speak(speech),
                    SendDtmfSignaled("42"),
                    Wait(1.0),
                    HangUp()])
        rings = []

        class RingListener:
            def on_ring_start(self, caller_info):
                rings.append(caller_info)

        line_b.add_listener(RingListener())

        client = AudioClient(port=server_a.port, client_name="caller")
        try:
            loud, telephone = build_phone_loud(
                client, extra_events=EventMask.RECORDER)
            player = loud.create_device(DeviceClass.PLAYER)
            recorder = loud.create_device(DeviceClass.RECORDER)
            loud.wire(player, 0, telephone, 1)
            loud.wire(telephone, 0, recorder, 0)
            loud.map()
            prompt = client.sound_from_samples(
                tones.sine(440.0, 0.8, RATE), PCM16_8K)
            message = client.create_sound(MULAW_8K)
            telephone.dial(REMOTE_NUMBER)
            player.play(prompt)
            recorder.record(message,
                            termination=int(RecordTermination.ON_HANGUP))
            loud.start_queue()

            # The far line rang with A's caller ID before answering.
            connected = client.wait_for_event(
                lambda e: (e.code is EventCode.CALL_PROGRESS
                           and e.detail == int(CallProgress.CONNECTED)),
                timeout=20)
            assert connected is not None
            assert len(rings) == 1
            assert rings[0].number == "5550100"
            assert rings[0].forwarded_from is None

            # The party's signaled digits arrive as DTMF events on A.
            digits = []
            for _ in range(2):
                event = client.wait_for_event(
                    lambda e: e.code is EventCode.DTMF_NOTIFY,
                    timeout=20)
                assert event is not None
                digits.append(event.args[ev.ARG_DIGIT])
            assert digits == ["4", "2"]

            # The far-end hangup supervises A's call.
            hangup = client.wait_for_event(
                lambda e: (e.code is EventCode.CALL_PROGRESS
                           and e.detail == int(CallProgress.HANGUP)),
                timeout=20)
            assert hangup is not None
            assert wait_for(
                lambda: client.wait_for_event(
                    lambda e: e.code is EventCode.RECORD_STOPPED,
                    timeout=10) is not None)

            # Two-way audio made it across: the party heard A's 440 Hz
            # prompt, and A recorded the party's 350 Hz speech.
            heard = party.heard_audio()
            assert goertzel_power(heard, 440.0, RATE) > 100
            recorded = message.read_samples()
            assert goertzel_power(recorded, 350.0, RATE) > 100
        finally:
            client.close()

        # Trunk bearer/jitter metrics are visible in GET_SERVER_STATS.
        stats_client = AudioClient(port=server_a.port,
                                   client_name="stats")
        try:
            stats = stats_client.server_stats()
            assert stats.counters["trunk.frames_out"] > 0
            assert stats.counters["trunk.frames_in"] > 0
            assert stats.counters["trunk.calls.outbound"] == 1
            assert "trunk.jitter.underruns" in stats.counters
            assert "trunk.jitter.depth_samples" in stats.gauges
        finally:
            stats_client.close()

    def test_trunk_reset_mid_call_releases_and_reconnects(self, federation):
        """An injected trunk reset mid-call: both sides see the release
        within the supervision deadline, the gateway reconnects, and the
        reconnect is visible in the stats."""
        server_a, server_b, proxy = federation
        line_b, party = add_remote_party(
            server_b, script=[WaitForConnect(), Wait(30.0)])

        client = AudioClient(port=server_a.port, client_name="caller")
        try:
            loud, telephone = build_phone_loud(client)
            loud.map()
            telephone.dial(REMOTE_NUMBER)
            loud.start_queue()
            assert client.wait_for_event(
                lambda e: (e.code is EventCode.CALL_PROGRESS
                           and e.detail == int(CallProgress.CONNECTED)),
                timeout=20)
            assert wait_for(
                lambda: server_b.hub.exchange.call_for(line_b)
                is not None)

            proxy.sever_all()       # the trunk dies under the call

            # A's client sees the far end hang up ...
            assert client.wait_for_event(
                lambda e: (e.code is EventCode.CALL_PROGRESS
                           and e.detail == int(CallProgress.HANGUP)),
                timeout=20)
            # ... and B's side of the call is torn down too.
            assert wait_for(
                lambda: server_b.hub.exchange.call_for(line_b) is None)

            # The gateway reconnects through the (healed) proxy.
            assert wait_for(lambda: server_a.trunk.connected(),
                            timeout=20)
            stats = client.server_stats()
            assert stats.counters["trunk.reconnects"] >= 1
            assert stats.counters["trunk.connects"] >= 2
        finally:
            client.close()

    def test_remote_busy_crosses_trunk(self, federation):
        server_a, server_b, _proxy = federation
        line_b, _party = add_remote_party(server_b,
                                          answer_after_rings=None)
        line_b.off_hook()           # B's subscriber is busy
        client = AudioClient(port=server_a.port, client_name="caller")
        try:
            loud, telephone = build_phone_loud(client)
            loud.map()
            telephone.dial(REMOTE_NUMBER)
            loud.start_queue()
            busy = client.wait_for_event(
                lambda e: (e.code is EventCode.CALL_PROGRESS
                           and e.detail == int(CallProgress.BUSY)),
                timeout=20)
            assert busy is not None
        finally:
            client.close()
