"""Integration tests: mapping, binding, the active stack, exclusivity."""

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp.mixing import rms
from repro.hardware import HardwareConfig, LineSpec, SpeakerSpec
from repro.protocol.types import (
    DeviceClass,
    ErrorCode,
    EventCode,
    EventMask,
    PCM16_8K,
    QueueState,
)
from repro.server import AudioServer

from conftest import speaker_audio, wait_for

RATE = 8000


@pytest.fixture
def two_speaker_server():
    config = HardwareConfig(
        speakers=(SpeakerSpec("left-speaker"), SpeakerSpec("right-speaker")))
    audio_server = AudioServer(config)
    audio_server.start()
    yield audio_server
    audio_server.stop()


@pytest.fixture
def speakerphone_server():
    audio_server = AudioServer(HardwareConfig(speakerphone=True))
    audio_server.start()
    yield audio_server
    audio_server.stop()


def connect(server, name="test"):
    return AudioClient(port=server.port, client_name=name)


class TestBinding:
    def test_loose_specification_binds_any_speaker(self, two_speaker_server):
        client = connect(two_speaker_server)
        try:
            loud = client.create_loud()
            output = loud.create_device(DeviceClass.OUTPUT)
            loud.map()
            bound = output.query().attributes
            assert bound["name"] in ("left-speaker", "right-speaker")
        finally:
            client.close()

    def test_tight_specification_by_name(self, two_speaker_server):
        # "give me the left speaker"
        client = connect(two_speaker_server)
        try:
            loud = client.create_loud()
            output = loud.create_device(DeviceClass.OUTPUT,
                                        {"name": "right-speaker"})
            loud.map()
            assert output.query().attributes["name"] == "right-speaker"
        finally:
            client.close()

    def test_unsatisfiable_attributes_fail_map(self, client):
        loud = client.create_loud()
        loud.create_device(DeviceClass.OUTPUT, {"name": "no-such-speaker"})
        loud.map()
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)
        assert not loud.query().mapped

    def test_augment_pins_binding(self, two_speaker_server):
        # The paper's idiom: map, query the chosen device-id, augment.
        client = connect(two_speaker_server)
        try:
            loud = client.create_loud()
            output = loud.create_device(DeviceClass.OUTPUT)
            loud.map()
            chosen = output.pin_to_current_binding()
            loud.unmap()
            loud.map()
            assert int(output.query().attributes["device-id"]) == chosen
        finally:
            client.close()

    def test_software_devices_need_no_binding(self, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        loud.map()
        info = loud.query()
        assert info.mapped and info.active

    def test_only_root_louds_map(self, client):
        root = client.create_loud()
        child = root.create_child()
        child.map()
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_child_loud_devices_bind_with_root(self, client):
        root = client.create_loud()
        child = root.create_child()
        output = child.create_device(DeviceClass.OUTPUT)
        root.map()
        assert output.query().attributes.get("device-id") is not None


class TestActiveStack:
    def test_map_activates(self, client):
        loud = client.create_loud()
        loud.create_device(DeviceClass.OUTPUT)
        loud.select_events(EventMask.LIFECYCLE)
        loud.map()
        event = client.wait_for_event(
            lambda e: e.code is EventCode.ACTIVATE_NOTIFY, timeout=5)
        assert event is not None
        info = loud.query()
        assert info.mapped and info.active and info.stack_index == 0

    def test_new_map_goes_on_top(self, client):
        first = client.create_loud()
        first.create_device(DeviceClass.OUTPUT)
        second = client.create_loud()
        second.create_device(DeviceClass.OUTPUT)
        first.map()
        second.map()
        assert second.query().stack_index == 0
        assert first.query().stack_index == 1

    def test_speakers_are_shared(self, client, second_client):
        # Two LOUDs both bound to the one speaker: both active.
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.OUTPUT)
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.OUTPUT)
        loud_a.map()
        loud_b.map()
        assert loud_a.query().active
        assert loud_b.query().active

    def test_telephone_line_is_exclusive(self, client, second_client):
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.TELEPHONE)
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_a.map()
        client.sync()
        loud_b.map()
        second_client.sync()
        # b mapped on top: b active, a deactivated (one line, exclusive).
        assert loud_b.query().active
        assert not loud_a.query().active

    def test_unmap_reactivates_lower_loud(self, client, second_client):
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.TELEPHONE)
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_a.map()
        client.sync()
        loud_b.map()
        second_client.sync()
        assert not loud_a.query().active
        loud_b.unmap()
        second_client.sync()
        assert wait_for(lambda: loud_a.query().active)

    def test_restack_to_bottom_yields(self, client, second_client):
        # "Lower priority LOUDs can be put on the bottom of the stack to
        # yield to higher priority LOUDs."
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.TELEPHONE)
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_a.map()
        loud_b.map()
        assert loud_b.query().active
        loud_b.lower_to_bottom()
        assert wait_for(lambda: loud_a.query().active)
        assert not loud_b.query().active

    def test_restack_unmapped_errors(self, client):
        loud = client.create_loud()
        loud.raise_to_top()
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_deactivation_pauses_queue_reactivation_resumes(
            self, server, client, second_client):
        # The paper 5.5: server-paused queues resume on activation.
        loud_a = client.create_loud()
        telephone_a = loud_a.create_device(DeviceClass.TELEPHONE)
        player_a = loud_a.create_device(DeviceClass.PLAYER)
        loud_a.wire(player_a, 0, telephone_a, 1)
        loud_a.select_events(EventMask.QUEUE | EventMask.LIFECYCLE)
        loud_a.map()
        loud_a.start_queue()
        client.sync()
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_b.map()
        second_client.sync()
        assert loud_a.query_queue().state is QueueState.SERVER_PAUSED
        loud_b.unmap()
        assert wait_for(lambda: loud_a.query_queue().state
                        is QueueState.STARTED)

    def test_playback_survives_preemption(self, server, client,
                                          second_client):
        """A deactivated LOUD's play resumes where it left off."""
        loud_a = client.create_loud()
        telephone_a = loud_a.create_device(DeviceClass.TELEPHONE)
        player_a = loud_a.create_device(DeviceClass.PLAYER)
        output_a = loud_a.create_device(DeviceClass.OUTPUT)
        loud_a.wire(player_a, 0, output_a, 0)
        loud_a.select_events(EventMask.QUEUE)
        loud_a.map()
        ramp = np.arange(1, 16001, dtype=np.int16)
        sound = client.sound_from_samples(ramp, PCM16_8K)
        player_a.play(sound)
        loud_a.start_queue()
        assert wait_for(lambda: rms(
            server.hub.speakers[0].capture.samples()) > 0)
        # Preempt with a telephone LOUD (exclusive line).
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_b.map()
        second_client.sync()
        assert not loud_a.query().active
        loud_b.unmap()
        assert wait_for(lambda: loud_a.query().active)
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        played = speaker_audio(server)
        nonzero = played[played != 0]
        # No sample lost or replayed across the preemption.
        assert np.array_equal(nonzero, ramp)


class TestAmbientDomains:
    def test_exclusive_input_preempts_domain_outputs_not(self, client,
                                                         second_client):
        """Exclusive input claims all inputs in the domain, leaving
        outputs alone (paper section 5.8)."""
        # Client B uses the microphone (shared).
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.INPUT)
        loud_b.map()
        second_client.sync()
        assert loud_b.query().active
        # Client A requests the mic exclusively.
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.INPUT, {"exclusive_input": True})
        loud_a.map()
        client.sync()
        assert loud_a.query().active
        assert not loud_b.query().active
        # An output-only LOUD is unaffected.
        loud_c = second_client.create_loud()
        loud_c.create_device(DeviceClass.OUTPUT)
        loud_c.map()
        assert loud_c.query().active

    def test_exclusive_output(self, client, second_client):
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.OUTPUT)
        loud_b.map()
        second_client.sync()
        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.OUTPUT, {"exclusive_output": True})
        loud_a.map()
        client.sync()
        assert loud_a.query().active
        assert wait_for(lambda: not loud_b.query().active)

    def test_domain_constrained_binding(self, speakerphone_server):
        client = connect(speakerphone_server)
        try:
            loud = client.create_loud()
            output = loud.create_device(DeviceClass.OUTPUT,
                                        {"ambient_domain": "desktop"})
            loud.map()
            assert output.query().attributes["ambient-domain"] == "desktop"
        finally:
            client.close()


class TestHardWiring:
    def test_speakerphone_parts_listed_as_hard_wired(self,
                                                     speakerphone_server):
        client = connect(speakerphone_server)
        try:
            devices = client.device_loud()
            speakerphone = [device for device in devices
                            if device.name.startswith("speakerphone")]
            assert len(speakerphone) == 3
            for device in speakerphone:
                assert len(device.hard_wired_to) == 2
        finally:
            client.close()

    def test_wire_across_hard_boundary_fails_map(self, speakerphone_server):
        """Paper 5.2: wiring one part of the speakerphone to a device
        that is not another part of it generates an error."""
        client = connect(speakerphone_server)
        try:
            loud = client.create_loud()
            microphone = loud.create_device(
                DeviceClass.INPUT, {"name": "speakerphone-mic"})
            telephone = loud.create_device(
                DeviceClass.TELEPHONE, {"name": "line-0"})  # NOT the
            # speakerphone's own line: a hard-wiring violation.
            crossbar = loud.create_device(DeviceClass.CROSSBAR,
                                          {"input_count": 1,
                                           "output_count": 1})
            loud.wire(microphone, 0, telephone, 1)
            loud.map()
            client.sync()
            assert any(error.code is ErrorCode.BAD_ACCESS
                       for error in client.conn.errors)
        finally:
            client.close()

    def test_wire_within_hard_group_allowed(self, speakerphone_server):
        client = connect(speakerphone_server)
        try:
            loud = client.create_loud()
            microphone = loud.create_device(
                DeviceClass.INPUT, {"name": "speakerphone-mic"})
            telephone = loud.create_device(
                DeviceClass.TELEPHONE, {"name": "speakerphone-line"})
            loud.wire(microphone, 0, telephone, 1)
            loud.map()
            client.sync()
            assert not client.conn.errors
            assert loud.query().active
        finally:
            client.close()


class TestStateSaveRestore:
    def test_gain_restored_across_deactivation(self, server, client,
                                               second_client):
        from repro.protocol.types import CommandMode

        loud_a = client.create_loud()
        loud_a.create_device(DeviceClass.TELEPHONE)
        output_a = loud_a.create_device(DeviceClass.OUTPUT)
        loud_a.map()
        output_a.change_gain(40, mode=CommandMode.IMMEDIATE)
        client.sync()
        # Preempt, then restore.
        loud_b = second_client.create_loud()
        loud_b.create_device(DeviceClass.TELEPHONE)
        loud_b.map()
        second_client.sync()
        assert not loud_a.query().active
        loud_b.unmap()
        assert wait_for(lambda: loud_a.query().active)
        # The gain survived deactivation (state save/restore, 5.4).
        vdevice = server.resources.maybe_get(output_a.device_id)
        assert vdevice.gain == pytest.approx(0.4)


class TestMultiLineBinding:
    @pytest.fixture
    def two_line_server(self):
        config = HardwareConfig(
            lines=(LineSpec("line-0", "5550100"),
                   LineSpec("line-1", "5550101")))
        audio_server = AudioServer(config)
        audio_server.start()
        yield audio_server
        audio_server.stop()

    def test_bind_line_by_phone_number(self, two_line_server):
        client = connect(two_line_server)
        try:
            loud = client.create_loud()
            telephone = loud.create_device(
                DeviceClass.TELEPHONE, {"phone_number": "5550101"})
            loud.map()
            bound = telephone.query().attributes
            assert bound["phone-number"] == "5550101"
            assert bound["name"] == "line-1"
        finally:
            client.close()

    def test_two_phone_apps_get_different_lines(self, two_line_server):
        first = connect(two_line_server, "app-1")
        second = connect(two_line_server, "app-2")
        try:
            loud_a = first.create_loud()
            phone_a = loud_a.create_device(DeviceClass.TELEPHONE)
            loud_a.map()
            first.sync()
            number_a = phone_a.query().attributes["phone-number"]
            loud_b = second.create_loud()
            phone_b = loud_b.create_device(DeviceClass.TELEPHONE)
            loud_b.map()
            second.sync()
            # Both active: two lines, no exclusivity conflict...
            assert loud_a.query().active and loud_b.query().active
        finally:
            first.close()
            second.close()

    def test_wrong_number_fails_map(self, two_line_server):
        client = connect(two_line_server)
        try:
            loud = client.create_loud()
            loud.create_device(DeviceClass.TELEPHONE,
                               {"phone_number": "9999999"})
            loud.map()
            client.sync()
            assert any(error.code is ErrorCode.BAD_MATCH
                       for error in client.conn.errors)
        finally:
            client.close()
