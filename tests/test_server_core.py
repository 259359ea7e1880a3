"""Integration tests: connection setup, resources, sounds, properties."""

import numpy as np
import pytest

from repro.dsp import tones
from repro.protocol import requests as rq
from repro.protocol.errors import ProtocolError
from repro.protocol.types import (
    ADPCM_8K,
    Command,
    DeviceClass,
    ErrorCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
)

from conftest import wait_for

RATE = 8000


class TestConnectionSetup:
    def test_server_info(self, client):
        info = client.server_info()
        assert info.vendor == "repro desktop audio"
        assert info.sample_rate == RATE
        assert info.block_frames == 160
        assert int(MULAW_8K.encoding) in info.encodings

    def test_multiple_clients_get_disjoint_id_ranges(self, client,
                                                     second_client):
        assert client.conn.id_base != second_client.conn.id_base
        overlap = (
            abs(client.conn.id_base - second_client.conn.id_base)
            <= client.conn.id_mask)
        assert not overlap

    def test_device_loud_lists_hardware(self, client):
        devices = client.device_loud()
        classes = sorted(device.device_class for device in devices)
        assert DeviceClass.OUTPUT in classes
        assert DeviceClass.INPUT in classes
        assert DeviceClass.TELEPHONE in classes
        phone = [device for device in devices
                 if device.device_class is DeviceClass.TELEPHONE][0]
        assert phone.attributes["phone-number"] == "5550100"

    def test_ambient_domains(self, client):
        domains = client.ambient_domains()
        assert "desktop" in domains
        assert "telephone" in domains
        assert len(domains["desktop"]) == 2  # speaker + mic

    def test_time_advances(self, client):
        first = client.time()
        assert wait_for(lambda: client.time().sample_time
                        > first.sample_time)

    def test_bad_protocol_version_rejected(self, server):
        import socket

        from repro.protocol.setup import SetupReply, SetupRequest

        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            sock.sendall(SetupRequest(major=99).encode())
            reply = SetupReply.read_from(sock)
            assert not reply.accepted
            assert "version" in reply.reason
        finally:
            sock.close()


class TestErrors:
    def test_bad_loud_error(self, client):
        with pytest.raises(ProtocolError) as info:
            client.conn.round_trip(rq.QueryLoud(999999999))
        assert info.value.code is ErrorCode.BAD_LOUD

    def test_bad_id_choice(self, client):
        # An id outside the client's granted range.
        client.conn.send(rq.CreateLoud(1))  # server-owned id
        client.sync()
        assert any(error.code is ErrorCode.BAD_ID_CHOICE
                   for error in client.conn.errors)

    def test_id_reuse_rejected(self, client):
        loud = client.create_loud()
        client.conn.send(rq.CreateLoud(loud.loud_id))
        client.sync()
        assert any(error.code is ErrorCode.BAD_ID_CHOICE
                   for error in client.conn.errors)

    def test_async_errors_carry_sequence(self, client):
        client.conn.send(rq.DestroyLoud(424242))
        client.sync()
        assert client.conn.errors
        error = client.conn.errors[0]
        assert error.code is ErrorCode.BAD_LOUD
        assert error.opcode == int(rq.DestroyLoud.OPCODE)
        assert error.sequence > 0


class TestSounds:
    def test_create_write_read_roundtrip(self, client):
        tone = tones.sine(440.0, 0.1, RATE)
        sound = client.sound_from_samples(tone, MULAW_8K)
        info = sound.query()
        assert info.frame_length == len(tone)
        back = sound.read_samples()
        # mu-law is lossy but close.
        assert len(back) == len(tone)
        assert np.max(np.abs(back.astype(int) - tone.astype(int))) < 2100

    def test_pcm16_sound_is_exact(self, client):
        tone = tones.sine(440.0, 0.05, RATE)
        sound = client.sound_from_samples(tone, PCM16_8K)
        assert np.array_equal(sound.read_samples(), tone)

    def test_adpcm_sound(self, client):
        tone = tones.sine(440.0, 0.2, RATE)
        sound = client.sound_from_samples(tone, ADPCM_8K)
        info = sound.query()
        assert info.byte_length < len(tone)  # compressed
        back = sound.read_samples()
        assert len(back) >= len(tone)

    def test_write_at_offset(self, client):
        sound = client.create_sound(MULAW_8K)
        sound.write(b"\xff" * 10, offset=0)
        sound.write(b"\x00" * 5, offset=20)   # creates a gap
        assert sound.query().byte_length == 25

    def test_system_catalogue(self, client):
        names = client.list_catalogue("system")
        assert "beep" in names
        assert "dial-tone" in names
        beep = client.load_sound("beep")
        assert beep.query().frame_length > 0

    def test_default_catalogue_is_system(self, client):
        assert "beep" in client.list_catalogue()

    def test_unknown_catalogue_entry(self, client):
        with pytest.raises(ProtocolError) as info:
            client.load_sound("does-not-exist")
            client.sync()
        # The error may arrive on the QuerySound round trip instead.
        assert info.value.code in (ErrorCode.BAD_NAME, ErrorCode.BAD_SOUND)

    def test_destroy_sound(self, client):
        sound = client.create_sound()
        sound.destroy()
        with pytest.raises(ProtocolError):
            sound.query()


class TestLoudTree:
    def test_create_and_query(self, client):
        root = client.create_loud(attributes={"name": "machine"})
        child = root.create_child()
        info = root.query()
        assert info.parent == 0
        assert child.loud_id in info.children
        assert not info.mapped
        assert info.attributes["name"] == "machine"

    def test_devices_listed(self, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        info = loud.query()
        assert player.device_id in info.devices

    def test_destroy_subtree(self, client):
        root = client.create_loud()
        child = root.create_child()
        device = child.create_device(DeviceClass.PLAYER)
        root.destroy()
        with pytest.raises(ProtocolError):
            child.query()
        with pytest.raises(ProtocolError):
            device.query()

    def test_child_loud_has_no_queue(self, client):
        root = client.create_loud()
        child = root.create_child()
        with pytest.raises(ProtocolError) as info:
            child.query_queue()
        assert info.value.code is ErrorCode.BAD_MATCH

    def test_query_virtual_device_ports(self, client):
        loud = client.create_loud()
        telephone = loud.create_device(DeviceClass.TELEPHONE)
        info = telephone.query()
        assert info.device_class is DeviceClass.TELEPHONE
        directions = [direction for _idx, direction, _t in info.ports]
        assert directions == [0, 1]  # source then sink

    def test_queued_play_on_a_descendant_device_is_accepted(self, client):
        root = client.create_loud()
        root.create_child().create_device(DeviceClass.PLAYER)
        player = root.create_child().create_child().create_device(
            DeviceClass.PLAYER)
        player.play(client.load_sound("beep"))
        client.sync()
        assert client.conn.errors == []

    def test_queued_play_on_another_roots_device_is_bad_device(self, client):
        root = client.create_loud()
        root.create_child().create_device(DeviceClass.PLAYER)
        foreign = client.create_loud().create_child().create_device(
            DeviceClass.PLAYER)
        root.issue(foreign, Command.PLAY,
                   sound=client.load_sound("beep").sound_id)
        client.sync()
        assert [(error.code, error.resource)
                for error in client.conn.errors] == [
            (ErrorCode.BAD_DEVICE, foreign.device_id)]

    def test_mixer_port_count_from_attributes(self, client):
        loud = client.create_loud()
        mixer = loud.create_device(DeviceClass.MIXER,
                                   {"input_count": 4})
        info = mixer.query()
        assert len(info.ports) == 5


class TestWires:
    def _player_output(self, client, output_attrs=None):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT, output_attrs)
        return loud, player, output

    def test_wire_and_query(self, client):
        loud, player, output = self._player_output(client)
        wire = loud.wire(player, 0, output, 0)
        info = wire.query()
        assert info.source_device == player.device_id
        assert info.sink_device == output.device_id
        assert info.wire_type == MULAW_8K

    def test_type_mismatch_rejected(self, client):
        # The paper's exact example: mu-law vs ADPCM -> error.
        loud = client.create_loud()
        player = loud.create_device(
            DeviceClass.PLAYER, {"encoding": int(ADPCM_8K.encoding)})
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_direction_mismatch_rejected(self, client):
        loud, player, output = self._player_output(client)
        loud.wire(output, 0, player, 0)     # output port 0 is a sink
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_cross_tree_wire_rejected(self, client):
        loud_a = client.create_loud()
        loud_b = client.create_loud()
        player = loud_a.create_device(DeviceClass.PLAYER)
        output = loud_b.create_device(DeviceClass.OUTPUT)
        loud_a.wire(player, 0, output, 0)
        client.sync()
        assert any(error.code is ErrorCode.BAD_MATCH
                   for error in client.conn.errors)

    def test_destroy_wire(self, client):
        loud, player, output = self._player_output(client)
        wire = loud.wire(player, 0, output, 0)
        wire.destroy()
        client.sync()
        assert player.query().wires == []

    def test_wire_listed_on_device_query(self, client):
        loud, player, output = self._player_output(client)
        wire = loud.wire(player, 0, output, 0)
        assert wire.wire_id in player.query().wires
        assert wire.wire_id in output.query().wires


class TestProperties:
    def test_set_get_list_delete(self, client):
        loud = client.create_loud()
        loud.set_property("DOMAIN", "desktop")
        loud.set_property("priority", 5)
        assert loud.get_property("DOMAIN") == "desktop"
        assert loud.get_property("priority") == 5
        assert client.list_properties(loud.loud_id) == \
            ["DOMAIN", "priority"]
        client.delete_property(loud.loud_id, "DOMAIN")
        assert loud.get_property("DOMAIN") is None

    def test_properties_on_sounds(self, client):
        sound = client.create_sound()
        sound.set_property("label", "message from Chris")
        assert sound.get_property("label") == "message from Chris"

    def test_property_notify_events(self, client, second_client):
        loud = client.create_loud()
        client.sync()
        second_client.select_events(loud.loud_id, EventMask.PROPERTY)
        second_client.sync()
        loud.set_property("DOMAIN", "telephone")
        event = second_client.wait_for_event(
            lambda e: e.resource == loud.loud_id, timeout=5)
        assert event is not None
        assert event.args["property-name"] == "DOMAIN"

    def test_delete_missing_property_errors(self, client):
        loud = client.create_loud()
        client.delete_property(loud.loud_id, "ghost")
        client.sync()
        assert any(error.code is ErrorCode.BAD_PROPERTY
                   for error in client.conn.errors)

    def test_property_on_wire_rejected(self, client):
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        wire = loud.wire(player, 0, output, 0)
        client.change_property(wire.wire_id, "x", 1)
        client.sync()
        assert any(error.code is ErrorCode.BAD_VALUE
                   for error in client.conn.errors)


class TestDisconnectCleanup:
    def test_resources_released(self, server, make_client):
        temporary = make_client("short-lived")
        loud = temporary.create_loud()
        sound = temporary.create_sound()
        loud_id, sound_id = loud.loud_id, sound.sound_id
        temporary.sync()
        assert loud_id in server.resources
        temporary.close()
        assert wait_for(lambda: loud_id not in server.resources)
        assert sound_id not in server.resources

    def test_mapped_loud_unmapped_on_disconnect(self, server, make_client):
        temporary = make_client("mapper")
        loud = temporary.create_loud()
        loud.create_device(DeviceClass.OUTPUT)
        loud.map()
        temporary.sync()
        assert len(server.stack) == 1
        temporary.close()
        assert wait_for(lambda: len(server.stack) == 0)

    def test_manager_slot_released(self, server, make_client):
        first = make_client("manager-1")
        first.set_redirect(True)
        first.sync()
        first.close()
        assert wait_for(lambda: server.manager is None)
        second = make_client("manager-2")
        second.set_redirect(True)
        second.sync()
        assert not second.conn.errors
