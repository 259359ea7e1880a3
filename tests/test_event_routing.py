"""Event routing: the interest table and when a block's events leave.

"The server generally sends an event to an application only if the
application specifically asked to be informed of that event type."
(paper section 5.7)  The router keeps every SelectEvents in one table
keyed by resource id; a selection dies with its resource and with its
client, and a block's events are delivered only once the hardware has
ended that block.
"""

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.alib.api import LoudHandle
from repro.hardware import HardwareConfig
from repro.protocol import requests as rq
from repro.protocol.types import (
    PCM16_8K,
    DeviceClass,
    EventCode,
    EventMask,
)
from repro.server import AudioServer

from conftest import wait_for

BLOCK = 160


@pytest.fixture
def stepped():
    """A server whose hub only moves when the test steps it."""
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    clients = []

    def connect(name):
        client = AudioClient(port=server.port, client_name=name)
        clients.append(client)
        return client

    yield server, connect
    for client in clients:
        client.close()
    server.stop()


def _player_loud(client, loud=None):
    # Not testkit's build_playback_loud: this selects no events and can
    # add a player to an existing LOUD.
    loud = loud or client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.map()
    return loud, player


def _tone(client, frames=400):
    return client.sound_from_samples(
        np.full(frames, 1000, dtype=np.int16), PCM16_8K)


class TestDeliveryAfterBlockEnd:
    def test_events_leave_after_the_capture_holds_their_block(self,
                                                              stepped):
        server, connect = stepped
        client = connect("capture-reader")
        loud, player = _player_loud(client)
        loud.select_events(EventMask.QUEUE)
        player.play(_tone(client, 333))
        loud.start_queue()
        client.sync()
        (connection,) = server.clients_snapshot()
        capture = server.hub.speakers[0].capture
        seen = []
        send_events = connection.send_events

        def recording(batched):
            seen.append((server.hub.sample_time, len(capture),
                         [event.code for event in batched]))
            send_events(batched)

        connection.send_events = recording
        server.hub.step(5)
        codes = [code for _block, _held, batch in seen for code in batch]
        assert EventCode.QUEUE_EMPTY in codes
        for block_start, held, _batch in seen:
            assert held == block_start + BLOCK

    def test_failed_block_still_delivers_its_events(self, stepped):
        server, connect = stepped
        client = connect("crash-witness")
        loud, player = _player_loud(client)
        loud.select_events(EventMask.PLAYER)
        player.play(_tone(client))
        loud.start_queue()
        client.sync()

        def fail(*_args):
            raise RuntimeError("render failed")

        server.render_pool.render = fail
        with pytest.raises(RuntimeError):
            server.hub.step(1)
        assert client.wait_for_event(
            lambda event: event.code is EventCode.PLAY_STARTED, timeout=5)


class TestInterestTable:
    def test_reused_id_hears_nothing_until_selected(self, stepped):
        server, connect = stepped
        client = connect("reuser")
        loud, _player = _player_loud(client)
        loud.select_events(EventMask.QUEUE | EventMask.PLAYER)
        loud_id = loud.loud_id
        loud.destroy()
        client.sync()
        (connection,) = server.clients_snapshot()
        assert connection.selection_for(loud_id) == EventMask.NONE

        client.conn.send(rq.CreateLoud(loud_id))
        reborn, player = _player_loud(client, LoudHandle(client, loud_id,
                                                         None))
        player.play(_tone(client))
        reborn.start_queue()
        client.sync()
        server.hub.step(5)
        client.sync()
        assert client.pending_events() == []

        reborn.select_events(EventMask.QUEUE)
        player.play(_tone(client))
        client.sync()
        server.hub.step(5)
        client.sync()
        assert EventCode.COMMAND_DONE in [
            event.code for event in client.pending_events()
            if event.resource == loud_id]

    def test_create_select_destroy_cycles_leave_no_entries(self, stepped):
        server, connect = stepped
        client = connect("churn")
        client.sync()
        before = len(server.events._interest)
        for _ in range(1000):
            loud = client.create_loud()
            loud.select_events(EventMask.QUEUE)
            loud.destroy()
        client.sync()
        assert client.conn.errors == []
        assert len(server.events._interest) <= before

    def test_departed_client_leaves_no_selection(self, stepped):
        server, connect = stepped
        owner = connect("owner")
        watcher = connect("watcher")
        loud = owner.create_loud()
        owner.sync()
        watcher.select_events(loud.loud_id, EventMask.PROPERTY)
        watcher.sync()
        assert len(server.events._interest[loud.loud_id]) == 1
        watcher.close()
        assert wait_for(lambda: loud.loud_id not in server.events._interest)
        loud.set_property("DOMAIN", "desktop")
        owner.sync()
        assert server.clients_snapshot()[0].name == "owner"

    def test_one_event_per_client_in_connection_order(self, stepped):
        server, connect = stepped
        first = connect("first")
        second = connect("second")
        loud, player = _player_loud(first)
        first.sync()
        # The later connection selects first; the earlier one selects
        # both the device and its LOUD.
        second.select_events(loud.loud_id, EventMask.PLAYER)
        second.sync()
        player.select_events(EventMask.PLAYER)
        loud.select_events(EventMask.PLAYER)
        player.play(_tone(first))
        loud.start_queue()
        first.sync()
        delivered = []
        deliver = server.events._deliver

        def recording(client, event):
            delivered.append((client.name, event.code))
            deliver(client, event)

        server.events._deliver = recording
        server.hub.step(1)
        assert delivered == [("first", EventCode.PLAY_STARTED),
                             ("second", EventCode.PLAY_STARTED)]
