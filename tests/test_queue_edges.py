"""Edge cases of queue semantics over the protocol."""

import collections
import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.alib import AudioClient
from repro.dsp import tones
from repro.hardware import HardwareConfig
from repro.protocol.types import (
    Command,
    CommandMode,
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
    QueueState,
)
from repro.server import AudioServer
from repro.server.qprogram import QueueProgram
from repro.server.vdevices.playback import PlaybackHandle
from testkit.rig import build_playback_loud

from conftest import wait_for

RATE = 8000
#: tracemalloc filter: allocations made by the package's own code.
SOURCE = [tracemalloc.Filter(True, str(Path(repro.__file__).parent / "*"))]


class TestQueueEdgeCases:
    def test_empty_cobegin_is_a_noop(self, server, client):
        loud, player, _output = build_playback_loud(client)
        marker = np.full(400, 1234, dtype=np.int16)
        sound = client.sound_from_samples(marker, PCM16_8K)
        loud.co_begin()
        loud.co_end()
        player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        played = server.hub.speakers[0].capture.samples()
        assert np.any(played == 1234)

    def test_zero_length_sound_completes(self, server, client):
        loud, player, _output = build_playback_loud(client)
        empty = client.create_sound(PCM16_8K)
        player.play(empty)
        loud.start_queue()
        done = client.wait_for_event(
            lambda e: e.code is EventCode.COMMAND_DONE, timeout=10)
        assert done is not None
        assert done.detail == 0

    def test_zero_delay(self, server, client):
        loud, player, _output = build_playback_loud(client)
        marker = np.full(400, 777, dtype=np.int16)
        sound = client.sound_from_samples(marker, PCM16_8K)
        loud.delay(0)
        player.play(sound)
        loud.delay_end()
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert np.any(server.hub.speakers[0].capture.samples() == 777)

    def test_stop_then_restart_continues_with_new_work(self, server,
                                                       client):
        loud, player, _output = build_playback_loud(client)
        sound = client.sound_from_samples(
            tones.sine(440.0, 3.0, RATE), PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: np.any(
            server.hub.speakers[0].capture.samples()))
        loud.stop_queue()
        loud.flush_queue()
        client.sync()
        assert loud.query_queue().state is QueueState.STOPPED
        # Fresh work on a restarted queue runs normally.
        marker = np.full(400, 3333, dtype=np.int16)
        second = client.sound_from_samples(marker, PCM16_8K)
        player.play(second)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert np.any(server.hub.speakers[0].capture.samples() == 3333)

    def test_pause_of_stopped_queue_is_noop(self, server, client):
        loud, _player, _output = build_playback_loud(client)
        loud.pause_queue()
        client.sync()
        assert loud.query_queue().state is QueueState.STOPPED

    def test_double_start_is_idempotent(self, server, client):
        loud, _player, _output = build_playback_loud(client)
        loud.start_queue()
        loud.start_queue()
        client.sync()
        started = [e for e in client.pending_events()
                   if e.code is EventCode.QUEUE_STARTED]
        assert len(started) == 1

    def test_command_serials_increase(self, server, client):
        loud, player, _output = build_playback_loud(client)
        sound = client.sound_from_samples(
            np.full(100, 5, dtype=np.int16), PCM16_8K)
        for _ in range(3):
            player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        serials = [e.args["command-serial"]
                   for e in client.pending_events()
                   if e.code is EventCode.COMMAND_DONE]
        assert len(serials) == 3
        assert serials == sorted(serials)

    def test_completed_counter_accumulates(self, server, client):
        loud, player, _output = build_playback_loud(client)
        sound = client.sound_from_samples(
            np.full(100, 5, dtype=np.int16), PCM16_8K)
        player.play(sound)
        player.play(sound)
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        assert loud.query_queue().completed == 2

    def test_immediate_command_on_unmapped_loud_ignored(self, server,
                                                        client):
        # "Any commands sent to them will be ignored until activated."
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        player.issue(Command.STOP, CommandMode.IMMEDIATE)
        client.sync()
        assert not client.conn.errors

    def test_nested_cobegin_inside_delay(self, server, client):
        # delay { cobegin { A B } } : A and B start together, late.
        loud = client.create_loud()
        player_a = loud.create_device(DeviceClass.PLAYER)
        player_b = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player_a, 0, output, 0)
        loud.wire(player_b, 0, output, 0)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        a = np.full(600, 1000, dtype=np.int16)
        b = np.full(600, 40, dtype=np.int16)
        loud.delay(100)
        loud.co_begin()
        player_a.play(client.sound_from_samples(a, PCM16_8K))
        player_b.play(client.sound_from_samples(b, PCM16_8K))
        loud.co_end()
        loud.delay_end()
        loud.start_queue()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=10)
        played = server.hub.speakers[0].capture.samples()
        # Perfectly mixed for the full 600 samples.
        assert int(np.count_nonzero(played == 1040)) == 600
        assert not np.any(played == 1000)
        assert not np.any(played == 40)


class TestImmediatePauseResume:
    def test_device_pause_resume_mid_play(self, server, client):
        loud, player, _output = build_playback_loud(client)
        ramp = np.arange(1, 12001, dtype=np.int16)
        sound = client.sound_from_samples(ramp, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        assert wait_for(lambda: np.any(
            server.hub.speakers[0].capture.samples()))
        player.pause()          # immediate, device-level
        client.sync()
        marker = len(server.hub.speakers[0].capture.samples())
        start = server.hub.clock.sample_time
        server.hub.clock.wait_until(start + 4000)
        frozen = server.hub.speakers[0].capture.samples()[marker:]
        assert not np.any(frozen)       # silent while device paused
        player.resume()
        assert client.wait_for_event(
            lambda e: e.code is EventCode.QUEUE_EMPTY, timeout=15)
        played = server.hub.speakers[0].capture.samples()
        nonzero = played[played != 0]
        # Sample-exact continuation: the full ramp, once, in order.
        assert np.array_equal(nonzero, ramp)


@pytest.fixture
def stepped():
    """A server whose hub moves only when the test steps it, and one
    client; a block is 160 samples, so capture index = sample time."""
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="stepped")
    yield server, client
    client.close()
    server.stop()


def build_pair(client):
    """One mapped LOUD with two players on one output, no events
    selected."""
    loud = client.create_loud()
    player_a = loud.create_device(DeviceClass.PLAYER)
    player_b = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player_a, 0, output, 0)
    loud.wire(player_b, 0, output, 0)
    loud.map()
    return loud, player_a, player_b


def flat(client, frames, value):
    return client.sound_from_samples(
        np.full(frames, value, dtype=np.int16), PCM16_8K)


def step(server, client, blocks):
    client.sync()
    server.hub.step(blocks)
    return server.hub.speakers[0].capture.samples()


class TestBracketCompletion:
    """A bracket completes only once its closing command arrives, and a
    CoBegin starts its branches together once it is closed."""

    def test_cobegin_on_a_drained_queue_plays_both_branches(self, stepped):
        server, client = stepped
        loud, player_a, player_b = build_pair(client)
        player_a.play(flat(client, 160, 7))
        loud.start_queue()
        step(server, client, 2)         # the warm-up ends at 160: dry
        loud.co_begin()
        player_a.play(flat(client, 400, 1000))
        player_b.play(flat(client, 600, 40))
        loud.co_end()
        played = step(server, client, 8)
        # Both start at 320, the first sample after the bracket arrived.
        assert np.array_equal(played[:160], np.full(160, 7))
        assert not np.any(played[160:320])
        assert np.array_equal(played[320:720], np.full(400, 1040))
        assert np.array_equal(played[720:920], np.full(200, 40))
        assert not np.any(played[920:])
        assert loud.query_queue().pending == 0

    def test_delay_on_a_drained_queue_plays_then_continues(self, stepped):
        server, client = stepped
        loud, player_a, player_b = build_pair(client)
        player_a.play(flat(client, 160, 7))
        loud.start_queue()
        step(server, client, 2)
        # The Delay arrives at 320, after the warm-up ended at 160: it
        # counts from its arrival.
        loud.delay(100)
        player_a.play(flat(client, 400, 1000))
        loud.delay_end()
        player_b.play(flat(client, 300, 40))
        played = step(server, client, 13)
        assert not np.any(played[160:1120])
        assert np.array_equal(played[1120:1520], np.full(400, 1000))
        assert np.array_equal(played[1520:1820], np.full(300, 40))
        assert not np.any(played[1820:])
        assert loud.query_queue().pending == 0

    def test_delay_on_a_long_dry_queue_counts_from_its_arrival(
            self, stepped):
        server, client = stepped
        loud, player_a, _player_b = build_pair(client)
        player_a.play(flat(client, 160, 7))
        loud.start_queue()
        step(server, client, 15)        # dry since 160, now at 2400
        loud.delay(100)
        player_a.play(flat(client, 400, 1000))
        loud.delay_end()
        played = step(server, client, 10)
        assert not np.any(played[160:3200])
        assert np.array_equal(played[3200:3600], np.full(400, 1000))
        assert not np.any(played[3600:])
        assert loud.query_queue().pending == 0

    def test_work_issued_to_a_paused_dry_queue_counts_from_the_resume(
            self, stepped):
        server, client = stepped
        loud, player_a, player_b = build_pair(client)
        player_a.play(flat(client, 160, 7))
        loud.start_queue()
        step(server, client, 2)         # dry since 160, now at 320
        loud.pause_queue()
        step(server, client, 5)
        player_b.play(flat(client, 160, 40))
        loud.delay(100)
        player_a.play(flat(client, 400, 1000))
        loud.delay_end()
        step(server, client, 5)
        loud.resume_queue()             # at 1920
        played = step(server, client, 12)
        assert not np.any(played[160:1920])
        assert np.array_equal(played[1920:2080], np.full(160, 40))
        assert not np.any(played[2080:2880])
        assert np.array_equal(played[2880:3280], np.full(400, 1000))
        assert not np.any(played[3280:])

    def test_predecessor_ending_inside_an_open_cobegin(self, stepped):
        server, client = stepped
        loud, player_a, player_b = build_pair(client)
        player_a.play(flat(client, 480, 7))
        loud.start_queue()
        loud.co_begin()
        player_a.play(flat(client, 400, 1000))
        step(server, client, 4)         # the Play before ends at 480
        player_b.play(flat(client, 600, 40))
        loud.co_end()
        player_a.play(flat(client, 200, 5))
        played = step(server, client, 10)
        assert np.array_equal(played[:480], np.full(480, 7))
        # The bracket closed at 640: both branches start there together.
        assert not np.any(played[480:640])
        assert np.array_equal(played[640:1040], np.full(400, 1040))
        assert np.array_equal(played[1040:1240], np.full(200, 40))
        assert np.array_equal(played[1240:1440], np.full(200, 5))
        assert not np.any(played[1440:])
        assert loud.query_queue().pending == 0

    def test_flushed_running_queue_takes_new_work(self, stepped):
        server, client = stepped
        loud, player_a, _player_b = build_pair(client)
        player_a.play(flat(client, 320, 7))
        player_a.play(flat(client, 320, 9))
        loud.start_queue()
        step(server, client, 1)
        loud.flush_queue()
        player_a.play(flat(client, 160, 1000))
        played = step(server, client, 4)
        assert not np.any(played == 9)
        assert np.count_nonzero(played == 1000) == 160
        assert loud.query_queue().pending == 0


class TestRetainedMemory:
    @staticmethod
    def growth_over_plays(snapshot):
        """``src/repro`` allocation growth over 3,000 one-block Plays on
        one queue, after 500 to warm up; ``snapshot()`` takes each side."""
        server = AudioServer(HardwareConfig(capture_output=False))
        server.start(start_hub=False)
        client = AudioClient(port=server.port, client_name="soak")
        tracemalloc.start()
        try:
            loud, player, _other = build_pair(client)
            beep = flat(client, 160, 1000)
            loud.start_queue()

            def plays(count, batch=100):
                for _ in range(count // batch):
                    for _ in range(batch):
                        player.play(beep)
                    step(server, client, batch)

            plays(500)
            before = snapshot()
            plays(3000)
            after = snapshot()
            assert loud.query_queue().completed == 3500
        finally:
            tracemalloc.stop()
            client.close()
            server.stop()
        return sum(stat.size_diff
                   for stat in after.compare_to(before, "filename"))

    def test_queue_memory_stays_bounded(self):
        """A long-lived queue keeps only its unfinished work: thousands of
        finished one-block Plays retain nothing of theirs."""

        def retained():
            # Count what is reachable, not what awaits the cycle
            # collector.
            gc.collect()
            return tracemalloc.take_snapshot().filter_traces(SOURCE)

        assert self.growth_over_plays(retained) < 256 * 1024

    def test_finished_commands_need_no_cycle_collector(self):
        """A finished command and its device handle do not point at
        each other, so reference counting alone frees them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            growth = self.growth_over_plays(
                lambda: tracemalloc.take_snapshot().filter_traces(SOURCE))
        finally:
            if enabled:
                gc.enable()
        assert growth < 256 * 1024


class TestRetainedGauge:
    def test_counts_unfinished_commands_until_they_finish(self, stepped):
        """``commands.retained`` in GET_SERVER_STATS: each queue's
        pending plus running commands, read when the stats are taken."""
        server, client = stepped
        loud, player, _other = build_pair(client)
        beep = flat(client, 160, 1000)
        for _ in range(5):
            player.play(beep)
        client.sync()
        assert client.server_stats().gauges["commands.retained"] == 5
        loud.start_queue()
        # A one-block Play is pre-issued in the block it plays in.
        step(server, client, 2)
        assert client.server_stats().gauges["commands.retained"] == 3
        step(server, client, 3)
        assert loud.query_queue().completed == 5
        assert client.server_stats().gauges["commands.retained"] == 0


class TestBoundaryScans:
    def test_play_to_play_boundary_lists_leaves_once_per_phase(
            self, stepped, monkeypatch):
        """The pre phase lists the ready and running leaves once and
        starts what a pre-issue makes ready in the same pass; the wake
        comes from what that pass leaves running.  A gapless Play->Play
        boundary then asks each of these at most twice (a re-scan after
        every start or pre-issue asked four times)."""
        server, client = stepped
        loud, player, _other = build_pair(client)
        player.play(flat(client, 400, 3))   # ends inside block 2
        player.play(flat(client, 800, 5))
        loud.start_queue()
        step(server, client, 2)
        calls = collections.Counter()
        for cls, name in ((QueueProgram, "ready_leaves"),
                          (QueueProgram, "running_leaves"),
                          (PlaybackHandle, "expected_end")):
            original = getattr(cls, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
        played = step(server, client, 1)
        assert list(played[398:402]) == [3, 3, 5, 5]
        assert set(calls) == {"ready_leaves", "running_leaves",
                              "expected_end"}
        assert max(calls.values()) <= 2, dict(calls)
