"""Chaos harness: the client library must survive a hostile network.

The paper's premise is *distributed* audio -- applications and server on
different machines -- so the network can and will fail mid-session.
These tests route live Alib traffic through the in-process
:class:`~testkit.chaos.proxy.ChaosProxy` and check the resilience
contracts of docs/RELIABILITY.md: seeded fault schedules replay
deterministically, a ``reconnect=True`` client survives a mid-playback
connection reset by resuming its id range and replaying its session
journal, and a storm of chaos-afflicted clients never disturbs a
well-behaved one.
"""

import errno
import threading

import pytest

from repro.alib import (
    AlibDisconnected,
    AudioClient,
    ConnectionError_,
    connection,
)
from repro.dsp import tones
from repro.dsp.mixing import rms
from repro.obs import MetricsRegistry
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    OpCode,
    PCM16_8K,
)
from testkit.chaos.schedule import UP, FaultSchedule
from testkit.rig import FAST, scaled

from conftest import wait_for

RATE = 8000


def build_playback(client, seconds=1.0):
    """A standard play graph; returns (loud, player, sound)."""
    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    sound = client.sound_from_samples(
        tones.sine(440.0, seconds, RATE), PCM16_8K)
    return loud, player, sound


class TestScheduleDeterminism:
    TRAFFIC = [(UP, n) for n in (8, 100, 17, 65536, 3, 2048)] * 4

    def _schedule(self, seed):
        return FaultSchedule(seed, latency=0.001, jitter=0.002,
                             truncate_probability=0.2,
                             reset_probability=0.1,
                             partition_probability=0.05)

    def test_same_seed_same_decisions(self):
        first = self._schedule(seed=1234).fingerprint(self.TRAFFIC)
        second = self._schedule(seed=1234).fingerprint(self.TRAFFIC)
        assert first == second

    def test_different_seed_different_decisions(self):
        first = self._schedule(seed=1).fingerprint(self.TRAFFIC)
        second = self._schedule(seed=2).fingerprint(self.TRAFFIC)
        assert first != second

    def test_fingerprint_does_not_disturb_live_state(self):
        schedule = self._schedule(seed=9)
        live = [schedule.decide(UP, n) for _direction, n in self.TRAFFIC[:6]]
        schedule2 = self._schedule(seed=9)
        schedule2.fingerprint(self.TRAFFIC)     # consumes nothing live
        replay = [schedule2.decide(UP, n)
                  for _direction, n in self.TRAFFIC[:6]]
        assert live == replay

    def test_reset_after_bytes_fires_once_at_offset(self):
        schedule = FaultSchedule(0, reset_after_bytes={UP: 100})
        assert not schedule.decide(UP, 60).reset
        assert schedule.decide(UP, 60).reset        # 120 >= 100
        assert not schedule.decide(UP, 60).reset    # one-shot


class TestProxyPassthrough:
    def test_clean_proxy_is_transparent(self, server, chaos_proxy):
        client = AudioClient(port=chaos_proxy.port, client_name="through")
        try:
            loud, player, sound = build_playback(client)
            player.play(sound)
            loud.start_queue()
            done = client.wait_for_event(
                lambda e: e.code is EventCode.COMMAND_DONE, timeout=15)
            assert done is not None
            assert rms(server.hub.speakers[0].capture.samples()) > 0
        finally:
            client.close()

    def test_proxy_metrics_count_traffic(self, server, make_chaos_proxy):
        metrics = MetricsRegistry()
        proxy = make_chaos_proxy(metrics=metrics)
        client = AudioClient(port=proxy.port, client_name="counted")
        try:
            client.server_info()
        finally:
            client.close()
        counters = metrics.snapshot()["counters"]
        assert counters["chaos.connections"] == 1
        assert counters["chaos.bytes_up"] > 0
        assert counters["chaos.bytes_down"] > 0


class TestReconnect:
    def test_reconnect_survives_reset_mid_playback(self, server,
                                                   chaos_proxy):
        """The headline acceptance test: sever mid-playback, then the
        client reconnects, resumes its id range, replays its journal,
        and a subsequent play completes normally."""
        client = AudioClient(port=chaos_proxy.port, client_name="phoenix",
                             reconnect=True, request_timeout=5.0)
        try:
            loud, player, sound = build_playback(client, seconds=20.0)
            player.play(sound)
            loud.start_queue()
            client.sync()
            old_base = client.conn.id_base
            chaos_proxy.sever_all()
            assert wait_for(lambda: client.conn.reconnects >= 1)
            # Same id range resumed: every old handle is still valid.
            assert client.conn.id_base == old_base
            # The replayed session is fully usable: play again on the
            # *pre-reset* handles and hear it finish.
            short = client.sound_from_samples(
                tones.sine(330.0, 0.5, RATE), PCM16_8K)
            player.play(short)
            done = client.wait_for_event(
                lambda e: e.code is EventCode.COMMAND_DONE, timeout=20)
            assert done is not None
            assert server.metrics.counter("clients.resumed").value >= 1
        finally:
            client.close()

    def test_reconnect_survives_schedule_reset(self, server,
                                               make_chaos_proxy):
        """A byte-offset-triggered reset (deterministic, not manual)
        drops the link mid-message; the client still recovers."""
        proxy = make_chaos_proxy(
            schedule=FaultSchedule(seed=42,
                                   reset_after_bytes={UP: 6000}))
        client = AudioClient(port=proxy.port, client_name="offset",
                             reconnect=True, request_timeout=5.0)
        try:
            loud, player, sound = build_playback(client, seconds=1.0)
            player.play(sound)      # sound upload crosses the 6000B line
            loud.start_queue()
            assert wait_for(lambda: client.conn.reconnects >= 1)
            info = client.server_info()
            assert info.vendor == "repro desktop audio"
        finally:
            client.close()

    @staticmethod
    def _fail_write_once(monkeypatch, opcode):
        """The next write of an ``opcode`` request raises EPIPE, as a
        write into a socket that died before the reader noticed does."""
        write = connection.write_message
        failed = []

        def write_message(sock, message):
            if message.code == int(opcode) and not failed:
                failed.append(message)
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            return write(sock, message)

        monkeypatch.setattr(connection, "write_message", write_message)
        return failed

    def test_send_whose_write_fails_goes_out_after_reconnect(
            self, server, monkeypatch):
        """A failed write parks the sender like one that arrived during
        the reconnect window; the request then reaches the server on
        the new connection."""
        client = AudioClient(port=server.port, client_name="torn-write",
                             reconnect=True, request_timeout=5.0)
        try:
            loud = client.create_loud()
            loud.set_property("take", "before")
            client.sync()
            failed = self._fail_write_once(monkeypatch,
                                           OpCode.CHANGE_PROPERTY)
            loud.set_property("take", "after")
            assert len(failed) == 1
            assert client.conn.reconnects == 1
            assert loud.get_property("take") == "after"
        finally:
            client.close()

    def test_send_whose_write_fails_raises_without_reconnect(
            self, server, monkeypatch):
        client = AudioClient(port=server.port, client_name="torn-fragile")
        try:
            loud = client.create_loud()
            client.sync()
            self._fail_write_once(monkeypatch, OpCode.CHANGE_PROPERTY)
            with pytest.raises(AlibDisconnected):
                loud.set_property("take", "after")
        finally:
            client.close()

    def test_close_without_reconnect_raises_typed_error(self, server,
                                                        chaos_proxy):
        client = AudioClient(port=chaos_proxy.port, client_name="fragile")
        try:
            client.server_info()
            chaos_proxy.sever_all()
            with pytest.raises(ConnectionError_):
                for _attempt in range(5):
                    client.server_info()
        finally:
            client.close()


class TestChaosSoak:
    def test_churn_under_chaos_leaves_clean_client_unharmed(
            self, server, make_chaos_proxy):
        """Clients churning create/play/disconnect through a faulty
        proxy must never disturb a well-behaved client connected
        directly to the server."""
        proxy = make_chaos_proxy(
            schedule=FaultSchedule(seed=7, latency=0.0005, jitter=0.001,
                                   truncate_probability=0.02,
                                   reset_probability=0.01))
        clean = AudioClient(port=server.port, client_name="clean")
        workers = []
        try:
            loud, player, sound = build_playback(clean, seconds=8.0)
            player.play(sound)
            loud.start_queue()

            def churn(index):
                for cycle in range(scaled(6, 2)):
                    try:
                        victim = AudioClient(
                            port=proxy.port, request_timeout=2.0,
                            client_name="churn-%d-%d" % (index, cycle))
                    except ConnectionError_:
                        continue
                    try:
                        v_loud, v_player, v_sound = build_playback(
                            victim, seconds=0.2)
                        v_player.play(v_sound)
                        v_loud.start_queue()
                        victim.sync()
                    except (ConnectionError_, AlibDisconnected, OSError):
                        pass
                    finally:
                        victim.close()

            workers = [threading.Thread(target=churn, args=(index,),
                                        daemon=True)
                       for index in range(scaled(8, 3))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            assert not any(worker.is_alive() for worker in workers)
            # The clean client's audio reached the speaker and its
            # session still answers queries.
            assert wait_for(
                lambda: rms(server.hub.speakers[0].capture.samples()) > 0)
            assert clean.server_info().vendor == "repro desktop audio"
        finally:
            clean.close()

    @pytest.mark.skipif(FAST, reason="latency soak skipped in fast mode")
    def test_throttled_link_still_completes(self, server, make_chaos_proxy):
        """A slow, jittery link delays but never corrupts a session."""
        proxy = make_chaos_proxy(
            schedule=FaultSchedule(seed=3, latency=0.002, jitter=0.003,
                                   throttle_bytes_per_sec=2_000_000))
        client = AudioClient(port=proxy.port, client_name="slow")
        try:
            loud, player, sound = build_playback(client, seconds=0.5)
            player.play(sound)
            loud.start_queue()
            done = client.wait_for_event(
                lambda e: e.code is EventCode.COMMAND_DONE, timeout=30)
            assert done is not None
        finally:
            client.close()
