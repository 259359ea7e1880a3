"""Server fast paths: decode cache, render plan, connection setup.

These tests pin the *observable* contract of the perf work: cached
decodes are metered and can never serve stale samples after a
WRITE_SOUND_DATA, the precompiled render plan rebuilds exactly when the
topology changes, and a malformed connection setup is refused (and
counted) without taking the server down.
"""

import socket

import numpy as np

from repro.dsp import encodings
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    MULAW_8K,
    PCM16_8K,
)
from repro.server.sounds import DecodeCache, Sound

from conftest import speaker_audio, wait_for

RATE = 8000


def build_player(client):
    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(EventMask.QUEUE)
    loud.map()
    return loud, player, output


def wait_queue_empty(client, loud, timeout=15.0):
    event = client.wait_for_event(
        lambda e: (e.code is EventCode.QUEUE_EMPTY
                   and e.resource == loud.loud_id), timeout=timeout)
    assert event is not None, "queue never drained"


def find_signal(buffer, reference):
    nonzero = np.nonzero(reference)[0]
    if len(nonzero) == 0:
        return None
    anchor = nonzero[0]
    for start in np.nonzero(buffer == reference[anchor])[0]:
        begin = int(start) - int(anchor)
        if begin < 0 or begin + len(reference) > len(buffer):
            continue
        if np.array_equal(buffer[begin:begin + len(reference)], reference):
            return begin
    return None


class TestDecodeCacheUnit:
    def make_sound(self, samples, sound_id=100):
        sound = Sound(sound_id, MULAW_8K)
        sound.write_bytes(-1, encodings.mulaw_encode(samples))
        return sound

    def test_hit_after_miss(self):
        cache = DecodeCache(max_bytes=1 << 20)
        sound = self.make_sound(np.full(100, 1000, dtype=np.int16))
        sound.attach_cache(cache)
        first = sound.decoded()
        second = sound.decoded()
        assert second is first          # the very same cached array

    def test_cached_block_is_frozen(self):
        cache = DecodeCache(max_bytes=1 << 20)
        sound = self.make_sound(np.full(10, 500, dtype=np.int16))
        sound.attach_cache(cache)
        assert not sound.decoded().flags.writeable

    def test_write_invalidates(self):
        cache = DecodeCache(max_bytes=1 << 20)
        sound = self.make_sound(np.full(50, 1000, dtype=np.int16))
        sound.attach_cache(cache)
        stale = sound.decoded()
        sound.write_bytes(
            0, encodings.mulaw_encode(np.full(50, -2000, dtype=np.int16)))
        fresh = sound.decoded()
        assert fresh is not stale
        reference = encodings.mulaw_decode(encodings.mulaw_encode(
            np.full(50, -2000, dtype=np.int16)))
        assert np.array_equal(fresh, reference)

    def test_version_bump_makes_old_key_unreachable(self):
        cache = DecodeCache(max_bytes=1 << 20)
        sound = self.make_sound(np.full(20, 100, dtype=np.int16))
        sound.attach_cache(cache)
        version = sound.version
        sound.decoded()
        sound.write_bytes(-1, encodings.mulaw_encode(
            np.full(20, 200, dtype=np.int16)))
        assert sound.version > version
        # Only one entry ever lives per sound: the rewrite dropped the
        # predecessor instead of leaking it until LRU pressure.
        sound.decoded()
        assert len(cache._entries) == 1

    def test_byte_budget_evicts_lru(self):
        # Each decoded sound is 1000 int16 frames = 2000 bytes.
        cache = DecodeCache(max_bytes=5000)
        sounds = [self.make_sound(
            np.full(1000, index + 1, dtype=np.int16), sound_id=index)
            for index in range(3)]
        for sound in sounds:
            sound.attach_cache(cache)
            sound.decoded()
        assert len(cache._entries) == 2         # the third evicted the first
        first_again = sounds[0].decoded()       # miss: re-decoded
        assert np.array_equal(
            first_again,
            encodings.mulaw_decode(encodings.mulaw_encode(
                np.full(1000, 1, dtype=np.int16))))

    def test_oversized_sound_bypasses_cache(self):
        cache = DecodeCache(max_bytes=100)
        sound = self.make_sound(np.full(1000, 7, dtype=np.int16))
        sound.attach_cache(cache)
        sound.decoded()
        assert len(cache._entries) == 0
        assert cache._bytes == 0

    def test_detached_sound_still_decodes(self):
        sound = self.make_sound(np.full(10, 300, dtype=np.int16))
        decoded = sound.decoded()
        assert len(decoded) == 10


class TestDecodeCacheEndToEnd:
    def test_replay_hits_the_cache(self, server, client):
        loud, player, _output = build_player(client)
        tone = np.full(1200, 4321, dtype=np.int16)
        sound = client.sound_from_samples(tone, PCM16_8K)
        player.play(sound)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        reply = client.server_stats()
        assert reply.counter("sounds.decode_cache.misses") >= 1
        assert reply.counter("sounds.decode_cache.hits") >= 1

    def test_write_mid_playback_next_play_is_fresh(self, server, client):
        loud, player, _output = build_player(client)
        first = np.full(RATE, 1111, dtype=np.int16)     # 1 s
        sound = client.sound_from_samples(first, PCM16_8K)
        player.play(sound)
        loud.start_queue()
        # Wait until the first version is audibly playing...
        assert wait_for(lambda: find_signal(
            server.hub.speakers[0].capture.samples()[-400:],
            np.full(50, 1111, dtype=np.int16)) is not None)
        # ...then rewrite the sound's data mid-playback and replay it.
        second = np.full(RATE // 4, -2222, dtype=np.int16)
        sound.write(encodings.encode(second, PCM16_8K), offset=0)
        player.play(sound)
        wait_queue_empty(client, loud)
        played = speaker_audio(server)
        # The second play must carry the rewritten samples, not a stale
        # cached decode of the first version.
        assert find_signal(played, second) is not None
        reply = client.server_stats()
        assert reply.counter("sounds.decode_cache.misses") >= 2


class TestRenderPlan:
    def test_plan_rebuilds_are_metered(self, server, client):
        loud, player, _output = build_player(client)
        sound = client.sound_from_samples(
            np.full(800, 123, dtype=np.int16), PCM16_8K)
        player.play(sound)
        loud.start_queue()
        wait_queue_empty(client, loud)
        reply = client.server_stats()
        assert reply.counter("renderplan.rebuilds") >= 1
        assert reply.counter("renderplan.invalidations") >= 1
        assert reply.counter("renderplan.ticks") >= 1
        # The plan is reused: far fewer rebuilds than blocks ticked.
        assert reply.counter("renderplan.rebuilds") \
            < reply.counter("renderplan.ticks")

    def test_topology_change_invalidates_plan(self, server, client):
        loud, player, _output = build_player(client)
        client.sync()
        assert wait_for(lambda: server._render_plan is not None)
        before = server.metrics.counter("renderplan.invalidations").value
        extra = loud.create_device(DeviceClass.PLAYER)
        client.sync()
        after = server.metrics.counter("renderplan.invalidations").value
        assert after > before
        # The new device joins the plan once it is wired in.
        loud.wire(extra, 0, _output, 0)
        client.sync()
        assert wait_for(
            lambda: server._render_plan is not None
            and any(any(device.device_id == extra.device_id
                        for device in devices)
                    for _queue, devices in server._render_plan))

    def test_unmap_empties_plan(self, server, client):
        loud, _player, _output = build_player(client)
        client.sync()
        assert wait_for(lambda: server._render_plan is not None
                        and len(server._render_plan) == 1)
        loud.unmap()
        client.sync()
        assert wait_for(lambda: server._render_plan is not None
                        and len(server._render_plan) == 0)

    def test_playback_output_identical_through_plan(self, server, client):
        # The plan is pure bookkeeping: rendered samples stay exact.
        loud, player, _output = build_player(client)
        pieces = [np.full(777, fill, dtype=np.int16)
                  for fill in (1000, 2000, 3000)]
        for piece in pieces:
            player.play(client.sound_from_samples(piece, PCM16_8K))
        loud.start_queue()
        wait_queue_empty(client, loud)
        expected = np.concatenate(pieces)
        assert find_signal(speaker_audio(server), expected) is not None


class TestSetupRefusal:
    def test_garbage_setup_is_refused_and_counted(self, server, client):
        before = server.metrics.counter("clients.setup_refused").value
        raw = socket.create_connection(("127.0.0.1", server.port),
                                       timeout=5.0)
        try:
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 64)
            raw.shutdown(socket.SHUT_WR)
            raw.settimeout(5.0)
            while raw.recv(4096):
                pass
        except OSError:
            pass
        finally:
            raw.close()
        assert wait_for(
            lambda: server.metrics.counter(
                "clients.setup_refused").value > before)
        # The server survived: the existing client still round-trips.
        client.sync()

    def test_truncated_setup_is_refused_and_counted(self, server, client):
        before = server.metrics.counter("clients.setup_refused").value
        raw = socket.create_connection(("127.0.0.1", server.port),
                                       timeout=5.0)
        try:
            raw.sendall(b"AU")      # half a magic, then hang up
        finally:
            raw.close()
        assert wait_for(
            lambda: server.metrics.counter(
                "clients.setup_refused").value > before)
        client.sync()
