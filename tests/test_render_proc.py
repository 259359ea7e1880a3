"""Process-sharded rendering: byte-equivalence, crash recovery, hygiene.

The process backend's contract: whatever the worker count -- and
whatever workers die along the way -- device output, recorded takes and
the client-visible event order must be *identical* to the serial block
cycle.  These tests drive a randomized 16-LOUD graph through both
backends and compare byte-for-byte, kill workers mid-soak, audit every
shared-memory segment's lifetime, and pin the event-deferral replay the
backend's ordering rests on.
"""

import itertools
import multiprocessing
import os

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp import tones
from repro.hardware import HardwareConfig, InjectedSource
from repro.protocol.types import (
    DeviceClass,
    EventMask,
    PCM16_8K,
    RecordTermination,
)
from repro.server import AudioServer, qprogram
from repro.server.render_pool import RenderPool
from repro.server.render_proc import ProcessRenderPool, compile_row

BLOCKS = 80
WORKERS = 4     # forced >= 2 so the procs path runs even on 1-core CI


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:   # non-Linux: fall back to name tracking
        return set()


def _build_random_graphs(client, server, rng, loud_count):
    """Randomized but seed-deterministic graphs: playback LOUDs (one or
    two players into an output, sync marks firing mid-consume) mixed
    with recording LOUDs that can never compile into row programs."""
    take_sounds = []
    for index in range(loud_count):
        loud = client.create_loud()
        loud.select_events(EventMask.QUEUE | EventMask.PLAYER
                           | EventMask.RECORDER)
        if rng.integers(0, 4) == 0:
            microphone = loud.create_device(DeviceClass.INPUT)
            recorder = loud.create_device(DeviceClass.RECORDER)
            loud.wire(microphone, 0, recorder, 0)
            loud.map()
            take = client.create_sound(PCM16_8K)
            recorder.record(
                take, termination=int(RecordTermination.MAX_LENGTH),
                max_length_ms=int(rng.integers(200, 800)))
            take_sounds.append(take)
        else:
            output = loud.create_device(DeviceClass.OUTPUT)
            for _ in range(int(rng.integers(1, 3))):
                player = loud.create_device(DeviceClass.PLAYER)
                loud.wire(player, 0, output, 0)
                tone = (np.sin(np.arange(4000) * (0.01 + 0.004 * index))
                        * 11000).astype(np.int16)
                sound = client.sound_from_samples(tone)
                player.play(sound, sync_interval_ms=60)
            loud.map()
        loud.start_queue()
    return take_sounds


def _run_scenario(backend, seed, loud_count=16, kill_worker_at=None,
                  kill_mid_tick=False, min_rows=2):
    """One full run; returns (speaker bytes, events, takes, snapshot).

    ``kill_worker_at`` kills one worker process after that many blocks
    (procs backend only) -- the run must still produce oracle output.
    With ``kill_mid_tick`` the kill lands *between job dispatch and
    reply collection* of the next tick, forcing the EOF-during-recv
    fallback path rather than the is_alive pre-check.
    """
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig(), render_workers=WORKERS,
                         render_min_rows=min_rows, render_backend=backend)
    server.start(start_hub=False)   # manual stepping: deterministic time
    client = AudioClient(port=server.port, client_name="equiv")
    try:
        if backend == "procs":
            assert server.render_pool.wait_ready(30.0) == WORKERS
        server.hub.rooms["desktop"].inject(InjectedSource(
            tones.sine(313.0, 1.0, 8000), repeat=True))
        rng = np.random.default_rng(seed)
        takes = _build_random_graphs(client, server, rng, loud_count)
        client.sync()
        if kill_worker_at is None:
            server.hub.step(BLOCKS)
        elif kill_mid_tick:
            server.hub.step(kill_worker_at)
            pool = server.render_pool
            collect = pool._collect_reply
            state = {"killed": False}

            def kill_then_collect(worker, seq):
                if not state["killed"]:
                    # The worker dies before its reply is read; any
                    # reply already buffered in the pipe dies with the
                    # connection when the pool respawns it.
                    state["killed"] = True
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                    return None
                return collect(worker, seq)

            pool._collect_reply = kill_then_collect
            server.hub.step(BLOCKS - kill_worker_at)
            pool._collect_reply = collect
        else:
            server.hub.step(kill_worker_at)
            victim = server.render_pool._workers[0]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            server.hub.step(BLOCKS - kill_worker_at)
        client.sync()       # tick events precede the reply on the wire
        captured = server.hub.speakers[0].capture.samples().copy()
        events = [(event.code, event.resource, event.detail,
                   event.sample_time)
                  for event in client.pending_events()]
        recordings = [take.read() for take in takes]
        snapshot = server.stats_snapshot()
        return captured, events, recordings, snapshot
    finally:
        client.close()
        server.stop()


class TestProcsSerialEquivalence:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_output_and_events_byte_identical(self, seed):
        serial = _run_scenario("serial", seed)
        procs = _run_scenario("procs", seed)
        # Device output: bit-identical speaker capture.
        assert np.array_equal(serial[0], procs[0])
        # Client-visible events: same events, same order.
        assert serial[1] == procs[1]
        assert len(serial[1]) > 0
        # Recorded takes: byte-identical.
        assert serial[2] == procs[2]
        counters = procs[3]["counters"]
        # The procs run really rendered in workers: every tick parallel,
        # with the uncompilable recorder rows staying on the hub.
        assert counters["renderproc.parallel_ticks"] == BLOCKS
        assert counters["renderproc.rows"] > 0
        assert counters.get("renderproc.respawns", 0) == 0
        assert serial[3]["counters"].get("renderproc.rows", 0) == 0
        # Throughput counters stay backend-independent.
        assert (serial[3]["counters"]["audio.wire_frames"]
                == counters["audio.wire_frames"])

    def test_stats_report_backend(self):
        serial = _run_scenario("serial", 7, loud_count=2)
        assert serial[3]["server"]["render_backend"] == "serial"


class TestProcsFallback:
    def test_small_plans_fall_back_to_serial(self):
        """A plan below the row threshold never reaches the workers: the
        tick goes through the serial loop, and the capture,
        events and takes equal the serial backend's."""
        seed, louds = 11, 3
        serial = _run_scenario("serial", seed, loud_count=louds)
        procs = _run_scenario("procs", seed, loud_count=louds,
                              min_rows=louds + 1)
        assert np.array_equal(serial[0], procs[0])
        assert np.any(serial[0])
        assert serial[1] == procs[1]
        assert serial[2] == procs[2]
        counters = procs[3]["counters"]
        assert counters["renderproc.serial_ticks"] == BLOCKS
        assert counters.get("renderproc.parallel_ticks", 0) == 0


class TestWorkerCrashRecovery:
    def test_kill_between_ticks_is_invisible_to_clients(self):
        seed = 31
        serial = _run_scenario("serial", seed)
        procs = _run_scenario("procs", seed, kill_worker_at=BLOCKS // 2)
        # The kill never corrupts output, drops events, or disconnects
        # the client (the post-kill client.sync() round-trips fine).
        assert np.array_equal(serial[0], procs[0])
        assert serial[1] == procs[1]
        assert serial[2] == procs[2]
        counters = procs[3]["counters"]
        # The dead worker is respawned and the pool never leaves
        # parallel ticks: the survivors carry the plan meanwhile.
        assert counters["renderproc.respawns"] >= 1
        assert counters["renderproc.parallel_ticks"] == BLOCKS

    def test_kill_mid_tick_falls_back_serially_within_the_tick(self):
        seed = 31
        serial = _run_scenario("serial", seed)
        procs = _run_scenario("procs", seed, kill_worker_at=BLOCKS // 2,
                              kill_mid_tick=True)
        # The worker died after jobs were dispatched; the hub discarded
        # the partial sums, re-rendered serially *in the same tick*, and
        # the output still matches the oracle byte-for-byte.
        assert np.array_equal(serial[0], procs[0])
        assert serial[1] == procs[1]
        assert serial[2] == procs[2]
        counters = procs[3]["counters"]
        assert counters["renderproc.fallback_ticks"] >= 1
        assert counters["renderproc.respawns"] >= 1
        assert counters["renderproc.parallel_ticks"] == BLOCKS

    def test_respawned_worker_reships_sounds(self):
        """A respawned worker has an empty decode cache; the hub's
        per-worker sent-set must reset with it or playback would hit a
        missing token worker-side and wedge the tick into fallback."""
        seed = 31
        procs = _run_scenario("procs", seed, kill_worker_at=BLOCKS // 2)
        counters = procs[3]["counters"]
        assert counters["renderproc.fallback_ticks"] < BLOCKS // 4


class TestSharedMemoryHygiene:
    def test_stop_unlinks_every_segment(self):
        before = _shm_entries()
        server = AudioServer(HardwareConfig(), render_workers=WORKERS,
                             render_min_rows=2, render_backend="procs")
        server.start(start_hub=False)
        try:
            assert server.render_pool.wait_ready(30.0) == WORKERS
            created = {worker.shm.name.lstrip("/")
                       for worker in server.render_pool._workers}
            assert len(created) == WORKERS
            leaked = _shm_entries() - before
            if leaked or before:    # /dev/shm exists on this host
                assert created <= (leaked | before)
        finally:
            server.stop()
        assert _shm_entries() - before == set()
        # Idempotent: a second stop must not raise or double-unlink.
        server.stop()

    def test_respawn_unlinks_the_dead_workers_segment(self):
        server = AudioServer(HardwareConfig(), render_workers=2,
                             render_min_rows=2, render_backend="procs")
        server.start(start_hub=False)
        try:
            assert server.render_pool.wait_ready(30.0) == 2
            pool = server.render_pool
            victim = pool._workers[0]
            old_name = victim.shm.name.lstrip("/")
            victim.process.kill()
            victim.process.join(timeout=5.0)
            pool._respawn(victim)
            assert old_name not in _shm_entries()
            assert len(pool._workers) == 2
            assert pool._workers[0] is not victim
            assert pool.wait_ready(30.0) == 2
        finally:
            server.stop()


class TestBackendSelection:
    def test_explicit_backends(self, monkeypatch):
        procs = AudioServer(HardwareConfig(), render_backend="procs",
                            render_workers=2)
        assert isinstance(procs.render_pool, ProcessRenderPool)
        assert procs.render_backend == "procs"
        procs.render_pool.shutdown()
        monkeypatch.delenv("REPRO_RENDER_BACKEND", raising=False)
        serial = AudioServer(HardwareConfig())      # serial is the default
        assert serial.render_backend == "serial"
        assert type(serial.render_pool) is RenderPool

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_RENDER_BACKEND", "procs")
        server = AudioServer(HardwareConfig(), render_workers=2)
        assert isinstance(server.render_pool, ProcessRenderPool)
        server.render_pool.shutdown()

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "threads"):
            with pytest.raises(ValueError, match="render backend"):
                AudioServer(HardwareConfig(), render_backend=backend)

    def test_procs_disabled_below_two_workers_renders_serially(self):
        server = AudioServer(HardwareConfig(), render_backend="procs",
                             render_workers=1)
        assert not server.render_pool.enabled
        assert server.render_pool.render([("q", ())] * 10, 0, 160) is False
        server.render_pool.shutdown()


class TestRowCompilation:
    def test_compilable_and_uncompilable_rows(self):
        server = AudioServer(HardwareConfig(), render_workers=2,
                             render_min_rows=2, render_backend="procs")
        server.start(start_hub=False)
        client = AudioClient(port=server.port, client_name="compile")
        try:
            playback = client.create_loud()
            player = playback.create_device(DeviceClass.PLAYER)
            output = playback.create_device(DeviceClass.OUTPUT)
            playback.wire(player, 0, output, 0)
            playback.map()
            recording = client.create_loud()
            microphone = recording.create_device(DeviceClass.INPUT)
            recorder = recording.create_device(DeviceClass.RECORDER)
            recording.wire(microphone, 0, recorder, 0)
            recording.map()
            client.sync()
            with server.lock:
                rows = server.stack.render_rows()
            assert len(rows) == 2
            slot_of = server.render_pool._slot_of
            compiled = [compile_row(row, slot_of) for row in rows]
            good = [c for c in compiled if c is not None]
            assert len(good) == 1
            # One player feeding one bound output in one slot.
            assert len(good[0].players) == 1
            assert len(good[0].targets) == 1
            slot, idxs, _out = good[0].targets[0]
            assert idxs == (0,)
        finally:
            client.close()
            server.stop()

    def test_stream_items_pin_rows_to_the_hub(self):
        """A live stream item has no stored bytes; its row must render
        hub-side (serial ticks, because the plan has no worker rows)."""
        server = AudioServer(HardwareConfig(), render_workers=WORKERS,
                             render_min_rows=2, render_backend="procs")
        server.start(start_hub=False)
        client = AudioClient(port=server.port, client_name="stream")
        try:
            assert server.render_pool.wait_ready(30.0) == WORKERS
            for _ in range(2):
                loud = client.create_loud()
                player = loud.create_device(DeviceClass.PLAYER)
                output = loud.create_device(DeviceClass.OUTPUT)
                loud.wire(player, 0, output, 0)
                loud.map()
                stream = client.create_sound(PCM16_8K)
                stream.make_stream(buffer_frames=1600,
                                   low_water_frames=320)
                player.play(stream)
                loud.start_queue()
            client.sync()
            server.hub.step(10)
            counters = server.stats_snapshot()["counters"]
            assert counters.get("renderproc.parallel_ticks", 0) == 0
            assert counters["renderproc.serial_ticks"] >= 10
        finally:
            client.close()
            server.stop()


class TestShutdownJoins:
    def test_stop_during_ticks_leaves_no_render_workers(self):
        """Stopping the server while the hub free-runs must join every
        render worker process before teardown returns."""
        server = AudioServer(HardwareConfig(), render_workers=2,
                             render_min_rows=2, render_backend="procs")
        server.start(start_hub=True)    # free-running hub: ticks racing
        client = AudioClient(port=server.port, client_name="stopper")
        try:
            assert server.render_pool.wait_ready(30.0) == 2
            for _ in range(4):
                loud = client.create_loud()
                output = loud.create_device(DeviceClass.OUTPUT)
                player = loud.create_device(DeviceClass.PLAYER)
                loud.wire(player, 0, output, 0)
                tone = (np.sin(np.arange(16000) * 0.02)
                        * 9000).astype(np.int16)
                player.play(client.sound_from_samples(tone))
                loud.map()
                loud.start_queue()
            client.sync()
        finally:
            client.close()
            server.stop()
        alive = [child.name for child in multiprocessing.active_children()
                 if child.name.startswith("render-proc")]
        assert alive == []


class TestEventDeferral:
    """The deferral buffers the procs backend replays in row order."""

    def test_event_deferral_buffers_and_replays(self):
        server = AudioServer(HardwareConfig())
        router = server.events
        delivered = server.metrics.counter("events.total")
        buffer = router.start_deferred()
        try:
            router.emit_stream_hungry(_FakeSound(99))
        finally:
            router.stop_deferred()
        assert len(buffer) == 1             # captured, not delivered
        assert delivered.value == 0
        fn, fn_args = buffer[0]
        fn(*fn_args)                        # replay takes the normal path
        assert delivered.value == 1

    def test_replay_preserves_order_and_serial_error_semantics(self):
        server = AudioServer(HardwareConfig())
        pool = ProcessRenderPool(server, workers=2)
        calls = []

        def record(tag):
            calls.append(tag)

        boom = RuntimeError("row exploded")
        results = {
            0: ([(record, ("a",)), (record, ("b",))], None),
            1: ([(record, ("c",))], boom),
            2: ([(record, ("d",))], None),  # after the error: suppressed
        }
        with pytest.raises(RuntimeError, match="row exploded"):
            pool._replay([None] * 3, results)
        assert calls == ["a", "b", "c"]


class _FakeSound:
    def __init__(self, sound_id):
        self.sound_id = sound_id
        self.stream_space = 320
