"""The stepped workloads: ``voices`` and ``gapless``.

Both start an :class:`AudioServer` with ``start(start_hub=False)``,
build their graph over the protocol with the Alib client, then call
``hub.step(1)`` back to back and time every block.  Only stepping is
timed; re-issuing plays and setting up rounds happen between timed
blocks and are reported as generator time.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import (
    BLOCK,
    SAMPLE_RATE,
    SETUP_REPEATS,
    HostSpeed,
    Result,
    apply_gain_reference,
    mulaw_decode_reference,
    quantile,
    timed_setup,
    voiced_mulaw_codes,
    window_quantile,
    window_rate,
)

LOUDS = 16
#: Blocks stepped before timing starts (plan build, first decodes).
WARMUP_BLOCKS = 10


def _start_server(name: str):
    from repro.alib import AudioClient
    from repro.hardware import HardwareConfig
    from repro.server import AudioServer

    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name=name)
    return server, client


def _stop(server, client) -> None:
    client.close()
    server.stop()


def _playback_loud(client, select=None):
    from repro.protocol.types import DeviceClass

    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    if select is not None:
        loud.select_events(select)
    loud.map()
    return loud, player


class _Stepper:
    """Times ``hub.step(1)`` calls: wall and process CPU per block.

    The driver-facing block metrics are CPU per block (every thread of
    the process: hub, render workers, the client's reader), scaled to
    the reference host.  Wall time per block is reported too, but on
    this shared host a stolen CPU stretches the blocks whose threads
    wait on it, so wall tails swing far more than the work does.
    """

    def __init__(self, hub) -> None:
        self.hub = hub
        self.speed = HostSpeed(unit_cpus=sorted(os.sched_getaffinity(0)))
        self.durations: list[float] = []
        self.cpu: list[float] = []
        self.ended: list[float] = []

    def step(self) -> None:
        self.speed.maybe_sample()
        cpu = time.process_time()
        started = time.perf_counter()
        self.hub.step(1)
        ended = time.perf_counter()
        self.cpu.append(time.process_time() - cpu)
        self.durations.append(ended - started)
        self.ended.append(ended)

    def fill(self, result: Result, generator_seconds: float) -> None:
        blocks = len(self.durations)
        raw = np.asarray(self.durations) * 1e6
        cpu = np.asarray(self.cpu) * 1e6 * self.speed.wall_factors(
            self.ended)
        result.end_to_end.update({
            "ops_per_s": window_rate(np.cumsum(cpu) / 1e6),
            "op_p50_us": quantile(cpu, 0.5),
            "op_p99_us": window_quantile(self.ended, cpu, 0.99),
            "cpu_us_per_op": float(cpu.mean()),
        })
        result.named.update({
            "blocks_per_s": (window_rate(np.cumsum(raw) / 1e6), "1/s"),
            "block_p50_us": (quantile(raw, 0.5), "us"),
            "block_p99_us": (quantile(raw, 0.99), "us"),
            "blocks": (float(blocks), "count"),
            "host_speed": (self.speed.cpu_factor(), "ratio"),
            "steal_share": (self.speed.steal_share(), "ratio"),
        })
        result.generator["generator_s"] = generator_seconds
        result.generator["generator_share"] = generator_seconds / (
            generator_seconds + float(np.sum(self.durations)))


def _repeat_setup(setup, result: Result):
    """Run ``setup`` SETUP_REPEATS times; keep the last rig."""
    rig = None
    for repeat in range(SETUP_REPEATS):
        if rig is not None:
            _stop(rig[0], rig[1])
        rig, wall, scaled = timed_setup(setup)
        result.setup_wall_s.append(wall)
        result.setup_s.append(scaled)
    return rig


# -- voices -----------------------------------------------------------------

def voices_inputs(seed: int) -> list[dict]:
    """16 voices: even ones mu-law, odd ones PCM16, four at non-unity gain.

    Each voice is one 15-25 s sound; the benchmark keeps exactly one
    play queued behind the running one, so every queue holds one
    command at a time and the conductor does almost nothing.
    """
    rng = np.random.default_rng([seed, 1])
    gained = set(rng.choice(LOUDS, size=LOUDS // 4, replace=False).tolist())
    voices = []
    for index in range(LOUDS):
        frames = int(rng.integers(15, 26)) * SAMPLE_RATE
        if index % 2 == 0:
            codes = voiced_mulaw_codes(rng, frames)
            voice = {"encoding": "mulaw", "data": codes.tobytes(),
                     "pcm": mulaw_decode_reference(codes)}
        else:
            pcm = rng.integers(-6000, 6001, size=frames).astype(np.int16)
            voice = {"encoding": "pcm16", "data": pcm, "pcm": pcm}
        voice["gain"] = (float(rng.choice([0.5, 0.75, 1.25, 1.5]))
                         if index in gained else 1.0)
        voices.append(voice)
    return voices


def run_voices(seed: int, seconds: float, start_trace=None) -> Result:
    from repro.protocol.types import MULAW_8K, PCM16_8K, CommandMode

    result = Result("voices")
    voices = voices_inputs(seed)

    def setup():
        server, client = _start_server("perfbench-voices")
        players = []
        for voice in voices:
            loud, player = _playback_loud(client)
            if voice["encoding"] == "mulaw":
                sound = client.create_sound(MULAW_8K)
                sound.write(voice["data"])
            else:
                sound = client.sound_from_samples(voice["data"], PCM16_8K)
            if voice["gain"] != 1.0:
                player.change_gain(int(round(voice["gain"] * 100)),
                                   mode=CommandMode.IMMEDIATE)
            player.play(sound)
            player.play(sound)
            loud.start_queue()
            players.append((player, sound))
        client.sync()
        return server, client, players

    server, client, players = _repeat_setup(setup, result)
    try:
        hub = server.hub
        lengths = [len(voice["pcm"]) for voice in voices]
        issued = [2] * LOUDS
        for _ in range(WARMUP_BLOCKS):
            hub.step(1)
        trace = start_trace() if start_trace is not None else None
        stepper = _Stepper(hub)
        generator = 0.0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            now = hub.sample_time
            if any(now >= (issued[i] - 1) * lengths[i]
                   for i in range(LOUDS)):
                started = time.perf_counter()
                for index, (player, sound) in enumerate(players):
                    while now >= (issued[index] - 1) * lengths[index]:
                        player.play(sound)
                        issued[index] += 1
                client.sync()
                generator += time.perf_counter() - started
            stepper.step()
        if trace is not None:
            trace.finish(result, ops_keys=("hardware.hub.run_block",))
        stepper.fill(result, generator)
        _check_voices(result, server, voices, issued, len(stepper.durations))
    finally:
        _stop(server, client)
    return result


def _check_voices(result: Result, server, voices, issued,
                  measured_blocks: int) -> None:
    capture = server.hub.speakers[0].capture.samples()
    total = len(capture)
    expected = np.zeros(total, dtype=np.int32)
    for voice, plays in zip(voices, issued):
        stream = apply_gain_reference(voice["pcm"], voice["gain"])
        covered = min(total, plays * len(stream))
        reps = -(-covered // len(stream))
        expected[:covered] += np.tile(stream, reps)[:covered]
    expected = np.clip(expected, -32768, 32767).astype(np.int16)
    blocks = total // BLOCK
    bad = np.any((capture[:blocks * BLOCK] != expected[:blocks * BLOCK])
                 .reshape(blocks, BLOCK), axis=1)
    bad_blocks = int(bad.sum()) + (1 if total != blocks * BLOCK else 0)
    result.attempted = measured_blocks
    result.failed = min(bad_blocks, measured_blocks) if bad_blocks else 0
    result.check("speaker_equals_reference_mix", bad_blocks == 0,
                 "%d of %d blocks differ" % (bad_blocks, blocks))


# -- gapless ----------------------------------------------------------------

CLIPS = 200
#: Clip amplitude bound: 16 voices sum without saturating, so one voice
#: can be recovered from the mix exactly for the gap count.
CLIP_PEAK = 2000


def gapless_inputs(seed: int) -> dict:
    """200 distinct 0.10-0.30 s PCM16 clips and each LOUD's rotation.

    Every LOUD queues all 200 clips back to back, starting at its own
    offset into the list, so each round queues the identical program.
    """
    rng = np.random.default_rng([seed, 2])
    clips = []
    for _ in range(CLIPS):
        frames = int(rng.integers(SAMPLE_RATE // 10, 3 * SAMPLE_RATE // 10))
        clip = rng.integers(-CLIP_PEAK, CLIP_PEAK + 1, size=frames)
        clip[clip == 0] = 1
        clips.append(clip.astype(np.int16))
    offsets = rng.integers(0, CLIPS, size=LOUDS).tolist()
    return {"clips": clips, "offsets": offsets}


def _loud_order(inputs: dict, loud_index: int) -> list[int]:
    offset = inputs["offsets"][loud_index]
    return [(offset + k) % CLIPS for k in range(CLIPS)]


def run_gapless(seed: int, seconds: float, start_trace=None) -> Result:
    from repro.protocol.types import PCM16_8K, EventMask

    result = Result("gapless")
    inputs = gapless_inputs(seed)
    orders = [_loud_order(inputs, index) for index in range(LOUDS)]
    streams = [np.concatenate([inputs["clips"][k] for k in order])
               for order in orders]
    round_frames = len(streams[0])

    def queue_round(client, sounds):
        louds = []
        for order in orders:
            loud, player = _playback_loud(client, EventMask.QUEUE)
            for clip in order:
                player.play(sounds[clip])
            loud.start_queue()
            louds.append(loud)
        client.sync()
        return louds

    def setup():
        server, client = _start_server("perfbench-gapless")
        sounds = [client.sound_from_samples(clip, PCM16_8K)
                  for clip in inputs["clips"]]
        louds = queue_round(client, sounds)
        return server, client, sounds, louds

    server, client, sounds, louds = _repeat_setup(setup, result)
    totals = {"done_missing": 0, "gap_samples": 0, "bad_blocks": 0,
              "plays": 0, "rounds": 0}
    try:
        hub = server.hub
        capture = server.hub.speakers[0].capture
        trace = start_trace() if start_trace is not None else None
        stepper = _Stepper(hub)
        generator = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            round_start = hub.sample_time
            capture.clear()
            done = {loud.loud_id: 0 for loud in louds}
            while (hub.sample_time - round_start < round_frames
                   and time.perf_counter() < deadline):
                stepper.step()
                _count_done(client, done)
            started = time.perf_counter()
            client.sync()
            _count_done(client, done)
            _check_round(totals, inputs, orders, streams, capture.samples(),
                         louds, done)
            finished = hub.sample_time - round_start >= round_frames
            if not finished or time.perf_counter() >= deadline:
                generator += time.perf_counter() - started
                break
            for loud in louds:
                loud.unmap()
                loud.destroy()
            client.sync()
            client.pending_events()
            louds = queue_round(client, sounds)
            generator += time.perf_counter() - started
        if trace is not None:
            trace.finish(result, ops_keys=("hardware.hub.run_block",))
        stepper.fill(result, generator)
    finally:
        _stop(server, client)
    blocks = len(stepper.durations)
    result.attempted = blocks + totals["plays"]
    result.failed = (totals["bad_blocks"] + totals["done_missing"]
                     + (1 if totals["gap_samples"] else 0))
    result.named["rounds"] = (float(totals["rounds"]), "count")
    result.check("speaker_equals_reference_mix", totals["bad_blocks"] == 0,
                 "%d blocks differ" % totals["bad_blocks"])
    result.check("zero_gap_samples", totals["gap_samples"] == 0,
                 "%d gap samples" % totals["gap_samples"])
    result.check("one_command_done_per_play", totals["done_missing"] == 0,
                 "%d plays without exactly one COMMAND_DONE"
                 % totals["done_missing"])
    return result


def _count_done(client, done: dict) -> None:
    from repro.protocol.types import EventCode

    for event in client.pending_events():
        if event.code is EventCode.COMMAND_DONE and event.resource in done:
            done[event.resource] += 1


def _check_round(totals: dict, inputs: dict, orders, streams, capture,
                 louds, done: dict) -> None:
    """Check one round's capture, gaps and COMMAND_DONE counts."""
    from repro.bench.harness import count_gap_samples

    stepped = len(capture)
    clips = inputs["clips"]
    mix = np.zeros(stepped, dtype=np.int32)
    for stream in streams:
        usable = min(stepped, len(stream))
        mix[:usable] += stream[:usable]
    blocks = stepped // BLOCK
    bad = np.any((capture[:blocks * BLOCK] != mix[:blocks * BLOCK])
                 .reshape(blocks, BLOCK), axis=1)
    totals["bad_blocks"] += int(bad.sum())
    for loud, order in zip(louds, orders):
        ends = np.cumsum([len(clips[k]) for k in order])
        finished = int(np.searchsorted(ends, stepped, side="right"))
        totals["plays"] += finished
        totals["done_missing"] += abs(done[loud.loud_id] - finished)
    # Recover one LOUD (a different one each round) from the mix and
    # count the samples dropped or inserted between its clips.
    probe = totals["rounds"] % len(louds)
    others = mix.copy()
    usable = min(stepped, len(streams[probe]))
    others[:usable] -= streams[probe][:usable]
    alone = (capture.astype(np.int32) - others).astype(np.int16)
    order = orders[probe]
    ends = np.cumsum([len(clips[k]) for k in order])
    pieces = [clips[k] for k, end in zip(order, ends) if end <= stepped]
    if len(pieces) >= 2:
        gap = count_gap_samples(alone, pieces)
        totals["gap_samples"] += gap if gap >= 0 else stepped
    totals["rounds"] += 1
