"""E2 -- gapless queue transitions (paper section 6.2).

"Pre-issuing commands allows plays to occur without a single dropped or
inserted sample."

Measured: exact gap samples between N back-to-back queued sounds (must
be 0), the play->record boundary, the DESIGN.md ablation -- what the
gap becomes when the client sequences commands itself with a round trip
per command (the design the server-side queue replaces) -- and what one
gapless clip boundary costs the hub (recorded, not bounded).
"""

import time

import numpy as np

from repro.alib import AudioClient
from repro.bench.harness import count_gap_samples
from repro.hardware import HardwareConfig
from repro.protocol.types import (
    Command,
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
    RecordTermination,
)
from repro.server import AudioServer
from testkit.rig import build_playback_loud, make_rig, scaled, wait_queue_empty
from testkit.workloads import marked_segments

RATE = 8000


def queued_gap(rig, segment_count=8, frames_each=777) -> int:
    """Server-side queue: N plays, one StartQueue; returns gap samples."""
    loud, player, _output = build_playback_loud(rig.client)
    segments = marked_segments(segment_count, frames_each)
    sounds = [rig.client.sound_from_samples(segment, PCM16_8K)
              for segment in segments]
    for sound in sounds:
        player.play(sound)
    loud.start_queue()
    wait_queue_empty(rig.client, loud)
    buffer = rig.server.hub.speakers[0].capture.samples()
    gap = count_gap_samples(buffer, segments)
    loud.unmap()
    return gap


def client_sequenced_gap(rig, segment_count=8, frames_each=777) -> int:
    """Ablation: the client waits for COMMAND_DONE before the next Play.

    This is what applications had to do without server-side queues: a
    round trip per transition, paying at least one block of silence.
    """
    loud, player, _output = build_playback_loud(rig.client)
    segments = marked_segments(segment_count, frames_each,
                               base_level=1100)
    sounds = [rig.client.sound_from_samples(segment, PCM16_8K)
              for segment in segments]
    loud.start_queue()
    for sound in sounds:
        player.play(sound)
        done = rig.client.wait_for_event(
            lambda e: (e.code is EventCode.COMMAND_DONE
                       and e.args.get("command") == int(Command.PLAY)),
            timeout=60)
        assert done is not None
    buffer = rig.server.hub.speakers[0].capture.samples()
    gap = count_gap_samples(buffer, segments)
    loud.unmap()
    return gap


def test_queued_plays_zero_gap(benchmark, report):
    rig = make_rig()
    try:
        gap = benchmark.pedantic(lambda: queued_gap(rig),
                                 rounds=3, iterations=1)
        report.row("E2", "gap across 8 queued back-to-back plays",
                   "%d samples" % gap, "0 samples (paper: 'zero')")
        assert gap == 0
    finally:
        rig.close()


def test_client_sequenced_ablation(benchmark, report):
    rig = make_rig()
    try:
        gap = benchmark.pedantic(lambda: client_sequenced_gap(rig),
                                 rounds=3, iterations=1)
        per_transition = gap / 7.0
        report.row("E2", "ablation: client-sequenced plays (7 gaps)",
                   "%d samples (%.0f/gap)" % (gap, per_transition),
                   "> 0 (round trips cost blocks)")
        assert gap > 0
    finally:
        rig.close()


def test_play_record_boundary(benchmark, report):
    """Play -> Record transition: the recording starts at the exact
    sample the prompt ends."""
    rig = make_rig()

    def run() -> int:
        client = rig.client
        loud = client.create_loud()
        player = client_devices = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        microphone = loud.create_device(DeviceClass.INPUT)
        recorder = loud.create_device(DeviceClass.RECORDER)
        loud.wire(player, 0, output, 0)
        loud.wire(microphone, 0, recorder, 0)
        loud.select_events(EventMask.QUEUE | EventMask.RECORDER)
        loud.map()
        prompt = np.full(777, 5000, dtype=np.int16)
        prompt_sound = client.sound_from_samples(prompt, PCM16_8K)
        take = client.create_sound(PCM16_8K)
        player.play(prompt_sound)
        recorder.record(take,
                        termination=int(RecordTermination.MAX_LENGTH),
                        max_length_ms=250)
        loud.start_queue()
        event = client.wait_for_event(
            lambda e: e.code is EventCode.RECORD_STOPPED, timeout=60)
        assert event is not None
        recorded = take.read_samples()
        # Room bleed (0.5 gain, one block late) of the prompt's tail is
        # what the recording opens with; its length tells us the exact
        # alignment error: exactly one block (160) of bleed means the
        # record began precisely at the prompt's final sample.
        bleed = int(np.count_nonzero(recorded))
        loud.unmap()
        return abs(bleed - 160)

    try:
        misalignment = benchmark.pedantic(run, rounds=3, iterations=1)
    finally:
        rig.close()
    report.row("E2", "play->record boundary misalignment",
               "%d samples" % misalignment, "0 samples")
    assert misalignment == 0


class _SteppedQueues:
    """16 LOUDs on a stepped hub, each playing one clip length back to
    back with QUEUE events selected, as perfbench's gapless does."""

    LOUDS = 16
    WARMUP = 20

    def __init__(self, clip_frames: int, blocks: int) -> None:
        self.server = AudioServer(HardwareConfig())
        self.server.start(start_hub=False)
        self.client = AudioClient(port=self.server.port,
                                  client_name="e2-boundary")
        clip = self.client.sound_from_samples(
            np.full(clip_frames, 900, dtype=np.int16), PCM16_8K)
        plays = (self.WARMUP + blocks) * 160 // clip_frames + 2
        for _ in range(self.LOUDS):
            loud, player, _output = build_playback_loud(self.client)
            for _ in range(plays):
                player.play(clip)
            loud.start_queue()
        self.client.sync()
        self.server.hub.step(self.WARMUP)
        self.blocks = 0
        self.done_before = self._completed()

    def _completed(self) -> int:
        return self.server.stats_snapshot()["counters"]["commands.completed"]

    def step(self, blocks: int) -> float:
        """Step ``blocks`` blocks; the hub thread's (this one's) CPU per
        block over them, in us."""
        cpu = 0.0
        for _ in range(blocks):
            started = time.thread_time()
            self.server.hub.step(1)
            cpu += time.thread_time() - started
            self.client.pending_events()
        self.blocks += blocks
        return cpu / blocks * 1e6

    def finish(self) -> float:
        """Clip boundaries per block."""
        boundaries = self._completed() - self.done_before
        self.client.close()
        self.server.stop()
        return boundaries / self.blocks


def test_marginal_hub_cpu_per_clip_boundary(report):
    """The hub CPU one gapless boundary (pre-issue, play start,
    COMMAND_DONE) costs: CPU per block on short clips minus that on long
    clips, over the difference in boundaries per block.  The two runs
    alternate in 50-block slices and the difference is the median over
    slice pairs, so a burst of load from outside moves it little."""
    blocks = scaled(3000, 200)
    differences = []
    short = _SteppedQueues(800, blocks)
    try:
        long = _SteppedQueues(16000, blocks)
        try:
            for _ in range(blocks // 50):
                differences.append(short.step(50) - long.step(50))
        finally:
            long_rate = long.finish()
    finally:
        short_rate = short.finish()
    assert short_rate > 2 and long_rate < 0.5
    marginal = float(np.median(differences)) / (short_rate - long_rate)
    report.row("E2", "hub CPU per gapless clip boundary (16 LOUDs)",
               "%.1f us" % marginal, "recorded, no bound")
