"""E2 -- gapless queue transitions (paper section 6.2).

"Pre-issuing commands allows plays to occur without a single dropped or
inserted sample."

Measured: exact gap samples between N back-to-back queued sounds (must
be 0), the play->record boundary, and the DESIGN.md ablation -- what the
gap becomes when the client sequences commands itself with a round trip
per command (the design the server-side queue replaces).
"""

import numpy as np

from repro.bench import (
    build_playback_loud,
    count_gap_samples,
    make_rig,
    wait_queue_empty,
)
from repro.bench.workloads import marked_segments
from repro.protocol.types import (
    Command,
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
    RecordTermination,
)

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
