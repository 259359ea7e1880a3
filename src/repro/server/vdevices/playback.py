"""Sample-accurate playback programs.

The one path by which a virtual device plays samples (players, speech
synthesizers, music synthesizers, and the telephone's SendDTMF): an
ordered program of items, each with an optional absolute earliest-start
time, rendered into output blocks with *zero* samples dropped or
inserted between consecutive items.

This is where the paper's section 6.2 guarantee lives: "Pre-issuing
commands allows plays to occur without a single dropped or inserted
sample."  The conductor pre-issues successors by appending items with a
``not_before`` equal to the predicted end of their predecessor; rendering
then stitches them together mid-block.
"""

from __future__ import annotations

import numpy as np

from ...dsp.mixing import apply_gain
from ...protocol import events as ev
from ...protocol.attributes import AttributeList
from ...protocol.types import Command, EventCode, PortDirection
from .base import CommandHandle, InstantHandle, VirtualDevice


class PlaybackHandle(CommandHandle):
    """Handle for one queued playback item."""

    def __init__(self, device: VirtualDevice, leaf, start_time: int,
                 samples: np.ndarray | None, stream_sound=None,
                 sync_interval_frames: int = 0) -> None:
        super().__init__(device, leaf, start_time)
        #: Fully-rendered material (None for live stream sounds).
        self.samples = samples
        self.stream_sound = stream_sound
        self.cursor = 0
        self.not_before = start_time
        self.started_playing = False
        self.sync_interval = sync_interval_frames
        self.next_sync = sync_interval_frames
        self.frames_played = 0

    @property
    def total_frames(self) -> int | None:
        if self.samples is not None:
            return len(self.samples)
        return None

    def expected_end(self, block_start: int) -> int | None:
        return self.device.program_predict_end(self, block_start)


class PlaybackProgram:
    """Mixin for VirtualDevice subclasses that render queued material.

    It comes before :class:`VirtualDevice` among the host's bases, so its
    ``__init__`` and ``stop_now`` extend the device's.  The host calls
    :meth:`program_render` and gets back a block plus the side effects
    (handle completions, SYNC events) applied.
    """

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self.program: list[PlaybackHandle] = []
        #: Pending sample-accurate gain changes: (sample_time, gain).
        self._gain_points: list[tuple[int, float]] = []
        self._current_gain = 1.0

    def schedule_gain(self, at_time: int, gain: float) -> None:
        """Queue a gain change taking effect at an exact sample time.

        This is what makes the paper's footnote-4 idiom (Play, queued
        ChangeGain, Play) sample-accurate: the gain flips exactly at the
        boundary between the two sounds, not at a block edge.
        """
        self._gain_points.append((at_time, gain))
        self._gain_points.sort()

    def _apply_gain_automation(self, out: np.ndarray, sample_time: int,
                               frames: int) -> np.ndarray:
        if not self._gain_points and self._current_gain == 1.0:
            return out
        block_end = sample_time + frames
        result = out.copy()
        position = 0
        while self._gain_points and self._gain_points[0][0] < block_end:
            at_time, gain = self._gain_points.pop(0)
            offset = max(0, at_time - sample_time)
            if offset > position and self._current_gain != 1.0:
                result[position:offset] = apply_gain(
                    result[position:offset], self._current_gain)
            self._current_gain = gain
            position = offset
        if self._current_gain != 1.0:
            result[position:] = apply_gain(result[position:],
                                           self._current_gain)
        return result

    def enqueue_playback(self, handle: PlaybackHandle) -> PlaybackHandle:
        self.program.append(handle)
        return handle

    def program_predict_end(self, handle: PlaybackHandle,
                            block_start: int) -> int | None:
        """When will ``handle`` finish, assuming uninterrupted rendering?

        Walks the program chain accumulating each predecessor's remaining
        material.  Returns None if any predecessor (or the handle itself)
        has unknowable length (live stream) or is paused.
        """
        cursor_time = block_start
        for item in self.program:
            if item.paused:
                return None
            if item.samples is None:
                return None     # a live stream: its length is unknown
            end = (max(cursor_time, item.not_before)
                   + len(item.samples) - item.cursor)
            if item is handle:
                return end
            cursor_time = end
        return None     # handle already finished or cancelled

    def program_render(self, sample_time: int, frames: int,
                       gain: float = 1.0) -> np.ndarray:
        """Render one block from the program, finishing exhausted items."""
        out = np.zeros(frames, dtype=np.int16)
        block_end = sample_time + frames
        cursor_time = sample_time
        finished: list[PlaybackHandle] = []
        for item in self.program:
            if item.finished:
                finished.append(item)
                continue
            if item.paused:
                break
            start = max(cursor_time, item.not_before)
            if start >= block_end:
                break
            offset = start - sample_time
            room = frames - offset
            if item.samples is not None:
                take = min(room, len(item.samples) - item.cursor)
                if take > 0:
                    out[offset:offset + take] = \
                        item.samples[item.cursor:item.cursor + take]
                    item.cursor += take
                    item.frames_played += take
                    item.started_playing = True
                cursor_time = start + max(take, 0)
                self._emit_sync(item, sample_time + offset + max(take, 0))
                if item.cursor >= len(item.samples):
                    item.finish(cursor_time)
                    finished.append(item)
                    continue
                break   # block full
            # Live stream item: pull whatever the stream has.
            chunk = item.stream_sound.read_frames(0, room)
            got = len(chunk)
            if got > 0:
                out[offset:offset + got] = chunk
                item.frames_played += got
                item.started_playing = True
            if (got < room and item.started_playing
                    and not item.stream_sound.stream_ended):
                # The client fell behind the sample clock: an underrun.
                self._m_underruns.inc()
            cursor_time = start + got
            self._notify_stream_state(item)
            if (item.stream_sound.stream_ended
                    and item.stream_sound.frame_length == 0):
                item.finish(cursor_time)
                finished.append(item)
                continue
            break   # streams never overlap a successor mid-block
        for item in finished:
            if item in self.program:
                self.program.remove(item)
        out = self._apply_gain_automation(out, sample_time, frames)
        if gain != 1.0:
            out = apply_gain(out, gain)
        return out

    def _emit_sync(self, item: PlaybackHandle, now: int) -> None:
        """A SYNC event at every crossed sync interval."""
        if item.sync_interval <= 0:
            return
        while item.frames_played >= item.next_sync:
            self._sync_event(item, now)
            item.next_sync += item.sync_interval
        total = item.total_frames
        if total is not None and item.frames_played >= total:
            # Always mark the final sample so progress bars reach 100%.
            self._sync_event(item, now)
            item.next_sync = item.frames_played + item.sync_interval

    def _sync_event(self, item: PlaybackHandle, now: int) -> None:
        total = item.total_frames
        self.server.events.emit_device(
            self, EventCode.SYNC, detail=int(item.leaf.serial),
            sample_time=now,
            args=AttributeList({
                ev.ARG_COMMAND_SERIAL: int(item.leaf.serial),
                ev.ARG_FRAMES_DONE: int(item.frames_played),
                ev.ARG_FRAMES_TOTAL: int(total if total is not None else -1),
            }))

    def _notify_stream_state(self, item: PlaybackHandle) -> None:
        """Called after consuming from a stream item (flow control)."""

    def stop_now(self, at_time: int) -> None:
        """Immediate Stop: the base cancels every item (each is one of
        the device's handles), and the program empties."""
        super().stop_now(at_time)
        self.program = []


class ProgramDevice(PlaybackProgram, VirtualDevice):
    """A source device whose single output plays its program.

    The player, the speech synthesizer and the music synthesizer differ
    only in the commands that put material on the program; the port,
    sample-accurate queued ChangeGain, rendering and Stop are here.
    """

    def _build_ports(self) -> None:
        self._add_port(PortDirection.SOURCE)

    def _start(self, leaf, at_time: int) -> CommandHandle:
        if leaf.command is Command.CHANGE_GAIN and leaf.queued:
            # It lands on its start sample, the exact end of the command
            # before it, not on the whole block.
            self.schedule_gain(at_time,
                               float(leaf.args.get("gain", 100)) / 100.0)
            return InstantHandle(self, leaf, at_time)
        return super()._start(leaf, at_time)

    def _sync_frames(self, leaf) -> int:
        """The command's ``sync-interval-ms`` in device-layer frames."""
        return (int(leaf.args.get("sync-interval-ms", 0))
                * self.server.hub.sample_rate // 1000)

    def _render(self, port_index: int, sample_time: int,
                frames: int) -> np.ndarray:
        return self.program_render(sample_time, frames, self.gain)

    def consume(self, sample_time: int, frames: int) -> None:
        """Advance the program even when nothing pulls this source.

        A player "transmits the data out the port" whether or not a
        wire consumes it: an unwired (or unrouted-crossbar) play still
        runs to completion in audio time rather than hanging the queue.
        """
        if 0 not in self._render_cache:
            self.render_source(0, sample_time, frames)
