"""The recorder virtual device class.

"Recorders have one or more input ports, typed according to a speech
encoding format.  They store sound data received on the input ports."
(paper section 5.1)

Record command arguments:

* ``sound`` (int, required) -- target sound id;
* ``termination`` (int, optional) -- a
  :class:`~repro.protocol.types.RecordTermination` value; default
  EXPLICIT (record until stopped);
* ``max-length-ms`` (int, optional) -- cap the recording length (implies
  a predictable end, so the conductor can pre-issue successors);
* ``pause-seconds`` (float, optional) -- trailing-silence length for
  ON_PAUSE termination (default 2.0).

Recorder attributes (paper's examples): ``agc`` enables automatic gain
control during recording; ``pause-compression`` removes pauses from the
stored audio at finalize time; ``pause-detection`` advertises ON_PAUSE
support.
"""

from __future__ import annotations

import numpy as np

from ...dsp.agc import AutomaticGainControl
from ...dsp.resample import StreamResampler
from ...dsp.silence import PauseDetector, compress_pauses
from ...protocol.attributes import (
    ATTR_AGC,
    ATTR_PAUSE_COMPRESSION,
)
from ...protocol.errors import bad
from ...protocol.types import (
    Command,
    DeviceClass,
    ErrorCode,
    EventCode,
    PortDirection,
    RecordTermination,
)
from ..sounds import Sound
from .base import CommandHandle, VirtualDevice, register_device_class


class RecordHandle(CommandHandle):
    """One in-flight Record command."""

    def __init__(self, device: "RecorderDevice", leaf, start_time: int,
                 sound: Sound, termination: RecordTermination,
                 max_frames: int | None,
                 pause_seconds: float) -> None:
        super().__init__(device, leaf, start_time)
        self.sound = sound
        self.termination = termination
        self.max_frames = max_frames
        self.not_before = start_time
        self.recorded_frames = 0
        self.hangup_seen = False
        rate = device.server.hub.sample_rate
        self.pause_detector = None
        if termination is RecordTermination.ON_PAUSE:
            self.pause_detector = PauseDetector(rate,
                                                pause_seconds=pause_seconds)

    def cancel(self, at_time: int) -> None:
        # A cancelled recording still keeps what it captured so far.
        if not self.finished:
            self.device.finalize_record(self, at_time, status=1)

    def expected_end(self, block_start: int) -> int | None:
        if self.max_frames is None:
            return None
        start = max(block_start, self.not_before)
        return start + (self.max_frames - self.recorded_frames)


@register_device_class
class RecorderDevice(VirtualDevice):
    """Stores pulled audio into a server-side sound."""

    DEVICE_CLASS = DeviceClass.RECORDER
    BINDS_TO = None     # pure software

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self._active: RecordHandle | None = None
        self._agc: AutomaticGainControl | None = None
        self._resampler: StreamResampler | None = None
        self._recorded_linear: list[np.ndarray] = []

    def _build_ports(self) -> None:
        self._add_port(PortDirection.SINK)

    # -- commands -------------------------------------------------------------

    def _start(self, leaf, at_time: int) -> CommandHandle:
        if leaf.command is Command.RECORD:
            return self._start_record(leaf, at_time)
        return super()._start(leaf, at_time)

    def _start_record(self, leaf, at_time: int) -> RecordHandle:
        if self._active is not None and not self._active.finished:
            raise bad(ErrorCode.BAD_MATCH, "recorder already recording",
                      self.device_id)
        sound_id = leaf.args.get("sound")
        if sound_id is None:
            raise bad(ErrorCode.BAD_VALUE, "Record needs a sound argument",
                      self.device_id)
        sound = self.server.resources.get(int(sound_id), Sound,
                                          ErrorCode.BAD_SOUND)
        termination = RecordTermination(
            int(leaf.args.get("termination", RecordTermination.EXPLICIT)))
        max_ms = leaf.args.get("max-length-ms")
        hub_rate = self.server.hub.sample_rate
        max_frames = None
        if max_ms is not None:
            max_frames = int(max_ms) * hub_rate // 1000
        pause_seconds = float(leaf.args.get("pause-seconds", 2.0))
        handle = RecordHandle(self, leaf, at_time, sound, termination,
                              max_frames, pause_seconds)
        sync_ms = int(leaf.args.get("sync-interval-ms", 0))
        handle.sync_interval = sync_ms * hub_rate // 1000 if sync_ms else 0
        handle.next_sync = handle.sync_interval
        if termination is RecordTermination.ON_HANGUP:
            self._watch_for_hangup(handle)
        self._active = handle
        self._recorded_linear = []
        if self.attributes.get(ATTR_AGC):
            self._agc = AutomaticGainControl(hub_rate)
        else:
            self._agc = None
        if sound.sound_type.samplerate != hub_rate:
            self._resampler = StreamResampler(hub_rate,
                                              sound.sound_type.samplerate)
        else:
            self._resampler = None
        self.server.events.emit_device(
            self, EventCode.RECORD_STARTED, detail=int(leaf.serial),
            sample_time=at_time)
        return handle

    def _watch_for_hangup(self, handle: RecordHandle) -> None:
        """ON_HANGUP termination: watch the wired telephone device."""
        from .telephone import TelephoneDevice

        for wire in self.wires_into(0):
            if isinstance(wire.source_device, TelephoneDevice):
                wire.source_device.add_hangup_watcher(
                    lambda: setattr(handle, "hangup_seen", True))
                return
        raise bad(ErrorCode.BAD_MATCH,
                  "ON_HANGUP termination needs a wired telephone",
                  self.device_id)

    # -- the block cycle ------------------------------------------------------

    def consume(self, sample_time: int, frames: int) -> None:
        handle = self._active
        if handle is None or handle.finished or handle.paused:
            return
        block = self.pull_sink(0, sample_time, frames)
        offset = max(0, handle.not_before - sample_time)
        data = block[offset:]
        end_of_block = sample_time + frames
        finish_at = None
        if handle.max_frames is not None:
            room = handle.max_frames - handle.recorded_frames
            if len(data) >= room:
                data = data[:room]
                finish_at = sample_time + offset + room
        if self._agc is not None and len(data):
            data = self._agc.process(data)
        if len(data):
            if handle.sound.is_stream:
                # Live monitoring: recorded audio goes straight into the
                # stream FIFO where the client can drain it with
                # ReadSoundData, flow-controlled by DATA_AVAILABLE.
                handle.sound.append_frames(
                    np.asarray(data, dtype=np.int16))
                self.server.events.emit_stream_available(handle.sound)
            else:
                self._recorded_linear.append(
                    np.asarray(data, dtype=np.int16))
            handle.recorded_frames += len(data)
        # Recording-progress SYNC events: the Soundviewer's record mode.
        if getattr(handle, "sync_interval", 0) > 0:
            while handle.recorded_frames >= handle.next_sync:
                self._emit_record_sync(handle, end_of_block)
                handle.next_sync += handle.sync_interval
        if handle.pause_detector is not None and finish_at is None:
            if handle.pause_detector.feed(data):
                finish_at = end_of_block
        if handle.hangup_seen and finish_at is None:
            finish_at = end_of_block
        if finish_at is not None:
            self.finalize_record(handle, finish_at)

    def _emit_record_sync(self, handle: RecordHandle,
                          sample_time: int) -> None:
        from ...protocol import events as ev
        from ...protocol.attributes import AttributeList

        total = handle.max_frames if handle.max_frames is not None else -1
        self.server.events.emit_device(
            self, EventCode.SYNC, detail=int(handle.leaf.serial),
            sample_time=sample_time,
            args=AttributeList({
                ev.ARG_COMMAND_SERIAL: int(handle.leaf.serial),
                ev.ARG_FRAMES_DONE: int(handle.recorded_frames),
                ev.ARG_FRAMES_TOTAL: int(total),
            }))

    def finalize_record(self, handle: RecordHandle, at_time: int,
                  status: int = 0) -> None:
        if handle.sound.is_stream:
            # Stream targets already received everything block by block.
            handle.sound.end_stream()
        else:
            recorded = (np.concatenate(self._recorded_linear)
                        if self._recorded_linear
                        else np.zeros(0, dtype=np.int16))
            hub_rate = self.server.hub.sample_rate
            if self.attributes.get(ATTR_PAUSE_COMPRESSION):
                recorded = compress_pauses(recorded, hub_rate)
            if self._resampler is not None and len(recorded):
                from ...dsp.resample import resample

                recorded = resample(recorded, hub_rate,
                                    handle.sound.sound_type.samplerate)
            handle.sound.append_frames(recorded)
        self._recorded_linear = []
        self._active = None
        handle.finish(at_time, status)
        self.server.events.emit_device(
            self, EventCode.RECORD_STOPPED, detail=int(handle.leaf.serial),
            sample_time=at_time)

    def stop_now(self, at_time: int) -> None:
        handle = self._active
        if handle is not None and not handle.finished:
            self.finalize_record(handle, at_time, status=1)
        super().stop_now(at_time)

    def save_state(self) -> dict:
        state = super().save_state()
        state["recording"] = self._active is not None
        return state
