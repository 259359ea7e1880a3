"""The player virtual device class.

"Players have one or more output ports, typed according to a speech
encoding format.  They convert sound data to the output port type and
then transmit the data out the port ...  The commands Play, Stop, Pause,
and Restart control the transmission of the data on the ports."
(paper section 5.1)

Play command arguments (attribute-list keys):

* ``sound`` (int, required) -- the sound id to play;
* ``sync-interval-ms`` (int, optional) -- emit SYNC events at this
  period during playback (drives Soundviewer-style widgets).
"""

from __future__ import annotations

import numpy as np

from ...dsp.resample import resample
from ...protocol.errors import bad
from ...protocol.types import Command, DeviceClass, ErrorCode, EventCode
from ..sounds import Sound
from .base import CommandHandle, register_device_class
from .playback import PlaybackHandle, ProgramDevice


@register_device_class
class PlayerDevice(ProgramDevice):
    """Plays server-side sounds out its source port."""

    DEVICE_CLASS = DeviceClass.PLAYER
    BINDS_TO = None     # pure software

    # -- commands -------------------------------------------------------------

    def _start(self, leaf, at_time: int) -> CommandHandle:
        if leaf.command is Command.PLAY:
            return self._start_play(leaf, at_time)
        return super()._start(leaf, at_time)

    def _start_play(self, leaf, at_time: int) -> PlaybackHandle:
        sound_id = leaf.args.get("sound")
        if sound_id is None:
            raise bad(ErrorCode.BAD_VALUE, "Play needs a sound argument",
                      self.device_id)
        sound = self.server.resources.get(int(sound_id), Sound,
                                          ErrorCode.BAD_SOUND)
        hub_rate = self.server.hub.sample_rate
        sync_frames = self._sync_frames(leaf)
        if sound.is_stream:
            if sound.sound_type.samplerate != hub_rate:
                raise bad(ErrorCode.BAD_MATCH,
                          "stream sound rate must match the device layer",
                          sound.sound_id)
            handle = PlaybackHandle(self, leaf, at_time, None,
                                    stream_sound=sound,
                                    sync_interval_frames=sync_frames)
        else:
            samples = sound.decoded()
            # "They convert sound data to the output port type": the
            # internal transport is device-layer-rate linear PCM, so a
            # CD-rate sound is resampled here once, at play start.
            if sound.sound_type.samplerate != hub_rate:
                samples = resample(samples, sound.sound_type.samplerate,
                                   hub_rate)
            handle = PlaybackHandle(self, leaf, at_time,
                                    np.asarray(samples, dtype=np.int16),
                                    sync_interval_frames=sync_frames)
        self.enqueue_playback(handle)
        self.server.events.emit_device(self, EventCode.PLAY_STARTED,
                                       leaf.serial, at_time)
        return handle

    # -- stream flow control and Stop -----------------------------------------

    def _notify_stream_state(self, item: PlaybackHandle) -> None:
        sound = item.stream_sound
        if sound.stream_hungry:
            self.server.events.emit_stream_hungry(sound)

    def stop_now(self, at_time: int) -> None:
        super().stop_now(at_time)
        self.server.events.emit_device(
            self, EventCode.PLAY_STOPPED, sample_time=at_time)
