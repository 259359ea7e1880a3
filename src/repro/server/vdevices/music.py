"""The music synthesizer virtual device class.

"Music Synthesizers process note-based audio.  They accept commands, and
produce audio data on their single output.  The commands SetState and
SetVoice control music generation parameters.  Note makes a sound."
(paper section 5.1)

Command arguments:

* ``Note``: ``note`` (string name like "C4" or int MIDI number),
  ``beats`` (float, default 1.0);
* ``SetVoice``: any of ``waveform``, ``volume``, ``detune-cents``,
  ``attack``, ``decay``, ``sustain``, ``release``;
* ``SetState``: ``tempo-bpm`` (float).

Notes are queued playback items, so consecutive Note commands play
back-to-back with no gap -- a queued melody.
"""

from __future__ import annotations

import numpy as np

from ...dsp.music import MusicSynthesizer
from ...protocol.errors import bad
from ...protocol.types import Command, DeviceClass, ErrorCode
from .base import CommandHandle, InstantHandle, register_device_class
from .playback import PlaybackHandle, ProgramDevice


@register_device_class
class MusicDevice(ProgramDevice):
    """Note-based synthesis with a queued output program."""

    DEVICE_CLASS = DeviceClass.MUSIC
    BINDS_TO = None

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self._engine: MusicSynthesizer | None = None

    def _synth(self) -> MusicSynthesizer:
        if self._engine is None:
            self._engine = MusicSynthesizer(self.server.hub.sample_rate)
        return self._engine

    def _start(self, leaf, at_time: int) -> CommandHandle:
        command = leaf.command
        if command is Command.NOTE:
            note = leaf.args.get("note")
            if note is None:
                raise bad(ErrorCode.BAD_VALUE, "Note needs a note argument",
                          self.device_id)
            beats = float(leaf.args.get("beats", 1.0))
            if beats <= 0:
                raise bad(ErrorCode.BAD_VALUE, "beats must be positive",
                          self.device_id)
            try:
                if isinstance(note, str):
                    samples = self._synth().render_note(note, beats)
                else:
                    samples = self._synth().render_note(int(note), beats)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return self.enqueue_playback(PlaybackHandle(
                self, leaf, at_time, np.asarray(samples, dtype=np.int16)))
        if command is Command.SET_VOICE:
            updates = {}
            for key in ("waveform", "volume", "detune-cents", "attack",
                        "decay", "sustain", "release"):
                if key in leaf.args:
                    updates[key.replace("-", "_")] = leaf.args[key]
            try:
                self._synth().set_voice(**updates)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        if command is Command.SET_STATE:
            tempo = leaf.args.get("tempo-bpm")
            try:
                self._synth().set_state(
                    tempo_bpm=float(tempo) if tempo is not None else None)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        return super()._start(leaf, at_time)
