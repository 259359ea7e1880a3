"""The speech synthesizer virtual device class.

"Speech synthesizers speak text strings.  They have a single output for
the synthesized audio.  The commands SetTextLanguage and SetValues
control interpretation of the text and acoustical characteristics of the
vocal tract model used for synthesis.  SetExceptionList allows
applications to override the normal pronunciation of words, such as
names or technical terms.  SpeakText accepts commands to speak text
strings."  (paper section 5.1)

Command arguments:

* ``SpeakText``: ``text`` (string); optional ``sync-interval-ms``.
* ``SetTextLanguage``: ``language`` (string, only "english" ships).
* ``SetValues``: any of ``pitch`` (Hz), ``rate`` (multiplier),
  ``volume`` (0..100).
* ``SetExceptionList``: ``words`` (string list) and ``pronunciations``
  (string list of space-separated phoneme symbols, parallel to words).
"""

from __future__ import annotations

import numpy as np

from ...dsp.synthesis import FormantSynthesizer
from ...protocol.errors import bad
from ...protocol.types import Command, DeviceClass, ErrorCode
from .base import CommandHandle, InstantHandle, register_device_class
from .playback import PlaybackHandle, ProgramDevice


@register_device_class
class SynthesizerDevice(ProgramDevice):
    """Text in, audio out; playback is queued like a player's."""

    DEVICE_CLASS = DeviceClass.SYNTHESIZER
    BINDS_TO = None

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self._engine: FormantSynthesizer | None = None

    def _synth(self) -> FormantSynthesizer:
        if self._engine is None:
            self._engine = FormantSynthesizer(self.server.hub.sample_rate)
        return self._engine

    def _start(self, leaf, at_time: int) -> CommandHandle:
        command = leaf.command
        if command is Command.SPEAK_TEXT:
            text = str(leaf.args.get("text", ""))
            # The vocal tract model runs instantaneously in simulation;
            # the rendered waveform is queued for sample-accurate output.
            samples = self._synth().synthesize_text(text)
            return self.enqueue_playback(PlaybackHandle(
                self, leaf, at_time, np.asarray(samples, dtype=np.int16),
                sync_interval_frames=self._sync_frames(leaf)))
        if command is Command.SET_TEXT_LANGUAGE:
            language = str(leaf.args.get("language", "english"))
            try:
                self._synth().set_language(language)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        if command is Command.SET_VALUES:
            synth = self._synth()
            if "pitch" in leaf.args:
                pitch = float(leaf.args["pitch"])
                if not 40.0 <= pitch <= 500.0:
                    raise bad(ErrorCode.BAD_VALUE, "pitch out of range",
                              self.device_id)
                synth.parameters.pitch = pitch
            if "rate" in leaf.args:
                rate = float(leaf.args["rate"])
                if not 0.25 <= rate <= 4.0:
                    raise bad(ErrorCode.BAD_VALUE, "rate out of range",
                              self.device_id)
                synth.parameters.rate = rate
            if "volume" in leaf.args:
                volume = float(leaf.args["volume"])
                if not 0.0 <= volume <= 100.0:
                    raise bad(ErrorCode.BAD_VALUE, "volume out of range",
                              self.device_id)
                synth.parameters.volume = volume / 100.0
            return InstantHandle(self, leaf, at_time)
        if command is Command.SET_EXCEPTION_LIST:
            words = leaf.args.get("words", [])
            pronunciations = leaf.args.get("pronunciations", [])
            if len(words) != len(pronunciations):
                raise bad(ErrorCode.BAD_VALUE,
                          "words and pronunciations must be parallel lists",
                          self.device_id)
            synth = self._synth()
            for word, pronunciation in zip(words, pronunciations):
                try:
                    synth.set_exception(str(word),
                                        str(pronunciation).split())
                except ValueError as exc:
                    raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        return super()._start(leaf, at_time)
