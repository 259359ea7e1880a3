"""The speech recognizer virtual device class.

"Speech recognizers detect words spoken by a user.  A recognizer has a
single input, and produces recognition results as events.  The commands
Train, SetVocabulary, AdjustContext, and SaveVocabulary control which
words a recognizer will detect, based on application and user."
(paper section 5.1)

Command arguments:

* ``Train``: ``word`` (string), ``sound`` (int id of a training
  utterance already on the server);
* ``SetVocabulary``: ``words`` (string list; empty list = everything
  trained);
* ``AdjustContext``: optional ``rejection-threshold`` (float), ``band``
  (int);
* ``SaveVocabulary``: ``sound`` (int id) -- the snapshot is serialized
  as JSON bytes into that sound's data, where the client can read it
  back with ReadSoundData;
* ``Listen`` / ``StopListening``: begin/end streaming recognition on the
  wired input; each detected word arrives as a RECOGNITION event with
  ``word`` and ``score`` arguments.
"""

from __future__ import annotations

import json


from ...dsp.recognition import Recognizer, UtteranceDetector
from ...protocol import events as ev
from ...protocol.attributes import AttributeList
from ...protocol.errors import bad
from ...protocol.types import Command, DeviceClass, ErrorCode, EventCode, \
    PortDirection
from ..sounds import Sound
from .base import CommandHandle, InstantHandle, VirtualDevice, \
    register_device_class


class ListenHandle(CommandHandle):
    """Open-ended listening; runs until stopped (no expected end)."""


@register_device_class
class RecognizerDevice(VirtualDevice):
    """Small-vocabulary trainable recognizer on a wired audio input."""

    DEVICE_CLASS = DeviceClass.RECOGNIZER
    BINDS_TO = None

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self._recognizer: Recognizer | None = None
        self._detector: UtteranceDetector | None = None
        self._listening: ListenHandle | None = None

    def _build_ports(self) -> None:
        self._add_port(PortDirection.SINK)

    def _engine(self) -> Recognizer:
        if self._recognizer is None:
            self._recognizer = Recognizer(self.server.hub.sample_rate)
        return self._recognizer

    def _start(self, leaf, at_time: int) -> CommandHandle:
        command = leaf.command
        if command is Command.TRAIN:
            word = str(leaf.args.get("word", ""))
            sound_id = leaf.args.get("sound")
            if not word or sound_id is None:
                raise bad(ErrorCode.BAD_VALUE,
                          "Train needs word and sound arguments",
                          self.device_id)
            sound = self.server.resources.get(int(sound_id), Sound,
                                              ErrorCode.BAD_SOUND)
            samples = sound.decoded()
            if sound.sound_type.samplerate != self.server.hub.sample_rate:
                from ...dsp.resample import resample

                samples = resample(samples, sound.sound_type.samplerate,
                                   self.server.hub.sample_rate)
            try:
                self._engine().train(word, samples)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        if command is Command.SET_VOCABULARY:
            words = [str(word) for word in leaf.args.get("words", [])]
            try:
                self._engine().set_vocabulary(words or None)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        if command is Command.ADJUST_CONTEXT:
            threshold = leaf.args.get("rejection-threshold")
            band = leaf.args.get("band")
            try:
                self._engine().adjust_context(
                    rejection_threshold=(float(threshold)
                                         if threshold is not None else None),
                    band=int(band) if band is not None else None)
            except ValueError as exc:
                raise bad(ErrorCode.BAD_VALUE, str(exc), self.device_id)
            return InstantHandle(self, leaf, at_time)
        if command is Command.SAVE_VOCABULARY:
            sound_id = leaf.args.get("sound")
            if sound_id is None:
                raise bad(ErrorCode.BAD_VALUE,
                          "SaveVocabulary needs a sound argument",
                          self.device_id)
            sound = self.server.resources.get(int(sound_id), Sound,
                                              ErrorCode.BAD_SOUND)
            snapshot = json.dumps(self._engine().save_vocabulary())
            sound.write_bytes(0, snapshot.encode("utf-8"))
            return InstantHandle(self, leaf, at_time)
        if command is Command.LISTEN:
            if self._listening is not None and not self._listening.finished:
                raise bad(ErrorCode.BAD_MATCH, "already listening",
                          self.device_id)
            handle = ListenHandle(self, leaf, at_time)
            self._listening = handle
            self._detector = UtteranceDetector(self.server.hub.sample_rate)
            return handle
        if command is Command.STOP_LISTENING:
            if self._listening is not None and not self._listening.finished:
                self._listening.finish(at_time)
                self._listening = None
            return InstantHandle(self, leaf, at_time)
        return super()._start(leaf, at_time)

    def consume(self, sample_time: int, frames: int) -> None:
        handle = self._listening
        if handle is None or handle.finished or handle.paused:
            return
        block = self.pull_sink(0, sample_time, frames)
        utterance = self._detector.feed(block)
        if utterance is None:
            return
        result = self._engine().recognize(utterance)
        if result is not None:
            self.server.events.emit_device(
                self, EventCode.RECOGNITION,
                sample_time=sample_time,
                args=AttributeList({
                    ev.ARG_WORD: result.word,
                    ev.ARG_SCORE: float(result.score),
                }))

    def stop_now(self, at_time: int) -> None:
        if self._listening is not None and not self._listening.finished:
            self._listening.finish(at_time, status=1)
            self._listening = None
        super().stop_now(at_time)
