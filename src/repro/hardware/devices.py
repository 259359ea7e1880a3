"""Simulated physical audio devices.

These stand in for the paper's CODEC-attached hardware: speakers,
microphones, and the telephone line interface.  Each device participates
in the hub's block cycle via ``begin_block``/``end_block`` and offers the
server's device layer a block-granular read or write surface.

The :class:`CaptureBuffer` on outputs is the reproduction's measurement
instrument: because the "DAC" is simulated, every sample that would have
reached the air is recorded, which is what lets tests assert the paper's
"zero dropped or inserted samples" property exactly.
"""

from __future__ import annotations

import threading

import numpy as np

from ..dsp.mixing import clamp_to_int16, mix
from ..telephony.line import HookState, Line
from .room import Room


class CaptureBuffer:
    """Sample-exact recording of everything an output device emitted."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._blocks: list[np.ndarray] = []
        self._lock = threading.Lock()

    def append(self, block: np.ndarray) -> None:
        if self.enabled:
            with self._lock:
                self._blocks.append(block)

    def samples(self) -> np.ndarray:
        with self._lock:
            if not self._blocks:
                return np.zeros(0, dtype=np.int16)
            return np.concatenate(self._blocks)

    def clear(self) -> None:
        with self._lock:
            self._blocks = []

    def __len__(self) -> int:
        with self._lock:
            return sum(len(block) for block in self._blocks)


class PhysicalAudioDevice:
    """Base class: a named endpoint living in an ambient domain."""

    def __init__(self, name: str, domain: str) -> None:
        self.name = name
        self.domain = domain

    def begin_block(self, frames: int) -> None:
        """Called by the hub before the server renders this block."""

    def end_block(self) -> None:
        """Called by the hub after the server rendered this block."""


class SpeakerDevice(PhysicalAudioDevice):
    """A loudspeaker: writes into its room, records into its capture."""

    def __init__(self, name: str, room: Room,
                 capture: bool = True) -> None:
        super().__init__(name, room.name)
        self.room = room
        self.capture = CaptureBuffer(capture)
        self._accumulator = np.zeros(0, dtype=np.int32)

    def begin_block(self, frames: int) -> None:
        self._accumulator = np.zeros(frames, dtype=np.int32)

    def play(self, samples: np.ndarray) -> None:
        """Add a block (or partial block) of output to this tick's mix.

        Multiple writers per tick are mixed -- "the multiplexing of
        output requests from a number of applications to a single
        speaker" (paper section 2).  The mix is an exact int32 sum,
        saturated once at :meth:`end_block`, so ``samples`` may also be
        an int32 partial sum of several int16 blocks.
        """
        samples = np.asarray(samples)
        if samples.dtype != np.int32:
            samples = samples.astype(np.int16, copy=False)
        usable = min(len(samples), len(self._accumulator))
        self._accumulator[:usable] += samples[:usable]

    def end_block(self) -> None:
        block = clamp_to_int16(self._accumulator)
        self.room.speaker_output(block)
        self.capture.append(block)


class MicrophoneDevice(PhysicalAudioDevice):
    """A microphone: reads its room's current-block signal when read."""

    def __init__(self, name: str, room: Room) -> None:
        super().__init__(name, room.name)
        self.room = room

    def read(self, frames: int) -> np.ndarray:
        """The block every reader of this microphone sees this tick."""
        return self.room.microphone_signal(frames)


class LineDevice(PhysicalAudioDevice):
    """The telephone line interface card.

    Full-duplex audio plus call signaling, wrapping one subscriber
    :class:`~repro.telephony.line.Line` on the simulated exchange.
    Signaling callbacks from the line (ring, answer, hangup) are relayed
    to listeners registered by the server's telephone device.
    """

    def __init__(self, name: str, line: Line,
                 domain: str = "telephone", capture: bool = True) -> None:
        super().__init__(name, domain)
        self.line = line
        #: Everything transmitted toward the far end, for tests/benches.
        self.capture = CaptureBuffer(capture)
        self._pending: list[np.ndarray] = []
        self._snapshot = np.zeros(0, dtype=np.int16)
        self._frames = 0

    # -- block cycle ----------------------------------------------------------

    def begin_block(self, frames: int) -> None:
        self._pending = []
        self._frames = frames
        self._snapshot = self.line.receive_audio(frames)

    def play(self, samples: np.ndarray) -> None:
        """Queue outbound audio (toward the far party) for this tick."""
        self._pending.append(np.asarray(samples, dtype=np.int16))

    def read(self, frames: int) -> np.ndarray:
        """Inbound audio (from the far party) for this tick."""
        if len(self._snapshot) == frames:
            return self._snapshot
        block = np.zeros(frames, dtype=np.int16)
        usable = min(frames, len(self._snapshot))
        block[:usable] = self._snapshot[:usable]
        return block

    def end_block(self) -> None:
        # An on-hook line sends nothing, so its block is never mixed.
        if self.line.hook is HookState.OFF_HOOK:
            block = mix(self._pending, length=self._frames)
            self.line.send_audio(block)
            self.capture.append(block)
        self._pending = []

    # -- signaling passthrough ------------------------------------------------

    @property
    def number(self) -> str:
        return self.line.number

    @property
    def ringing(self) -> bool:
        return self.line.ringing

    @property
    def off_hook(self) -> bool:
        return self.line.hook is HookState.OFF_HOOK

    def add_listener(self, listener) -> None:
        self.line.add_listener(listener)

    def answer(self) -> None:
        self.line.off_hook()

    def hang_up(self) -> None:
        self.line.on_hook()

    def dial(self, number: str) -> None:
        self.line.off_hook()
        self.line.dial(number)
