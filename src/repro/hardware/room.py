"""Acoustic rooms: the physics behind ambient domains.

"An ambient domain indicates a relationship between devices and the
acoustic environment ... sound from the speaker will be audible by the
microphone."  (paper section 5.8)

A :class:`Room` models one acoustic environment at block granularity:
speakers write their output into the room, microphones read the room's
mix one block later (a block of propagation delay keeps the data flow
acyclic), and tests can inject "user speech" sources to talk into a
microphone.
"""

from __future__ import annotations

import numpy as np

from ..dsp.mixing import mix


class InjectedSource:
    """A scripted sound source in the room (a person talking, a radio).

    Used by tests and examples to put audio in front of a microphone.
    """

    def __init__(self, samples: np.ndarray, gain: float = 1.0,
                 repeat: bool = False) -> None:
        self.samples = np.asarray(samples, dtype=np.int16)
        self.gain = gain
        self.repeat = repeat
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        return not self.repeat and self._cursor >= len(self.samples)

    def next_block(self, frames: int) -> np.ndarray:
        """The next ``frames`` samples of this source (silence-padded)."""
        if len(self.samples) == 0:
            return np.zeros(frames, dtype=np.int16)
        if self.repeat:
            indices = (self._cursor + np.arange(frames)) % len(self.samples)
            block = self.samples[indices]
            self._cursor = (self._cursor + frames) % len(self.samples)
        else:
            block = np.zeros(frames, dtype=np.int16)
            end = min(self._cursor + frames, len(self.samples))
            usable = end - self._cursor
            if usable > 0:
                block[:usable] = self.samples[self._cursor:end]
            self._cursor = end
        if self.gain != 1.0:
            from ..dsp.mixing import apply_gain

            block = apply_gain(block, self.gain)
        return block


class Room:
    """One ambient domain's acoustics, advanced block by block.

    The bleed mix is made on demand: :meth:`advance` keeps last block's
    speaker blocks and pulls this block of every injected source, and
    the mix is computed the first time a microphone reads the room (or
    :attr:`quiet` is asked) in the block.  A room nobody listens to costs
    no mix.
    """

    #: How much of the speakers' output bleeds into microphones.
    SPEAKER_BLEED = 0.5

    def __init__(self, name: str) -> None:
        self.name = name
        self._pending_speaker_blocks: list[np.ndarray] = []
        self._sources: list[InjectedSource] = []
        #: This block's inputs, ``(blocks, gains, frames)``, until mixed.
        self._inputs: tuple | None = None
        self._current_mix = np.zeros(0, dtype=np.int16)

    def inject(self, source: InjectedSource) -> None:
        """Add a scripted source; it starts sounding next block."""
        self._sources.append(source)

    def speaker_output(self, samples: np.ndarray) -> None:
        """A speaker in this room produced a block (audible next block)."""
        self._pending_speaker_blocks.append(samples)

    def advance(self, frames: int) -> None:
        """Advance one block: last block's speakers + live sources."""
        blocks = self._pending_speaker_blocks
        gains = [self.SPEAKER_BLEED] * len(blocks)
        self._pending_speaker_blocks = []
        for source in self._sources:
            blocks.append(source.next_block(frames))
            gains.append(1.0)
        self._sources = [source for source in self._sources
                         if not source.exhausted]
        self._inputs = (blocks, gains, frames)

    def _mix(self) -> np.ndarray:
        """This block's mix, computed on first use."""
        if self._inputs is not None:
            blocks, gains, frames = self._inputs
            self._inputs = None
            self._current_mix = mix(blocks, gains, length=frames)
        return self._current_mix

    def microphone_signal(self, frames: int) -> np.ndarray:
        """What a microphone in this room hears during the current block."""
        current = self._mix()
        if len(current) == frames:
            return current
        block = np.zeros(frames, dtype=np.int16)
        usable = min(frames, len(current))
        block[:usable] = current[:usable]
        return block

    @property
    def quiet(self) -> bool:
        """True when nothing is sounding in the room right now."""
        return (not self._sources and not self._pending_speaker_blocks
                and not np.any(self._mix()))
