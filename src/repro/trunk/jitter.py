"""Per-call jitter buffers for trunk bearer audio.

TCP gives the trunk in-order delivery, but not *timely* delivery: the
sending exchange emits one audio block per tick while the receiving
exchange pops one per tick of its own clock, and chaos (latency, jitter,
throttling, reconnects) can starve or flood the receiver arbitrarily.
The :class:`JitterBuffer` decouples the two clocks:

* a frame plays on the first pump after it arrives and what queues
  behind it plays on, so held audio never waits for more audio (an
  adaptive playout delay needs pauses between talkspurts to change
  in, and every sender here sends a block per tick while off hook);
* frames arrive with sequence numbers; late frames (already concealed
  and skipped past) are dropped and counted;
* gaps in the sequence are *concealed* with silence exactly once, and
  counted as lost;
* a pop that runs out of audio mid-talkspurt returns silence for the
  rest and counts an underrun;
* total buffered audio is bounded; overflow sheds the oldest samples so
  latency cannot grow without bound on a fast producer.

The store is a contiguous ring of **raw mu-law bytes** (one byte per
sample), so depth accounting is O(1) arithmetic, a push is a memcpy,
and decoding happens once per pop as a single table ``np.take`` instead
of per-block at push time.  Silence concealment is the mu-law code
``0xFF``, which decodes to exactly sample 0.

The buffer is single-consumer (the gateway's tick) but the producer is
the link reader thread, so push/pop take one small lock.
"""

from __future__ import annotations

import threading

import numpy as np

from ..dsp.encodings import MULAW_DECODE_TABLE

#: The mu-law code for silence: decode(0xFF) == 0 exactly, so raw-byte
#: concealment and decoded-sample concealment produce identical audio.
MULAW_SILENCE = 0xFF


class JitterBuffer:
    """Reorder, conceal, and bound one direction of one call's audio."""

    def __init__(self, *, max_depth_samples: int = 16 * 160,
                 reorder_window: int = 4) -> None:
        #: Upper bound on buffered audio; overflow sheds oldest samples.
        self.max_depth_samples = max_depth_samples
        #: How many frames ahead of a gap must exist before the gap is
        #: declared lost and skipped (TCP reorders nothing, but frames
        #: from before a reconnect may be missing entirely).
        self.reorder_window = reorder_window
        self._lock = threading.Lock()
        #: Out-of-order raw blocks waiting for the gap ahead to fill.
        self._pending: dict[int, bytes] = {}
        self._pending_samples = 0
        #: In-order raw mu-law ring: one byte per sample, so capacity in
        #: bytes IS the depth bound in samples.
        self._ring = bytearray(max_depth_samples)
        self._head = 0
        self._size = 0
        self._next_seq: int | None = None
        #: A talkspurt is playing: pops take audio until one runs dry,
        #: and only that pop counts an underrun.
        self._playing = False
        # Reused pop assembly scratch + shared silence returns; consumers
        # get either a view of these (never mutated) or a fresh decode.
        self._scratch = bytearray(0)
        self._silence_raw = b""
        self._silence_pcm = np.zeros(0, dtype=np.int16)
        self._silence_pcm.flags.writeable = False
        # Plain tallies; the gateway folds them into trunk.* metrics.
        self.late_frames = 0
        self.lost_frames = 0
        self.underruns = 0
        self.shed_samples = 0

    # -- producer side (link reader thread) -----------------------------------

    def push(self, seq: int, payload: bytes) -> None:
        """Queue one block of raw mu-law bytes under its sequence."""
        with self._lock:
            if self._next_seq is None:
                self._next_seq = seq
            if seq < self._next_seq:
                self.late_frames += 1
                return
            block = bytes(payload)
            self._pending[seq] = block
            self._pending_samples += len(block)
            self._drain_pending()

    def _drain_pending(self) -> None:
        """Move consecutive frames into the ring (lock held)."""
        pending = self._pending
        while True:
            while self._next_seq in pending:
                block = pending.pop(self._next_seq)
                self._pending_samples -= len(block)
                self._append(block)
                self._next_seq += 1
            # A gap with plenty of later audio behind it will never
            # fill: declare the missing frames lost and skip ahead.
            if not pending or len(pending) < self.reorder_window:
                return
            skip_to = min(pending)
            self.lost_frames += skip_to - self._next_seq
            self._next_seq = skip_to

    def _append(self, block: bytes) -> None:
        """Copy a block into the ring, shedding oldest bytes on overflow
        (lock held)."""
        ring = self._ring
        capacity = self.max_depth_samples
        length = len(block)
        if length >= capacity:
            # Pathological single block past the whole depth bound: keep
            # its newest ``capacity`` samples, count everything displaced
            # (prior content plus the truncated prefix) as shed.
            self.shed_samples += self._size + (length - capacity)
            ring[0:capacity] = block[length - capacity:]
            self._head = 0
            self._size = capacity
            return
        overflow = self._size + length - capacity
        if overflow > 0:
            self._head = (self._head + overflow) % capacity
            self._size -= overflow
            self.shed_samples += overflow
        tail = (self._head + self._size) % capacity
        first = min(length, capacity - tail)
        ring[tail:tail + first] = block[:first]
        if first < length:
            ring[0:length - first] = block[first:]
        self._size += length

    # -- consumer side (gateway tick) -----------------------------------------

    def poppable(self) -> bool:
        """Advisory: is audio buffered, or a talkspurt playing (whose
        end counts its underrun)?  Lock-free -- two reads under the
        GIL, at worst one push stale.  The gateway pump skips other
        legs: their listener hears the same silence either way
        (``Line.receive_audio`` zero-pads an empty buffer).
        """
        return self._playing or self._size > 0

    def pop_raw(self, frames: int) -> memoryview:
        """Exactly ``frames`` raw mu-law bytes, 0xFF-concealed.

        Plays whatever is buffered; an empty buffer is silence.
        Returns a view of a buffer this JitterBuffer owns and reuses on
        the next pop: callers must consume (or copy) it before popping
        again.  The gateway's vectorized pump decodes all legs' views in
        one ``np.take`` within the same tick, so reuse is safe there.
        """
        taken = 0
        with self._lock:
            if not self._playing:
                if not self._size:
                    return self._silence_raw_view(frames)
                self._playing = True
            taken = min(frames, self._size)
            scratch = self._scratch
            if len(scratch) < frames:
                scratch = self._scratch = bytearray(frames)
            head = self._head
            capacity = self.max_depth_samples
            first = min(taken, capacity - head)
            scratch[0:first] = self._ring[head:head + first]
            if first < taken:
                scratch[first:taken] = self._ring[0:taken - first]
            self._head = (head + taken) % capacity
            self._size -= taken
            if taken < frames:
                self.underruns += 1
                self._playing = False
        if taken < frames:
            scratch[taken:frames] = bytes([MULAW_SILENCE]) * (frames - taken)
        return memoryview(scratch)[:frames]

    def pop(self, frames: int) -> np.ndarray:
        """Exactly ``frames`` decoded samples, silence-concealed.

        Pure silence returns a shared read-only zeros view (no
        allocation); real audio is decoded fresh in one table take, so
        callers may keep the array as long as they like.
        """
        raw = self.pop_raw(frames)
        if raw.obj is self._silence_raw:
            return self._silence_pcm_view(frames)
        return np.take(MULAW_DECODE_TABLE,
                       np.frombuffer(raw, dtype=np.uint8))

    def drain_raw(self) -> bytes:
        """Everything buffered, oldest first (frames waiting behind a
        gap follow, the gap skipped), leaving the buffer empty."""
        with self._lock:
            head, size = self._head, self._size
            first = min(size, self.max_depth_samples - head)
            held = self._ring[head:head + first] + self._ring[:size - first]
            for seq in sorted(self._pending):
                held += self._pending[seq]
            self._pending.clear()
            self._pending_samples = 0
            self._head = self._size = 0
        return bytes(held)

    def _silence_raw_view(self, frames: int) -> memoryview:
        if len(self._silence_raw) < frames:
            self._silence_raw = bytes([MULAW_SILENCE]) * frames
        return memoryview(self._silence_raw)[:frames]

    def _silence_pcm_view(self, frames: int) -> np.ndarray:
        if len(self._silence_pcm) < frames:
            silence = np.zeros(frames, dtype=np.int16)
            silence.flags.writeable = False
            self._silence_pcm = silence
        return self._silence_pcm[:frames]

    @property
    def depth_samples(self) -> int:
        with self._lock:
            return self._size + self._pending_samples
