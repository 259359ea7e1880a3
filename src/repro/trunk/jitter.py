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
  and skipped past) and second copies of a frame still waiting are
  dropped and counted;
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
from ..obs import NULL_REGISTRY

#: The mu-law code for silence: decode(0xFF) == 0 exactly, so raw-byte
#: concealment and decoded-sample concealment produce identical audio.
MULAW_SILENCE = 0xFF


class JitterBuffer:
    """Reorder, conceal, and bound one direction of one call's audio."""

    #: Where each tally is also counted as it happens.  A bare buffer
    #: counts nowhere; :meth:`TrunkGateway.build_jitter
    #: <repro.trunk.gateway.TrunkGateway.build_jitter>` points them at
    #: its ``trunk.jitter.*`` counters.
    m_late = m_lost = m_underruns = m_shed = NULL_REGISTRY.counter("null")

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
        # Shared silence that pops of an idle buffer return views of.
        self._silence_raw = b""
        # Plain tallies, mirrored into the m_* counters above.
        self.late_frames = 0
        self.lost_frames = 0
        self.underruns = 0
        self.shed_samples = 0

    # -- producer side (link reader thread) -----------------------------------

    def push(self, seq: int, payload: bytes) -> None:
        """Queue one block of raw mu-law bytes under its sequence.

        The usual frame -- the next seq, with nothing waiting behind a
        gap -- is copied straight into the ring; ``payload`` may be any
        bytes-like view the caller reuses afterwards.
        """
        with self._lock:
            if self._next_seq is None:
                self._next_seq = seq
            if seq == self._next_seq and not self._pending:
                self._append(payload)
                self._next_seq = seq + 1
                return
            if seq < self._next_seq or seq in self._pending:
                # Already played, skipped, or waiting behind a gap: the
                # first copy stands.
                self.late_frames += 1
                self.m_late.inc()
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
            self.m_lost.inc(skip_to - self._next_seq)
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
            self.m_shed.inc(self._size + (length - capacity))
            ring[0:capacity] = block[length - capacity:]
            self._head = 0
            self._size = capacity
            return
        size = self._size
        overflow = size + length - capacity
        if overflow > 0:
            self._head = (self._head + overflow) % capacity
            size -= overflow
            self.shed_samples += overflow
            self.m_shed.inc(overflow)
        tail = (self._head + size) % capacity
        end = tail + length
        if end <= capacity:
            ring[tail:end] = block
        else:
            ring[tail:] = block[:capacity - tail]
            ring[:end - capacity] = block[capacity - tail:]
        self._size = size + length

    # -- consumer side (gateway tick) -----------------------------------------

    def poppable(self) -> bool:
        """Advisory: is audio buffered, or a talkspurt playing (whose
        end counts its underrun)?  Lock-free -- two reads under the
        GIL, at worst one push stale.  The gateway pump skips other
        legs: their listener hears the same silence either way
        (``Line.receive_audio`` zero-pads an empty buffer).
        """
        return self._playing or self._size > 0

    def pop_raw(self, frames: int):
        """Exactly ``frames`` raw mu-law bytes, 0xFF-concealed.

        Plays whatever is buffered; an empty buffer is silence.  Audio
        comes back as a fresh ``bytearray`` the caller owns; pure silence
        as a read-only view of a shared buffer.
        """
        with self._lock:
            size = self._size
            if not self._playing:
                if not size:
                    return self._silence_raw_view(frames)
                self._playing = True
            head = self._head
            capacity = self.max_depth_samples
            taken = frames if frames < size else size
            end = head + taken
            if end <= capacity:
                out = self._ring[head:end]
            else:
                out = self._ring[head:] + self._ring[:end - capacity]
            self._head = end % capacity
            self._size = size - taken
            if taken < frames:
                self.underruns += 1
                self.m_underruns.inc()
                self._playing = False
        if taken < frames:
            out += bytes([MULAW_SILENCE]) * (frames - taken)
        return out

    def pop(self, frames: int) -> np.ndarray:
        """Exactly ``frames`` decoded samples, silence-concealed."""
        return np.take(MULAW_DECODE_TABLE,
                       np.frombuffer(self.pop_raw(frames), dtype=np.uint8))

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

    @property
    def depth_samples(self) -> int:
        with self._lock:
            return self._size + self._pending_samples
