"""Mixing and gain arithmetic.

"Mixers take data on multiple inputs, combine the streams and then
present the combined data on one or more output ports.  The relative
combination is determined by a percentage assigned to each input."
(paper section 5.1)

All arithmetic is done in int32 and saturated back to int16, so two
full-scale inputs clip rather than wrap.

The block cycle calls :func:`mix` for every sink port on every tick, so
the unweighted case (all gains 1.0 -- the common wire-graph path) runs
on an int32 accumulator drawn from a reusable per-thread scratch buffer
instead of allocating a float64 array per block.  Sums of int16 blocks
are exact in both int32 and float64, so the fast path is bit-identical
to the weighted float path (tests/test_dsp_fastpath.py proves it,
saturation edges included); gain-weighted mixes still go through float64
for exact rounding parity.
"""

from __future__ import annotations

import threading

import numpy as np

INT16_MIN = -32768
INT16_MAX = 32767

#: Per-thread scratch accumulators; the hub block cycle is one thread,
#: so in the server this is a single buffer reused every block.
_scratch = threading.local()


def _accumulator(length: int, dtype) -> np.ndarray:
    """A zeroed scratch array of at least ``length``, reused per thread."""
    key = dtype.__name__
    buffer = getattr(_scratch, key, None)
    if buffer is None or len(buffer) < length:
        buffer = np.empty(max(length, 1024), dtype=dtype)
        setattr(_scratch, key, buffer)
    view = buffer[:length]
    view.fill(0)
    return view


def clamp_to_int16(wide: np.ndarray) -> np.ndarray:
    """Clamp an array we own into int16 range in place; cast once.

    ``np.maximum``/``np.minimum`` with ``out=`` skip ``np.clip``'s
    Python wrapper, which the block cycle would otherwise pay on every
    gain stage and every mix.
    """
    np.maximum(wide, INT16_MIN, out=wide)
    np.minimum(wide, INT16_MAX, out=wide)
    return wide.astype(np.int16)


def saturate(samples: np.ndarray) -> np.ndarray:
    """Clamp a wider-than-int16 array into int16 range."""
    wide = np.maximum(samples, INT16_MIN)
    np.minimum(wide, INT16_MAX, out=wide)
    return wide.astype(np.int16)


def scale_rounded(samples: np.ndarray, gain) -> np.ndarray:
    """``samples * gain`` in float64, rounded half to even, unclamped.

    ``gain`` may be a scalar or an array that broadcasts against
    ``samples`` (one gain per row of a block matrix): each element's
    product and rounding are the same either way.
    """
    scaled = np.asarray(samples, dtype=np.float64) * gain
    return np.round(scaled, out=scaled)


def apply_gain(samples: np.ndarray, gain: float) -> np.ndarray:
    """Scale samples by a linear gain factor with saturation.

    ``gain`` of 1.0 is unity; the protocol's ChangeGain percentages map
    via ``percent / 100``.
    """
    if gain == 1.0:
        return np.asarray(samples, dtype=np.int16)
    return clamp_to_int16(scale_rounded(samples, gain))


def mix(blocks: list[np.ndarray], gains: list[float] | None = None,
        length: int | None = None) -> np.ndarray:
    """Sum blocks (optionally gain-weighted) into one saturated block.

    Short blocks are treated as silence-padded: the output length is the
    longest input (or ``length`` if given), which is what a speaker does
    when one stream ends mid-block.
    """
    if length is None:
        length = max((len(block) for block in blocks), default=0)
    if ((gains is None or all(gain == 1.0 for gain in gains))
            and all(isinstance(block, np.ndarray)
                    and block.dtype == np.int16 for block in blocks)):
        # Unweighted sums of int16 are exact in int32 (no rounding, no
        # overflow below ~64k inputs), so skip the float64 round trip.
        accumulator = _accumulator(length, np.int32)
        for block in blocks:
            usable = min(len(block), length)
            if usable:
                accumulator[:usable] += block[:usable]
        return clamp_to_int16(accumulator)
    accumulator = _accumulator(length, np.float64)
    for position, block in enumerate(blocks):
        gain = 1.0 if gains is None else gains[position]
        if gain == 0.0 or len(block) == 0:
            continue
        usable = min(len(block), length)
        accumulator[:usable] += (
            np.asarray(block[:usable], dtype=np.float64) * gain)
    return clamp_to_int16(np.round(accumulator, out=accumulator))


def rms(samples: np.ndarray) -> float:
    """Root-mean-square level of a block (0.0 for an empty block)."""
    if len(samples) == 0:
        return 0.0
    values = np.asarray(samples, dtype=np.float64)
    return float(np.sqrt(np.mean(values * values)))


def peak(samples: np.ndarray) -> int:
    """Peak absolute sample value of a block."""
    if len(samples) == 0:
        return 0
    return int(np.max(np.abs(np.asarray(samples, dtype=np.int32))))
