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

A gain stage on int16 input is a map from 65,536 possible samples to
int16, so once a gain is in steady use :func:`apply_gain` applies it as
one lookup in that gain's table, indexed by each sample's uint16 bit
pattern.  The table is built by the float64 product, round-half-even
and saturation, so every entry is exactly what the float path gives;
tests/test_dsp_fastpath.py checks the whole domain against a float64
oracle.  A gain takes the float path until it has been used often
enough to pay for its table, and a bounded cache keeps the tables in
use (:func:`_missed` says how).  Weighted :func:`mix` stays on
float64: it rounds once after the sum, which is not a per-sample map.
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


def apply_gain_float(samples, gain) -> np.ndarray:
    """One gain stage in float64: the product, rounded half to even,
    then saturated.  This defines the stage; the tables are built by it.

    ``gain`` may be a scalar or an array that broadcasts against
    ``samples`` (one gain per row of a block matrix): each element's
    product and rounding are the same either way.
    """
    scaled = np.asarray(samples, dtype=np.float64) * gain
    return clamp_to_int16(np.round(scaled, out=scaled))


#: Every int16 sample, at the index of its uint16 bit pattern.
_INT16_BY_PATTERN = np.arange(1 << 16, dtype=np.uint16).view(np.int16)

#: At most this many gain tables (128 KiB each) are kept.
_GAIN_TABLES_MAX = 32
#: A table costs about as much to build as 25 float rows of 160 samples
#: (131 us against 5.0 us on a 2-core host), so a gain earns one only on
#: its 32nd use since the last sweep; until then it takes the float path.
_USES_TO_BUILD = 32
#: Gains counted between sweeps at most.
_COUNTED_MAX = 1024

_gain_tables: dict[float, np.ndarray] = {}
#: Uses of each gain since the last sweep, with or without a table.
_gain_uses: dict[float, int] = {}
_gain_tables_lock = threading.Lock()


def gain_table(gain: float) -> np.ndarray | None:
    """The int16 table of ``gain``, or None while the gain has not
    earned one: entry ``i`` is the gained sample whose uint16 bit
    pattern is ``i``, as :func:`apply_gain_float` computes it."""
    # Counted without the lock: a count lost to a race only delays a
    # table, and the block cycle applies gains on one thread.
    uses = _gain_uses.get(gain, 0) + 1
    _gain_uses[gain] = uses
    table = _gain_tables.get(gain)
    if table is None:
        with _gain_tables_lock:
            table = _missed(gain, uses)
    return table


def _missed(gain: float, uses: int) -> np.ndarray | None:
    """The table of a gain used without one: built if the gain has
    earned it and there is room, else None.

    A sweep drops the tables unused since the previous sweep and starts
    the use counts again.  It runs when an earned gain finds no room,
    and when more than ``_COUNTED_MAX`` gains are counted.  A gain earns
    its table with ``_USES_TO_BUILD`` uses between sweeps, so a table
    used about as often is never dropped for it: with more busy gains
    than room, the rest keep the float path and nothing is built over
    and over.
    """
    earned = uses >= _USES_TO_BUILD
    if ((earned and len(_gain_tables) >= _GAIN_TABLES_MAX)
            or len(_gain_uses) > _COUNTED_MAX):
        for stale in [key for key in _gain_tables if key not in _gain_uses]:
            del _gain_tables[stale]
        _gain_uses.clear()
    if not earned or len(_gain_tables) >= _GAIN_TABLES_MAX:
        return None
    table = apply_gain_float(_INT16_BY_PATTERN, gain)
    table.flags.writeable = False
    _gain_tables[gain] = table
    return table


def apply_gain(samples: np.ndarray, gain: float) -> np.ndarray:
    """Scale samples by a linear gain factor with saturation.

    ``gain`` of 1.0 is unity; the protocol's ChangeGain percentages map
    via ``percent / 100``.  int16 input is one lookup in the gain's
    :func:`gain_table` once it has one; until then, and for other input,
    the float64 path the table is built by.
    """
    if gain == 1.0:
        return np.asarray(samples, dtype=np.int16)
    if isinstance(samples, np.ndarray) and samples.dtype == np.int16:
        table = gain_table(gain)
        if table is not None:
            return table.take(samples.view(np.uint16))
    return apply_gain_float(samples, gain)


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
