"""The all-float64 mixer and gain: the oracles the fast paths are
checked against.

Shared by tests/test_dsp_fastpath.py (bit-identity, saturation edges
included) and benchmarks/test_bench_perf.py (the fast path's speedup
over it).  Both import it as ``tests.mix_oracle`` with the repository
root on the import path (pyproject's pytest ``pythonpath``).
"""

from __future__ import annotations

import numpy as np

from repro.dsp.mixing import saturate


def mix_reference(blocks: list[np.ndarray],
                  gains: list[float] | None = None,
                  length: int | None = None) -> np.ndarray:
    """The original all-float64 mixer, kept as the golden reference."""
    if length is None:
        length = max((len(block) for block in blocks), default=0)
    accumulator = np.zeros(length, dtype=np.float64)
    for position, block in enumerate(blocks):
        gain = 1.0 if gains is None else gains[position]
        if gain == 0.0 or len(block) == 0:
            continue
        usable = min(len(block), length)
        accumulator[:usable] += (
            np.asarray(block[:usable], dtype=np.float64) * gain)
    return saturate(np.round(accumulator).astype(np.int64))


def apply_gain_reference(samples: np.ndarray, gain: float) -> np.ndarray:
    """One gain stage in float64: product, round half to even, clip."""
    scaled = np.round(np.asarray(samples, dtype=np.float64) * gain)
    return np.clip(scaled, -32768, 32767).astype(np.int16)
