"""Workload generators for the benchmark harness."""

from __future__ import annotations

import numpy as np

from repro.dsp import tones


def marked_segments(count: int, frames_each: int,
                    base_level: int = 1000) -> list[np.ndarray]:
    """Distinct constant-level segments, identifiable in captures."""
    return [np.full(frames_each, base_level * (index + 1), dtype=np.int16)
            for index in range(count)]


def tone_seconds(seconds: float, rate: int,
                 frequency: float = 440.0) -> np.ndarray:
    return tones.sine(frequency, seconds, rate)
