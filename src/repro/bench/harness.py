"""Capture analysis: locate a signal in a capture and count the gaps.

The test rigs live in the top-level ``testkit`` package, which does not
ship.  These two functions stay in the shipped package because
perfbench's gapless workload imports ``count_gap_samples`` from here,
and they import nothing but numpy.  The tests and benchmarks use this
copy too.
"""

from __future__ import annotations

import numpy as np


def find_signal(buffer: np.ndarray, reference: np.ndarray) -> int | None:
    """Locate an exact copy of ``reference`` inside ``buffer``."""
    if len(reference) == 0 or len(buffer) < len(reference):
        return None
    nonzero = np.nonzero(reference)[0]
    if len(nonzero) == 0:
        return None
    anchor = int(nonzero[0])
    candidates = np.nonzero(buffer == reference[anchor])[0]
    for start in candidates:
        begin = int(start) - anchor
        if begin < 0 or begin + len(reference) > len(buffer):
            continue
        if np.array_equal(buffer[begin:begin + len(reference)], reference):
            return begin
    return None


def count_gap_samples(buffer: np.ndarray, pieces: list[np.ndarray]) -> int:
    """Samples dropped or inserted between consecutive pieces.

    Locates each piece in the output and sums the distance between each
    piece's end and the next piece's start (0 = perfectly gapless).
    Returns -1 if any piece is missing entirely.
    """
    positions = []
    for piece in pieces:
        start = find_signal(buffer, piece)
        if start is None:
            return -1
        positions.append((start, start + len(piece)))
    gaps = 0
    for (_, end), (next_start, _) in zip(positions, positions[1:]):
        gaps += abs(next_start - end)
    return gaps
