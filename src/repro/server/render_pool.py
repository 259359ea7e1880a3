"""The renderer: every render-plan row on the hub thread.

The precompiled render plan is a list of independent ``(queue,
devices)`` rows -- one per active root LOUD.  :meth:`RenderPool.render`
runs the block cycle's render phase over it.

Most blocks of most rows are *steady*: a lone player, wired to a lone
output bound to a speaker, in the middle of one decoded sound.  Such a
row emits no event and needs no memo, so its block is just a slice of
the sound passed through the player's and the output's gain stages.  A
*spliced* row is steady-shaped too: its sound ends inside the block and
the successor the conductor pre-issued for exactly that sample plays
the rest of it (paper section 6.2), so its block is the head's tail
followed by the successor's head, and the head finishes at the splice
sample as :meth:`~.vdevices.playback.PlaybackProgram.program_render`
would finish it.  Steady and spliced rows skip ``begin_tick``/
``render_source``/``pull_sink``: their slices are gathered into one
int16 matrix, and a unity row costs no gain work.  When few rows are
gained, each non-unity gain stage of a row (gain automation, the
player's gain, the output's) is one lookup in that gain's
:func:`~repro.dsp.mixing.gain_table` on that row alone; the other gained
rows of a stage take it in one float64 pass over the matrix.  Each
speaker takes the rows bound to it as one int32 sum.  An *idle*
steady-shaped row (empty program, no pending gain point) would add only
zeros, so it renders nothing and just counts its wire's block.  Every
other row runs ``begin_tick`` on all its devices, then ``consume``.
tests/golden/render_seed*.json and
blockcycle_seed*.json pin the output of both paths, and
tests/test_render_splice.py compares the batched rows with the per-row
path on random gapless programs, on one speaker and on two.
"""

from __future__ import annotations

import numpy as np

from ..dsp.mixing import apply_gain_float, gain_table
from ..hardware.devices import SpeakerDevice
from .vdevices.io import OutputDevice
from .vdevices.player import PlayerDevice


def _steady_shape(devices: tuple):
    """``(player, output, speaker)`` if a row is wired like a steady row.

    That is exactly one player and one output, one wire between them,
    and the output bound to a speaker.  Any topology or binding change
    invalidates the plan, so the shape holds as long as the plan does.
    """
    if len(devices) != 2:
        return None
    player, output = devices
    if type(player) is OutputDevice:
        player, output = output, player
    if type(player) is not PlayerDevice or type(output) is not OutputDevice:
        return None
    if len(player.wires) != 1 or player.wires != output.wires:
        return None
    wire = player.wires[0]
    if wire.source_device is not player or wire.source_port != 0:
        return None
    if output.bound is None or type(output.bound.hardware) is not \
            SpeakerDevice:
        return None
    return player, output, output.bound.hardware


def _playable(item) -> bool:
    """Decoded material that plays through with no per-row side effect:
    not finished, not paused and with no sync interval."""
    return (item.samples is not None and not item.finished
            and not item.paused and not item.sync_interval)


def _steady_items(player: PlayerDevice, sample_time: int, frames: int):
    """``(head, successor)`` if this block of ``player`` batches, else None.

    The head is the playing item, and the block batches when:

    * the head runs past the block (``successor`` is None);
    * the head ends exactly at the block's end and no finished item
      waits behind it (``successor`` is None);
    * the head ends inside the block and ``successor`` was pre-issued
      to start at exactly that sample and runs past the block's end.

    In each case ``program_render`` would emit nothing, finish at most
    the head and remove only the head from the program.  No gain change
    may be pending.
    """
    program = player.program
    if not program or player._gain_points:
        return None
    head = program[0]
    if not _playable(head) or head.not_before > sample_time:
        return None
    left = len(head.samples) - head.cursor
    if left > frames:
        return head, None
    if left <= 0:
        return None
    if len(program) == 1:
        return (head, None) if left == frames else None
    successor = program[1]
    if left == frames:
        return None if successor.finished else (head, None)
    if (_playable(successor)
            and successor.not_before == sample_time + left
            and len(successor.samples) - successor.cursor > frames - left):
        return head, successor
    return None


def _take(item, block: np.ndarray, offset: int, count: int) -> None:
    """Copy ``count`` samples of ``item`` into ``block[offset:]``."""
    cursor = item.cursor
    block[offset:offset + count] = item.samples[cursor:cursor + count]
    item.cursor = cursor + count
    item.frames_played += count
    item.started_playing = True


def _render_steady(rows: list[tuple], sample_time: int, frames: int) -> None:
    """Render steady and spliced ``(player, output, speaker, head,
    successor)`` rows in one batch."""
    count = len(rows)
    block = np.empty((count, frames), dtype=np.int16)
    gained = []
    speakers: dict[SpeakerDevice, list[int]] = {}
    for index, (player, output, speaker, head, successor) in enumerate(rows):
        cursor = head.cursor
        left = len(head.samples) - cursor
        if left > frames:
            block[index] = head.samples[cursor:cursor + frames]
            head.cursor = cursor + frames
            head.frames_played += frames
            head.started_playing = True
        else:
            row = block[index]
            _take(head, row, 0, left)
            head.finish(sample_time + left)
            player.program.remove(head)
            if successor is not None:
                _take(successor, row, left, frames - left)
        gains = (player._current_gain, player.gain, output.gain)
        if gains != _UNITY:
            gained.append((index, gains))
        speakers.setdefault(speaker, []).append(index)
    if gained:
        _gain_rows(block, gained)
    for speaker, indices in speakers.items():
        rows_of = block if len(indices) == count else block[indices]
        speaker.play(rows_of.sum(axis=0, dtype=np.int32))
    # One counted block per wire, as pull_sink would have counted.
    rows[0][1]._m_wire_frames.inc(frames * count)


#: A row's gain stages when none of them changes it.
_UNITY = (1.0, 1.0, 1.0)
#: Gained rows a batch looks up row by row at most.  On a 2-core host a
#: lookup costs about 1.7 us a row and a float64 pass over a 16-row
#: matrix 10-15 us, so past this one pass per stage costs less.
_TABLE_ROWS = 6


def _gain_rows(block: np.ndarray, gained: list[tuple]) -> None:
    """Apply the gain stages of the ``(index, gains)`` rows of ``block``.

    Gain automation, then the player's gain, then the output's: each
    stage rounds and saturates, as the per-row path does.  With few
    gained rows, a gain with a table is one in-place lookup on its row
    (uint16 indices are always in range, and ``take`` converts them to a
    fresh intp array, so "clip" may write over its own input).  Every
    other gained row of a stage is scaled by one float64 pass over the
    matrix, unity on the rows it leaves alone.
    """
    by_table = len(gained) <= _TABLE_ROWS
    for stage in range(3):
        column = None
        for index, gains in gained:
            gain = gains[stage]
            if gain == 1.0:
                continue
            table = gain_table(gain) if by_table else None
            if table is not None:
                row = block[index]
                table.take(row.view(np.uint16), out=row, mode="clip")
                continue
            if column is None:
                column = [1.0] * len(block)
            column[index] = gain
        if column is not None:
            block[:] = apply_gain_float(block, np.asarray(column)[:, None])


class RenderPool:
    """Renders the whole plan serially: steady and spliced rows batched,
    the rest row by row in plan order."""

    def __init__(self) -> None:
        self._plan: list[tuple] | None = None
        self._shapes: list = []

    def render(self, plan: list[tuple], sample_time: int,
               frames: int) -> None:
        """Render ``plan``'s rows through the real devices.

        Runs on the hub thread while it holds the topology lock.  Every
        per-row device resets its per-block render memo before any
        ``consume`` pulls a source through a wire.
        """
        if plan is not self._plan:
            self._plan = plan
            self._shapes = [_steady_shape(devices)
                            for _queue, devices in plan]
        steady = []
        rest = []
        for shape, (_queue, devices) in zip(self._shapes, plan):
            if shape is not None:
                player = shape[0]
                if not player.program and not player._gain_points:
                    # Idle: its block is silence.  Only the wire counts.
                    shape[1]._m_wire_frames.inc(frames)
                    continue
                items = _steady_items(player, sample_time, frames)
                if items is not None:
                    steady.append((*shape, *items))
                    continue
            rest.append(devices)
        for devices in rest:
            for device in devices:
                device.begin_tick(sample_time, frames)
        for devices in rest:
            for device in devices:
                device.consume(sample_time, frames)
        if steady:
            _render_steady(steady, sample_time, frames)
