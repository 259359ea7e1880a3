"""The in-process renderer: every render-plan row on the hub thread.

The precompiled render plan is a list of independent ``(queue,
devices)`` rows -- one per active root LOUD.  :func:`render_rows` runs
the block cycle's render phase over it: ``begin_tick`` on every device
of every row, then ``consume`` on every device of every row.  This loop
is the byte-identical oracle every other backend is measured against,
and the one place it lives: :class:`RenderPool` is the default backend
built on it, and the process backend (``render_proc.py``) calls it for
every row or tick its worker processes cannot take.
"""

from __future__ import annotations


def render_rows(plan: list[tuple], sample_time: int, frames: int) -> None:
    """Render ``plan``'s rows through the real devices, in row order.

    Every device resets its per-block render memo before any
    ``consume`` pulls a source through a wire.
    """
    for _queue, devices in plan:
        for device in devices:
            device.begin_tick(sample_time, frames)
    for _queue, devices in plan:
        for device in devices:
            device.consume(sample_time, frames)


class RenderPool:
    """Renders the whole plan serially, in plan-row order."""

    def start(self) -> None:
        """Nothing to spawn: no work leaves the hub thread."""

    def shutdown(self) -> None:
        """Nothing to join."""

    def render(self, plan: list[tuple], sample_time: int,
               frames: int) -> bool:
        """Render every plan row; True only if rows went to workers.

        Runs on the hub thread while it holds the topology lock; this
        backend has no workers, so it always returns False.
        """
        render_rows(plan, sample_time, frames)
        return False
