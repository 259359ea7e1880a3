"""The renderer: every render-plan row on the hub thread.

The precompiled render plan is a list of independent ``(queue,
devices)`` rows -- one per active root LOUD.  :meth:`RenderPool.render`
runs the block cycle's render phase over it: ``begin_tick`` on every
device of every row, then ``consume`` on every device of every row.
This loop is the one render path; tests/golden/render_seed*.json pin
its output.
"""

from __future__ import annotations


class RenderPool:
    """Renders the whole plan serially, in plan-row order."""

    def render(self, plan: list[tuple], sample_time: int,
               frames: int) -> None:
        """Render ``plan``'s rows through the real devices, in row order.

        Runs on the hub thread while it holds the topology lock.  Every
        device resets its per-block render memo before any ``consume``
        pulls a source through a wire.
        """
        for _queue, devices in plan:
            for device in devices:
                device.begin_tick(sample_time, frames)
        for _queue, devices in plan:
            for device in devices:
                device.consume(sample_time, frames)
