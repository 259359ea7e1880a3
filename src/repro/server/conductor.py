"""The command-queue conductor.

"Queues allow for the sequential processing of commands within the
server, without requiring application notification and the associated
round-trip communication."  (paper section 5.5)

The conductor runs inside the hub's block cycle, which is what makes
sample-accurate sequencing possible:

* **pre phase** (before devices render): start every eligible command at
  its exact sample time, and *pre-issue* successors of commands that
  will finish within this block ("When the first play command is about
  to finish, the player device informs the queue of the time at which
  the last sample will be played.  The queue can then issue the next
  play command specifying that the play should start when the first
  command is scheduled to terminate", paper section 6.2);
* **post phase** (after devices render): collect actual completions,
  emit COMMAND_DONE events, and advance the program for commands whose
  end could not be predicted (a Dial, an open-ended Record).

Most blocks hold no command boundary, so the server does not visit every
queue every block.  Each queue keeps ``next_wake``, the earliest sample
at which either phase could have work, and :class:`WakeHeap` hands the
block cycle only the queues whose wake falls inside the block.  A
command's finish is reported to its queue when it happens
(:meth:`CommandQueue.finish_reported`), so completions nobody could
predict still reach the post phase of the block they happen in.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import attrgetter

from ..protocol import events as ev
from ..protocol.attributes import AttributeList
from ..protocol.errors import ProtocolError
from ..protocol.types import (
    Command,
    CommandMode,
    EventCode,
    IMMEDIATE_OK,
    QueueOp,
    QueueState,
)
from ..protocol.errors import bad
from ..protocol.types import ErrorCode
from .qprogram import Leaf, QueueProgram

#: ``next_wake`` of a queue nothing will wake but a mutation or a finish.
NEVER = math.inf

#: Program order of leaves: a tree's leaves are created in walk order.
_SERIAL = attrgetter("serial")


class WakeHeap:
    """The server's min-heap of queue wake times.

    Entries are ``(wake, order, queue)``; a queue's live entry is the one
    whose wake equals its ``next_wake``, and every other entry for it is
    stale and skipped when popped.  Touched only under the topology lock.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._order = itertools.count()
        #: Queues with a finish reported since the last post phase.
        self._reported: list["CommandQueue"] = []

    def wake(self, queue: "CommandQueue", at: int) -> None:
        """Make sure ``queue`` is visited no later than the block of ``at``."""
        if at < queue.next_wake:
            self.schedule(queue, at)

    def schedule(self, queue: "CommandQueue", at) -> None:
        """Replace ``queue``'s wake with ``at`` (earlier or later)."""
        queue.next_wake = at
        if at != NEVER:
            heapq.heappush(self._heap, (at, next(self._order), queue))

    def report(self, queue: "CommandQueue") -> None:
        """``queue`` runs its post phase in the current block, or in the
        next one when the finish came between blocks."""
        self._reported.append(queue)

    def due(self, block_end: int) -> list["CommandQueue"]:
        """Pop every queue whose wake falls before ``block_end``."""
        heap = self._heap
        woken = []
        while heap and heap[0][0] < block_end:
            at, _order, queue = heapq.heappop(heap)
            if at == queue.next_wake:
                queue.next_wake = NEVER
                woken.append(queue)
        return woken

    def take_reported(self) -> list["CommandQueue"]:
        reported, self._reported = self._reported, []
        return reported


class CommandQueue:
    """One root LOUD's command queue and its execution state."""

    def __init__(self, loud) -> None:
        self.loud = loud
        self.server = loud.server
        self.state = QueueState.STOPPED
        self.program = QueueProgram()
        if self.server is not None:
            self.program.sample_rate = self.server.hub.sample_rate
            metrics = self.server.metrics
        else:
            # Detached queues (unit tests) meter into the null registry.
            from ..obs import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._m_issued = metrics.counter("commands.issued")
        self._m_immediate = metrics.counter("commands.immediate")
        self._m_started = metrics.counter("commands.started")
        self._m_completed = metrics.counter("commands.completed")
        self._m_failed = metrics.counter("commands.failed")
        self.completed = 0
        self._was_empty = True
        self._pause_started: int | None = None
        #: Earliest sample at which tick_pre/tick_post could have work;
        #: see :meth:`wake_after` for the invariant.
        self.next_wake = NEVER
        #: Index of this queue's row in the current render plan; -1
        #: while its LOUD is not active.
        self.plan_row = -1
        #: A handle of this queue's LOUD finished since the last post
        #: phase, so tick_post must collect.
        self._finished = False
        #: ``(block_end, wake)`` left by this block's pre-phase pass,
        #: until the post phase sees an end the pass did not predict.
        self._pass_wake: tuple | None = None

    def _wake_now(self) -> None:
        """A mutation: visit this queue in the next block."""
        if self.server is not None:
            self.server.wakes.wake(self, self.server.hub.sample_time)

    def finish_reported(self) -> None:
        """A command handle of this LOUD tree just finished."""
        self._finished = True
        if self.server is not None:
            self.server.wakes.report(self)

    # -- issuing --------------------------------------------------------------

    def issue(self, device_id: int, command: Command, mode: CommandMode,
              args: AttributeList, client=None) -> None:
        """IssueCommand entry point (dispatch thread, server lock held)."""
        self._wake_now()
        if mode is CommandMode.IMMEDIATE:
            self._m_immediate.inc()
            self._issue_immediate(device_id, command, args)
            return
        self._m_issued.inc()
        leaf = self.program.add_command(device_id, command, args,
                                        self._queue_time())
        if leaf is not None:
            leaf.issuer = client
            self._was_empty = False
            # Validate the device exists now so the error is synchronous.
            if (leaf.command not in (Command.CO_BEGIN, Command.CO_END)
                    and device_id != 0):
                self.loud.find_device(device_id)

    def _queue_time(self) -> int:
        """Queue time now: it stands still while the queue is paused."""
        if self.state in (QueueState.CLIENT_PAUSED,
                          QueueState.SERVER_PAUSED):
            return self._pause_started
        return self.server.hub.sample_time

    def _issue_immediate(self, device_id: int, command: Command,
                         args: AttributeList) -> None:
        """"In immediate mode, a command takes effect instantaneously,
        and can stop processing of a queued command."
        """
        if command not in IMMEDIATE_OK:
            raise bad(ErrorCode.BAD_MATCH,
                      "%s cannot be issued in immediate mode" % command.name)
        if not self.loud.mapped:
            # "Any commands sent to them will be ignored until they are
            # activated." (paper section 5.9, on unmapped devices)
            return
        device = self.loud.find_device(device_id)
        leaf = Leaf(device_id, command, args)
        leaf.queued = False
        now = self.server.hub.sample_time
        device.start_command(leaf, now)

    # -- queue control --------------------------------------------------------

    def control(self, op: QueueOp) -> None:
        self._wake_now()
        now = self.server.hub.sample_time
        if op is QueueOp.START:
            if self.state is QueueState.STOPPED:
                self.state = QueueState.STARTED
                self.program.arm(now)
                self._emit(EventCode.QUEUE_STARTED, now)
        elif op is QueueOp.STOP:
            self._stop(now)
        elif op is QueueOp.PAUSE:
            if self.state is QueueState.STARTED:
                self._pause(now, QueueState.CLIENT_PAUSED)
        elif op is QueueOp.RESUME:
            if self.state is QueueState.CLIENT_PAUSED:
                self._resume(now)
        elif op is QueueOp.FLUSH:
            self.program.flush_pending()

    def _stop(self, now: int) -> None:
        if self.state is QueueState.STOPPED:
            return
        for leaf in self.program.running_leaves():
            handle = getattr(leaf, "handle", None)
            if handle is not None and not handle.finished:
                handle.cancel(now)
        self.state = QueueState.STOPPED
        self._emit(EventCode.QUEUE_STOPPED, now)

    def _pause(self, now: int, new_state: QueueState) -> None:
        """"If the application issues a request to pause a queue in which
        the current command is operating on a device that cannot be
        paused, the queue is stopped."
        """
        for leaf in self.program.running_leaves():
            handle = getattr(leaf, "handle", None)
            if handle is not None and not handle.can_pause:
                self._stop(now)
                return
        for leaf in self.program.running_leaves():
            handle = getattr(leaf, "handle", None)
            if handle is not None:
                handle.pause()
        self.state = new_state
        self._pause_started = now
        self._emit(EventCode.QUEUE_PAUSED, now)

    def _resume(self, now: int) -> None:
        # Queue-relative time was suspended: shift eligible-but-unstarted
        # commands by the pause duration.
        if self._pause_started is not None:
            shift = now - self._pause_started
            for leaf in self.program.ready_leaves():
                leaf.not_before += shift
            self._pause_started = None
        for leaf in self.program.running_leaves():
            handle = getattr(leaf, "handle", None)
            if handle is not None:
                handle.resume()
        self.state = QueueState.STARTED
        self._emit(EventCode.QUEUE_RESUMED, now)

    # -- activation interplay (paper section 5.5) -----------------------------

    def server_pause(self) -> None:
        """"If a LOUD is made inactive while processing a command, the
        server pauses the queue."
        """
        self._wake_now()
        if self.state is QueueState.STARTED:
            self._pause(self.server.hub.sample_time,
                        QueueState.SERVER_PAUSED)

    def server_resume(self) -> None:
        """"Upon activation of a LOUD, a queue in the server-paused state
        is automatically resumed."
        """
        self._wake_now()
        if self.state is QueueState.SERVER_PAUSED:
            self._resume(self.server.hub.sample_time)

    # -- the block cycle ------------------------------------------------------

    def tick_pre(self, now: int, frames: int) -> None:
        """Start eligible commands; pre-issue predictable successors.

        One pass lists the ready and running leaves once.  It goes in
        rounds: start the due ready leaves in program order, then ask
        every running leaf for its expected end and pre-issue those
        ending inside this block.  The leaves a failed start or a
        pre-issue makes ready (``program.fresh``) are the next round's
        ready leaves.  What the pass leaves behind gives the queue's
        next wake (:meth:`wake_after`).
        """
        if self.state is not QueueState.STARTED:
            return
        block_end = now + frames
        program = self.program
        ready = program.ready_leaves()
        running = program.running_leaves()
        program.fresh = fresh = []
        wake = NEVER
        ends = []
        check = True
        try:
            while True:
                for leaf in ready:
                    # Leaves scheduled beyond this block (Delay brackets)
                    # stay READY until their time: that keeps them under
                    # the queue's control, so a client pause shifts them
                    # rather than leaving them pre-armed inside a device.
                    if leaf.not_before >= block_end:
                        wake = min(wake, leaf.not_before)
                        continue
                    check = True
                    if self._start_leaf(leaf, now):
                        running.append(leaf)
                if check:
                    # A start can move another command's end (a queued
                    # Resume), so after any start every running leaf is
                    # asked again.
                    check = False
                    ends = []
                    for leaf in running:
                        if leaf.advanced:
                            continue
                        end = leaf.handle.expected_end(now)
                        if end is not None and end <= block_end:
                            # Pre-issue: successors become eligible at
                            # the exact sample this command will finish.
                            leaf.complete(end)
                        else:
                            ends.append((leaf, end))
                    running = [leaf for leaf, _end in ends]
                if not fresh:
                    break
                ready = sorted(fresh, key=_SERIAL)
                fresh.clear()
        finally:
            program.fresh = None
        for _leaf, end in ends:
            if end is not None:
                wake = min(wake, end - 1)
        self._pass_wake = (block_end, wake)

    def _start_leaf(self, leaf: Leaf, now: int) -> bool:
        """Start ``leaf`` on its device; False if the start failed."""
        start_time = max(now, leaf.not_before)
        try:
            device = self.loud.find_device(leaf.device_id)
            handle = device.start_command(leaf, start_time)
        except ProtocolError as error:
            leaf.mark_running()
            leaf.handle = None
            leaf.failed_error = error
            leaf.complete(start_time)
            self._report_failure(leaf, error, start_time)
            return False
        leaf.handle = handle
        leaf.mark_running()
        self._m_started.inc()
        return True

    def _report_failure(self, leaf: Leaf, error: ProtocolError,
                        now: int) -> None:
        self.completed += 1
        self._m_failed.inc()
        self._emit(EventCode.COMMAND_DONE, now, detail=2, args=AttributeList({
            ev.ARG_COMMAND_SERIAL: int(leaf.serial),
            ev.ARG_COMMAND: int(leaf.command),
        }))
        issuer = getattr(leaf, "issuer", None)
        if issuer is not None:
            issuer.send_error(error)

    def tick_post(self, now: int, frames: int, devices=None) -> None:
        """Collect device completions, emit events, advance the program.

        ``devices`` is the render plan's cached flat device tuple; when
        absent (detached queues, unit tests) the tree is walked.  Devices
        are only polled when a finish was reported since the last call.
        """
        if self._finished:
            self._collect_finished(
                devices if devices is not None else self.loud.all_devices(),
                now)
        if (self.state is QueueState.STARTED and self.program.is_empty
                and not self._was_empty):
            self._was_empty = True
            self._emit(EventCode.QUEUE_EMPTY, now)
        elif not self.program.is_empty:
            self._was_empty = False

    def _collect_finished(self, devices, now: int) -> None:
        self._finished = False
        for device in devices:
            for handle in device.collect_finished():
                leaf = handle.leaf
                if not leaf.queued:
                    continue    # immediate-mode command; no queue events
                if handle.status or not leaf.advanced:
                    # An end the pass did not predict: its wake is stale.
                    # (Completing a leaf already advanced changes nothing.)
                    self._pass_wake = None
                    leaf.complete(handle.finish_time
                                  if handle.finish_time is not None else now)
                self.completed += 1
                self._m_completed.inc()
                self._emit(EventCode.COMMAND_DONE,
                           handle.finish_time or now, handle.status,
                           AttributeList({
                               ev.ARG_COMMAND_SERIAL: leaf.serial,
                               ev.ARG_COMMAND: int(leaf.command),
                           }))

    def wake_after(self, block_end: int):
        """The sample this queue must next be visited by, from ``block_end``.

        The invariant behind skipping queues: in every block before the
        one containing this wake, ``tick_pre`` and ``tick_post`` would do
        nothing, unless a mutation or a reported finish wakes the queue
        sooner.  A ready leaf starts once its ``not_before`` falls inside
        a block; a running leaf is pre-issued in the block whose end
        reaches its handle's expected end.  Rendering never runs ahead
        of the sample clock, so an expected end only moves later until
        something wakes the queue.

        That is also why this block's pre-phase pass can give the wake:
        the ends it read before rendering are no later than the ones
        rendering leaves.  The post phase drops the pass's wake when a
        command ended other than as predicted (a completion it had to
        make, a stopped or failed command); then the leaves are listed
        again here.
        """
        if self.state is not QueueState.STARTED:
            return NEVER
        passed, self._pass_wake = self._pass_wake, None
        if passed is not None and passed[0] == block_end:
            return passed[1]
        wake = NEVER
        for leaf in self.program.ready_leaves():
            if leaf.not_before < wake:
                wake = leaf.not_before
        for leaf in self.program.running_leaves():
            handle = leaf.handle
            if leaf.advanced or handle is None:
                continue
            end = handle.expected_end(block_end)
            if end is not None and end - 1 < wake:
                wake = end - 1
        return wake

    # -- misc -----------------------------------------------------------------

    def _emit(self, code: EventCode, sample_time: int, detail: int = 0,
              args: AttributeList | None = None) -> None:
        self.server.events.emit(code, self.loud.loud_id, detail,
                                sample_time, args)

    def describe(self) -> tuple[QueueState, int, int, int]:
        return (self.state, self.program.pending_count(),
                self.program.running_count(), self.completed)
