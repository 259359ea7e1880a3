"""Command-queue programs.

"There are four queue commands that allow device synchronization, but do
nothing to devices.  These commands are CoBegin, CoEnd, Delay, and
DelayEnd.  These queue commands are not meant to provide a programming
language but to facilitate synchronization.  There are no conditionals
or branches and the queue is not an interpretor."  (paper section 5.5)

A queue's unfinished work is a tree:

* :class:`Leaf` -- one device command;
* :class:`Seq` -- children run one after another (the implicit top
  level, and a Delay/DelayEnd bracket, whose first child starts
  ``delay_frames`` after the bracket becomes eligible);
* :class:`Par` -- a CoBegin/CoEnd bracket: once it is both closed and
  eligible, every child starts as a parallel branch; it completes when
  *all* branches do.

A container holds only its unfinished children: a finished child
leaves its parent, which keeps one sample, ``next_start``, where its
next child starts.  A bracket completes only once its closing command
has arrived, so work appended to a drained queue is never stranded
behind a bracket that finished early.

Eligibility propagates *absolute sample times* down the tree: when a
leaf completes at sample T, its successor becomes eligible at exactly T.
That time threading is what lets the conductor start successors with
zero-sample gaps.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque

from ..protocol.attributes import AttributeList
from ..protocol.errors import bad
from ..protocol.types import Command, ErrorCode


class LeafState(enum.Enum):
    WAITING = "waiting"     # not yet eligible
    READY = "ready"         # eligible, not started
    RUNNING = "running"     # started on its device
    DONE = "done"


_serials = itertools.count(1)


class Node:
    """Base of program tree nodes."""

    def __init__(self) -> None:
        self.parent: "Container | None" = None

    def set_eligible(self, time: int) -> None:
        raise NotImplementedError

    def _complete(self, time: int) -> None:
        if self.parent is not None:
            self.parent.child_completed(self, time)


class Leaf(Node):
    """One device command awaiting execution.

    ``state`` changes only in :meth:`set_eligible` (WAITING to READY),
    :meth:`mark_running`, :meth:`complete` and
    :meth:`QueueProgram.flush_pending`; the last three go through
    :meth:`_move`, which keeps the owning program's counts current.
    """

    def __init__(self, device_id: int, command: Command,
                 args: AttributeList) -> None:
        super().__init__()
        self.device_id = device_id
        self.command = command
        self.args = args
        self.serial = next(_serials)
        self.state = LeafState.WAITING
        self.not_before: int = 0
        #: False for immediate-mode commands (no queue bookkeeping).
        self.queued = True
        #: The owning program; None for immediate-mode commands.
        self.program: "QueueProgram | None" = None
        #: The device CommandHandle once started.
        self.handle = None
        #: The client that issued this command (for error delivery).
        self.issuer = None
        #: Set once the program has advanced past this leaf (prediction),
        #: even though the device may still be finishing it.
        self.advanced = False

    def set_eligible(self, time: int) -> None:
        self.not_before = time
        if self.state is LeafState.WAITING:
            self.state = LeafState.READY
            program = self.program
            if program is not None and program.fresh is not None:
                program.fresh.append(self)

    def _move(self, state: LeafState) -> None:
        if self.program is not None:
            self.program._leaf_moved(self, state)
        self.state = state

    def mark_running(self) -> None:
        self._move(LeafState.RUNNING)

    def complete(self, time: int) -> None:
        """Advance the program past this leaf at sample time ``time``."""
        if self.advanced:
            return
        self.advanced = True
        self.handle = None      # it points back here: no cycle to collect
        self._move(LeafState.DONE)
        self._complete(time)

    def __repr__(self) -> str:
        return "<Leaf #%d %s dev=%d %s>" % (
            self.serial, self.command.name, self.device_id, self.state.value)


class Container(Node):
    """Base of Seq and Par: holds its unfinished children only."""

    def __init__(self) -> None:
        super().__init__()
        #: Set by the bracket's closing command (never for the root).
        self.closed = False
        #: Where the next child starts; None until the node is eligible.
        self.next_start: int | None = None

    def child_completed(self, child: Node, time: int) -> None:
        raise NotImplementedError


class Seq(Container):
    """Children run in order; completion time threads through."""

    def __init__(self, delay_frames: int = 0) -> None:
        super().__init__()
        self.delay_frames = delay_frames
        self.children: deque[Node] = deque()

    def append(self, child: Node, now: int) -> None:
        child.parent = self
        self.children.append(child)
        # The dynamic top level: a child appended to an eligible, drained
        # Seq starts where the last child finished, or where it arrived
        # if that is later: a Delay counts from its arrival.
        if self.next_start is not None and len(self.children) == 1:
            child.set_eligible(max(self.next_start, now))

    def set_eligible(self, time: int) -> None:
        self._advance(time + self.delay_frames)

    def close(self) -> None:
        self.closed = True
        if self.next_start is not None and not self.children:
            self._complete(self.next_start)

    def child_completed(self, child: Node, time: int) -> None:
        # Only the head is ever eligible, so only the head completes.
        self.children.popleft()
        self._advance(time)

    def _advance(self, time: int) -> None:
        self.next_start = time
        if self.children:
            self.children[0].set_eligible(time)
        elif self.closed:
            self._complete(time)


class Par(Container):
    """A CoBegin bracket: all children start together once it is closed.

    Until its branches start, ``next_start`` is the bracket's eligibility
    time; after, it is the latest branch end so far.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Insertion-ordered, so branches keep program order and a
        #: finished one leaves in O(1).
        self.children: dict[Node, None] = {}

    def append(self, child: Node, now: int) -> None:
        child.parent = self
        self.children[child] = None

    def set_eligible(self, time: int) -> None:
        self.next_start = time
        if self.closed:
            self._start()

    def close(self) -> None:
        self.closed = True
        if self.next_start is not None:
            self._start()

    def _start(self) -> None:
        start = self.next_start
        if not self.children:
            self._complete(start)
            return
        # A copy: an empty bracket among the branches completes at once
        # (and may move next_start on before the later branches start).
        for child in list(self.children):
            child.set_eligible(start)

    def child_completed(self, child: Node, time: int) -> None:
        del self.children[child]
        self.next_start = max(self.next_start, time)
        if not self.children:
            self._complete(self.next_start)


_PENDING = (LeafState.WAITING, LeafState.READY)


class QueueProgram:
    """The dynamic program of one root LOUD's command queue.

    Commands stream in through :meth:`add_command`; the conductor pulls
    ready leaves from :meth:`ready_leaves` and advances the tree by
    calling ``leaf.complete(time)``.

    Bookkeeping is O(1): the program counts its pending (WAITING or
    READY) leaves and maps its RUNNING leaves by serial, and every
    leaf state change past READY reports here through ``Leaf._move``.
    The conductor queries the counts several times per block, so they
    must not depend on how many commands the queue has ever held.
    """

    def __init__(self) -> None:
        self.root = Seq()
        self._open: list[Container] = [self.root]
        self._pending = 0
        self._running: dict[int, Leaf] = {}
        #: While the conductor's pass is open, the leaves that became
        #: READY since it last looked; None outside a pass.
        self.fresh: list[Leaf] | None = None

    @property
    def _top(self) -> Container:
        return self._open[-1]

    def add_command(self, device_id: int, command: Command,
                    args: AttributeList, now: int = 0) -> Leaf | None:
        """Append one queued command, arriving at queue time ``now``;
        returns the Leaf (None for brackets)."""
        if command is Command.CO_BEGIN:
            self._open_bracket(Par(), now)
            return None
        if command is Command.DELAY:
            milliseconds = args.get("ms")
            if milliseconds is None:
                raise bad(ErrorCode.BAD_VALUE, "Delay needs an ms argument")
            self._open_bracket(
                Seq(int(milliseconds) * self.sample_rate // 1000), now)
            return None
        if command is Command.CO_END:
            if not isinstance(self._top, Par):
                raise bad(ErrorCode.BAD_MATCH, "CoEnd without CoBegin")
            self._open.pop().close()
            return None
        if command is Command.DELAY_END:
            if self._top is self.root or not isinstance(self._top, Seq):
                raise bad(ErrorCode.BAD_MATCH, "DelayEnd without Delay")
            self._open.pop().close()
            return None
        leaf = Leaf(device_id, command, args)
        leaf.program = self
        self._pending += 1
        self._top.append(leaf, now)
        return leaf

    def _open_bracket(self, bracket: Container, now: int) -> None:
        self._top.append(bracket, now)
        self._open.append(bracket)

    def _leaf_moved(self, leaf: Leaf, state: LeafState) -> None:
        """Account one leaf leaving ``leaf.state`` for ``state``."""
        if leaf.state in _PENDING:
            self._pending -= 1
        elif leaf.state is LeafState.RUNNING:
            del self._running[leaf.serial]
        if state is LeafState.RUNNING:
            self._running[leaf.serial] = leaf

    #: Filled in by the owning queue so Delay can convert ms to frames.
    sample_rate = 8000

    def arm(self, time: int) -> None:
        """Make the root eligible (queue started)."""
        if self.root.next_start is None:
            self.root.set_eligible(time)

    def ready_leaves(self) -> list[Leaf]:
        """Leaves eligible to start right now, program order."""
        ready = []
        self._collect_ready(self.root, ready)
        return ready

    def _collect_ready(self, node: Node, ready: list[Leaf]) -> None:
        if isinstance(node, Leaf):
            if node.state is LeafState.READY:
                ready.append(node)
        elif isinstance(node, Seq):
            if node.children:
                self._collect_ready(node.children[0], ready)
        else:
            for child in node.children:
                self._collect_ready(child, ready)

    def pending_count(self) -> int:
        """Leaves not yet started."""
        return self._pending

    def running_count(self) -> int:
        return len(self._running)

    def running_leaves(self) -> list[Leaf]:
        """Started leaves the program has not advanced past, in serial
        (program) order."""
        running = self._running
        return [running[serial] for serial in sorted(running)]

    @property
    def is_empty(self) -> bool:
        return self._pending == 0 and not self._running

    def flush_pending(self) -> list[Leaf]:
        """Discard not-yet-started leaves (ControlQueue FLUSH).

        Returns the flushed leaves, in program order, so the caller can
        report them.  The program restarts as an empty one, armed if the
        old one was; running leaves stay counted and finish in the
        detached old tree.
        """
        flushed: list[Leaf] = []
        self._collect_pending(self.root, flushed)
        for leaf in flushed:
            leaf._move(LeafState.DONE)
        armed_at = self.root.next_start
        self.root = Seq()
        self._open = [self.root]
        if armed_at is not None:
            self.root.set_eligible(armed_at)
        return flushed

    def _collect_pending(self, node: Node, pending: list[Leaf]) -> None:
        if isinstance(node, Leaf):
            if node.state in _PENDING:
                pending.append(node)
            return
        for child in node.children:
            self._collect_pending(child, pending)
