"""Command-queue programs.

"There are four queue commands that allow device synchronization, but do
nothing to devices.  These commands are CoBegin, CoEnd, Delay, and
DelayEnd.  These queue commands are not meant to provide a programming
language but to facilitate synchronization.  There are no conditionals
or branches and the queue is not an interpretor."  (paper section 5.5)

A queue's pending work is a tree:

* :class:`Leaf` -- one device command;
* :class:`Seq` -- children run one after another (the implicit top
  level, and the inside of a Delay block);
* :class:`Par` -- a CoBegin/CoEnd bracket: each child is a parallel
  branch; the node completes when *all* branches do;
* :class:`DelayBlock` -- a Delay/DelayEnd bracket: its children run
  sequentially, starting ``delay_frames`` after the block becomes
  eligible.

Eligibility propagates *absolute sample times* down the tree: when a
leaf completes at sample T, its successor becomes eligible at exactly T.
That time threading is what lets the conductor start successors with
zero-sample gaps.
"""

from __future__ import annotations

import enum
import itertools

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
        self.done = False
        self.completed_at: int | None = None

    def set_eligible(self, time: int) -> None:
        raise NotImplementedError

    def _complete(self, time: int) -> None:
        self.done = True
        self.completed_at = time
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
        self._move(LeafState.DONE)
        self._complete(time)

    def __repr__(self) -> str:
        return "<Leaf #%d %s dev=%d %s>" % (
            self.serial, self.command.name, self.device_id, self.state.value)


class Container(Node):
    """Base of Seq / Par / DelayBlock."""

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []
        self.eligible_at: int | None = None

    def append(self, child: Node) -> None:
        child.parent = self
        self.children.append(child)

    def child_completed(self, child: Node, time: int) -> None:
        raise NotImplementedError


class Seq(Container):
    """Children run in order; completion time threads through."""

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def set_eligible(self, time: int) -> None:
        self.eligible_at = time
        if self._cursor < len(self.children):
            self.children[self._cursor].set_eligible(time)
        elif not self.children:
            self._complete(time)

    def append(self, child: Node) -> None:
        super().append(child)
        # Appending to an eligible, exhausted Seq re-arms it (the dynamic
        # top-level queue): the new child is eligible at the time the last
        # child finished, or the Seq's own eligibility time.
        if (self.eligible_at is not None
                and self._cursor == len(self.children) - 1):
            last_time = self.eligible_at
            if self._cursor > 0:
                previous = self.children[self._cursor - 1]
                if previous.completed_at is not None:
                    last_time = previous.completed_at
            child.set_eligible(last_time)
        self.done = False

    def child_completed(self, child: Node, time: int) -> None:
        if (self._cursor < len(self.children)
                and self.children[self._cursor] is child):
            self._cursor += 1
            if self._cursor < len(self.children):
                self.children[self._cursor].set_eligible(time)
            else:
                self._complete(time)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.children)


class Par(Container):
    """A CoBegin bracket: all children start together."""

    def set_eligible(self, time: int) -> None:
        self.eligible_at = time
        if not self.children:
            self._complete(time)
            return
        for child in self.children:
            child.set_eligible(time)

    def child_completed(self, child: Node, time: int) -> None:
        if all(node.done for node in self.children):
            finish = max(node.completed_at or time
                         for node in self.children)
            self._complete(finish)


class DelayBlock(Container):
    """A Delay bracket: a Seq that starts ``delay_frames`` late."""

    def __init__(self, delay_frames: int) -> None:
        super().__init__()
        self.delay_frames = delay_frames
        self._inner = Seq()
        self._inner.parent = self

    def append(self, child: Node) -> None:
        self._inner.append(child)
        self.children = self._inner.children

    def set_eligible(self, time: int) -> None:
        self.eligible_at = time
        self._inner.set_eligible(time + self.delay_frames)

    def child_completed(self, child: Node, time: int) -> None:
        # Only the inner Seq reports here.
        if child is self._inner:
            self._complete(time)


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

    @property
    def _top(self) -> Container:
        return self._open[-1]

    def add_command(self, device_id: int, command: Command,
                    args: AttributeList) -> Leaf | None:
        """Append one queued command; returns the Leaf (None for brackets)."""
        if command is Command.CO_BEGIN:
            par = Par()
            self._top.append(par)
            self._open.append(par)
            return None
        if command is Command.CO_END:
            if not isinstance(self._top, Par):
                raise bad(ErrorCode.BAD_MATCH, "CoEnd without CoBegin")
            self._open.pop()
            return None
        if command is Command.DELAY:
            milliseconds = args.get("ms")
            if milliseconds is None:
                raise bad(ErrorCode.BAD_VALUE, "Delay needs an ms argument")
            frames = int(milliseconds) * self._sample_rate() // 1000
            block = DelayBlock(frames)
            self._top.append(block)
            self._open.append(block)
            return None
        if command is Command.DELAY_END:
            if not isinstance(self._top, DelayBlock):
                raise bad(ErrorCode.BAD_MATCH, "DelayEnd without Delay")
            self._open.pop()
            return None
        leaf = Leaf(device_id, command, args)
        leaf.program = self
        self._pending += 1
        self._top.append(leaf)
        return leaf

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

    def _sample_rate(self) -> int:
        return self.sample_rate

    def arm(self, time: int) -> None:
        """Make the root eligible (queue started)."""
        if self.root.eligible_at is None:
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
            return
        if isinstance(node, DelayBlock):
            self._collect_ready(node._inner, ready)
            return
        if isinstance(node, Seq):
            if node._cursor < len(node.children):
                self._collect_ready(node.children[node._cursor], ready)
            return
        if isinstance(node, Par):
            for child in node.children:
                if not child.done:
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

        Implemented by completing them immediately with no device action;
        returns the flushed leaves, in program order, so the caller can
        report them.
        """
        flushed: list[Leaf] = []
        self._collect_pending(self.root, flushed)
        for leaf in flushed:
            leaf._move(LeafState.DONE)
        # Rebuild the tree as an empty program: simplest faithful
        # semantics for a full flush of pending work.  Running leaves
        # stay counted and finish in the detached old tree.
        self.root = Seq()
        self._open = [self.root]
        return flushed

    def _collect_pending(self, node: Node, pending: list[Leaf]) -> None:
        # The whole tree: a command appended inside a bracket that
        # already completed (an empty CoBegin armed before its first
        # command arrived) sits behind its Seq's cursor, still pending.
        if isinstance(node, Leaf):
            if node.state in _PENDING:
                pending.append(node)
            return
        for child in node.children:
            self._collect_pending(child, pending)
