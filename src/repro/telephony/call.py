"""Call state machine.

One :class:`Call` tracks a two-party call through the canonical states:

    SETUP -> RINGING -> CONNECTED -> ENDED
                 \\-> FAILED (busy, bad number, no answer)

The exchange owns calls; lines refer to at most one active call each.
Timing (ring cadence, no-answer timeout, forwarding delay) is measured in
samples of the exchange clock so behaviour is deterministic under the
virtual pacer.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .line import CallerInfo, Line


class CallState(enum.Enum):
    SETUP = "setup"
    RINGING = "ringing"
    CONNECTED = "connected"
    ENDED = "ended"
    FAILED = "failed"


_call_ids = itertools.count(1)


@dataclass
class Call:
    caller: Line
    callee: Line
    state: CallState = CallState.SETUP
    call_id: int = field(default_factory=lambda: next(_call_ids))
    #: Sample time at which ringing started (for the no-answer timeout).
    ringing_since: int = 0
    #: Original dialed number when the call was forwarded.
    forwarded_from: str | None = None
    failure_reason: str = ""

    def caller_info(self) -> CallerInfo:
        return CallerInfo(self.caller.number, self.forwarded_from)

    def other_party(self, line: Line) -> Line:
        if line is self.caller:
            return self.callee
        if line is self.callee:
            return self.caller
        raise ValueError("line %s is not on this call" % line.number)
