"""The simulated central office.

The paper's telephone devices sit on real analog lines; ours sit on this
exchange, which provides the same externally-visible behaviour: dialing,
ringing with caller ID, call forwarding, busy treatment, two-way audio,
and hangup supervision.  The exchange is ticked by the audio hub, so
every timer is sample-accurate and deterministic under the virtual
pacer.

Numbers that are not homed on this exchange can still be reachable
through a *trunk resolver* (normally a
:class:`~repro.trunk.gateway.TrunkGateway`): ``dial`` and ``_forward``
ask each registered resolver for an outbound leg -- a Line-compatible
endpoint that relays signaling and audio to the exchange where the
number really lives -- so calls, forwarding, busy treatment and hangup
supervision work unchanged across servers (docs/TELEPHONY.md).

Bookkeeping is O(1) per line: each line maps to at most one active call
(``call_for`` is a dict get), ended and failed calls are pruned into a
bounded ``recent_calls`` history, and the active set is iterated only by
the ring timers.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..obs import NULL_REGISTRY
from .call import Call, CallState
from .line import HookState, Line

#: States in which a call occupies its two endpoints.
_ACTIVE_STATES = (CallState.SETUP, CallState.RINGING, CallState.CONNECTED)


class TelephoneExchange:
    """Lines, calls, and the block-granular audio bridge between them."""

    #: Seconds of unanswered ringing before the call fails (or forwards).
    NO_ANSWER_SECONDS = 30.0
    #: Seconds of ringing before an unanswered call forwards, when the
    #: callee has ``forward_to`` set.
    FORWARD_AFTER_SECONDS = 6.0
    #: Ended/failed calls kept for tests and post-mortems.
    RECENT_CALLS = 256

    def __init__(self, sample_rate: int = 8000, metrics=None) -> None:
        self.sample_rate = sample_rate
        self.lines: dict[str, Line] = {}
        #: line -> its active call (identity keyed); the O(1) call table.
        self._active_by_line: dict[Line, Call] = {}
        #: call_id -> active call, for timer iteration.
        self._active_calls: dict[int, Call] = {}
        #: Bounded history of ended/failed calls, newest last.
        self.recent_calls: deque[Call] = deque(maxlen=self.RECENT_CALLS)
        self._sample_time = 0
        self._parties = []      # scripted SimulatedParty instances
        self._trunk_resolvers = []   # TrunkGateway-compatible objects
        self.attach_metrics(metrics if metrics is not None
                            else NULL_REGISTRY)

    # -- observability --------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Bind (or re-bind) this exchange's instruments to a registry.

        The exchange is built before any server exists, so it starts on
        the shared null registry; the first :class:`AudioServer` that
        wraps the hub attaches its real one.
        """
        self.metrics = registry
        self._m_line_dropped = registry.counter(
            "telephony.line.dropped_blocks")
        self._m_calls_active = registry.gauge("telephony.calls.active")
        self._m_calls_placed = registry.counter("telephony.calls.placed")

    def _count_dropped_blocks(self, amount: int = 1) -> None:
        """A line's inbound buffer shed audio (called by Line)."""
        self._m_line_dropped.inc(amount)

    # -- provisioning ---------------------------------------------------------

    def add_line(self, number: str) -> Line:
        if number in self.lines:
            raise ValueError("number %s already assigned" % number)
        line = Line(number, self)
        self.lines[number] = line
        return line

    def add_party(self, party) -> None:
        """Attach a scripted remote party (ticked with the exchange)."""
        self._parties.append(party)

    def remove_party(self, party) -> None:
        if party in self._parties:
            self._parties.remove(party)

    def add_trunk_resolver(self, resolver) -> None:
        """Register a trunk gateway that can home remote numbers.

        A resolver answers ``outbound_leg(number)`` with a
        Line-compatible endpoint (or None); resolvers are consulted in
        registration order for numbers no local line owns.
        """
        if resolver not in self._trunk_resolvers:
            self._trunk_resolvers.append(resolver)

    def remove_trunk_resolver(self, resolver) -> None:
        if resolver in self._trunk_resolvers:
            self._trunk_resolvers.remove(resolver)

    def _trunk_endpoint(self, number: str) -> Line | None:
        """An outbound trunk leg for ``number``, if any gateway routes it."""
        for resolver in self._trunk_resolvers:
            leg = resolver.outbound_leg(number)
            if leg is not None:
                return leg
        return None

    def endpoint_for(self, number: str) -> Line | None:
        """The local line or a fresh trunk leg homing ``number``."""
        line = self.lines.get(number)
        if line is not None:
            return line
        return self._trunk_endpoint(number)

    # -- call-table bookkeeping -----------------------------------------------

    @property
    def calls(self) -> list[Call]:
        """Active calls plus the bounded recent history (oldest first)."""
        return list(self.recent_calls) + list(self._active_calls.values())

    @property
    def active_calls(self) -> list[Call]:
        return list(self._active_calls.values())

    def call_for(self, line: Line) -> Call | None:
        """The non-ended call this line is on, if any (O(1))."""
        return self._active_by_line.get(line)

    def _register_call(self, call: Call) -> None:
        self._active_calls[call.call_id] = call
        self._active_by_line[call.caller] = call
        self._active_by_line[call.callee] = call
        self._m_calls_active.set(len(self._active_calls))

    def _finish_call(self, call: Call, state: CallState,
                     reason: str = "") -> None:
        """Move a call out of the active table into the history."""
        call.state = state
        if reason:
            call.failure_reason = reason
        self._active_calls.pop(call.call_id, None)
        for line in (call.caller, call.callee):
            if line is not None and self._active_by_line.get(line) is call:
                del self._active_by_line[line]
        self.recent_calls.append(call)
        self._m_calls_active.set(len(self._active_calls))

    def _record_failure(self, call: Call, reason: str) -> None:
        call.state = CallState.FAILED
        call.failure_reason = reason
        self.recent_calls.append(call)

    # -- line signaling (called by Line) --------------------------------------

    def dial(self, caller: Line, number: str,
             forwarded_from: str | None = None) -> None:
        """Start a call from ``caller`` to ``number``.

        ``forwarded_from`` carries the original dialed number when this
        dial is the continuation of a forwarded (possibly trunked) call.
        """
        if self.call_for(caller) is not None:
            raise RuntimeError("line %s already on a call" % caller.number)
        callee = self.endpoint_for(number)
        call = Call(caller, callee)
        call.forwarded_from = forwarded_from
        self._m_calls_placed.inc()
        if call.callee is None:
            self._record_failure(call, "no such number")
            caller.call_failed("no such number")
            return
        if call.callee is caller or call.callee.number == caller.number:
            self._record_failure(call, "called self")
            caller.call_failed("called self")
            return
        if (call.callee.hook is HookState.OFF_HOOK
                or self.call_for(call.callee) is not None):
            self._record_failure(call, "busy")
            caller.call_failed("busy")
            return
        call.state = CallState.RINGING
        call.ringing_since = self._sample_time
        self._register_call(call)
        call.callee.start_ringing(call.caller_info())

    def line_off_hook(self, line: Line) -> None:
        """A line went off hook: answer if it was ringing."""
        call = self.call_for(line)
        if call is None:
            return
        if call.state is CallState.RINGING and line is call.callee:
            call.state = CallState.CONNECTED
            call.caller.far_end_answered()

    def line_on_hook(self, line: Line) -> None:
        """A line hung up: tear its call down and tell the other side."""
        call = self.call_for(line)
        if call is None:
            return
        other = call.other_party(line)
        self._finish_call(call, CallState.ENDED)
        if other.ringing:
            other.stop_ringing()
        else:
            other.far_end_hung_up()

    # -- trunk signaling (called by outbound trunk legs) ----------------------

    def remote_released(self, line: Line, reason: str) -> None:
        """The far exchange released a trunk call this ``line`` fronts.

        Pre-answer this is a failure (busy, no answer, trunk down) the
        caller must hear about; post-answer it is an ordinary far-end
        hangup.
        """
        call = self.call_for(line)
        if call is None:
            return
        other = call.other_party(line)
        if call.state is CallState.RINGING:
            self._finish_call(call, CallState.FAILED, reason)
            other.call_failed(reason)
        else:
            self._finish_call(call, CallState.ENDED)
            if other.ringing:
                other.stop_ringing()
            else:
                other.far_end_hung_up()

    # -- audio and in-call signaling ------------------------------------------

    def route_audio(self, sender: Line, samples: np.ndarray) -> None:
        call = self.call_for(sender)
        if call is None or call.state is not CallState.CONNECTED:
            return
        call.other_party(sender).deliver_audio(samples)

    def route_dtmf(self, sender: Line, digits: str) -> None:
        """Deliver mid-call touch-tone digits out of band.

        The digits travel the signaling path (and the trunk signaling
        channel, for remote calls) and are regenerated as in-band tones
        at the receiving line, so existing DTMF detectors hear them.
        """
        call = self.call_for(sender)
        if call is None or call.state is not CallState.CONNECTED:
            return
        call.other_party(sender).deliver_dtmf(digits)

    # -- time -----------------------------------------------------------------

    def tick(self, frames: int) -> None:
        """Advance exchange time by one block; run timers and parties."""
        self._sample_time += frames
        for call in list(self._active_calls.values()):
            if call.state is not CallState.RINGING:
                continue
            ringing_for = ((self._sample_time - call.ringing_since)
                           / self.sample_rate)
            forward_to = call.callee.forward_to
            if (forward_to is not None
                    and ringing_for >= self.FORWARD_AFTER_SECONDS):
                self._forward(call, forward_to)
            elif ringing_for >= self.NO_ANSWER_SECONDS:
                self._finish_call(call, CallState.FAILED, "no answer")
                call.callee.stop_ringing()
                call.caller.call_failed("no answer")
        # Snapshot: parties may be added concurrently (tests, tools).
        for party in list(self._parties):
            party.tick(frames)

    def _forward(self, call: Call, number: str) -> None:
        """Redirect an unanswered ringing call to the forward target.

        The target may be a local line or (through a trunk resolver) a
        number homed on another exchange; forwarding to yourself, to a
        busy line, or to a line that is already ringing all fail the
        call with "forward failed".
        """
        target = self.endpoint_for(number)
        original_callee = call.callee
        original_callee.stop_ringing()
        if (target is None or target is call.caller
                or target is original_callee
                or target.number == call.caller.number
                or target.hook is HookState.OFF_HOOK
                or self.call_for(target) is not None):
            self._finish_call(call, CallState.FAILED, "forward failed")
            call.caller.call_failed("forward failed")
            return
        if self._active_by_line.get(original_callee) is call:
            del self._active_by_line[original_callee]
        call.callee = target
        call.forwarded_from = original_callee.number
        call.ringing_since = self._sample_time
        self._active_by_line[target] = call
        target.start_ringing(call.caller_info())
