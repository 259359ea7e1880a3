"""Subscriber lines.

A :class:`Line` is one subscriber loop on the simulated exchange: it has
a directory number, a hook state, and full-duplex audio at block
granularity.  The workstation's telephone hardware (the hub's
LineDevice) owns one side; the exchange bridges the other side to the
remote party when a call is up.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np


class HookState(enum.Enum):
    ON_HOOK = "on-hook"
    OFF_HOOK = "off-hook"


@dataclass(frozen=True)
class CallerInfo:
    """Calling-party information delivered with ringing (paper 5.1).

    "Telephones may report information about incoming calls, such as the
    identity of the caller and whether the call was forwarded from
    another number."
    """

    number: str
    forwarded_from: str | None = None


class Line:
    """One subscriber line: number, hook state, block-granular audio."""

    #: Default inbound buffering bound, in seconds of audio.  A stalled
    #: reader sheds the oldest blocks past this (the exchange counts
    #: them as ``telephony.line.dropped_blocks``).
    MAX_BUFFER_SECONDS = 1.28

    def __init__(self, number: str, exchange=None,
                 max_buffer_seconds: float | None = None) -> None:
        self.number = number
        self.exchange = exchange
        self.hook = HookState.ON_HOOK
        self.ringing = False
        self.caller_info: CallerInfo | None = None
        #: Numbers this line forwards to when it does not answer.
        self.forward_to: str | None = None
        self.max_buffer_seconds = (self.MAX_BUFFER_SECONDS
                                   if max_buffer_seconds is None
                                   else max_buffer_seconds)
        self._inbound: deque[np.ndarray] = deque()
        self._buffered = 0      # samples currently in _inbound
        self._listeners: list = []

    def _sample_rate(self) -> int:
        return self.exchange.sample_rate if self.exchange is not None else 8000

    @property
    def max_buffer_seconds(self) -> float:
        """Inbound buffering bound, in seconds of audio."""
        return self._max_buffer_seconds

    @max_buffer_seconds.setter
    def max_buffer_seconds(self, seconds: float) -> None:
        self._max_buffer_seconds = seconds
        self._max_buffered = int(seconds * self._sample_rate())

    # -- signaling ----------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register for on_ring_start/on_ring_stop/on_far_hangup/
        on_answered callbacks."""
        self._listeners.append(listener)

    def _notify(self, method_name: str, *args) -> None:
        for listener in self._listeners:
            method = getattr(listener, method_name, None)
            if method is not None:
                method(*args)

    def start_ringing(self, caller_info: CallerInfo) -> None:
        self.ringing = True
        self.caller_info = caller_info
        self._notify("on_ring_start", caller_info)

    def stop_ringing(self) -> None:
        if self.ringing:
            self.ringing = False
            self._notify("on_ring_stop")

    def far_end_answered(self) -> None:
        self._notify("on_answered")

    def far_end_hung_up(self) -> None:
        self._clear_inbound()
        self._notify("on_far_hangup")

    def call_failed(self, reason: str) -> None:
        self._notify("on_call_failed", reason)

    # -- hook control (the subscriber's side) --------------------------------

    def off_hook(self) -> None:
        """Lift the handset: answers a ringing call or starts a new one."""
        if self.hook is HookState.OFF_HOOK:
            return
        self.hook = HookState.OFF_HOOK
        self.stop_ringing()
        if self.exchange is not None:
            self.exchange.line_off_hook(self)

    def on_hook(self) -> None:
        """Hang up."""
        if self.hook is HookState.ON_HOOK:
            return
        self.hook = HookState.ON_HOOK
        self._clear_inbound()
        if self.exchange is not None:
            self.exchange.line_on_hook(self)

    def dial(self, number: str) -> None:
        """Dial a number (the line must be off hook)."""
        if self.hook is not HookState.OFF_HOOK:
            raise RuntimeError("cannot dial on hook")
        if self.exchange is not None:
            self.exchange.dial(self, number)

    def send_dtmf(self, digits: str) -> None:
        """Send mid-call touch tones through the signaling path.

        Unlike mixing tones into :meth:`send_audio` (which still works,
        and is what real handsets do), signaled DTMF crosses the
        exchange -- and any trunk -- as a signaling message and is
        regenerated in-band at the far line, surviving codecs and
        jitter concealment exactly.
        """
        if self.hook is not HookState.OFF_HOOK:
            raise RuntimeError("cannot send DTMF on hook")
        if digits and self.exchange is not None:
            self.exchange.route_dtmf(self, digits)

    # -- audio ---------------------------------------------------------------

    def send_audio(self, samples: np.ndarray) -> None:
        """Transmit a block toward the far end (dropped if no call)."""
        if self.exchange is not None and self.hook is HookState.OFF_HOOK:
            self.exchange.route_audio(self, np.asarray(samples,
                                                       dtype=np.int16))

    def deliver_audio(self, samples: np.ndarray) -> None:
        """Called by the exchange: a block arrived from the far end."""
        self._inbound.append(samples)
        self._buffered += len(samples)
        # Bound buffering (max_buffer_seconds at the exchange rate) so a
        # stalled reader does not accumulate unbounded audio; shed the
        # oldest blocks and count them.
        dropped = 0
        while self._buffered > self._max_buffered and len(self._inbound) > 1:
            shed = self._inbound.popleft()
            self._buffered -= len(shed)
            dropped += 1
        if dropped and self.exchange is not None:
            self.exchange._count_dropped_blocks(dropped)

    def deliver_dtmf(self, digits: str) -> None:
        """Called by the exchange: regenerate signaled digits in-band."""
        from ..dsp.dtmf import generate_digits

        self.deliver_audio(generate_digits(digits, self._sample_rate()))

    def receive_audio(self, frames: int) -> np.ndarray:
        """The next ``frames`` received samples (silence-padded)."""
        inbound = self._inbound
        if inbound and len(inbound[0]) == frames:     # one whole block
            self._buffered -= frames
            return inbound.popleft().astype(np.int16)
        out = np.zeros(frames, dtype=np.int16)
        filled = 0
        while filled < frames and self._inbound:
            block = self._inbound[0]
            take = min(len(block), frames - filled)
            out[filled:filled + take] = block[:take]
            if take == len(block):
                self._inbound.popleft()
            else:
                self._inbound[0] = block[take:]
            self._buffered -= take
            filled += take
        return out

    def _clear_inbound(self) -> None:
        self._inbound.clear()
        self._buffered = 0
