"""The telephone virtual device class.

"Telephones are combined input and output devices with the commands
Dial, Answer, SendDTMF, Stop, Pause, Resume."  (paper section 5.1)

Ports: source 0 carries audio *from* the line (the caller's voice), sink
1 carries audio *to* the line (greetings, prompts).  The device also:

* relays call signaling (ring, answer, far-end hangup) as TELEPHONE_RING
  / TELEPHONE_ANSWERED / CALL_PROGRESS events;
* decodes in-band touch tones on the incoming audio into DTMF_NOTIFY
  events -- this is how touch-tone menus hear the caller's key presses;
* sends DTMF in-band for the SendDTMF command from a playback program
  (``playback.py``): back-to-back SendDTMF commands are gapless like any
  queued playback, and two that start together play one after the other.

Command arguments: ``Dial`` takes ``number`` (string); ``SendDTMF``
takes ``digits`` (string).
"""

from __future__ import annotations

import numpy as np

from ...dsp.dtmf import DtmfDetector, generate_digits
from ...dsp.mixing import apply_gain, mix
from ...protocol import events as ev
from ...protocol.attributes import AttributeList
from ...protocol.errors import bad
from ...protocol.types import (
    CallProgress,
    Command,
    DeviceClass,
    ErrorCode,
    EventCode,
    PortDirection,
)
from .base import CommandHandle, InstantHandle, VirtualDevice, \
    register_device_class
from .playback import PlaybackHandle, PlaybackProgram


class DialHandle(CommandHandle):
    """In flight until the call connects or fails; cannot be paused.

    "If the application issues a request to pause a queue in which the
    current command is operating on a device that cannot be paused, the
    queue is stopped."  (paper section 5.5)
    """

    can_pause = False     # and no expected end: the far end decides


@register_device_class
class TelephoneDevice(PlaybackProgram, VirtualDevice):
    """One telephone line, as seen by an application."""

    DEVICE_CLASS = DeviceClass.TELEPHONE
    BINDS_TO = DeviceClass.TELEPHONE

    def __init__(self, device_id, loud, attributes) -> None:
        super().__init__(device_id, loud, attributes)
        self._dtmf_detector: DtmfDetector | None = None
        self._dial_handle: DialHandle | None = None
        self._hangup_watchers: list = []

    def _build_ports(self) -> None:
        self._add_port(PortDirection.SOURCE)    # from the line
        self._add_port(PortDirection.SINK)      # to the line

    # -- binding: hook up signaling -------------------------------------------

    def bind(self, physical) -> None:
        super().bind(physical)
        physical.attach_vdevice(self)
        self._dtmf_detector = DtmfDetector(self.server.hub.sample_rate)

    def unbind(self) -> None:
        if self.bound is not None:
            self.bound.detach_vdevice(self)
        super().unbind()

    def add_hangup_watcher(self, watcher) -> None:
        """Recorder ON_HANGUP termination support.

        If the far end is already gone when the watcher registers (the
        caller hung up during the greeting, a beat before Record
        started), fire immediately -- otherwise the recording would run
        forever waiting for a hangup that already happened.
        """
        if self.bound is not None and not self._call_is_up():
            watcher()
            return
        self._hangup_watchers.append(watcher)

    def _call_is_up(self) -> bool:
        line = self.bound.hardware.line
        if line.exchange is None:
            return False
        if not self.bound.hardware.off_hook:
            return False
        return line.exchange.call_for(line) is not None

    # -- signaling callbacks (relayed by the physical wrapper) ----------------

    def on_ring_start(self, caller_info) -> None:
        args = AttributeList()
        if caller_info is not None:
            args[ev.ARG_CALLER_ID] = caller_info.number
            if caller_info.forwarded_from is not None:
                args[ev.ARG_FORWARDED_FROM] = caller_info.forwarded_from
        self.server.events.emit_device(
            self, EventCode.TELEPHONE_RING,
            sample_time=self.server.hub.sample_time, args=args)

    def on_answered(self) -> None:
        now = self.server.hub.sample_time
        self.server.events.emit_device(
            self, EventCode.TELEPHONE_ANSWERED, sample_time=now)
        self._emit_progress(CallProgress.CONNECTED)
        if self._dial_handle is not None and not self._dial_handle.finished:
            self._dial_handle.finish(now)
            self._dial_handle = None

    def on_far_hangup(self) -> None:
        self._emit_progress(CallProgress.HANGUP)
        for watcher in self._hangup_watchers:
            watcher()
        self._hangup_watchers = []

    def on_call_failed(self, reason: str) -> None:
        now = self.server.hub.sample_time
        detail = (CallProgress.BUSY if reason == "busy"
                  else CallProgress.FAILED)
        self._emit_progress(detail)
        if self._dial_handle is not None and not self._dial_handle.finished:
            self._dial_handle.finish(now, status=2)
            self._dial_handle = None

    def _emit_progress(self, progress: CallProgress) -> None:
        self.server.events.emit_device(
            self, EventCode.CALL_PROGRESS, detail=int(progress),
            sample_time=self.server.hub.sample_time)

    # -- commands -------------------------------------------------------------

    def _start(self, leaf, at_time: int) -> CommandHandle:
        command = leaf.command
        if self.bound is None:
            raise bad(ErrorCode.BAD_DEVICE, "telephone not bound to a line",
                      self.device_id)
        if command is Command.DIAL:
            number = leaf.args.get("number")
            if not number:
                raise bad(ErrorCode.BAD_VALUE, "Dial needs a number",
                          self.device_id)
            handle = DialHandle(self, leaf, at_time)
            self._dial_handle = handle
            self._emit_progress(CallProgress.DIALING)
            try:
                self.bound.hardware.dial(str(number))
            except RuntimeError as exc:
                handle.finish(at_time, status=2)
                self._dial_handle = None
                raise bad(ErrorCode.BAD_MATCH, str(exc), self.device_id)
            return handle
        if command is Command.ANSWER:
            self.bound.hardware.answer()
            return InstantHandle(self, leaf, at_time)
        if command is Command.HANG_UP:
            self.bound.hardware.hang_up()
            self._emit_progress(CallProgress.IDLE)
            return InstantHandle(self, leaf, at_time)
        if command is Command.SEND_DTMF:
            digits = str(leaf.args.get("digits", ""))
            if not digits:
                raise bad(ErrorCode.BAD_VALUE, "SendDTMF needs digits",
                          self.device_id)
            return self.enqueue_playback(PlaybackHandle(
                self, leaf, at_time,
                generate_digits(digits, self.server.hub.sample_rate)))
        return super()._start(leaf, at_time)

    # -- the block cycle ------------------------------------------------------

    def _render(self, port_index: int, sample_time: int,
                frames: int) -> np.ndarray:
        """Source port 0: the far party's audio."""
        if self.bound is None:
            return np.zeros(frames, dtype=np.int16)
        return self.bound.hardware.read(frames)

    def consume(self, sample_time: int, frames: int) -> None:
        if self.bound is None:
            return
        # Outbound: whatever is wired to our sink, plus the DTMF program.
        blocks = [self.pull_sink(1, sample_time, frames)]
        if self.program:
            blocks.append(self.program_render(sample_time, frames))
        outbound = mix(blocks, length=frames)
        self.bound.hardware.play(apply_gain(outbound, self.gain))
        # Inbound: decode touch tones for DTMF_NOTIFY.
        if self._dtmf_detector is not None:
            inbound = self.render_source(0, sample_time, frames)
            for digit in self._dtmf_detector.feed(inbound):
                self.server.events.emit_device(
                    self, EventCode.DTMF_NOTIFY,
                    sample_time=sample_time,
                    args=AttributeList({ev.ARG_DIGIT: digit}))

    def describe(self) -> AttributeList:
        merged = super().describe()
        if self.bound is not None:
            merged["phone-number"] = self.bound.hardware.number
        return merged
