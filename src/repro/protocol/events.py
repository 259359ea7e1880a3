"""Event message bodies.

"An event is data generated asynchronously by the audio server as a result
of some device activity or as a side-effect of a protocol request."
(paper section 5.7)

All events share a common envelope: the resource the event concerns (a
LOUD, virtual device, or sound id), the server sample-time at which it
occurred, a detail code, and an attribute list for class-specific data.
A single body shape keeps event parsing trivial for clients while the
attribute list leaves room for device subclasses to extend events without
protocol changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from .attributes import AttributeList
from .codec import HEADER, decode, plan
from .types import EventCode
from .wire import I32, U32, U64, Message, MessageKind

#: Wire code -> EventCode, without the enum constructor's cost.
_CODES = {int(code): code for code in EventCode}


@dataclass
class Event:
    """One protocol event."""

    code: Annotated[EventCode, HEADER]
    resource: U32 = 0
    detail: I32 = 0
    sample_time: U64 = 0
    args: AttributeList = field(default_factory=AttributeList)
    #: Sequence number of the last request processed.
    sequence: Annotated[int, HEADER] = 0

    def encode(self) -> Message:
        return Message(MessageKind.EVENT, int(self.code), self.sequence,
                       _PLAN.encode(self))

    @classmethod
    def decode(cls, message: Message) -> "Event":
        def parse(reader):
            code = _CODES.get(message.code)
            if code is None:
                code = EventCode(message.code)  # raises: not an event
            return reader.parse(_PLAN.take, code, message.sequence)

        return decode(parse, message.payload, "event")


_PLAN = plan(Event)


# Well-known argument keys used inside event attribute lists.

#: COMMAND_DONE / SYNC: which queued command (per-queue serial number).
ARG_COMMAND_SERIAL = "command-serial"
#: COMMAND_DONE: the command code that finished.
ARG_COMMAND = "command"
#: CALL_PROGRESS / TELEPHONE_RING: calling party information, if known.
ARG_CALLER_ID = "caller-id"
ARG_FORWARDED_FROM = "forwarded-from"
#: DTMF_NOTIFY: the digit detected ("0"-"9", "*", "#", "A"-"D").
ARG_DIGIT = "digit"
#: RECOGNITION: the word recognized and the match score.
ARG_WORD = "word"
ARG_SCORE = "score"
#: SYNC: playback progress within the current sound.
ARG_FRAMES_DONE = "frames-done"
ARG_FRAMES_TOTAL = "frames-total"
#: DATA_REQUEST: how many more frames the server can buffer.
ARG_FRAMES_WANTED = "frames-wanted"
#: DATA_AVAILABLE: how many bytes of recorded data are ready.
ARG_BYTES_AVAILABLE = "bytes-available"
#: MAP_REQUEST / RESTACK_REQUEST: the client whose request was redirected.
ARG_CLIENT = "client"
ARG_POSITION = "position"
#: PROPERTY_NOTIFY: which property changed (detail: 0=new/changed 1=deleted).
ARG_PROPERTY_NAME = "property-name"
#: DEVICE_STATE: the physical device id whose state changed.
ARG_DEVICE_ID = "device-id"
