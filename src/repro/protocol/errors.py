"""Protocol errors.

"Errors are also generated asynchronously, and applications must be
prepared to process them at arbitrary times after the erroneous request."
(paper section 4.1)

An error message carries the error code, the sequence number of the
request that caused it, the opcode of that request, the offending resource
id, and a human-readable explanation (for developers; programs switch on
the code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from .codec import HEADER, decode, plan
from .types import ErrorCode
from .wire import U16, U32, Message, MessageKind


@dataclass
class ProtocolError(Exception):
    """An error as it travels on the wire and as Alib raises it."""

    code: Annotated[ErrorCode, HEADER]
    sequence: Annotated[int, HEADER] = 0
    opcode: U16 = 0
    resource: U32 = 0
    message: str = ""

    def __str__(self) -> str:
        text = "%s (request #%d, opcode %d, resource %d)" % (
            self.code.name, self.sequence, self.opcode, self.resource)
        if self.message:
            text = "%s: %s" % (text, self.message)
        return text

    def encode(self) -> Message:
        return Message(MessageKind.ERROR, int(self.code), self.sequence,
                       plan(ProtocolError).encode(self))

    @classmethod
    def decode(cls, message: Message) -> "ProtocolError":
        return decode(lambda reader: reader.parse(
            plan(cls).take, ErrorCode(message.code), message.sequence),
            message.payload, "error")


def bad(code: ErrorCode, message: str = "",
        resource: int = 0) -> ProtocolError:
    """Convenience constructor used throughout the server."""
    return ProtocolError(code=code, resource=resource, message=message)
