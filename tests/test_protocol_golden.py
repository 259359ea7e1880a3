"""Every protocol body against golden bytes.

tests/golden/protocol_bodies.json was recorded with the hand-written
``write_payload``/``read_payload`` pairs that each body had before the
declarative codec (:mod:`repro.protocol.codec`) replaced them.  It covers
every request class, every reply class, the three nested records
(``DeviceDescription``, ``HistogramStat``, ``ClientStat``), ``Event`` and
``ProtocolError``, with at least three instances each:

* ``edge`` -- integers at the top of their wire width (max u64 included),
  empty strings, lists, dicts and attribute lists, ``wire_type=None``,
  ``GetPropertyReply`` absent;
* ``seed-1`` / ``seed-2`` -- seeded random values with non-ASCII strings,
  every attribute value type, negative signed fields;
* ``extension`` where it applies -- a device-class code of 100 or more
  (the server's device subclassing mechanism), which must travel as a
  raw integer.

Each entry stores the instance type-tagged (enums, bytes, tuples and
dicts keep their types through JSON), so the file alone rebuilds it.
The test asserts that the instance encodes to exactly the stored bytes
and that the stored bytes decode to an identical instance, with the
same types.

Re-derive the bytes from the stored values (only when the wire format
is meant to change) with
``PYTHONPATH=src python tests/test_protocol_golden.py``.
"""

import dataclasses
import enum
import json
import pathlib

import pytest

from repro.protocol import attributes, errors, events, requests, types
from repro.protocol.errors import ProtocolError
from repro.protocol.events import Event
from repro.protocol.wire import Message, MessageKind, Reader, Writer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "protocol_bodies.json"

#: Every class a golden value may name, by class name.
CLASSES = {
    name: value
    for module in (types, attributes, requests, events, errors)
    for name, value in vars(module).items()
    if isinstance(value, type)
}


def tag(value):
    """A JSON-able, type-tagged form of a protocol value."""
    if isinstance(value, enum.Enum):
        return {"enum": type(value).__name__, "value": value.value}
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    if isinstance(value, list):
        return [tag(item) for item in value]
    if isinstance(value, tuple):
        return {"tuple": [tag(item) for item in value]}
    if isinstance(value, dict):
        return {"dict": [[tag(key), tag(item)]
                         for key, item in value.items()]}
    if dataclasses.is_dataclass(value):
        return {"class": type(value).__name__,
                "fields": {f.name: tag(getattr(value, f.name))
                           for f in dataclasses.fields(value)}}
    raise TypeError("cannot tag %r" % (value,))


def untag(obj):
    """Rebuild the value :func:`tag` produced."""
    if isinstance(obj, list):
        return [untag(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    if "enum" in obj:
        return CLASSES[obj["enum"]](obj["value"])
    if "bytes" in obj:
        return bytes.fromhex(obj["bytes"])
    if "tuple" in obj:
        return tuple(untag(item) for item in obj["tuple"])
    if "dict" in obj:
        return {untag(key): untag(item) for key, item in obj["dict"]}
    return CLASSES[obj["class"]](
        **{name: untag(item) for name, item in obj["fields"].items()})


def encode(value) -> bytes:
    """The payload bytes of any body (for events and errors, the
    message payload; the header fields are checked separately)."""
    if isinstance(value, (Event, ProtocolError)):
        return value.encode().payload
    writer = Writer()
    value.write_payload(writer)
    return writer.getvalue()


def decode(cls, payload: bytes, value):
    """Decode ``payload`` the way each path does on the wire."""
    if cls is Event:
        return Event.decode(Message(MessageKind.EVENT, int(value.code),
                                    value.sequence, payload))
    if cls is ProtocolError:
        return ProtocolError.decode(Message(
            MessageKind.ERROR, int(value.code), value.sequence, payload))
    if issubclass(cls, requests.Request):
        return requests.decode_request(int(cls.OPCODE), payload)
    reader = Reader(payload)
    decoded = cls.read_payload(reader)
    reader.expect_end()
    return decoded


def _entries() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def _label(entry: dict) -> str:
    return "%s-%s" % (entry["body"], entry["label"])


ENTRIES = _entries()


def test_golden_covers_every_body():
    bodies = {entry["body"] for entry in ENTRIES}
    expected = {cls.__name__ for cls in requests.REQUEST_CLASSES.values()}
    expected |= {cls.__name__ for cls in CLASSES.values()
                 if issubclass(cls, requests.Reply)
                 and cls is not requests.Reply}
    expected |= {"DeviceDescription", "HistogramStat", "ClientStat",
                 "Event", "ProtocolError"}
    assert expected <= bodies
    for body in expected:
        assert sum(entry["body"] == body for entry in ENTRIES) >= 2, body


@pytest.mark.parametrize("entry", ENTRIES, ids=_label)
def test_encodes_to_golden_bytes(entry):
    value = untag(entry["value"])
    assert type(value).__name__ == entry["body"]
    assert encode(value).hex() == entry["payload"]
    if isinstance(value, (Event, ProtocolError)):
        message = value.encode()
        assert message.code == int(value.code)
        assert message.sequence == value.sequence


@pytest.mark.parametrize("entry", ENTRIES, ids=_label)
def test_golden_bytes_decode_to_value(entry):
    value = untag(entry["value"])
    decoded = decode(type(value), bytes.fromhex(entry["payload"]), value)
    assert decoded == value
    assert tag(decoded) == entry["value"]


if __name__ == "__main__":
    rederived = []
    for entry in _entries():
        entry = dict(entry, payload=encode(untag(entry["value"])).hex())
        rederived.append(entry)
    GOLDEN.write_text(json.dumps(rederived, indent=1, ensure_ascii=False)
                      + "\n")
    print("wrote %d bodies to %s" % (len(rederived), GOLDEN))
