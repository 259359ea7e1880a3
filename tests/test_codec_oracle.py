"""The emitted body codec against the kind walk, on every body class.

``tests/codec_oracle.py`` keeps the walker the codec used before it
emitted straight-line code.  For random values of every request, reply,
nested record, ``Event`` and ``ProtocolError`` -- drawn from each
class's declared field kinds by ``test_protocol_fuzz``'s strategies --
both codecs must write identical bytes, read them back to equal values
of the same types, and raise the same exception class on every
truncation, an unknown enum code, an unknown attribute value tag and
invalid UTF-8 (and WireFormatError, both, through the decode policy).
"""

import dataclasses
import enum
import struct
import typing
from typing import Annotated

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests import codec_oracle as oracle
from tests.test_protocol_fuzz import _BODIES, _body_strategy

from repro.protocol import codec
from repro.protocol.attributes import AttributeList, AttrValue
from repro.protocol.events import Event
from repro.protocol.requests import (
    AllowRequest,
    ChangeProperty,
    ControlQueue,
    DeviceDescription,
    GetPropertyReply,
    IssueCommand,
    QueryQueueReply,
)
from repro.protocol.types import Encoding, EventCode, SoundType
from repro.protocol.wire import (
    Message,
    MessageKind,
    U32,
    Reader,
    WireFormatError,
)

#: Every body, and the two records nested everywhere.
CLASSES = _BODIES + [AttributeList, SoundType]


def _outcome(parse, payload: bytes):
    """What ``parse`` makes of ``payload``: a value or an error class."""
    try:
        return parse(payload)
    except Exception as exc:    # the class is what is compared
        return type(exc)


def _parsers(cls, headers=()):
    """The emitted and the walked decoder of a ``cls`` payload, each
    over a Reader."""
    take = codec.plan(cls).take
    return (lambda reader: reader.parse(take, *headers),
            lambda reader: oracle.read_body(cls, reader, *headers))


def _fails_alike(cls, payload: bytes, headers=()):
    """Both decoders raise the same class raw, and WireFormatError
    through the decode policy; returns that raw class."""
    new, old = _parsers(cls, headers)
    raised = _outcome(lambda data: new(Reader(data)), payload)
    assert raised == _outcome(lambda data: old(Reader(data)), payload)
    assert isinstance(raised, type) and issubclass(raised, Exception)
    for parse in (new, old):
        with pytest.raises(WireFormatError):
            codec.decode(parse, payload, cls.__name__)
    return raised


def _payload(body) -> bytes:
    """``body``'s payload by its public encoder (the nested records
    have none but their plan's)."""
    if isinstance(body, (AttributeList, SoundType)):
        return codec.plan(type(body)).encode(body)
    encoded = body.encode()
    return encoded.payload if isinstance(encoded, Message) else encoded


def _matches_the_walk(body) -> None:
    """Same bytes, equal values of the same types both ways, and the
    same failure on every truncation."""
    cls = type(body)
    payload = _payload(body)
    assert payload == oracle.encode(body)
    headers = oracle.header_values(body)
    new, old = _parsers(cls, headers)
    decoded = new(Reader(payload))
    assert decoded == body == old(Reader(payload))
    assert repr(decoded) == repr(body)
    for cut in range(len(payload)):
        assert _fails_alike(cls, payload[:cut], headers) is WireFormatError


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_every_body_matches_the_walk(cls, data):
    _matches_the_walk(data.draw(_body_strategy(cls)))


INT64 = st.one_of(st.sampled_from([0, 1, -1, 2**63 - 1, -2**63, 2**31,
                                   -2**31 - 1]),
                  st.integers(-2**63, 2**63 - 1))
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
VALUE = st.one_of(
    INT64,
    TEXT,
    st.booleans(),
    st.floats(allow_nan=False),
    st.builds(SoundType, st.sampled_from(list(Encoding)),
              st.integers(0, 255), st.integers(0, 2**32 - 1)),
    st.lists(INT64, max_size=4),
    st.lists(TEXT, min_size=1, max_size=4),
    st.binary(max_size=8),
)
ATTRIBUTES = st.dictionaries(TEXT, VALUE, max_size=6).map(AttributeList)
EVENT = st.builds(
    Event, st.sampled_from(list(EventCode)), st.integers(0, 2**32 - 1),
    st.integers(-2**31, 2**31 - 1), st.integers(0, 2**64 - 1),
    st.one_of(st.just(AttributeList()), ATTRIBUTES),
    st.integers(0, 0xFFFF))


@given(ATTRIBUTES)
@example(AttributeList())
@example(AttributeList({"né": -2**63, "": 2**63 - 1, "flag": True}))
@settings(max_examples=300, deadline=None)
def test_attribute_lists_match_the_kind_walk(attributes):
    _matches_the_walk(attributes)


def _walked_event(message: Message) -> Event:
    """``Event.decode`` with the walk for the body."""
    return codec.decode(lambda reader: oracle.read_body(
        Event, reader, EventCode(message.code), message.sequence),
        message.payload, "event")


@given(EVENT)
@settings(max_examples=300, deadline=None)
def test_events_match_the_kind_walk(event):
    _matches_the_walk(event)
    message = event.encode()
    assert Event.decode(message) == event == _walked_event(message)


def _closed_enum_fields(cls) -> list:
    """``cls``'s top-level fields whose declared enum has no ``| int``:
    ``(field name, enum class, format character)``."""
    hints = typing.get_type_hints(cls, include_extras=True)
    found = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if typing.get_origin(hint) is not Annotated:
            continue
        base, kind = typing.get_args(hint)
        if isinstance(base, type) and issubclass(base, enum.Enum) \
                and typing.get_origin(kind) is Annotated:
            found.append((field.name, base, kind.__metadata__[0].fmt))
    return found


def _unknown_code(enum_cls, fmt):
    """A code ``enum_cls`` rejects that fits ``fmt``, or None."""
    code = max(member.value for member in enum_cls) + 1
    if code >= 1 << (8 * struct.calcsize(fmt)):
        return None
    try:
        enum_cls(code)
    except ValueError:
        return code
    return None     # a flag: every combination is a member


#: Every top-level closed enum field with a code its enum rejects
#: (SoundType's encoding among them, so the nested case too).
_ENUM_CASES = [(cls, name, enum_cls, fmt)
               for cls in CLASSES
               for name, enum_cls, fmt in _closed_enum_fields(cls)
               if _unknown_code(enum_cls, fmt) is not None]


def test_enum_cases_cover_the_closed_enums():
    covered = {cls for cls, *_ in _ENUM_CASES}
    assert {SoundType, IssueCommand, ControlQueue, AllowRequest,
            DeviceDescription, QueryQueueReply} <= covered


@pytest.mark.parametrize("cls, name, enum_cls, fmt", _ENUM_CASES,
                         ids=lambda value: getattr(value, "__name__",
                                                   str(value)))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_unknown_enum_code_fails_alike(cls, name, enum_cls, fmt, data):
    body = dataclasses.replace(data.draw(_body_strategy(cls)),
                               **{name: _unknown_code(enum_cls, fmt)})
    payload = _payload(body)
    assert payload == oracle.encode(body)
    assert _fails_alike(cls, payload,
                        oracle.header_values(body)) is ValueError


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if any(
    hint is str for hint in typing.get_type_hints(cls).values())],
    ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_invalid_utf8_fails_alike(cls, data):
    marker = "\x07utf8-marker\x07"
    hints = typing.get_type_hints(cls)
    body = data.draw(_body_strategy(cls))
    for field in dataclasses.fields(cls):
        if hints[field.name] is str:
            body = dataclasses.replace(body, **{field.name: marker})
            break
    payload = _payload(body)
    raw = marker.encode()
    assert payload.count(raw) == 1
    bad = payload.replace(raw, b"\xff" * len(raw))
    assert _fails_alike(cls, bad,
                        oracle.header_values(body)) is UnicodeDecodeError


def _item(name: bytes, tag: int, value: bytes) -> bytes:
    return struct.pack("<I", len(name)) + name + bytes([tag]) + value


@pytest.mark.parametrize("payload", [
    # An unknown value tag, after a good item and alone.
    struct.pack("<I", 2) + _item(b"ok", 0, struct.pack("<q", 5))
    + _item(b"bad", 8, b""),
    struct.pack("<I", 1) + _item(b"x", 255, b"\x00" * 8),
    # Invalid UTF-8 in a name and in a string value.
    struct.pack("<I", 1) + _item(b"\xff\xfe", 0, struct.pack("<q", 1)),
    struct.pack("<I", 1) + _item(b"s", 1, struct.pack("<I", 2) + b"\xc3("),
    # A string value whose length runs past the payload.
    struct.pack("<I", 1) + _item(b"s", 1, struct.pack("<I", 9) + b"ab"),
    # More items counted than present.
    struct.pack("<I", 3) + _item(b"a", 2, b"\x01"),
    # Invalid UTF-8 in a string list.
    struct.pack("<I", 1) + _item(b"l", 6, struct.pack("<II", 1, 1)
                                 + b"\x80"),
])
def test_malformed_lists_fail_alike(payload):
    _fails_alike(AttributeList, payload)


@pytest.mark.parametrize("cls, payload", [
    (ChangeProperty, struct.pack("<II", 7, 1) + b"p" + bytes([8])),
    (ChangeProperty, struct.pack("<II", 7, 1) + b"p" + bytes([1])
     + struct.pack("<I", 1) + b"\xfe"),
    (GetPropertyReply, b"\x01" + bytes([200]) + bytes(8)),
    (GetPropertyReply, b"\x01" + bytes([7]) + struct.pack("<I", 5) + b"ab"),
])
def test_malformed_value_fields_fail_alike(cls, payload):
    _fails_alike(cls, payload)


def test_unknown_event_code_fails_alike():
    message = Event(EventCode.COMMAND_DONE, 1).encode()
    unknown = max(int(code) for code in EventCode) + 1
    bad = Message(MessageKind.EVENT, unknown, 0, message.payload)
    for decoder in (Event.decode, _walked_event):
        with pytest.raises(WireFormatError):
            decoder(bad)


def test_undeclarable_field_fails_when_the_plan_is_built():
    @dataclasses.dataclass
    class Throwaway:
        resource: U32
        value: AttrValue | None

    with pytest.raises(TypeError, match=r"Throwaway\.value: .*wire kind"):
        codec.plan(Throwaway)
