"""The straight-line attribute-list and event codec against the kind walk.

``tests/codec_oracle.py`` keeps the walker the codec used before.  On
random attribute lists of every value type (int64 edges, non-ASCII
names, empty lists) and random events with and without arguments, both
codecs must write identical bytes, read them back to equal values, and
fail the same way on every truncation, an unknown value tag and invalid
UTF-8.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tests import codec_oracle as oracle

from repro.protocol import codec
from repro.protocol.attributes import AttributeList
from repro.protocol.events import Event
from repro.protocol.types import Encoding, EventCode, SoundType
from repro.protocol.wire import (
    Message,
    MessageKind,
    Reader,
    WireFormatError,
    Writer,
)

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


def _outcome(parse, payload: bytes):
    """What ``parse`` makes of ``payload``: a value or an error class."""
    try:
        return parse(payload)
    except Exception as exc:    # the class is what is compared
        return type(exc)


def _new_list(payload: bytes):
    return codec.ATTRIBUTE_LIST.take(Reader(payload))


def _old_list(payload: bytes):
    return oracle.take_attributes(Reader(payload))


def _list_bytes(attributes: AttributeList) -> tuple[bytes, bytes]:
    new, old = Writer(), Writer()
    codec.ATTRIBUTE_LIST.put(new, attributes)
    oracle.put_attributes(old, attributes)
    return new.getvalue(), old.getvalue()


def _fails_alike(payload: bytes) -> None:
    """Both codecs raise the same class raw and WireFormatError through
    the decode policy."""
    assert _outcome(_new_list, payload) == _outcome(_old_list, payload)
    for take in (codec.ATTRIBUTE_LIST.take, oracle.take_attributes):
        with pytest.raises(WireFormatError):
            codec.decode(take, payload, "attributes")


@given(ATTRIBUTES)
@example(AttributeList())
@example(AttributeList({"né": -2**63, "": 2**63 - 1, "flag": True}))
@settings(max_examples=300, deadline=None)
def test_attribute_lists_match_the_kind_walk(attributes):
    new, old = _list_bytes(attributes)
    assert new == old
    assert _new_list(new) == attributes == _old_list(old)
    for cut in range(len(new)):
        _fails_alike(new[:cut])


@given(EVENT)
@settings(max_examples=300, deadline=None)
def test_events_match_the_kind_walk(event):
    message = event.encode()
    assert message == oracle.encode_event(event)
    assert Event.decode(message) == event == oracle.decode_event(message)
    for cut in range(len(message.payload)):
        short = Message(MessageKind.EVENT, message.code, message.sequence,
                        message.payload[:cut])
        for decoder in (Event.decode, oracle.decode_event):
            with pytest.raises(WireFormatError):
                decoder(short)


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
])
def test_malformed_lists_fail_alike(payload):
    _fails_alike(payload)


def test_unknown_event_code_fails_alike():
    message = Event(EventCode.COMMAND_DONE, 1).encode()
    unknown = max(int(code) for code in EventCode) + 1
    bad = Message(MessageKind.EVENT, unknown, 0, message.payload)
    for decoder in (Event.decode, oracle.decode_event):
        with pytest.raises(WireFormatError):
            decoder(bad)
