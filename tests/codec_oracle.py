"""The kind-walk attribute-list and event codec: the oracle the
straight-line codec in ``repro.protocol.codec`` is checked against.

This is the walker ``ATTRIBUTE_LIST`` and ``Event`` used before the
attribute list and the event body were marshalled straight-line: a
per-item kind closure, ``value_type``'s isinstance chain, per-name UTF-8
encoding and the ``ValueType``/``EventCode`` enum calls.
tests/test_codec_oracle.py imports it as ``tests.codec_oracle`` with the
repository root on the import path (pyproject's pytest ``pythonpath``).
"""

from __future__ import annotations

import struct

from repro.protocol.attributes import AttributeList, ValueType, value_type
from repro.protocol.codec import decode, kind_of
from repro.protocol.events import Event
from repro.protocol.types import EventCode, SoundType
from repro.protocol.wire import (
    I64,
    PLAIN_KINDS,
    Kind,
    Message,
    MessageKind,
    Reader,
    Writer,
)


def _list_of(item: Kind) -> Kind:
    put_item, take_item = item.put, item.take

    def put(writer: Writer, values) -> None:
        writer.u32(len(values))
        for value in values:
            put_item(writer, value)

    def take(reader: Reader) -> list:
        return [take_item(reader) for _ in range(reader.u32())]

    return Kind("list[%s]" % item.name, put, take)


def _dict_of(key: Kind, item: Kind) -> Kind:
    put_key, take_key = key.put, key.take
    put_item, take_item = item.put, item.take

    def put(writer: Writer, mapping: dict) -> None:
        writer.u32(len(mapping))
        for name, value in mapping.items():
            put_key(writer, name)
            put_item(writer, value)

    def take(reader: Reader) -> dict:
        mapping = {}
        for _ in range(reader.u32()):
            name = take_key(reader)
            mapping[name] = take_item(reader)
        return mapping

    return Kind("dict[%s, %s]" % (key.name, item.name), put, take)


_INT64 = kind_of(I64)
_VALUE_KINDS = {
    ValueType.INTEGER: _INT64,
    ValueType.STRING: PLAIN_KINDS[str],
    ValueType.BOOLEAN: PLAIN_KINDS[bool],
    ValueType.FLOAT: PLAIN_KINDS[float],
    ValueType.SOUND_TYPE: kind_of(SoundType),
    ValueType.INT_LIST: _list_of(_INT64),
    ValueType.STRING_LIST: _list_of(PLAIN_KINDS[str]),
    ValueType.BYTES: PLAIN_KINDS[bytes],
}


def _put_value(writer: Writer, value) -> None:
    tag = value_type(value)
    writer.u8(tag)
    _VALUE_KINDS[tag].put(writer, value)


def _take_value(reader: Reader):
    return _VALUE_KINDS[ValueType(reader.u8())].take(reader)


_ITEMS = _dict_of(PLAIN_KINDS[str], Kind("attribute value", _put_value,
                                         _take_value))


def put_attributes(writer: Writer, attributes: AttributeList) -> None:
    _ITEMS.put(writer, attributes.items)


def take_attributes(reader: Reader) -> AttributeList:
    return AttributeList(_ITEMS.take(reader))


#: The event body's fixed-width run, as the body plan packed it.
_EVENT_RUN = struct.Struct("<IiQ")


def encode_event(event: Event) -> Message:
    writer = Writer()
    writer.pack(_EVENT_RUN, (event.resource, event.detail,
                             event.sample_time))
    put_attributes(writer, event.args)
    return Message(MessageKind.EVENT, int(event.code), event.sequence,
                   writer.getvalue())


def decode_event(message: Message) -> Event:
    def parse(reader: Reader) -> Event:
        code = EventCode(message.code)
        resource, detail, sample_time = reader.unpack(_EVENT_RUN)
        return Event(code, resource, detail, sample_time,
                     take_attributes(reader), message.sequence)

    return decode(parse, message.payload, "event")
