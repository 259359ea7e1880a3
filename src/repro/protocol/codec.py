"""The declarative body codec.

Every message body -- request, reply, event, error, and the records
nested in them -- is a dataclass whose field annotations declare each
field's wire kind.  This module reads those declarations once per class
and walks them: one encoder and one decoder for the whole protocol, so a
body's layout is written down exactly once.

The kinds, by annotation:

* ``U8``/``U16``/``U32``/``U64``/``I32``/``I64`` (:mod:`.wire`), and plain
  ``bool``, ``float`` (f64), ``str`` (u32-length UTF-8), ``bytes``
  (u32-length blob);
* ``Annotated[SomeEnum, U8]`` -- an enum carried at that width; with
  ``SomeEnum | int`` an unknown code decodes to the raw integer instead
  of failing (extension device classes);
* a dataclass -- a nested record, its own fields in order (``SoundType``);
  ``X | None`` -- a bool presence flag, then ``X`` if present;
* :class:`~.attributes.AttributeList` and :data:`~.attributes.AttrValue`
  (a type-tagged attribute value);
* ``list[X]``, ``dict[K, V]`` -- a u32 count, then the items (key, value);
  ``tuple[X, Y, ...]`` -- the items in order, no count;
* ``Annotated[dict, JSON]`` -- one JSON string, empty for an empty dict;
* ``Annotated[X, HEADER]`` -- carried in the message header, not the body.

Each run of consecutive fixed-width fields (integers, enums, bools,
floats) moves with one ``struct`` call, which keeps the generic walk as
fast as the hand-written code it replaced.  The attribute list and the
event body, which every event and command carries, are marshalled
straight-line instead (:func:`attribute_bytes`, :func:`event_bytes`).

A body whose layout depends on another field's value overrides
``write_payload``/``read_payload`` by hand (``HistogramStat``,
``GetPropertyReply``).  The decoders never check for trailing bytes;
callers that want that call ``Reader.expect_end`` themselves.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import struct
import types
import typing
from operator import attrgetter
from typing import Annotated, Union

from .attributes import AttributeList, AttrValue, ValueType, value_type
from .types import SoundType
from .wire import (
    I64,
    PLAIN_KINDS,
    Kind,
    Reader,
    WireFormatError,
    Writer,
)

#: Marks a field the message header carries (an event's code, an
#: error's sequence number): the body codec skips it.
HEADER = Kind("header", None, None)


def _put_json(writer: Writer, value: dict) -> None:
    writer.string(json.dumps(value) if value else "")


def _take_json(reader: Reader) -> dict:
    text = reader.string()
    return json.loads(text) if text else {}


#: A JSON-encoded dict travelling as one string.
JSON = Kind("json", _put_json, _take_json)


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


def _tuple_of(items: list[Kind]) -> Kind:
    def put(writer: Writer, values: tuple) -> None:
        for item, value in zip(items, values):
            item.put(writer, value)

    def take(reader: Reader) -> tuple:
        return tuple(item.take(reader) for item in items)

    return Kind("tuple", put, take)


def _optional(inner: Kind) -> Kind:
    def put(writer: Writer, value) -> None:
        writer.boolean(value is not None)
        if value is not None:
            inner.put(writer, value)

    def take(reader: Reader):
        return inner.take(reader) if reader.boolean() else None

    return Kind("optional[%s]" % inner.name, put, take)


def _enum_of(cls: type, width: Kind, open_codes: bool) -> Kind:
    members = {member.value: member for member in cls}

    def convert(code: int):
        member = members.get(code)
        if member is None:
            try:
                member = cls(code)      # an IntFlag combination
            except ValueError:
                if not open_codes:
                    raise
                member = code
        return member

    take_code = width.take
    return Kind("%s:%s" % (cls.__name__, width.name), width.put,
                lambda reader: convert(take_code(reader)), width.fmt,
                convert)


def _record(cls: type) -> Kind:
    if issubclass(cls, Body):
        return Kind(cls.__name__, lambda writer, value:
                    value.write_payload(writer), cls.read_payload)
    return Kind(cls.__name__, lambda writer, value:
                write_fields(value, writer),
                lambda reader: cls(*read_fields(cls, reader)))


def _metadata_kind(marker) -> Kind:
    """The kind an ``Annotated`` marker names (a Kind, or an alias such
    as ``U8`` wrapping one)."""
    if typing.get_origin(marker) is Annotated:
        marker = marker.__metadata__[0]
    if not isinstance(marker, Kind):
        raise TypeError("%r is not a wire kind" % (marker,))
    return marker


def kind_of(hint) -> Kind:
    """The wire kind a resolved field annotation declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        base, kind = args[0], _metadata_kind(args[1])
        if kind is HEADER:
            return HEADER
        base_args = typing.get_args(base)
        open_codes = int in base_args
        if open_codes:
            (base,) = [arg for arg in base_args if arg is not int]
        if isinstance(base, type) and issubclass(base, enum.Enum):
            return _enum_of(base, kind, open_codes)
        return kind
    if hint in PLAIN_KINDS:
        return PLAIN_KINDS[hint]
    if hint is AttributeList:
        return ATTRIBUTE_LIST
    if hint == AttrValue:
        return ATTRIBUTE_VALUE
    if origin in (Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _optional(kind_of(inner))
    if origin is list:
        return _list_of(kind_of(args[0]))
    if origin is dict:
        return _dict_of(kind_of(args[0]), kind_of(args[1]))
    if origin is tuple:
        return _tuple_of([kind_of(arg) for arg in args])
    if dataclasses.is_dataclass(hint):
        return _record(hint)
    raise TypeError("no wire kind declared for %r" % (hint,))


# -- attribute values -------------------------------------------------------

def _put_value(writer: Writer, value) -> None:
    tag = value_type(value)
    writer.u8(tag)
    _VALUE_KINDS[tag].put(writer, value)


def _take_value(reader: Reader):
    return _VALUE_KINDS[ValueType(reader.u8())].take(reader)


#: One type-tagged attribute value: a u8 :class:`ValueType`, then the
#: value in that type's kind.
ATTRIBUTE_VALUE = Kind("attribute value", _put_value, _take_value)

# An attribute list is a u32 count of (name, tagged value) pairs.  Events
# and command arguments carry one on every message, so it is marshalled
# straight-line rather than by the kind walk: the encoded names are
# cached, integers and strings are packed and parsed inline, and every
# other value goes through ATTRIBUTE_VALUE.

_U32 = struct.Struct("<I")
_TAG_I64 = struct.Struct("<Bq")
_TAG_U32 = struct.Struct("<BI")
_I64 = struct.Struct("<q")
_INTEGER, _STRING = int(ValueType.INTEGER), int(ValueType.STRING)
#: name -> its encoded u32 length and UTF-8 bytes.  Names come from a
#: small well-known set; the bound keeps client-chosen ones from
#: growing it without limit.
_NAMES: dict[str, bytes] = {}
_NAMES_BOUND = 512


def _name_bytes(name: str) -> bytes:
    raw = name.encode("utf-8")
    encoded = _U32.pack(len(raw)) + raw
    if len(_NAMES) < _NAMES_BOUND:
        _NAMES[name] = encoded
    return encoded


def attribute_bytes(items: dict) -> bytes:
    """The wire form of an attribute list's ``items``."""
    parts = [_U32.pack(len(items))]
    append = parts.append
    for name, value in items.items():
        append(_NAMES.get(name) or _name_bytes(name))
        kind = type(value)
        if kind is int:
            append(_TAG_I64.pack(_INTEGER, value))
        elif kind is str:
            raw = value.encode("utf-8")
            append(_TAG_U32.pack(_STRING, len(raw)))
            append(raw)
        else:
            writer = Writer()
            _put_value(writer, value)
            append(writer.getvalue())
    return b"".join(parts)


def take_attributes(reader: Reader) -> AttributeList:
    """Parse one attribute list at ``reader``'s cursor.

    Fails as the kind walk does: truncation raises
    :class:`WireFormatError`, an unknown tag ``ValueError`` and invalid
    UTF-8 ``UnicodeDecodeError`` (which :func:`decode` turns into
    WireFormatError).
    """
    data, pos = reader._data, reader._pos
    size = len(data)
    items = {}
    try:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        for _ in range(count):
            (length,) = _U32.unpack_from(data, pos)
            pos += 4
            end = pos + length
            if end > size:
                raise IndexError
            name = str(data[pos:end], "utf-8")
            tag = data[end]
            pos = end + 1
            if tag == _INTEGER:
                (value,) = _I64.unpack_from(data, pos)
                pos += 8
            elif tag == _STRING:
                (length,) = _U32.unpack_from(data, pos)
                pos += 4
                end = pos + length
                if end > size:
                    raise IndexError
                value = str(data[pos:end], "utf-8")
                pos = end
            else:
                reader._pos = pos
                value = _VALUE_KINDS[ValueType(tag)].take(reader)
                pos = reader._pos
            items[name] = value
    except (struct.error, IndexError):
        raise WireFormatError(
            "truncated payload: attribute list ends at offset %d of %d"
            % (pos, size)) from None
    reader._pos = pos
    return AttributeList(items)


#: An attribute list: a u32 count of (name, tagged value) pairs.
ATTRIBUTE_LIST = Kind(
    "attribute list",
    lambda writer, attributes: writer.raw(attribute_bytes(attributes.items)),
    take_attributes)

_NO_ITEMS = _U32.pack(0)
#: An event body's fixed run: resource u32, detail i32, sample time u64;
#: its attribute list follows (:class:`~.events.Event`).
_EVENT_FIXED = struct.Struct("<IiQ")


def event_bytes(resource: int, detail: int, sample_time: int,
                attributes: AttributeList | None) -> bytes:
    """An event body, straight-line: one struct, then the list (an
    empty one for None)."""
    return _EVENT_FIXED.pack(resource, detail, sample_time) + (
        attribute_bytes(attributes.items) if attributes else _NO_ITEMS)


def take_event_fields(reader: Reader) -> tuple:
    """``(resource, detail, sample_time, args)`` of an event body."""
    resource, detail, sample_time = reader.unpack(_EVENT_FIXED)
    return resource, detail, sample_time, take_attributes(reader)


# -- bodies -----------------------------------------------------------------

def _fixed_run(kinds: list[Kind]):
    """Put and take for consecutive fixed-width fields: one struct."""
    fmt = struct.Struct("<" + "".join(kind.fmt for kind in kinds))
    converts = [(index, kind.convert) for index, kind in enumerate(kinds)
                if kind.convert is not None]

    def put(writer: Writer, values: tuple) -> None:
        writer.pack(fmt, values)

    def take(reader: Reader):
        values = reader.unpack(fmt)
        if converts:
            values = list(values)
            for index, convert in converts:
                values[index] = convert(values[index])
        return values

    return put, take


@functools.cache
def _plan(cls: type) -> tuple[tuple, tuple]:
    """``cls``'s marshalling plan, read off its declarations once:
    ``((getter, put), ...)`` and ``((take, is_run), ...)``.  A run of
    fixed-width fields is one step; its getter returns a tuple and its
    take a sequence of values."""
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = [(field.name, kind_of(hints[field.name]))
              for field in dataclasses.fields(cls)]
    puts, takes = [], []
    for fixed, group in itertools.groupby(
            [(name, kind) for name, kind in fields if kind is not HEADER],
            key=lambda field: field[1].fmt is not None):
        group = list(group)
        if fixed and len(group) > 1:
            put, take = _fixed_run([kind for _, kind in group])
            puts.append((attrgetter(*[name for name, _ in group]), put))
            takes.append((take, True))
        else:
            puts += [(attrgetter(name), kind.put) for name, kind in group]
            takes += [(kind.take, False) for _, kind in group]
    return tuple(puts), tuple(takes)


def write_fields(obj, writer: Writer) -> None:
    """Marshal ``obj``'s body fields in declaration order."""
    for get, put in _plan(type(obj))[0]:
        put(writer, get(obj))


def read_fields(cls: type, reader: Reader) -> list:
    """Unmarshal ``cls``'s body fields, in declaration order."""
    values = []
    for take, is_run in _plan(cls)[1]:
        if is_run:
            values += take(reader)
        else:
            values.append(take(reader))
    return values


def decode(parse, payload: bytes, what: str):
    """The one decode policy: run ``parse`` over a :class:`Reader` on
    ``payload`` and turn every decoder failure -- bad enum values,
    out-of-range integers, invalid UTF-8 or JSON -- into
    :class:`WireFormatError` (truncation already is one).  ``what``
    names the body in the error text."""
    try:
        return parse(Reader(payload))
    except WireFormatError:
        raise
    except (ValueError, OverflowError) as exc:
        raise WireFormatError("malformed %s payload: %s"
                              % (what, exc)) from exc


class Body:
    """Base of every body dataclass: marshalling walks its declarations."""

    write_payload = write_fields

    @classmethod
    def read_payload(cls, reader: Reader):
        return cls(*read_fields(cls, reader))

    def encode(self) -> bytes:
        writer = Writer()
        self.write_payload(writer)
        return writer.getvalue()


_INT64 = kind_of(I64)
#: The kind each attribute value type travels as.
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
