"""The kind walk: the body codec ``repro.protocol.codec`` used before it
emitted straight-line code per class, kept as the oracle the emitted
codec is checked against (tests/test_codec_oracle.py).

Each declared field kind becomes a put/take closure pair over
:class:`Writer`/:class:`Reader`; a run of consecutive fixed-width fields
moves with one struct; an attribute value goes through a tag -> kind
table; an attribute list is a dict of (name, tagged value).  Built only
on the declarations and the primitive marshalling in ``wire``, so it
shares no marshalling code with the emitted codec.  The two hand-written
bodies are walked as they were: ``GetPropertyReply`` as a presence flag
then a tagged value, ``HistogramStat`` by its own methods.

Imported as ``tests.codec_oracle`` with the repository root on the
import path (pyproject's pytest ``pythonpath``).
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

from repro.protocol.attributes import (
    AttributeList,
    AttrValue,
    ValueType,
    value_type,
)
from repro.protocol.codec import HEADER, JSON
from repro.protocol.requests import GetPropertyReply, HistogramStat
from repro.protocol.types import SoundType
from repro.protocol.wire import Reader, Writer


class Kind:
    """One wire kind as the walk saw it: put/take, and for fixed-width
    kinds a struct format character and a raw-value converter."""

    __slots__ = ("name", "put", "take", "fmt", "convert")

    def __init__(self, name, put, take, fmt=None, convert=None) -> None:
        self.name = name
        self.put = put
        self.take = take
        self.fmt = fmt
        self.convert = convert


_WIDTHS = {name: Kind(name, getattr(Writer, name), getattr(Reader, name),
                      fmt)
           for name, fmt in (("u8", "B"), ("u16", "H"), ("u32", "I"),
                             ("u64", "Q"), ("i32", "i"), ("i64", "q"))}
_PLAIN = {
    bool: Kind("bool", Writer.boolean, Reader.boolean, "?"),
    float: Kind("f64", Writer.f64, Reader.f64, "d"),
    str: Kind("string", Writer.string, Reader.string),
    bytes: Kind("blob", Writer.blob, Reader.blob),
}
_JSON = Kind("json",
             lambda writer, value: writer.string(
                 json.dumps(value) if value else ""),
             lambda reader: json.loads(reader.string() or "{}"))


def _list_of(item: Kind) -> Kind:
    def put(writer, values) -> None:
        writer.u32(len(values))
        for value in values:
            item.put(writer, value)

    def take(reader) -> list:
        return [item.take(reader) for _ in range(reader.u32())]

    return Kind("list", put, take)


def _dict_of(key: Kind, item: Kind) -> Kind:
    def put(writer, mapping) -> None:
        writer.u32(len(mapping))
        for name, value in mapping.items():
            key.put(writer, name)
            item.put(writer, value)

    def take(reader) -> dict:
        mapping = {}
        for _ in range(reader.u32()):
            name = key.take(reader)
            mapping[name] = item.take(reader)
        return mapping

    return Kind("dict", put, take)


def _tuple_of(items: list) -> Kind:
    def put(writer, values) -> None:
        for item, value in zip(items, values):
            item.put(writer, value)

    def take(reader) -> tuple:
        return tuple(item.take(reader) for item in items)

    return Kind("tuple", put, take)


def _optional(inner: Kind) -> Kind:
    def put(writer, value) -> None:
        writer.boolean(value is not None)
        if value is not None:
            inner.put(writer, value)

    def take(reader):
        return inner.take(reader) if reader.boolean() else None

    return Kind("optional", put, take)


def _enum_of(cls: type, width: Kind, open_codes: bool) -> Kind:
    def convert(code: int):
        try:
            return cls(code)
        except ValueError:
            if not open_codes:
                raise
            return code

    return Kind(cls.__name__, width.put,
                lambda reader: convert(width.take(reader)), width.fmt,
                convert)


def _record(cls: type) -> Kind:
    if cls is HistogramStat:
        return Kind(cls.__name__, lambda writer, value:
                    value.write_payload(writer), cls.read_payload)
    return Kind(cls.__name__, lambda writer, value:
                write_fields(value, writer),
                lambda reader: cls(*read_fields(cls, reader)))


def kind_of(hint) -> Kind:
    """The wire kind a resolved field annotation declares."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        base, marker = args[0], args[1]
        if typing.get_origin(marker) is Annotated:
            marker = marker.__metadata__[0]
        if marker is HEADER:
            return HEADER
        if marker is JSON:
            return _JSON
        width = _WIDTHS[marker.name]
        open_codes = int in typing.get_args(base)
        if open_codes:
            (base,) = [arg for arg in typing.get_args(base)
                       if arg is not int]
        if isinstance(base, type) and issubclass(base, enum.Enum):
            return _enum_of(base, width, open_codes)
        return width
    if hint in _PLAIN:
        return _PLAIN[hint]
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


# -- attribute values and lists --------------------------------------------

def _put_value(writer, value) -> None:
    tag = value_type(value)
    writer.u8(tag)
    _VALUE_KINDS[tag].put(writer, value)


def _take_value(reader):
    return _VALUE_KINDS[ValueType(reader.u8())].take(reader)


ATTRIBUTE_VALUE = Kind("attribute value", _put_value, _take_value)
_VALUE_KINDS = {
    ValueType.INTEGER: _WIDTHS["i64"],
    ValueType.STRING: _PLAIN[str],
    ValueType.BOOLEAN: _PLAIN[bool],
    ValueType.FLOAT: _PLAIN[float],
    ValueType.SOUND_TYPE: kind_of(SoundType),
    ValueType.INT_LIST: _list_of(_WIDTHS["i64"]),
    ValueType.STRING_LIST: _list_of(_PLAIN[str]),
    ValueType.BYTES: _PLAIN[bytes],
}
_ITEMS = _dict_of(_PLAIN[str], ATTRIBUTE_VALUE)
ATTRIBUTE_LIST = Kind(
    "attribute list",
    lambda writer, attributes: _ITEMS.put(writer, attributes.items),
    lambda reader: AttributeList(_ITEMS.take(reader)))


# -- bodies ------------------------------------------------------------------

def _fixed_run(kinds: list):
    fmt = struct.Struct("<" + "".join(kind.fmt for kind in kinds))

    def put(writer, values) -> None:
        writer.raw(fmt.pack(*values))

    def take(reader) -> list:
        values = list(fmt.unpack(reader.raw(fmt.size)))
        for index, kind in enumerate(kinds):
            if kind.convert is not None:
                values[index] = kind.convert(values[index])
        return values

    return put, take


@functools.cache
def _plan(cls: type) -> tuple:
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


def write_fields(obj, writer) -> None:
    for get, put in _plan(type(obj))[0]:
        put(writer, get(obj))


def read_fields(cls: type, reader) -> list:
    values = []
    for take, is_run in _plan(cls)[1]:
        if is_run:
            values += take(reader)
        else:
            values.append(take(reader))
    return values


def _put_property(writer, reply) -> None:
    writer.boolean(reply.exists)
    if reply.exists:
        _put_value(writer, reply.value)


def _take_property(reader) -> GetPropertyReply:
    exists = reader.boolean()
    return GetPropertyReply(exists, _take_value(reader) if exists else None)


def _is_header(hint) -> bool:
    return (typing.get_origin(hint) is Annotated
            and hint.__metadata__[0] is HEADER)


def header_values(body) -> list:
    """``body``'s header fields' values, in declaration order."""
    hints = typing.get_type_hints(type(body), include_extras=True)
    return [getattr(body, field.name)
            for field in dataclasses.fields(body)
            if _is_header(hints[field.name])]


def encode(body) -> bytes:
    """``body``'s payload bytes, walked."""
    writer = Writer()
    if isinstance(body, GetPropertyReply):
        _put_property(writer, body)
    else:
        _record(type(body)).put(writer, body)
    return writer.getvalue()


def read_body(cls: type, reader, *headers):
    """Walk a ``cls`` body at ``reader``'s cursor; ``headers`` are the
    header fields' values, as the emitted decoder takes them."""
    if cls is GetPropertyReply:
        return _take_property(reader)
    if not headers:
        return _record(cls).take(reader)
    hints = typing.get_type_hints(cls, include_extras=True)
    fields, headers = iter(read_fields(cls, reader)), iter(headers)
    return cls(*[next(headers if _is_header(hints[field.name]) else fields)
                 for field in dataclasses.fields(cls)])
