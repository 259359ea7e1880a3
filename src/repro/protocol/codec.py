"""The declarative body codec.

Every message body -- request, reply, event, error, and the records
nested in them -- is a dataclass whose field annotations declare each
field's wire kind.  :func:`plan` reads those declarations once per class
and writes that class's encoder and decoder as Python source, the way
the stdlib ``dataclasses`` module writes ``__init__``: straight-line
code, so a body's layout is written down exactly once and no per-field
dispatch runs when it moves.

The kinds, by annotation:

* ``U8``/``U16``/``U32``/``U64``/``I32``/``I64`` (:mod:`.wire`), and plain
  ``bool``, ``float`` (f64), ``str`` (u32-length UTF-8), ``bytes``
  (u32-length blob);
* ``Annotated[SomeEnum, U8]`` -- an enum carried at that width; with
  ``SomeEnum | int`` an unknown code decodes to the raw integer instead
  of failing (extension device classes);
* a dataclass -- a nested record, its own fields in order (``SoundType``;
  :class:`~.attributes.AttributeList` is one, a ``dict[str, AttrValue]``);
  ``X | None`` -- a bool presence flag, then ``X`` if present;
* :data:`~.attributes.AttrValue` -- a u8 :class:`~.attributes.ValueType`,
  then the value in that tag's :data:`~.attributes.VALUE_LAYOUTS` layout;
* ``list[X]``, ``dict[K, V]`` -- a u32 count, then the items (key, value);
  ``tuple[X, Y, ...]`` -- the items in order, no count;
* ``Annotated[dict, JSON]`` -- one JSON string, empty for an empty dict;
* ``Annotated[X, HEADER]`` -- carried in the message header, not the body.

Each run of fixed-width values -- integers, enums, bools, floats, and
the u32 lengths, counts and presence flags among them -- moves with one
``struct`` call; strings and blobs are sliced and joined inline; a
nested record calls its own class's pair.  The source is built only
from the classes' field names and declared kinds: structs and
converters are bound through the exec namespace, never written into it.

A body whose layout depends on another field's value overrides
``write_payload``/``read_payload`` by hand (``HistogramStat``,
``GetPropertyReply``).  The decoders never check for trailing bytes;
callers that want that call ``Reader.expect_end`` themselves.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import itertools
import json
import struct
import types
import typing
from typing import Annotated, Callable, NamedTuple, Union

from .attributes import VALUE_LAYOUTS, AttrValue, value_type
from .wire import Kind, Reader, WireFormatError, Writer

#: Marks a field the message header carries (an event's code, an
#: error's sequence number): the body codec skips it.
HEADER = Kind("header")
#: A JSON-encoded dict travelling as one string.
JSON = Kind("json")

#: Format characters of the plain annotations of fixed width.
_PLAIN_FORMATS = {bool: "?", float: "d"}


def _json_text(value: dict) -> str:
    return json.dumps(value) if value else ""


def _json_value(text: str) -> dict:
    return json.loads(text) if text else {}


def _enum_converter(cls: type, open_codes: bool):
    """Wire code -> ``cls`` member; with ``open_codes`` an unknown code
    stays a raw integer instead of raising ``ValueError``."""
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

    return convert


def _truncated(data: bytes, pos: int) -> WireFormatError:
    return WireFormatError("truncated payload: field at offset %d runs "
                           "past its end (%d bytes)" % (pos, len(data)))


def _unknown_tag(tag: int):
    raise ValueError("unknown attribute value tag %d" % tag)


def _shape(hint) -> tuple:
    """What a resolved annotation declares: ``(shape, detail)``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        base, kind = args[0], args[1]
        if typing.get_origin(kind) is Annotated:    # an alias such as U8
            kind = kind.__metadata__[0]
        if kind is JSON:
            return "json", None
        codes = [arg for arg in typing.get_args(base) if arg is not int]
        open_codes = len(codes) == 1 and int in typing.get_args(base)
        if open_codes:
            base = codes[0]
        fmt = getattr(kind, "fmt", None)
        if fmt and isinstance(base, type) and issubclass(base, enum.Enum):
            return "fixed", (fmt, _enum_converter(base, open_codes))
        if fmt and base is int:
            return "fixed", (fmt, None)
    elif hint in _PLAIN_FORMATS:
        return "fixed", (_PLAIN_FORMATS[hint], None)
    elif hint is str or hint is bytes:
        return hint.__name__, None
    elif hint == AttrValue:
        return "value", None
    elif origin in (Union, types.UnionType):
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) == 1 and len(args) == 2:
            return "optional", inner[0]
    elif origin in (list, dict, tuple):
        return origin.__name__, args
    elif dataclasses.is_dataclass(hint):
        return "record", hint
    raise TypeError("no wire kind declared for %r" % (hint,))


class _Lines:
    """One emitted function's statements, and its pending run of
    fixed-width values, which one struct moves."""

    def __init__(self, bind, depth: int) -> None:
        self.bind = bind
        self.depth = depth
        self.lines: list[str] = []
        self.run: list[tuple] = []      # (format character, name, ...)

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def struct(self) -> tuple[str, int]:
        fmt = struct.Struct("<" + "".join(item[0] for item in self.run))
        return self.bind(fmt), fmt.size

    @contextlib.contextmanager
    def block(self, header: str):
        self.flush()
        self.line(header)
        self.depth += 1
        yield
        self.flush()
        self.depth -= 1


class _Encoder(_Lines):
    """Writes the body's bytes in wire order.  With no loop or condition
    the function returns their concatenation; otherwise each piece is
    appended to ``_parts`` as it is made."""

    def __init__(self, bind) -> None:
        super().__init__(bind, 1)
        self.pieces: list[str] = []     # bytes expressions not yet added
        self.appends = False

    def piece(self, expr: str | None = None) -> None:
        """Close the pending run; then bytes ``expr`` follow."""
        if self.run:
            fmt, _ = self.struct()
            self.pieces.append("%s.pack(%s)" % (
                fmt, ", ".join(expr for _, expr in self.run)))
            self.run = []
        if expr is not None:
            self.pieces.append(expr)

    def flush(self) -> None:
        self.piece()
        if self.pieces:
            self.line("_add(%s)" % " + ".join(self.pieces))
        self.pieces, self.appends = [], True

    def body(self) -> list[str]:
        self.piece()
        if not self.appends:
            return self.lines + ["    return " + (" + ".join(self.pieces)
                                                  or "b''")]
        self.flush()
        return ["    _parts = []", "    _add = _parts.append", *self.lines,
                "    return _join(_parts)"]


class _Decoder(_Lines):
    """Reads the body at ``_pos`` in ``_data``: one ``unpack_from`` per
    run, then the run's enum conversions."""

    def __init__(self, bind) -> None:
        super().__init__(bind, 2)       # inside the function's try

    def line(self, text: str) -> None:
        self.flush()
        super().line(text)

    def flush(self) -> None:
        if not self.run:
            return
        (fmt, size), run, self.run = self.struct(), self.run, []
        self.line("%s, = %s.unpack_from(_data, _pos)" % (
            ", ".join(name for _, name, _ in run), fmt))
        self.line("_pos += %d" % size)
        for _, name, convert in run:
            if convert is not None:
                self.line("%s = %s(%s)" % (name, self.bind(convert), name))

    def body(self, result: str) -> list[str]:
        self.flush()
        return ["    _size = _len(_data)", "    try:",
                *(self.lines or ["        pass"]),
                "    except _error:",
                "        raise _truncated(_data, _pos) from None",
                "    return %s, _pos" % result]


class _Pair:
    """Emits an encoder and its decoder side by side, field by field.
    Each field is a local name: the encoder writes its value, and the
    decoder leaves the value it reads in it."""

    def __init__(self) -> None:
        self.constants: dict = {}
        self.enc, self.dec = _Encoder(self.bind), _Decoder(self.bind)
        self.temps = itertools.count()

    def bind(self, value) -> str:
        """The name ``value`` has in the exec namespace."""
        name = "_k%d" % len(self.constants)
        self.constants[name] = value
        return name

    def temp(self) -> str:
        return "_t%d" % next(self.temps)

    def field(self, name: str, hint) -> None:
        enc, dec = self.enc, self.dec
        shape, detail = _shape(hint)
        if shape == "fixed":
            enc.run.append((detail[0], name))
            dec.run.append((detail[0], name, detail[1]))
        elif shape in ("str", "bytes", "json"):
            raw, text, length = name, name, self.temp()
            if shape == "json":
                text = "%s(%s)" % (self.bind(_json_text), name)
            if shape != "bytes":
                raw = self.temp()
                enc.line("%s = %s.encode('utf-8')" % (raw, text))
            enc.run.append(("I", "_len(%s)" % raw))
            enc.piece(raw)
            dec.run.append(("I", length, None))
            dec.line("_end = _pos + %s" % length)
            dec.line("if _end > _size: raise _error")
            value = "_data[_pos:_end]"
            if shape != "bytes":
                value = "_str(%s, 'utf-8')" % value
            if shape == "json":
                value = "%s(%s)" % (self.bind(_json_value), value)
            dec.line("%s = %s" % (name, value))
            dec.line("_pos = _end")
        elif shape == "value":
            self.value(name)
        elif shape == "record":
            other = plan(detail)
            enc.piece("%s(%s)" % (self.bind(other.encode), name))
            dec.line("%s, _pos = %s(_data, _pos)" % (name,
                                                     self.bind(other.take)))
        elif shape == "optional":
            present = self.temp()
            enc.run.append(("?", "%s is not None" % name))
            dec.run.append(("?", present, None))
            dec.line("%s = None" % name)
            with enc.block("if %s is not None:" % name), \
                    dec.block("if %s:" % present):
                self.field(name, detail)
        elif shape in ("list", "dict"):
            count, key, item = self.temp(), self.temp(), self.temp()
            enc.run.append(("I", "_len(%s)" % name))
            dec.run.append(("I", count, None))
            dec.line("%s = %s" % (name, "[]" if shape == "list" else "{}"))
            loop = ("for %s in %s:" % (item, name) if shape == "list" else
                    "for %s, %s in %s.items():" % (key, item, name))
            with enc.block(loop), dec.block("for _ in _range(%s):" % count):
                if shape == "dict":
                    self.field(key, detail[0])
                self.field(item, detail[-1])
                dec.line("%s.append(%s)" % (name, item) if shape == "list"
                         else "%s[%s] = %s" % (name, key, item))
        else:   # a tuple
            items = [self.temp() for _ in detail]
            enc.line("%s, = %s" % (", ".join(items), name))
            for item, arg in zip(items, detail):
                self.field(item, arg)
            dec.line("%s = (%s,)" % (name, ", ".join(items)))

    def value(self, name: str) -> None:
        """An attribute value: its u8 tag, then that tag's layout."""
        enc, dec = self.enc, self.dec
        tag = self.temp()
        enc.line("%s = %s(%s)" % (tag, self.bind(value_type), name))
        dec.run.append(("B", tag, None))
        for index, (code, hint) in enumerate(VALUE_LAYOUTS.items()):
            test = "%s %s %%s %s:" % ("elif" if index else "if", tag,
                                      self.bind(code))
            with enc.block(test % "is"), dec.block(test % "=="):
                enc.run.append(("B", tag))
                self.field(name, hint)
        with dec.block("else:"):
            dec.line("%s(%s)" % (self.bind(_unknown_tag), tag))

    def compile(self, params: list, headers: list, result: str,
                *more: str) -> dict:
        """Exec ``_put(*params)`` and ``_take(_data, _pos, *headers)``
        (which returns ``(result, _pos)``), and any ``more`` source."""
        source = ["def _put(%s):" % ", ".join(params), *self.enc.body(),
                  "def _take(%s):" % ", ".join(["_data", "_pos", *headers]),
                  *self.dec.body(result), *more]
        namespace = {"_len": len, "_str": str, "_range": range,
                     "_join": b"".join, "_error": struct.error,
                     "_truncated": _truncated, **self.constants}
        exec("\n".join(source), namespace)
        return namespace


class Plan(NamedTuple):
    """One body class's emitted codec."""

    #: The body's field values (header fields left out) -> its bytes.
    put: Callable | None
    #: A body -> its bytes.
    encode: Callable
    #: ``(data, pos, *header field values) -> (body, pos after it)``.
    take: Callable


def _written(body) -> bytes:
    writer = Writer()
    body.write_payload(writer)
    return writer.getvalue()


def _read_by_hand(cls: type, data: bytes, pos: int) -> tuple:
    reader = Reader(data)
    reader._pos = pos
    return cls.read_payload(reader), reader._pos


@functools.cache
def plan(cls: type) -> Plan:
    """``cls``'s codec, emitted from its declarations on first use; a
    body with its own ``write_payload``/``read_payload`` keeps them.

    Raises ``TypeError`` naming ``Class.field`` for a field whose
    annotation declares no wire kind.
    """
    if getattr(cls, "write_payload", Body.write_payload) \
            is not Body.write_payload:
        return Plan(None, _written, functools.partial(_read_by_hand, cls))
    pair = _Pair()
    hints = typing.get_type_hints(cls, include_extras=True)
    params, headers, getters = [], [], []
    for index, field in enumerate(dataclasses.fields(cls)):
        name, hint = "_f%d" % index, hints[field.name]
        if typing.get_origin(hint) is Annotated \
                and HEADER in hint.__metadata__:
            headers.append(name)
            continue
        params.append(name)
        getters.append("_body." + field.name)
        try:
            pair.field(name, hint)
        except TypeError as exc:
            raise TypeError("%s.%s: %s" % (cls.__name__, field.name,
                                           exc)) from None
    namespace = pair.compile(
        params, headers, "%s(%s)" % (pair.bind(cls), ", ".join(
            "_f%d" % index for index in range(len(params) + len(headers)))),
        "def _encode(_body):", "    return _put(%s)" % ", ".join(getters))
    return Plan(namespace["_put"], namespace["_encode"], namespace["_take"])


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
    """Base of every body dataclass: its :func:`plan` marshals it."""

    def encode(self) -> bytes:
        return plan(type(self)).encode(self)

    def write_payload(self, writer: Writer) -> None:
        writer.raw(self.encode())

    @classmethod
    def read_payload(cls, reader: Reader):
        return reader.parse(plan(cls).take)


def _value_pair() -> tuple:
    pair = _Pair()
    pair.field("_value", AttrValue)
    namespace = pair.compile(["_value"], [], "_value")
    return namespace["_put"], namespace["_take"]


#: ``value_bytes(value) -> bytes`` and ``take_value(data, pos) ->
#: (value, pos after it)``: one attribute value, as an ``AttrValue``
#: field carries it (``GetPropertyReply`` marshals its value with them).
value_bytes, take_value = _value_pair()
