"""Attribute lists.

"To facilitate device-independence, an application specifies the desired
virtual device by a list of attributes.  The attributes can specify a
device either tightly or loosely." (paper section 5.1)

An attribute list is an ordered mapping of well-known (or extension) names
to typed values.  The same representation serves three purposes:

* constraints supplied at CreateVirtualDevice / AugmentVirtualDevice time,
* capability descriptions of physical devices returned by queries,
* the (name, value, type) *properties* attached to LOUDs and sounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .types import SoundType
from .wire import I64, WireFormatError

# ---------------------------------------------------------------------------
# Well-known attribute names
# ---------------------------------------------------------------------------

#: Restrict mapping to the physical device with this device-LOUD id.
ATTR_DEVICE_ID = "device-id"
#: Human-readable device name ("left speaker").
ATTR_NAME = "name"
#: Ambient domain name the device lives in (paper section 5.8).
ATTR_AMBIENT_DOMAIN = "ambient-domain"
#: Request preemptive use of the domain's inputs / outputs.
ATTR_EXCLUSIVE_INPUT = "exclusive-input"
ATTR_EXCLUSIVE_OUTPUT = "exclusive-output"
#: Sound encoding the device must support.
ATTR_ENCODING = "encoding"
ATTR_SAMPLE_RATE = "sample-rate"
ATTR_SAMPLE_SIZE = "sample-size"
#: Recorder capabilities (paper section 5.1's recorder attribute examples).
ATTR_AGC = "agc"
ATTR_PAUSE_COMPRESSION = "pause-compression"
ATTR_PAUSE_DETECTION = "pause-detection"
#: Telephone attributes.
ATTR_PHONE_NUMBER = "phone-number"
ATTR_AREA_CODE = "area-code"
ATTR_LINE_COUNT = "line-count"
ATTR_CALLER_ID = "caller-id"
ATTR_CALL_FORWARD_INFO = "call-forward-info"
ATTR_DIGITAL = "digital"
#: Mixer / crossbar geometry.
ATTR_INPUT_COUNT = "input-count"
ATTR_OUTPUT_COUNT = "output-count"
#: Marks devices that may not be re-wired (hard-wired speakerphone parts).
ATTR_HARD_WIRED = "hard-wired"
#: Number of gain steps an input/output supports.
ATTR_GAIN_RANGE = "gain-range"


class ValueType(enum.IntEnum):
    """Wire tag of an attribute value."""

    INTEGER = 0
    STRING = 1
    BOOLEAN = 2
    FLOAT = 3
    SOUND_TYPE = 4
    INT_LIST = 5
    STRING_LIST = 6
    BYTES = 7


AttrValue = int | str | bool | float | SoundType | list | bytes

#: The layout each tag's value travels in, after its u8 tag
#: (:mod:`repro.protocol.codec` emits the one value codec from it).
VALUE_LAYOUTS = {
    ValueType.INTEGER: I64,
    ValueType.STRING: str,
    ValueType.BOOLEAN: bool,
    ValueType.FLOAT: float,
    ValueType.SOUND_TYPE: SoundType,
    ValueType.INT_LIST: list[I64],
    ValueType.STRING_LIST: list[str],
    ValueType.BYTES: bytes,
}


def value_type(value: AttrValue) -> ValueType:
    """The wire tag ``value`` travels under."""
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return ValueType.BOOLEAN
    if isinstance(value, int):
        return ValueType.INTEGER
    if isinstance(value, str):
        return ValueType.STRING
    if isinstance(value, float):
        return ValueType.FLOAT
    if isinstance(value, SoundType):
        return ValueType.SOUND_TYPE
    if isinstance(value, bytes):
        return ValueType.BYTES
    if isinstance(value, list):
        if all(isinstance(item, int) for item in value):
            return ValueType.INT_LIST
        if all(isinstance(item, str) for item in value):
            return ValueType.STRING_LIST
        raise WireFormatError("attribute lists must be all-int or all-str")
    raise WireFormatError("unsupported attribute value %r" % (value,))


@dataclass
class AttributeList:
    """An ordered name -> typed value mapping (marshalled by
    :mod:`repro.protocol.codec`)."""

    items: dict[str, AttrValue] = field(default_factory=dict)

    def __contains__(self, name: str) -> bool:
        return name in self.items

    def __getitem__(self, name: str) -> AttrValue:
        return self.items[name]

    def __setitem__(self, name: str, value: AttrValue) -> None:
        self.items[name] = value

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def get(self, name: str, default: AttrValue | None = None):
        return self.items.get(name, default)

    def merged_with(self, other: "AttributeList") -> "AttributeList":
        """A new list with ``other``'s entries overriding ours."""
        merged = dict(self.items)
        merged.update(other.items)
        return AttributeList(merged)

    @classmethod
    def of(cls, **kwargs: AttrValue) -> "AttributeList":
        """Build a list from keyword args; underscores become dashes."""
        return cls({key.replace("_", "-"): value
                    for key, value in kwargs.items()})
