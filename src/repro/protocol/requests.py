"""Request and reply message bodies.

One dataclass per protocol request and reply.  Each field's annotation
declares its wire kind (``U32``, ``Annotated[StackPosition, U8]``,
``AttributeList``, ...) and :mod:`repro.protocol.codec` marshals every
body from those declarations, so a body's layout is written down once:
here.  Requests are asynchronous (paper section 4.1): the client sends
them without waiting; only "state queries, for instance" have replies,
which the server sends back tagged with the request's sequence number.

Conventions:

* every request class carries its :data:`~repro.protocol.types.OpCode` in
  ``OPCODE`` and is registered in :data:`REQUEST_CLASSES`;
* requests that produce a reply name the reply class in ``REPLY``;
* resource ids are 32-bit, client-allocated out of the id range granted at
  connection setup (CreateLoud, CreateVirtualDevice, CreateWire,
  CreateSound all take the new id from the client, exactly as X does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from .attributes import AttributeList, AttrValue
from .codec import JSON, Body, decode, take_value, value_bytes
from .types import (
    Command,
    CommandMode,
    DeviceClass,
    EventMask,
    OpCode,
    QueueOp,
    QueueState,
    SoundType,
    StackPosition,
)
from .wire import I32, I64, U8, U16, U32, U64, Reader, WireFormatError, Writer


class Request(Body):
    """Base class of request bodies."""

    OPCODE: OpCode
    REPLY: type | None = None
    #: True when resending the request cannot change server state (pure
    #: queries).  Alib's retry policy only ever retries these.
    IDEMPOTENT: bool = False


class Reply(Body):
    """Base class of reply bodies."""


# ---------------------------------------------------------------------------
# LOUD lifecycle
# ---------------------------------------------------------------------------

@dataclass
class CreateLoud(Request):
    """Create a LOUD, optionally as a child of ``parent`` (0 = root)."""

    OPCODE = OpCode.CREATE_LOUD

    loud: U32
    parent: U32 = 0
    attributes: AttributeList = field(default_factory=AttributeList)


@dataclass
class DestroyLoud(Request):
    OPCODE = OpCode.DESTROY_LOUD

    loud: U32


@dataclass
class CreateVirtualDevice(Request):
    """Create a virtual device of ``device_class`` inside ``loud``.

    The application "need only specify the class and other attributes of
    the device, rather than the specific hardware" (paper section 5.1).
    """

    OPCODE = OpCode.CREATE_VIRTUAL_DEVICE

    device: U32
    loud: U32
    #: Extension class codes (the server's device subclassing mechanism)
    #: travel as raw integers beyond the base enum.
    device_class: Annotated[DeviceClass | int, U16]
    attributes: AttributeList = field(default_factory=AttributeList)


@dataclass
class DestroyVirtualDevice(Request):
    OPCODE = OpCode.DESTROY_VIRTUAL_DEVICE

    device: U32


@dataclass
class CreateWire(Request):
    """Wire a source port to a sink port, optionally constraining the type.

    ``wire_type`` of ``None`` lets the server infer the type from the two
    ports; a concrete type makes the server verify it (paper section 5.2).
    """

    OPCODE = OpCode.CREATE_WIRE

    wire: U32
    source_device: U32
    source_port: U16
    sink_device: U32
    sink_port: U16
    wire_type: SoundType | None = None


@dataclass
class DestroyWire(Request):
    OPCODE = OpCode.DESTROY_WIRE

    wire: U32


@dataclass
class MapLoud(Request):
    """Map a root LOUD: bind virtual devices and join the active stack."""

    OPCODE = OpCode.MAP_LOUD

    loud: U32


@dataclass
class UnmapLoud(Request):
    OPCODE = OpCode.UNMAP_LOUD

    loud: U32


@dataclass
class RestackLoud(Request):
    """Move a mapped LOUD to the top or bottom of the active stack."""

    OPCODE = OpCode.RESTACK_LOUD

    loud: U32
    position: Annotated[StackPosition, U8] = StackPosition.TOP


@dataclass
class QueryLoudReply(Reply):
    """Tree and status information for one LOUD."""

    parent: U32
    children: list[U32]
    devices: list[U32]
    mapped: bool
    active: bool
    stack_index: I32        # position on the active stack, -1 if unmapped
    attributes: AttributeList


@dataclass
class QueryLoud(Request):
    OPCODE = OpCode.QUERY_LOUD
    IDEMPOTENT = True
    REPLY = QueryLoudReply

    loud: U32


@dataclass
class QueryVirtualDeviceReply(Reply):
    """Attributes of a virtual device, including its binding.

    After mapping, the returned attributes contain "among other things, the
    device ID selected by the server" (paper section 5.3) under the
    ``device-id`` key.
    """

    device_class: Annotated[DeviceClass | int, U16]
    attributes: AttributeList
    ports: list[tuple[U16, U8, SoundType]]  # (index, direction, type)
    wires: list[U32]


@dataclass
class QueryVirtualDevice(Request):
    OPCODE = OpCode.QUERY_VIRTUAL_DEVICE
    IDEMPOTENT = True
    REPLY = QueryVirtualDeviceReply

    device: U32


@dataclass
class AugmentVirtualDevice(Request):
    """Tighten a virtual device's constraints after creation.

    "This device ID can then be specified in an AugmentVirtualDevice
    request, so that it becomes an application-specified constraint."
    """

    OPCODE = OpCode.AUGMENT_VIRTUAL_DEVICE

    device: U32
    attributes: AttributeList


@dataclass
class QueryWireReply(Reply):
    source_device: U32
    source_port: U16
    sink_device: U32
    sink_port: U16
    wire_type: SoundType


@dataclass
class QueryWire(Request):
    OPCODE = OpCode.QUERY_WIRE
    IDEMPOTENT = True
    REPLY = QueryWireReply

    wire: U32


# ---------------------------------------------------------------------------
# Sounds
# ---------------------------------------------------------------------------

@dataclass
class CreateSound(Request):
    """Create an empty server-side sound of the given type."""

    OPCODE = OpCode.CREATE_SOUND

    sound: U32
    sound_type: SoundType


@dataclass
class DestroySound(Request):
    OPCODE = OpCode.DESTROY_SOUND

    sound: U32


@dataclass
class WriteSoundData(Request):
    """Supply sound data; offset -1 appends (the streaming case)."""

    OPCODE = OpCode.WRITE_SOUND_DATA

    sound: U32
    offset: I64
    data: bytes


@dataclass
class ReadSoundDataReply(Reply):
    data: bytes


@dataclass
class ReadSoundData(Request):
    OPCODE = OpCode.READ_SOUND_DATA
    IDEMPOTENT = True
    REPLY = ReadSoundDataReply

    sound: U32
    offset: U64
    length: U64


@dataclass
class QuerySoundReply(Reply):
    sound_type: SoundType
    byte_length: U64
    frame_length: U64
    is_stream: bool
    name: str


@dataclass
class QuerySound(Request):
    OPCODE = OpCode.QUERY_SOUND
    IDEMPOTENT = True
    REPLY = QuerySoundReply

    sound: U32


@dataclass
class ListCatalogueReply(Reply):
    names: list[str]


@dataclass
class ListCatalogue(Request):
    """List the named sounds in a server-side catalogue."""

    OPCODE = OpCode.LIST_CATALOGUE
    IDEMPOTENT = True
    REPLY = ListCatalogueReply

    catalogue: str = ""


@dataclass
class LoadSound(Request):
    """Bind a catalogue entry (by name) to a client sound id."""

    OPCODE = OpCode.LOAD_SOUND

    sound: U32
    name: str
    catalogue: str = ""


@dataclass
class SetSoundStream(Request):
    """Mark a sound as a bounded real-time stream buffer.

    The server emits DATA_REQUEST events when the buffer runs low
    (client-side writing of real-time data, paper section 6.2).
    """

    OPCODE = OpCode.SET_SOUND_STREAM

    sound: U32
    buffer_frames: U64
    low_water_frames: U64


# ---------------------------------------------------------------------------
# Commands and queues
# ---------------------------------------------------------------------------

@dataclass
class IssueCommand(Request):
    """Issue a device or queue command to a root LOUD.

    ``device`` is 0 for queue pseudo-commands (CoBegin/CoEnd/Delay/
    DelayEnd); command arguments travel as an attribute list whose keys are
    documented on each command's executor.
    """

    OPCODE = OpCode.ISSUE_COMMAND

    loud: U32
    device: U32
    command: Annotated[Command, U16]
    mode: Annotated[CommandMode, U8] = CommandMode.QUEUED
    args: AttributeList = field(default_factory=AttributeList)


@dataclass
class ControlQueue(Request):
    """Start, stop, pause, resume or flush a root LOUD's command queue."""

    OPCODE = OpCode.CONTROL_QUEUE

    loud: U32
    op: Annotated[QueueOp, U8]


@dataclass
class QueryQueueReply(Reply):
    state: Annotated[QueueState, U8]
    pending: U32            # commands not yet started
    running: U32            # commands currently executing
    completed: U64          # commands completed since queue creation


@dataclass
class QueryQueue(Request):
    OPCODE = OpCode.QUERY_QUEUE
    IDEMPOTENT = True
    REPLY = QueryQueueReply

    loud: U32


# ---------------------------------------------------------------------------
# Events, properties, manager support
# ---------------------------------------------------------------------------

@dataclass
class SelectEvents(Request):
    """Choose which event families this client receives for a resource."""

    OPCODE = OpCode.SELECT_EVENTS

    resource: U32
    mask: Annotated[EventMask, U32]


@dataclass
class ChangeProperty(Request):
    """Attach a (name, value, type) property to a LOUD or sound."""

    OPCODE = OpCode.CHANGE_PROPERTY

    resource: U32
    name: str
    value: AttrValue


@dataclass
class GetPropertyReply(Reply):
    """A property's value; ``value`` travels only when ``exists``."""

    exists: bool
    value: AttrValue | None

    def write_payload(self, writer: Writer) -> None:
        writer.boolean(self.exists)
        if self.exists:
            writer.raw(value_bytes(self.value))

    @classmethod
    def read_payload(cls, reader: Reader) -> "GetPropertyReply":
        exists = reader.boolean()
        return cls(exists, reader.parse(take_value) if exists else None)


@dataclass
class GetProperty(Request):
    OPCODE = OpCode.GET_PROPERTY
    IDEMPOTENT = True
    REPLY = GetPropertyReply

    resource: U32
    name: str


@dataclass
class DeleteProperty(Request):
    OPCODE = OpCode.DELETE_PROPERTY

    resource: U32
    name: str


@dataclass
class ListPropertiesReply(Reply):
    names: list[str]


@dataclass
class ListProperties(Request):
    OPCODE = OpCode.LIST_PROPERTIES
    IDEMPOTENT = True
    REPLY = ListPropertiesReply

    resource: U32


@dataclass
class SetRedirect(Request):
    """Become (or stop being) the audio manager.

    When enabled, map and restack requests from other clients are delivered
    to this client as MAP_REQUEST / RESTACK_REQUEST events instead of being
    performed (paper section 5.8).
    """

    OPCODE = OpCode.SET_REDIRECT

    enabled: bool


@dataclass
class AllowRequest(Request):
    """Audio-manager approval of a redirected map/restack.

    ``position`` only matters for restacks; a map allowed with ``honor``
    False is simply dropped.
    """

    OPCODE = OpCode.ALLOW_REQUEST

    loud: U32
    opcode: Annotated[OpCode, U16]     # MAP_LOUD or RESTACK_LOUD
    honor: bool = True
    position: Annotated[StackPosition, U8] = StackPosition.TOP


# ---------------------------------------------------------------------------
# Server queries
# ---------------------------------------------------------------------------

@dataclass
class QueryServerReply(Reply):
    vendor: str
    protocol_major: U16
    protocol_minor: U16
    encodings: list[U16]
    block_frames: U32       # hub block size, for latency-aware clients
    sample_rate: U32        # native device-layer rate


@dataclass
class QueryServer(Request):
    OPCODE = OpCode.QUERY_SERVER
    IDEMPOTENT = True
    REPLY = QueryServerReply


@dataclass
class DeviceDescription(Body):
    """One physical device in the device LOUD (paper section 5.1)."""

    device_id: U32
    device_class: Annotated[DeviceClass, U16]
    name: str
    attributes: AttributeList
    hard_wired_to: list[U32]


@dataclass
class QueryDeviceLoudReply(Reply):
    """The device LOUD: every physical device and its permanent wires."""

    devices: list[DeviceDescription]


@dataclass
class QueryDeviceLoud(Request):
    OPCODE = OpCode.QUERY_DEVICE_LOUD
    IDEMPOTENT = True
    REPLY = QueryDeviceLoudReply


@dataclass
class QueryAmbientDomainsReply(Reply):
    """Domain name -> device ids within it."""

    domains: dict[str, list[U32]]


@dataclass
class QueryAmbientDomains(Request):
    OPCODE = OpCode.QUERY_AMBIENT_DOMAINS
    IDEMPOTENT = True
    REPLY = QueryAmbientDomainsReply


@dataclass
class GetTimeReply(Reply):
    """Server audio time in samples and seconds; a sync round-trip."""

    sample_time: U64
    seconds: float


@dataclass
class GetTime(Request):
    OPCODE = OpCode.GET_TIME
    IDEMPOTENT = True
    REPLY = GetTimeReply


@dataclass
class HistogramStat(Body):
    """One histogram in a stats reply: bucket edges, counts, sum, count.

    ``edges`` are inclusive upper bounds with one overflow bucket, so
    ``len(counts) == len(edges) + 1`` and ``sum(counts) == count``.
    """

    edges: list[float]
    counts: list[U64]
    sum: float
    count: U64

    # Hand-written: ``counts`` carries no count of its own on the wire;
    # its length is implied by ``edges``.
    def write_payload(self, writer: Writer) -> None:
        writer.u32(len(self.edges))
        for edge in self.edges:
            writer.f64(edge)
        for bucket in self.counts:
            writer.u64(bucket)
        writer.f64(self.sum)
        writer.u64(self.count)

    @classmethod
    def read_payload(cls, reader: Reader) -> "HistogramStat":
        edges = [reader.f64() for _ in range(reader.u32())]
        counts = [reader.u64() for _ in range(len(edges) + 1)]
        return cls(edges, counts, reader.f64(), reader.u64())

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass
class ClientStat(Body):
    """Per-connection wire statistics in a stats reply."""

    name: str
    requests: U64
    bytes_in: U64
    bytes_out: U64
    messages_out: U64
    queue_depth: U32


@dataclass
class GetServerStatsReply(Reply):
    """The server's whole metrics snapshot.

    Carried generically (name -> value maps) so new instruments never
    need a protocol change; the well-known names are documented in
    docs/OBSERVABILITY.md.
    """

    uptime_seconds: float
    sample_time: U64
    counters: dict[str, U64]
    gauges: dict[str, float]
    histograms: dict[str, HistogramStat]
    clients: list[ClientStat]
    #: The trunk mesh section (peers, route table); empty when mesh
    #: routing is off.  Nested and shape-free, so it rides the wire as
    #: one JSON string -- client and server ship together, and the
    #: structure is documented in docs/TELEPHONY.md rather than frozen
    #: into the binary format.
    mesh: Annotated[dict, JSON] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """Convenience lookup; absent counters read as zero."""
        return self.counters.get(name, 0)


@dataclass
class GetServerStats(Request):
    """Fetch the server's metrics snapshot (the observability plane)."""

    OPCODE = OpCode.GET_SERVER_STATS
    IDEMPOTENT = True
    REPLY = GetServerStatsReply


@dataclass
class NoOperation(Request):
    """Does nothing; useful for padding and benchmarks."""

    OPCODE = OpCode.NO_OPERATION
    IDEMPOTENT = True


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

REQUEST_CLASSES: dict[OpCode, type[Request]] = {
    cls.OPCODE: cls
    for cls in (
        CreateLoud, DestroyLoud, CreateVirtualDevice, DestroyVirtualDevice,
        CreateWire, DestroyWire, MapLoud, UnmapLoud, RestackLoud, QueryLoud,
        QueryVirtualDevice, AugmentVirtualDevice, QueryWire, CreateSound,
        DestroySound, WriteSoundData, ReadSoundData, QuerySound,
        ListCatalogue, LoadSound, SetSoundStream, IssueCommand, ControlQueue,
        QueryQueue, SelectEvents, ChangeProperty, GetProperty, DeleteProperty,
        ListProperties, SetRedirect, AllowRequest, QueryServer,
        QueryDeviceLoud, QueryAmbientDomains, GetTime, NoOperation,
        GetServerStats,
    )
}


def decode_request(opcode: int, payload: bytes) -> Request:
    """Parse a request payload; raises WireFormatError on garbage."""
    cls = REQUEST_CLASSES.get(opcode)     # OpCode keys hash as ints
    if cls is None:
        raise WireFormatError("unknown request opcode %d" % opcode)
    return decode(cls.read_payload, payload, cls.__name__)
