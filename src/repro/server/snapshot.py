"""Immutable topology snapshots backing the lock-free query path.

QUERY_LOUD / QUERY_VIRTUAL_DEVICE / QUERY_WIRE only *read* topology,
yet they used to take the server lock -- so a slow block cycle stalled
every query and a chatty monitor stalled the block cycle.  Instead,
I/O shard threads now serve them from a :class:`QuerySnapshot`: a frozen
dict of fully-built reply objects for every LOUD, virtual device and
wire, tagged with the topology version it was built from.

The server bumps its topology version on every locked dispatch batch
and client teardown; a query whose cached snapshot is stale rebuilds it
under the topology lock (one brief acquisition, amortized across every
query until the next mutation).  Because a client's own mutations bump
the version before its next read dispatches, read-your-writes holds per
connection.  A query that arrives while the version is unchanged costs
zero lock acquisitions however long the block cycle is holding the
topology lock.
"""

from __future__ import annotations

from ..protocol import requests as rq
from ..protocol.errors import bad
from ..protocol.types import ErrorCode
from .loud import Loud
from .vdevices import VirtualDevice
from .wires import Wire


class QuerySnapshot:
    """Prebuilt query replies for one topology version."""

    __slots__ = ("version", "_louds", "_devices", "_wires")

    def __init__(self, version: int, louds: dict, devices: dict,
                 wires: dict) -> None:
        self.version = version
        self._louds = louds
        self._devices = devices
        self._wires = wires

    def loud_reply(self, loud_id: int) -> rq.QueryLoudReply:
        reply = self._louds.get(loud_id)
        if reply is None:
            raise bad(ErrorCode.BAD_LOUD, "no such resource", loud_id)
        return reply

    def device_reply(self, device_id: int) -> rq.QueryVirtualDeviceReply:
        reply = self._devices.get(device_id)
        if reply is None:
            raise bad(ErrorCode.BAD_DEVICE, "no such resource", device_id)
        return reply

    def wire_reply(self, wire_id: int) -> rq.QueryWireReply:
        reply = self._wires.get(wire_id)
        if reply is None:
            raise bad(ErrorCode.BAD_WIRE, "no such resource", wire_id)
        return reply


def build_query_snapshot(server, version: int) -> QuerySnapshot:
    """Materialize every query reply; call with the topology lock held."""
    louds: dict[int, rq.QueryLoudReply] = {}
    devices: dict[int, rq.QueryVirtualDeviceReply] = {}
    wires: dict[int, rq.QueryWireReply] = {}
    for resource_id, resource in server.resources.all_items():
        if isinstance(resource, Loud):
            louds[resource_id] = rq.QueryLoudReply(
                parent=(resource.parent.loud_id
                        if resource.parent else 0),
                children=[child.loud_id for child in resource.children],
                devices=[device.device_id
                         for device in resource.devices],
                mapped=resource.mapped,
                active=resource.active,
                stack_index=server.stack.index_of(resource),
                attributes=resource.attributes)
        elif isinstance(resource, VirtualDevice):
            devices[resource_id] = rq.QueryVirtualDeviceReply(
                device_class=resource.DEVICE_CLASS,
                attributes=resource.describe(),
                ports=[(port.index, int(port.direction), port.sound_type)
                       for port in resource.ports],
                wires=[wire.wire_id for wire in resource.wires])
        elif isinstance(resource, Wire):
            wires[resource_id] = rq.QueryWireReply(
                resource.source_device.device_id, resource.source_port,
                resource.sink_device.device_id, resource.sink_port,
                resource.wire_type)
    return QuerySnapshot(version, louds, devices, wires)
