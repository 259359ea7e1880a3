"""Wires: typed data paths between virtual device ports.

"Wires establish the flow of data between virtual devices ...  A wire
connects a source port of a virtual device to a sink port of another
virtual device ...  The server checks that data on the wire matches the
wire type."  (paper section 5.2)
"""

from __future__ import annotations

from ..protocol.errors import bad
from ..protocol.types import ErrorCode, PortDirection, SoundType


class Wire:
    """One source-port -> sink-port connection."""

    def __init__(self, wire_id: int, source_device, source_port: int,
                 sink_device, sink_port: int,
                 wire_type: SoundType | None = None) -> None:
        source = source_device.port(source_port)
        sink = sink_device.port(sink_port)
        if source.direction is not PortDirection.SOURCE:
            raise bad(ErrorCode.BAD_MATCH,
                      "port %d of device %d is not a source"
                      % (source_port, source_device.device_id), wire_id)
        if sink.direction is not PortDirection.SINK:
            raise bad(ErrorCode.BAD_MATCH,
                      "port %d of device %d is not a sink"
                      % (sink_port, sink_device.device_id), wire_id)
        if source.sound_type != sink.sound_type:
            # The paper's example: "If one end can only produce 8-bit
            # mu-law and the other can only take ADPCM, a protocol error
            # will be generated."
            raise bad(ErrorCode.BAD_MATCH,
                      "port types differ: %s vs %s"
                      % (_type_name(source.sound_type),
                         _type_name(sink.sound_type)), wire_id)
        if wire_type is not None and wire_type != source.sound_type:
            raise bad(ErrorCode.BAD_MATCH,
                      "requested wire type does not match the ports",
                      wire_id)
        self.wire_id = wire_id
        self.source_device = source_device
        self.source_port = source_port
        self.sink_device = sink_device
        self.sink_port = sink_port
        self.wire_type = source.sound_type
        self._destroyed = False
        source_device.attach_wire(self)
        sink_device.attach_wire(self)
        self._invalidate_plan()
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("wires.created").inc()
            metrics.gauge("wires.active").inc()

    def _metrics(self):
        server = getattr(self.source_device, "server", None)
        return server.metrics if server is not None else None

    def _invalidate_plan(self) -> None:
        server = getattr(self.source_device, "server", None)
        if server is not None:
            server.invalidate_render_plan()

    def destroy(self) -> None:
        self.source_device.detach_wire(self)
        self.sink_device.detach_wire(self)
        self._invalidate_plan()
        if self._destroyed:
            return      # keep the active-wire gauge honest on re-destroys
        self._destroyed = True
        metrics = self._metrics()
        if metrics is not None:
            metrics.counter("wires.destroyed").inc()
            metrics.gauge("wires.active").dec()


def _type_name(sound_type: SoundType) -> str:
    return "%s/%d@%d" % (sound_type.encoding.name, sound_type.samplesize,
                         sound_type.samplerate)
