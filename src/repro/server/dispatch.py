"""Request dispatch: one handler per protocol request.

Handlers run on the I/O shard thread that owns the requesting client
(``ioloop.py``); they mutate server state, enqueue replies, and raise
:class:`~repro.protocol.errors.ProtocolError` for anything invalid.  The
dispatcher converts raised errors into asynchronous error messages
carrying the request's sequence number (paper section 4.1).

Not every request needs the topology lock (docs/PERFORMANCE.md,
"Concurrency model"):

* **pure** requests (:data:`PURE_OPCODES`) read only immutable or
  internally-synchronized state (hub configuration, the clock, the
  metrics registry, catalogue names) and run with no lock at all;
* **snapshot** requests (:data:`SNAPSHOT_OPCODES`) are topology reads
  served from the server's prebuilt :class:`~.snapshot.QuerySnapshot`;
* everything else mutates (or reads mutable per-resource state) and
  runs under the topology lock, batched by
  :meth:`~.core.AudioServer.dispatch_batch`.
"""

from __future__ import annotations

from time import perf_counter

from ..protocol import events as ev
from ..protocol import requests as rq
from ..protocol.attributes import AttributeList
from ..protocol.errors import ProtocolError, bad
from ..protocol.types import (
    ErrorCode,
    EventCode,
    OpCode,
    PROTOCOL_MAJOR,
    PROTOCOL_MINOR,
)
from ..protocol.wire import Message, WireFormatError
from .loud import Loud
from .resources import DEVICE_LOUD_ID
from .sounds import Sound
from .vdevices import VirtualDevice, create_virtual_device
from .wires import Wire

#: Requests that read only immutable / internally-locked state and can
#: dispatch without any server lock.
PURE_OPCODES = frozenset({
    OpCode.QUERY_SERVER,
    OpCode.QUERY_DEVICE_LOUD,
    OpCode.QUERY_AMBIENT_DOMAINS,
    OpCode.LIST_CATALOGUE,
    OpCode.GET_TIME,
    OpCode.NO_OPERATION,
    OpCode.GET_SERVER_STATS,
})

#: Topology reads served lock-free from the current QuerySnapshot.
SNAPSHOT_OPCODES = frozenset({
    OpCode.QUERY_LOUD,
    OpCode.QUERY_VIRTUAL_DEVICE,
    OpCode.QUERY_WIRE,
})

#: dispatch.batch_size bucket edges (requests per lock acquisition).
_BATCH_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Dispatcher:
    """Routes decoded requests to handler methods."""

    def __init__(self, server) -> None:
        self.server = server
        self._handlers = {
            OpCode.CREATE_LOUD: self._create_loud,
            OpCode.DESTROY_LOUD: self._destroy_loud,
            OpCode.CREATE_VIRTUAL_DEVICE: self._create_virtual_device,
            OpCode.DESTROY_VIRTUAL_DEVICE: self._destroy_virtual_device,
            OpCode.CREATE_WIRE: self._create_wire,
            OpCode.DESTROY_WIRE: self._destroy_wire,
            OpCode.MAP_LOUD: self._map_loud,
            OpCode.UNMAP_LOUD: self._unmap_loud,
            OpCode.RESTACK_LOUD: self._restack_loud,
            OpCode.QUERY_LOUD: self._query_loud,
            OpCode.QUERY_VIRTUAL_DEVICE: self._query_virtual_device,
            OpCode.AUGMENT_VIRTUAL_DEVICE: self._augment_virtual_device,
            OpCode.QUERY_WIRE: self._query_wire,
            OpCode.CREATE_SOUND: self._create_sound,
            OpCode.DESTROY_SOUND: self._destroy_sound,
            OpCode.WRITE_SOUND_DATA: self._write_sound_data,
            OpCode.READ_SOUND_DATA: self._read_sound_data,
            OpCode.QUERY_SOUND: self._query_sound,
            OpCode.LIST_CATALOGUE: self._list_catalogue,
            OpCode.LOAD_SOUND: self._load_sound,
            OpCode.SET_SOUND_STREAM: self._set_sound_stream,
            OpCode.ISSUE_COMMAND: self._issue_command,
            OpCode.CONTROL_QUEUE: self._control_queue,
            OpCode.QUERY_QUEUE: self._query_queue,
            OpCode.SELECT_EVENTS: self._select_events,
            OpCode.CHANGE_PROPERTY: self._change_property,
            OpCode.GET_PROPERTY: self._get_property,
            OpCode.DELETE_PROPERTY: self._delete_property,
            OpCode.LIST_PROPERTIES: self._list_properties,
            OpCode.SET_REDIRECT: self._set_redirect,
            OpCode.ALLOW_REQUEST: self._allow_request,
            OpCode.QUERY_SERVER: self._query_server,
            OpCode.QUERY_DEVICE_LOUD: self._query_device_loud,
            OpCode.QUERY_AMBIENT_DOMAINS: self._query_ambient_domains,
            OpCode.GET_TIME: self._get_time,
            OpCode.NO_OPERATION: self._no_operation,
            OpCode.GET_SERVER_STATS: self._get_server_stats,
        }
        # Per-opcode instruments, resolved once: the dispatch path must
        # not pay a registry lookup per request.
        metrics = server.metrics
        self._m_requests = {
            int(opcode): metrics.counter("requests.%s" % opcode.name)
            for opcode in self._handlers
        }
        self._m_latency = {
            int(opcode): metrics.histogram("request_latency.%s" % opcode.name)
            for opcode in self._handlers
        }
        self._m_errors = {
            int(opcode): metrics.counter("request_errors.%s" % opcode.name)
            for opcode in self._handlers
        }
        self._m_requests_total = metrics.counter("requests.total")
        self._m_errors_total = metrics.counter("request_errors.total")
        self._m_decode_errors = metrics.counter("request_errors.decode")
        self._m_batch_size = metrics.histogram("dispatch.batch_size",
                                               edges=_BATCH_EDGES)
        self._m_unlocked = metrics.counter("dispatch.unlocked_requests")
        # int opcode sets, checked per message on the dispatch path.
        self._pure_codes = frozenset(int(op) for op in PURE_OPCODES)
        self._snapshot_codes = frozenset(int(op) for op in SNAPSHOT_OPCODES)

    def needs_lock(self, message: Message) -> bool:
        """Whether this request must run under the topology lock."""
        return (message.code not in self._pure_codes
                and message.code not in self._snapshot_codes)

    def observe_batch(self, size: int) -> None:
        self._m_batch_size.observe(size)

    def handle(self, client, message: Message) -> None:
        """Decode and execute one request; errors become error messages."""
        self._run(client, message)

    def handle_unlocked(self, client, message: Message) -> None:
        """Execute a pure or snapshot request without the lock."""
        self._m_unlocked.inc()
        self._run(client, message)

    def _run(self, client, message: Message) -> None:
        started = perf_counter()
        try:
            request = rq.decode_request(message.code, message.payload)
        except WireFormatError as exc:
            self._m_decode_errors.inc()
            self._m_errors_total.inc()
            client.send_error(ProtocolError(
                ErrorCode.BAD_REQUEST, client.sequence, message.code,
                0, str(exc)))
            return
        opcode = int(request.OPCODE)
        handler = self._handlers[request.OPCODE]
        try:
            handler(client, request)
        except ProtocolError as error:
            error.sequence = client.sequence
            error.opcode = opcode
            self._m_errors[opcode].inc()
            self._m_errors_total.inc()
            client.send_error(error)
        self._m_requests[opcode].inc()
        self._m_requests_total.inc()
        self._m_latency[opcode].observe(perf_counter() - started)

    # -- helpers --------------------------------------------------------------

    def _loud(self, loud_id: int) -> Loud:
        return self.server.resources.get(loud_id, Loud, ErrorCode.BAD_LOUD)

    def _device(self, device_id: int) -> VirtualDevice:
        return self.server.resources.get(device_id, VirtualDevice,
                                         ErrorCode.BAD_DEVICE)

    def _sound(self, sound_id: int) -> Sound:
        return self.server.resources.get(sound_id, Sound,
                                         ErrorCode.BAD_SOUND)

    def _wire(self, wire_id: int) -> Wire:
        return self.server.resources.get(wire_id, Wire, ErrorCode.BAD_WIRE)

    # -- LOUD lifecycle -------------------------------------------------------

    def _create_loud(self, client, request: rq.CreateLoud) -> None:
        parent = None
        if request.parent:
            parent = self._loud(request.parent)
        loud = Loud(request.loud, self.server, parent, request.attributes,
                    owner=client)
        self.server.resources.add(client.id_base, request.loud, loud)

    def _destroy_loud(self, client, request: rq.DestroyLoud) -> None:
        loud = self._loud(request.loud)
        if loud.loud_id == DEVICE_LOUD_ID:
            raise bad(ErrorCode.BAD_ACCESS,
                      "the device LOUD cannot be destroyed", loud.loud_id)
        if loud.is_root() and loud.mapped:
            self.server.stack.unmap_loud(loud)
        loud.destroy()

    def _create_virtual_device(self, client,
                               request: rq.CreateVirtualDevice) -> None:
        loud = self._loud(request.loud)
        if loud.loud_id == DEVICE_LOUD_ID:
            raise bad(ErrorCode.BAD_ACCESS,
                      "cannot add devices to the device LOUD", loud.loud_id)
        device = create_virtual_device(request.device, loud,
                                       request.device_class,
                                       request.attributes)
        self.server.resources.add(client.id_base, request.device, device)
        loud.devices.append(device)

    def _destroy_virtual_device(self, client,
                                request: rq.DestroyVirtualDevice) -> None:
        device = self._device(request.device)
        for wire in list(device.wires):
            wire.destroy()
            self.server.resources.remove(wire.wire_id)
        device.unbind()
        if device.loud is not None and device in device.loud.devices:
            device.loud.devices.remove(device)
        self.server.resources.remove(request.device)
        self.server.invalidate_render_plan()

    def _create_wire(self, client, request: rq.CreateWire) -> None:
        source = self._device(request.source_device)
        sink = self._device(request.sink_device)
        if source.loud.root() is not sink.loud.root():
            raise bad(ErrorCode.BAD_MATCH,
                      "wires cannot cross LOUD trees", request.wire)
        wire = Wire(request.wire, source, request.source_port, sink,
                    request.sink_port, request.wire_type)
        self.server.resources.add(client.id_base, request.wire, wire)

    def _destroy_wire(self, client, request: rq.DestroyWire) -> None:
        wire = self._wire(request.wire)
        wire.destroy()
        self.server.resources.remove(request.wire)

    def _map_loud(self, client, request: rq.MapLoud) -> None:
        loud = self._loud(request.loud)
        manager = self.server.manager
        if manager is not None and manager is not client:
            # Redirection: "the request may be redirected to a specified
            # client rather than the operation actually being performed."
            self.server.events.emit(
                EventCode.MAP_REQUEST, loud.loud_id,
                sample_time=self.server.hub.sample_time,
                args=AttributeList({ev.ARG_CLIENT: client.id_base}),
                only_client=manager)
            return
        self.server.stack.map_loud(loud)

    def _unmap_loud(self, client, request: rq.UnmapLoud) -> None:
        loud = self._loud(request.loud)
        self.server.stack.unmap_loud(loud)

    def _restack_loud(self, client, request: rq.RestackLoud) -> None:
        loud = self._loud(request.loud)
        manager = self.server.manager
        if manager is not None and manager is not client:
            self.server.events.emit(
                EventCode.RESTACK_REQUEST, loud.loud_id,
                sample_time=self.server.hub.sample_time,
                args=AttributeList({
                    ev.ARG_CLIENT: client.id_base,
                    ev.ARG_POSITION: int(request.position),
                }),
                only_client=manager)
            return
        self.server.stack.restack(loud, request.position)

    # Topology reads run lock-free, served from the prebuilt
    # QuerySnapshot so they never wait behind the block cycle.

    def _query_loud(self, client, request: rq.QueryLoud) -> None:
        reply = self.server.query_snapshot().loud_reply(request.loud)
        client.send_reply(reply, client.sequence)

    def _query_virtual_device(self, client,
                              request: rq.QueryVirtualDevice) -> None:
        reply = self.server.query_snapshot().device_reply(request.device)
        client.send_reply(reply, client.sequence)

    def _query_wire(self, client, request: rq.QueryWire) -> None:
        reply = self.server.query_snapshot().wire_reply(request.wire)
        client.send_reply(reply, client.sequence)

    def _augment_virtual_device(self, client,
                                request: rq.AugmentVirtualDevice) -> None:
        device = self._device(request.device)
        device.attributes = device.attributes.merged_with(request.attributes)

    # -- sounds ---------------------------------------------------------------

    def _create_sound(self, client, request: rq.CreateSound) -> None:
        sound = Sound(request.sound, request.sound_type)
        sound.attach_cache(self.server.decode_cache)
        self.server.resources.add(client.id_base, request.sound, sound)

    def _destroy_sound(self, client, request: rq.DestroySound) -> None:
        self._sound(request.sound)
        self.server.resources.remove(request.sound)

    def _write_sound_data(self, client, request: rq.WriteSoundData) -> None:
        sound = self._sound(request.sound)
        sound.write_bytes(request.offset, request.data)
        if sound.is_stream:
            self.server.events.stream_fed(sound)

    def _read_sound_data(self, client, request: rq.ReadSoundData) -> None:
        sound = self._sound(request.sound)
        data = sound.read_bytes(request.offset, request.length)
        if sound.is_stream:
            self.server.events.stream_drained(sound)
            if sound.frame_length > 0:
                # More is already buffered: tell the reader right away
                # rather than waiting for the next append.
                self.server.events.emit_stream_available(sound)
        client.send_reply(rq.ReadSoundDataReply(data), client.sequence)

    def _query_sound(self, client, request: rq.QuerySound) -> None:
        sound = self._sound(request.sound)
        reply = rq.QuerySoundReply(sound.sound_type, sound.byte_length,
                                   sound.frame_length, sound.is_stream,
                                   sound.name)
        client.send_reply(reply, client.sequence)

    def _list_catalogue(self, client, request: rq.ListCatalogue) -> None:
        catalogue = self.server.catalogue(request.catalogue)
        client.send_reply(rq.ListCatalogueReply(catalogue.names()),
                          client.sequence)

    def _load_sound(self, client, request: rq.LoadSound) -> None:
        catalogue = self.server.catalogue(request.catalogue)
        sound = catalogue.load(request.name, request.sound)
        sound.attach_cache(self.server.decode_cache)
        self.server.resources.add(client.id_base, request.sound, sound)

    def _set_sound_stream(self, client, request: rq.SetSoundStream) -> None:
        sound = self._sound(request.sound)
        sound.make_stream(request.buffer_frames, request.low_water_frames)

    # -- commands and queues --------------------------------------------------

    def _issue_command(self, client, request: rq.IssueCommand) -> None:
        loud = self._loud(request.loud)
        if loud.queue is None:
            raise bad(ErrorCode.BAD_MATCH,
                      "commands go to root LOUDs (the queue owner)",
                      loud.loud_id)
        loud.queue.issue(request.device, request.command, request.mode,
                         request.args, client=client)

    def _control_queue(self, client, request: rq.ControlQueue) -> None:
        loud = self._loud(request.loud)
        if loud.queue is None:
            raise bad(ErrorCode.BAD_MATCH, "not a root LOUD", loud.loud_id)
        loud.queue.control(request.op)

    def _query_queue(self, client, request: rq.QueryQueue) -> None:
        loud = self._loud(request.loud)
        if loud.queue is None:
            raise bad(ErrorCode.BAD_MATCH, "not a root LOUD", loud.loud_id)
        state, pending, running, completed = loud.queue.describe()
        client.send_reply(rq.QueryQueueReply(state, pending, running,
                                             completed), client.sequence)

    # -- events and properties ------------------------------------------------

    def _select_events(self, client, request: rq.SelectEvents) -> None:
        if request.resource not in self.server.resources:
            raise bad(ErrorCode.BAD_VALUE, "no such resource",
                      request.resource)
        self.server.events.select(client, request.resource, request.mask)

    def _property_target(self, resource_id: int):
        target = self.server.resources.maybe_get(resource_id)
        if not isinstance(target, (Loud, Sound)):
            raise bad(ErrorCode.BAD_VALUE,
                      "properties live on LOUDs and sounds", resource_id)
        return target

    def _change_property(self, client, request: rq.ChangeProperty) -> None:
        target = self._property_target(request.resource)
        target.set_property(request.name, request.value)
        self._notify_property(request.resource, request.name, changed=True)

    def _get_property(self, client, request: rq.GetProperty) -> None:
        target = self._property_target(request.resource)
        exists, value = target.get_property(request.name)
        client.send_reply(rq.GetPropertyReply(exists, value),
                          client.sequence)

    def _delete_property(self, client, request: rq.DeleteProperty) -> None:
        target = self._property_target(request.resource)
        target.delete_property(request.name)
        self._notify_property(request.resource, request.name, changed=False)

    def _list_properties(self, client, request: rq.ListProperties) -> None:
        target = self._property_target(request.resource)
        client.send_reply(rq.ListPropertiesReply(target.property_names()),
                          client.sequence)

    def _notify_property(self, resource: int, name: str,
                         changed: bool) -> None:
        from .properties import PROPERTY_CHANGED, PROPERTY_DELETED

        self.server.events.emit(
            EventCode.PROPERTY_NOTIFY, resource,
            detail=PROPERTY_CHANGED if changed else PROPERTY_DELETED,
            sample_time=self.server.hub.sample_time,
            args=AttributeList({ev.ARG_PROPERTY_NAME: name}))

    # -- audio manager support ------------------------------------------------

    def _set_redirect(self, client, request: rq.SetRedirect) -> None:
        if request.enabled:
            manager = self.server.manager
            if manager is not None and manager is not client:
                # Exactly one audio manager, like one window manager.
                raise bad(ErrorCode.BAD_ACCESS,
                          "another client is already the audio manager")
            client.is_manager = True
            self.server.manager = client
        else:
            if self.server.manager is client:
                self.server.manager = None
            client.is_manager = False

    def _allow_request(self, client, request: rq.AllowRequest) -> None:
        if self.server.manager is not client:
            raise bad(ErrorCode.BAD_ACCESS,
                      "only the audio manager may allow requests")
        if not request.honor:
            return
        loud = self._loud(request.loud)
        if request.opcode is OpCode.MAP_LOUD:
            self.server.stack.map_loud(loud)
        elif request.opcode is OpCode.RESTACK_LOUD:
            self.server.stack.restack(loud, request.position)
        else:
            raise bad(ErrorCode.BAD_VALUE,
                      "only map and restack can be allowed")

    # -- server queries -------------------------------------------------------

    def _query_server(self, client, request: rq.QueryServer) -> None:
        from ..protocol.types import Encoding

        reply = rq.QueryServerReply(
            vendor="repro desktop audio",
            protocol_major=PROTOCOL_MAJOR,
            protocol_minor=PROTOCOL_MINOR,
            encodings=[int(Encoding.MULAW), int(Encoding.ALAW),
                       int(Encoding.PCM16), int(Encoding.ADPCM)],
            block_frames=self.server.hub.block_frames,
            sample_rate=self.server.hub.sample_rate)
        client.send_reply(reply, client.sequence)

    def _query_device_loud(self, client,
                           request: rq.QueryDeviceLoud) -> None:
        descriptions = []
        by_group: dict[int, list[int]] = {}
        for wrapper in self.server.physicals:
            if wrapper.hard_group is not None:
                by_group.setdefault(wrapper.hard_group, []).append(
                    wrapper.device_id)
        for wrapper in self.server.physicals:
            description = wrapper.describe()
            if wrapper.hard_group is not None:
                description.hard_wired_to = [
                    other for other in by_group[wrapper.hard_group]
                    if other != wrapper.device_id]
            descriptions.append(description)
        client.send_reply(rq.QueryDeviceLoudReply(descriptions),
                          client.sequence)

    def _query_ambient_domains(self, client,
                               request: rq.QueryAmbientDomains) -> None:
        domains: dict[str, list[int]] = {}
        for wrapper in self.server.physicals:
            domains.setdefault(wrapper.domain, []).append(wrapper.device_id)
        client.send_reply(rq.QueryAmbientDomainsReply(domains),
                          client.sequence)

    def _get_time(self, client, request: rq.GetTime) -> None:
        clock = self.server.hub.clock
        client.send_reply(rq.GetTimeReply(clock.sample_time,
                                          clock.seconds()), client.sequence)

    def _get_server_stats(self, client, request: rq.GetServerStats) -> None:
        snapshot = self.server.stats_snapshot()
        reply = rq.GetServerStatsReply(
            uptime_seconds=snapshot["server"]["uptime_seconds"],
            sample_time=snapshot["server"]["sample_time"],
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            histograms={
                name: rq.HistogramStat(hist["edges"], hist["counts"],
                                       hist["sum"], hist["count"])
                for name, hist in snapshot["histograms"].items()},
            clients=[
                rq.ClientStat(entry["name"], entry["requests"],
                              entry["bytes_in"], entry["bytes_out"],
                              entry["messages_out"], entry["queue_depth"])
                for entry in snapshot["clients"]],
            mesh=snapshot.get("trunk", {}).get("mesh", {}))
        client.send_reply(reply, client.sequence)

    def _no_operation(self, client, request: rq.NoOperation) -> None:
        pass
