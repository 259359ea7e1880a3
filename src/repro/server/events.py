"""Event routing.

"The server generally sends an event to an application only if the
application specifically asked to be informed of that event type."
(paper section 5.7)

Clients register (resource, mask) selections via SelectEvents into the
router's *interest table*, ``{resource id: ((client, mask), ...)}`` in
connection order; the router fans each emitted event out to the clients
whose selection covers it, so an event nobody selected costs two dict
probes and builds nothing.  Device events are matched against both the
device's own id and its root LOUD's id, so an application can select
once on the LOUD it built rather than on every constituent device.

The table is the one record of selections.  It changes only under the
topology lock (SelectEvents, resource removal, client teardown), so a
selection dies with its resource and with its client, and an id reused
later hears nothing until it is selected again.  Each entry is replaced,
never mutated, so :meth:`EventRouter.emit` reads it with no lock.  Beside
it the router keeps the or of every selected mask, so an event of a kind
no client selected anywhere (PLAY_STARTED when applications select only
QUEUE events) is counted and dropped before any table lookup.

**Tick batching** (docs/PERFORMANCE.md, "Concurrency model"):
``begin_tick_batch``/``flush_tick_batch`` bracket the block cycle;
events emitted inside accumulate per client and are flushed as one
outbound-queue append and one writer wakeup per client, instead of one
lock round-trip per event.  The stream edge-trigger sets
(``_hungry_streams``, ``_announced_streams``) are only ever mutated with
the stream lock held.
"""

from __future__ import annotations

import threading

from ..protocol import events as ev
from ..protocol.attributes import AttributeList
from ..protocol.codec import plan
from ..protocol.types import EVENT_MASK_FOR_CODE, EventCode, EventMask
from ..protocol.wire import Message, MessageKind

#: An event body from its field values (the emitted encoder).
_event_body = plan(ev.Event).put
_NO_ARGS = AttributeList()

#: The mask bits each event code needs, as plain ints.
_NEEDED = {code: int(mask) for code, mask in EVENT_MASK_FOR_CODE.items()}


def _message(client, code: EventCode, payload: bytes) -> Message:
    """One client's copy of an event: its own sequence number."""
    return Message(MessageKind.EVENT, code, client.sequence & 0xFFFF,
                   payload)


def _merged(first: tuple, second: tuple) -> tuple:
    """Two interest entries as one, in connection order, a client's
    masks on both ids or'ed together."""
    masks: dict = {}
    for client, mask in sorted(first + second,
                               key=lambda entry: entry[0].order):
        masks[client] = masks.get(client, 0) | mask
    return tuple(masks.items())


class EventRouter:
    """Fans server events out to selecting clients."""

    def __init__(self, server) -> None:
        self.server = server
        self._hungry_streams: set[int] = set()
        self._announced_streams: set[int] = set()
        self._stream_lock = threading.Lock()
        #: resource id -> ((client, int mask), ...) in connection order.
        self._interest: dict[int, tuple] = {}
        #: int mask -> how many interest entries hold it; ``_selected``
        #: is the or of its keys.
        self._mask_uses: dict[int, int] = {}
        self._selected = 0
        #: client -> [event Message], while a tick batch is open; else
        #: None.
        self._tick_batch: dict | None = None
        metrics = server.metrics
        self._m_emitted = {
            code: metrics.counter("events.%s" % code.name)
            for code in EventCode
        }
        self._m_emitted_total = metrics.counter("events.total")
        self._m_delivered = metrics.counter("events.delivered")
        self._m_coalesced = metrics.counter("events.coalesced")
        self._m_batch_flushes = metrics.counter("events.batch_flushes")

    # -- tick batching --------------------------------------------------------

    def begin_tick_batch(self) -> None:
        """Start coalescing emissions (hub thread, under the lock)."""
        self._tick_batch = {}

    def flush_tick_batch(self) -> None:
        """Deliver each client's batched events in one writer wakeup."""
        batch, self._tick_batch = self._tick_batch, None
        if not batch:
            return
        delivered = 0
        for client, batched in batch.items():
            delivered += len(batched)
            client.send_events(batched)
        self._m_delivered.inc(delivered)
        self._m_coalesced.inc(delivered)
        self._m_batch_flushes.inc()

    def _deliver(self, client, event: Message) -> None:
        batch = self._tick_batch
        if batch is not None:
            # Counted as delivered and coalesced when the batch flushes.
            batch.setdefault(client, []).append(event)
        else:
            self._m_delivered.inc()
            client.send_event(event)

    # -- the interest table (topology lock held) -----------------------------

    def select(self, client, resource: int, mask: EventMask) -> None:
        """SelectEvents: ``client``'s mask on ``resource`` (NONE drops it)."""
        old = self._interest.get(resource, ())
        entries = tuple(entry for entry in old if entry[0] is not client)
        if mask != EventMask.NONE and not client.closed:
            entries = _merged(entries, ((client, int(mask)),))
        if entries:
            self._interest[resource] = entries
        else:
            self._interest.pop(resource, None)
        self._count_masks(old, entries)

    def _count_masks(self, removed: tuple, added: tuple) -> None:
        uses = self._mask_uses
        for entries, step in ((removed, -1), (added, 1)):
            for _client, mask in entries:
                count = uses.get(mask, 0) + step
                if count:
                    uses[mask] = count
                else:
                    del uses[mask]
        selected = 0
        for mask in uses:
            selected |= mask
        self._selected = selected

    def selection_for(self, client, resource: int) -> EventMask:
        for selector, mask in self._interest.get(resource, ()):
            if selector is client:
                return EventMask(mask)
        return EventMask.NONE

    def forget_resource(self, resource: int) -> None:
        """The resource is gone: so are its selections and stream edges."""
        self._count_masks(self._interest.pop(resource, ()), ())
        with self._stream_lock:
            self._hungry_streams.discard(resource)
            self._announced_streams.discard(resource)

    def forget_client(self, client) -> None:
        """The client is gone: drop every selection it made."""
        for resource, entries in list(self._interest.items()):
            if any(selector is client for selector, _mask in entries):
                self.select(client, resource, EventMask.NONE)

    # -- emission -------------------------------------------------------------

    def emit(self, code: EventCode, resource: int, detail: int = 0,
             sample_time: int = 0, args: AttributeList | None = None,
             also_match: tuple[int, ...] = (),
             only_client=None) -> None:
        """Deliver one event to every interested client.

        ``also_match`` lists additional resource ids whose selections
        should receive the event (e.g. the root LOUD of a device event);
        the event itself always names ``resource``, and a client that
        selected several of the ids gets it once.  With ``only_client``
        the event is solicited out-of-band (the audio manager's
        SetRedirect), so it is delivered without a selection check.
        """
        self._m_emitted[code].inc()
        self._m_emitted_total.inc()
        if only_client is not None:
            if only_client in self.server.clients_snapshot():
                self._deliver(only_client, _message(
                    only_client, code, _event_body(
                        resource, detail, sample_time, args or _NO_ARGS)))
            return
        needed = _NEEDED[code]
        if not self._selected & needed:
            return
        interest = self._interest
        entries = interest.get(resource, ())
        for match_id in also_match:
            more = interest.get(match_id)
            if more:
                entries = _merged(entries, more) if entries else more
        payload = None
        for client, mask in entries:
            if mask & needed:
                if payload is None:     # one encode for every client
                    payload = _event_body(resource, detail, sample_time,
                                          args or _NO_ARGS)
                self._deliver(client, _message(client, code, payload))

    def emit_device(self, vdevice, code: EventCode, detail: int = 0,
                    sample_time: int = 0,
                    args: AttributeList | None = None) -> None:
        """Emit a device event, matching the device and its root LOUD
        (found only if some client selected this kind of event)."""
        loud = vdevice.loud
        also_match = ()
        if self._selected & _NEEDED[code]:
            also_match = (loud.root().loud_id if loud else 0,)
        self.emit(code, vdevice.device_id, detail, sample_time, args,
                  also_match)

    def emit_stream_hungry(self, sound) -> None:
        """DATA_REQUEST flow control, edge-triggered per low-water dip."""
        with self._stream_lock:
            if sound.sound_id in self._hungry_streams:
                return
            self._hungry_streams.add(sound.sound_id)
        self.emit(EventCode.DATA_REQUEST, sound.sound_id,
                  sample_time=self.server.hub.sample_time,
                  args=AttributeList({
                      ev.ARG_FRAMES_WANTED: int(sound.stream_space),
                  }))

    def stream_fed(self, sound) -> None:
        """The client wrote data: re-arm the low-water trigger."""
        if not sound.stream_hungry:
            with self._stream_lock:
                self._hungry_streams.discard(sound.sound_id)

    def emit_stream_available(self, sound) -> None:
        """DATA_AVAILABLE: recorded data ready, edge-triggered per drain."""
        with self._stream_lock:
            if sound.sound_id in self._announced_streams:
                return
            self._announced_streams.add(sound.sound_id)
        byte_count = sound.sound_type.frames_to_bytes(sound.frame_length)
        self.emit(EventCode.DATA_AVAILABLE, sound.sound_id,
                  sample_time=self.server.hub.sample_time,
                  args=AttributeList({
                      ev.ARG_BYTES_AVAILABLE: int(byte_count),
                  }))

    def stream_drained(self, sound) -> None:
        """The client read stream data: re-arm the available trigger."""
        with self._stream_lock:
            self._announced_streams.discard(sound.sound_id)
