"""Event routing.

"The server generally sends an event to an application only if the
application specifically asked to be informed of that event type."
(paper section 5.7)

Clients register (resource, mask) selections via SelectEvents; the
router fans each emitted event out to every client whose selection
covers it.  Device events are matched against both the device's own id
and its root LOUD's id, so an application can select once on the LOUD it
built rather than on every constituent device.

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
from ..protocol.events import Event
from ..protocol.types import EVENT_MASK_FOR_CODE, EventCode


class EventRouter:
    """Fans server events out to selecting clients."""

    def __init__(self, server) -> None:
        self.server = server
        self._hungry_streams: set[int] = set()
        self._announced_streams: set[int] = set()
        self._stream_lock = threading.Lock()
        #: client -> [Event], while a tick batch is open; else None.
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
        for client, batched in batch.items():
            client.send_events(batched)
        self._m_batch_flushes.inc()

    def _deliver(self, client, event: Event) -> None:
        self._m_delivered.inc()
        batch = self._tick_batch
        if batch is not None:
            batch.setdefault(client, []).append(event)
            self._m_coalesced.inc()
        else:
            client.send_event(event)

    # -- emission -------------------------------------------------------------

    def emit(self, code: EventCode, resource: int, detail: int = 0,
             sample_time: int = 0, args: AttributeList | None = None,
             also_match: tuple[int, ...] = (),
             only_client=None) -> None:
        """Deliver one event to every interested client.

        ``also_match`` lists additional resource ids whose selections
        should receive the event (e.g. the root LOUD of a device event);
        the event itself always names ``resource``.  With ``only_client``
        the event is solicited out-of-band (the audio manager's
        SetRedirect), so it is delivered without a selection check.
        """
        self._m_emitted[code].inc()
        self._m_emitted_total.inc()
        needed = EVENT_MASK_FOR_CODE[code]
        match_ids = (resource,) + also_match
        for client in self.server.clients_snapshot():
            if only_client is not None and client is not only_client:
                continue
            if only_client is not None or any(
                    client.selection_for(match_id) & needed
                    for match_id in match_ids):
                self._deliver(client, Event(
                    code, resource=resource, detail=detail,
                    sample_time=sample_time,
                    args=args or AttributeList(),
                    sequence=client.sequence & 0xFFFF))

    def emit_device(self, vdevice, code: EventCode, detail: int = 0,
                    sample_time: int = 0,
                    args: AttributeList | None = None) -> None:
        """Emit a device event, matching the device and its root LOUD."""
        root_id = vdevice.loud.root().loud_id if vdevice.loud else 0
        self.emit(code, vdevice.device_id, detail=detail,
                  sample_time=sample_time, args=args,
                  also_match=(root_id,))

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
