"""The audio server.

"For each workstation, there is a controlling server.  The server
implements the requests defined in the protocol and executes on the
workstation where the audio hardware is located, providing low-level
functions to access that hardware and coordination between applications.
Clients and a server communicate over a reliable full duplex, 8-bit byte
stream ...  The audio server can service multiple client connections
simultaneously."  (paper section 4.1)

Threads (paper section 6.1 mapped onto our design; see DESIGN.md §4):

* the **connection manager** (a ``repro.listener.Listener``) accepts
  sockets and builds client containers, one setup thread per socket;
* a small pool of **selector-based I/O shards** (``ioloop.py``) reads
  requests and drains events non-blockingly for all clients at once;
* the **audio hub thread** is the device layer; the server registers one
  tick callback that runs the command-queue conductors and the wire-graph
  rendering engine inside the hub's block cycle.  The render phase runs
  serially on the hub thread (``render_pool.py``).

The re-entrant *topology* lock serializes mutating dispatch against the
block cycle; pure and snapshot-served queries bypass it entirely
(``dispatch.py``), and each shard read drains a client's pending
requests into one batched lock acquisition.  Event delivery is
queue-based so no client can stall audio.  See docs/PERFORMANCE.md
("Concurrency model") for the full lock hierarchy and REPRO_LOCK_DEBUG.
"""

from __future__ import annotations

import logging
import socket
import time
from collections.abc import Callable
from operator import attrgetter

from ..dsp import encodings
from ..dsp.tones import beep, busy_tone, dial_tone, ringback_tone
from ..hardware.config import HardwareConfig
from ..hardware.hub import AudioHub
from ..listener import Listener
from ..obs import MICROSECOND_BUCKETS, NULL_REGISTRY, MetricsRegistry
from ..protocol.setup import ID_RANGE_SIZE, SetupReply, SetupRequest
from ..protocol.types import MULAW_8K, PROTOCOL_MAJOR
from ..protocol.wire import (
    ConnectionClosed,
    Message,
    WireFormatError,
    set_nodelay,
)
from ..trunk.gateway import build_trunk
from .clients import ClientConnection
from .conductor import WakeHeap
from .config import ServerConfig
from .devices import build_wrappers
from .dispatch import Dispatcher
from .events import EventRouter
from .ioloop import IOShardPool
from .locks import RANK_CLIENTS, RANK_TOPOLOGY, InstrumentedRLock
from .loud import Loud
from .render_pool import RenderPool
from .resources import DEVICE_LOUD_ID, ResourceTable
from .snapshot import QuerySnapshot, build_query_snapshot
from .sounds import Catalogue, DecodeCache
from .stack import ActiveStack

log = logging.getLogger(__name__)


class AudioServer:
    """The whole server: hub, resources, stack, dispatch, connections."""

    def __init__(self, hardware: HardwareConfig | None = None,
                 settings: ServerConfig | None = None, *,
                 hub: AudioHub | None = None,
                 metrics: MetricsRegistry | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        #: Everything but the hardware (server/config.py).
        self.settings = settings = settings or ServerConfig()
        #: Read by every deadline here and in the trunk (a test seam).
        self.now = clock
        self.hub = hub or AudioHub(hardware, realtime=settings.realtime)
        self._last_stall_sweep = 0.0
        if metrics is None:
            metrics = MetricsRegistry(enabled=settings.metrics)
        self.metrics = metrics
        #: The topology lock: serializes mutating dispatch, the block
        #: cycle and client teardown.  Pure/snapshot queries never take
        #: it.  Instrumented (lock.wait_us / lock.hold_us); rank order
        #: and hold times are asserted with REPRO_LOCK_DEBUG=1.
        self.lock = InstrumentedRLock("topology", RANK_TOPOLOGY,
                                      metrics=metrics,
                                      debug=settings.lock_debug)
        self._started_at = clock()
        self._m_blocks = metrics.counter("audio.blocks")
        self._m_frames = metrics.counter("audio.frames")
        self._m_active_louds = metrics.gauge("audio.active_louds")
        self._m_plan_rebuilds = metrics.counter("renderplan.rebuilds")
        self._m_plan_invalidations = metrics.counter(
            "renderplan.invalidations")
        self._m_plan_ticks = metrics.counter("renderplan.ticks")
        self._m_retained = metrics.gauge("commands.retained")
        self._m_clients = metrics.gauge("clients.connected")
        self._m_accepted = metrics.counter("clients.accepted")
        self._m_setup_refused = metrics.counter("clients.setup_refused")
        self._m_resumed = metrics.counter("clients.resumed")
        self._m_evicted_slow = metrics.counter("clients.evicted_slow")
        self._m_tick_duration = metrics.histogram(
            "tick.duration_us", edges=MICROSECOND_BUCKETS)
        # duration_us = render_us + flush_us: the render component is
        # the tick callback up to the event flush, so time is attributed
        # to rendering, not client fan-out (the devices' end_block in
        # between is in neither).
        self._m_tick_render = metrics.histogram(
            "tick.render_us", edges=MICROSECOND_BUCKETS)
        self._m_tick_flush = metrics.histogram(
            "tick.flush_us", edges=MICROSECOND_BUCKETS)
        self._m_snapshot_rebuilds = metrics.counter(
            "querysnapshot.rebuilds")
        self.events = EventRouter(self)
        self.resources = ResourceTable(on_remove=self.events.forget_resource)
        #: Precompiled render plan: one (queue, devices) row per active
        #: LOUD, flattened once and reused every block until a topology
        #: mutation invalidates it.  None = rebuild on next tick.
        self._render_plan: list[tuple] | None = None
        #: The last plan built (kept across invalidation).
        self._plan_built: list[tuple] = []
        #: Monotonic topology version; bumped by plan invalidation,
        #: every locked dispatch batch and client teardown.  Keys the
        #: lock-free query snapshot.
        self._topology_version = 0
        self._query_snapshot: QuerySnapshot | None = None
        #: Renders every plan row on the hub thread (docs/PERFORMANCE.md).
        self.render_pool = RenderPool()
        #: Which command queues each block visits (conductor.py).
        self.wakes = WakeHeap()
        #: The connection layer (docs/PERFORMANCE.md, "Connection
        #: scaling"): every post-handshake socket is owned by one of a
        #: small pool of selector loops.
        self.ioloop = IOShardPool(self)
        #: Shared LRU of decoded sounds; dispatch attaches every sound a
        #: client creates or loads, so repeat plays skip the codec.
        self.decode_cache = DecodeCache(metrics=metrics)
        self.stack = ActiveStack(self)
        self.dispatcher = Dispatcher(self)
        self.manager: ClientConnection | None = None
        self._clients: list[ClientConnection] = []
        self._clients_lock = InstrumentedRLock("clients", RANK_CLIENTS,
                                               metrics=metrics,
                                               debug=settings.lock_debug)
        self._catalogues: dict[str, Catalogue] = {}
        self.host = settings.host
        self.port = settings.port
        self._listener: Listener | None = None
        self._running = False
        self._build_device_loud()
        self._build_catalogues(settings.catalogue)
        # Telephony observability: the exchange is built before any
        # server exists (often by the hub), so the first server that
        # wraps it lends it the real registry.
        exchange = self.hub.exchange
        if exchange.metrics is NULL_REGISTRY:
            exchange.attach_metrics(metrics)
        #: The trunk gateway (docs/TELEPHONY.md), if the settings ask for
        #: one; its tick runs as an exchange party in the block cycle.
        self.trunk = build_trunk(settings, exchange, metrics, clock)
        # The whole hub block cycle runs under the server lock so that
        # exchange and device callbacks are serialized against dispatch.
        self.hub.external_lock = self.lock
        self.hub.add_tick_callback(self._on_tick)
        self.hub.add_block_end_callback(self._end_tick)

    # -- construction ---------------------------------------------------------

    def _build_device_loud(self) -> None:
        """Register the device LOUD and every physical device."""
        device_loud = Loud(DEVICE_LOUD_ID, self)
        self.resources.add_server_resource(DEVICE_LOUD_ID, device_loud)
        self.physicals = build_wrappers(self)
        for wrapper in self.physicals:
            self.resources.add_server_resource(wrapper.device_id, wrapper)

    def _build_catalogues(self, catalogue_dir: str | None) -> None:
        """The built-in 'system' catalogue plus an optional directory."""
        rate = self.hub.sample_rate
        system = Catalogue("system")
        system.add_generated(
            "beep", encodings.encode(beep(rate), MULAW_8K), MULAW_8K)
        system.add_generated(
            "dial-tone", encodings.encode(dial_tone(1.0, rate), MULAW_8K),
            MULAW_8K)
        system.add_generated(
            "ringback", encodings.encode(ringback_tone(6.0, rate), MULAW_8K),
            MULAW_8K)
        system.add_generated(
            "busy", encodings.encode(busy_tone(1.0, rate), MULAW_8K),
            MULAW_8K)
        self._catalogues["system"] = system
        self._catalogues[""] = system   # the default catalogue
        if catalogue_dir is not None:
            self._catalogues["local"] = Catalogue("local", catalogue_dir)

    def catalogue(self, name: str) -> Catalogue:
        from ..protocol.errors import bad
        from ..protocol.types import ErrorCode

        try:
            return self._catalogues[name]
        except KeyError:
            raise bad(ErrorCode.BAD_NAME,
                      "no catalogue %r" % name) from None

    # -- the block cycle (runs in the hub thread, under the server lock) ------

    def invalidate_render_plan(self) -> None:
        """Topology changed: the next tick re-derives the flat plan.

        Called from every map/unmap/restack/activation change and every
        device, wire or LOUD mutation; the call is two attribute writes,
        so over-invalidating is always safe.
        """
        self._render_plan = None
        self._topology_version += 1
        self._m_plan_invalidations.inc()

    def _build_render_plan(self) -> list[tuple]:
        """Re-derive the plan and number its queues' rows.

        A queue's wakes survive a rebuild; one whose LOUD just became
        active was woken by its activation (``server_resume``), which
        covers any finish it missed while out of the plan.
        """
        for queue, _devices in self._plan_built:
            queue.plan_row = -1
        plan = self.stack.render_rows()
        for row, (queue, _devices) in enumerate(plan):
            queue.plan_row = row
        self._render_plan = self._plan_built = plan
        self._m_plan_rebuilds.inc()
        return plan

    def query_snapshot(self) -> QuerySnapshot:
        """The current immutable topology snapshot, rebuilt on demand.

        The fast path is two attribute reads and an int compare -- no
        lock.  On a version miss the snapshot is rebuilt under the
        topology lock; one brief acquisition amortized across every
        query until the next mutation.
        """
        snapshot = self._query_snapshot
        version = self._topology_version
        if snapshot is not None and snapshot.version == version:
            return snapshot
        with self.lock:
            snapshot = self._query_snapshot
            version = self._topology_version
            if snapshot is not None and snapshot.version == version:
                return snapshot
            snapshot = build_query_snapshot(self, version)
            self._query_snapshot = snapshot
            self._m_snapshot_rebuilds.inc()
            return snapshot

    def _on_tick(self, sample_time: int, frames: int) -> None:
        started = time.perf_counter()
        with self.lock:
            plan = self._render_plan
            if plan is None:
                plan = self._build_render_plan()
            self._m_blocks.inc()
            self._m_frames.inc(frames)
            self._m_active_louds.set(len(plan))
            self._m_plan_ticks.inc()
            # Same-tick events coalesce into one shard wakeup per
            # client; _end_tick flushes them in emission order once the
            # hardware has ended the block.
            self.events.begin_tick_batch()
            try:
                self._conduct(plan, sample_time, frames)
            except BaseException:
                # The block failed: still deliver what it emitted.
                self.events.flush_tick_batch()
                raise
        self._tick_render_us = (time.perf_counter() - started) * 1e6

    def _end_tick(self) -> None:
        """Deliver the block's events after the devices ended it.

        A client that hears QUEUE_EMPTY can then already read the block
        the queue emptied in from the speaker's capture.  Runs on the
        hub thread under the topology lock (the hub's external lock).
        """
        flushing = time.perf_counter()
        self.events.flush_tick_batch()
        flush = (time.perf_counter() - flushing) * 1e6
        self._m_tick_render.observe(self._tick_render_us)
        self._m_tick_flush.observe(flush)
        self._m_tick_duration.observe(self._tick_render_us + flush)
        self._sweep_stalled_clients()

    def _conduct(self, plan: list[tuple], sample_time: int,
                 frames: int) -> None:
        """One block: due queues' pre phase, render, post phase.

        Only queues whose wake falls inside the block run ``tick_pre``;
        those plus every queue with a finish reported before the post
        phase run ``tick_post``.  Both phases go in plan-row order, as if
        every row had been visited, so events keep their order.
        """
        block_end = sample_time + frames
        woken = sorted((queue for queue in self.wakes.due(block_end)
                        if queue.plan_row >= 0),
                       key=attrgetter("plan_row"))
        for queue in woken:
            queue.tick_pre(sample_time, frames)
        self.render_pool.render(plan, sample_time, frames)
        post = {queue.plan_row: queue for queue in woken}
        for queue in self.wakes.take_reported():
            if queue.plan_row >= 0:
                post[queue.plan_row] = queue
        schedule = self.wakes.schedule
        for row in sorted(post):
            queue = post[row]
            queue.tick_post(sample_time, frames, plan[row][1])
            schedule(queue, queue.wake_after(block_end))

    def _sweep_stalled_clients(self) -> None:
        """Evict consumers whose sockets have stopped taking writes.

        Runs off the block cycle but rate-limited to a few times per
        second; a stalled client is one whose shard has been unable to
        finish a single message write for longer than the settings'
        ``stall_deadline`` (its TCP buffers are full and it is not
        reading), at which point dropping events is no longer enough.
        """
        now = self.now()
        deadline = self.settings.stall_deadline
        if now - self._last_stall_sweep < min(0.25, deadline / 4):
            return
        self._last_stall_sweep = now
        for client in self.clients_snapshot():
            if client.evicted or client.closed:
                continue
            if client.stalled_for(now) > deadline:
                client.evicted = True
                self._m_evicted_slow.inc()
                log.warning(
                    "evicting stalled client %r: write blocked %.1fs, "
                    "queue depth %d, %d events already shed", client.name,
                    client.stalled_for(now), client.queue_depth,
                    client.dropped_events)
                client.close()

    # -- lifecycle ------------------------------------------------------------

    def start(self, start_hub: bool = True) -> None:
        """Start the hub and the connection manager.

        ``start_hub=False`` leaves the hub thread stopped so a test or
        benchmark can drive block time deterministically with
        ``server.hub.step(n)`` from sample time zero.
        """
        if self._running:
            return
        self._running = True
        self._listener = Listener(self.host, self.port, self._setup_client,
                                  "connection-manager").start()
        self.port = self._listener.port
        self.ioloop.start()
        if self.trunk is not None:
            self.trunk.start()
        if start_hub:
            self.hub.start()

    def stop(self) -> None:
        # Flipped under the topology lock, so a setup racing this stop
        # either registered its client before the sweep below or sees
        # the flag and drops the socket.
        with self.lock:
            self._running = False
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        for client in self.clients_snapshot():
            client.close()
        # Drains the deferred closes above, then force-tears-down
        # whatever is left before the shard threads exit.
        self.ioloop.shutdown()
        if self.trunk is not None:
            self.trunk.stop()
        self.hub.stop()

    def __enter__(self) -> "AudioServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- connection management ------------------------------------------------

    def _refuse_setup(self, sock: socket.socket, reason: str) -> None:
        """Refuse a handshake; the peer may already be gone."""
        self._m_setup_refused.inc()
        try:
            sock.sendall(SetupReply(False, reason=reason).encode())
        except OSError:
            pass    # refused *and* unreachable: nothing left to say
        try:
            sock.close()
        except OSError:
            pass

    def _setup_client(self, sock: socket.socket) -> None:
        set_nodelay(sock)
        try:
            setup = SetupRequest.read_from(sock)
        except (WireFormatError, ConnectionClosed, OSError,
                UnicodeDecodeError) as exc:
            # A stream that does not open with a well-formed setup request
            # is refused -- but only for the failures setup parsing can
            # actually produce; anything else is a server bug and must
            # propagate.
            self._m_setup_refused.inc()
            log.debug("refused connection setup: %s", exc)
            sock.close()
            return
        if setup.major != PROTOCOL_MAJOR:
            log.debug("refused client %r: protocol version %d",
                      setup.client_name, setup.major)
            self._refuse_setup(sock, "unsupported protocol version")
            return
        granted_fresh = False
        client = None
        with self.lock:
            # stop() flips _running under this lock before it sweeps the
            # clients, so a client registered here is always swept.
            running = self._running
            if not running:
                resumable = False
            elif setup.resume_base:
                # A reconnecting client asks for its old range back so
                # its resource ids stay valid across the drop.  Resume is
                # only safe once the old incarnation is fully gone --
                # otherwise the journal replay would collide with its
                # leftovers; the client backs off and retries.  The
                # refusal itself is sent after the lock is released: no
                # socket I/O under the topology lock.
                resumable = (
                    self.resources.was_granted(setup.resume_base)
                    and not self.resources.range_in_use(setup.resume_base)
                    and all(peer.id_base != setup.resume_base
                            for peer in self.clients_snapshot()))
                if resumable:
                    id_base, id_mask = setup.resume_base, ID_RANGE_SIZE - 1
                    self._m_resumed.inc()
            else:
                id_base, id_mask = self.resources.grant_range()
                granted_fresh = True
                resumable = True
            if resumable:
                client = ClientConnection(self, sock, setup.client_name,
                                          id_base)
                with self._clients_lock:
                    self._clients.append(client)
        if not running:
            sock.close()
            return
        if client is None:
            log.debug("refused resume of id base %d for client %r",
                      setup.resume_base, setup.client_name)
            self._refuse_setup(sock, "resume not ready")
            return
        try:
            sock.sendall(SetupReply(
                True, id_base=id_base, id_mask=id_mask,
                vendor="repro desktop audio").encode())
        except OSError as exc:
            # The peer dropped mid-handshake: roll the grant back so the
            # id range is not leaked, and count it as a refusal.
            log.debug("client %r vanished during setup: %s",
                      setup.client_name, exc)
            with self.lock:
                with self._clients_lock:
                    if client in self._clients:
                        self._clients.remove(client)
                if granted_fresh:
                    self.resources.release_range(id_base)
            self._m_setup_refused.inc()
            client.close()
            return
        self._m_accepted.inc()
        self._m_clients.set(len(self.clients_snapshot()))
        self.ioloop.register(client)

    def clients_snapshot(self) -> list[ClientConnection]:
        with self._clients_lock:
            return list(self._clients)

    def dispatch_batch(self, client: ClientConnection,
                       messages: list[Message]) -> None:
        """Dispatch one shard read's drained requests, batching the lock.

        Consecutive lock-needing requests run under *one* topology-lock
        acquisition; pure and snapshot requests in between run with no
        lock at all.  Per-client order is preserved (one shard thread
        owns each client), and the 16-bit sequence advances per message
        so replies and errors stay in lockstep with the client's journal.
        """
        self.dispatcher.observe_batch(len(messages))
        index, total = 0, len(messages)
        while index < total:
            if not self.dispatcher.needs_lock(messages[index]):
                client.sequence = (client.sequence + 1) & 0xFFFF
                self.dispatcher.handle_unlocked(client, messages[index])
                index += 1
                continue
            with self.lock:
                while (index < total
                       and self.dispatcher.needs_lock(messages[index])):
                    client.sequence = (client.sequence + 1) & 0xFFFF
                    self.dispatcher.handle(client, messages[index])
                    index += 1
                # One bump for the whole locked run: queries issued
                # after it see every mutation the run made.
                self._topology_version += 1

    def client_disconnected(self, client: ClientConnection) -> None:
        """Tear down everything a departed client owned."""
        with self.lock:
            if self.manager is client:
                self.manager = None
            for resource_id in self.resources.owned_by(client.id_base):
                resource = self.resources.maybe_get(resource_id)
                if isinstance(resource, Loud):
                    if resource.is_root() and resource.mapped:
                        self.stack.unmap_loud(resource)
            # Destroy root LOUDs (which takes devices and wires with
            # them), then everything left (sounds, stray wires).
            for resource_id in self.resources.owned_by(client.id_base):
                resource = self.resources.maybe_get(resource_id)
                if isinstance(resource, Loud) and resource.is_root():
                    resource.destroy()
            for resource_id in self.resources.owned_by(client.id_base):
                self.resources.remove(resource_id)
            self.events.forget_client(client)
            self._topology_version += 1
        with self._clients_lock:
            if client in self._clients:
                self._clients.remove(client)
        self._m_clients.set(len(self.clients_snapshot()))
        client.close()

    # -- observability --------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """The whole observability picture as one json-able dict.

        The same structure backs the GET_SERVER_STATS reply, the
        SIGUSR1/shutdown dump, and the benchmark harness's per-run
        collection -- one snapshot, three consumers.
        """
        # Counted here, not kept current by the block cycle.
        self._m_retained.set(sum(
            resource.queue.program.pending_count()
            + resource.queue.program.running_count()
            for _id, resource in self.resources.all_items()
            if isinstance(resource, Loud) and resource.queue is not None))
        snapshot = self.metrics.snapshot()
        clients = self.clients_snapshot()
        snapshot["server"] = {
            "uptime_seconds": self.now() - self._started_at,
            "sample_time": self.hub.sample_time,
            "sample_rate": self.hub.sample_rate,
            "block_frames": self.hub.block_frames,
            "clients_connected": len(clients),
            "io_shard_clients": self.ioloop.client_counts(),
        }
        snapshot["clients"] = [client.connection_stats()
                               for client in clients]
        if self.trunk is not None:
            snapshot["trunk"] = {
                "listen_port": self.trunk.port,
                "live_links": self.trunk.live_link_count(),
                "routes": [
                    {"prefix": route.prefix,
                     "endpoint": "%s:%d" % (route.host, route.port),
                     "connected": route.live_link() is not None}
                    for route in self.trunk.routes],
                "buffered_audio_samples":
                    self.trunk.buffered_audio_samples(),
                "mesh": self.trunk.mesh_snapshot(),
            }
        return snapshot
