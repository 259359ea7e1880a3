"""The trunk gateway: one exchange's window onto its peers.

A :class:`TrunkGateway` federates the local
:class:`~repro.telephony.exchange.TelephoneExchange` with the exchanges
of other audio servers over TCP trunk links, presenting remote calls as
ordinary Line-compatible endpoints so every exchange semantic -- busy
treatment, no-answer timers, forwarding, caller ID, hangup supervision
-- works unchanged end to end:

* an **outbound leg** (:class:`RemoteLine`) fronts a remote *callee*:
  ringing it sends SETUP2 down the route's link, and ANSWER / RELEASE
  frames come back as answer / failure signaling;
* an **inbound leg** (:class:`InboundLeg`) fronts the remote *caller*:
  a SETUP2 frame dials the local number exactly as a local line would,
  and local signaling (answered, busy, hangup) flows back as frames.

Routing starts from a static longest-prefix table (``--trunk-route
PREFIX=host:port``): numbers no local line owns are matched against the
table when dialed or forwarded.  Each route owns at most one link,
reconnected after loss with the Alib
:class:`~repro.alib.connection.RetryPolicy` backoff (attempted from
short-lived connector threads; the tick never blocks).  Bearer audio is
carried as sequence-numbered mu-law frames.  A call that ends here plays
them out through a per-call :class:`~repro.trunk.jitter.JitterBuffer`;
a call this gateway only switches between two trunks forwards them raw,
from the link reader, as they arrive.

:meth:`TrunkGateway.enable_mesh` adds the dynamic routing plane on top
(docs/TELEPHONY.md, "Mesh routing"): peers are discovered through a
registry (``trunk/discovery.py``) instead of being wired by hand,
reachability propagates as ROUTE_ADVERT frames into a per-gateway
:class:`~repro.trunk.routing.RouteTable`, and calls for a prefix owned
two hops away are *tandem switched* -- the inbound leg is bridged to a
fresh outbound leg over another trunk, with the SETUP2 ``via`` trail
refusing loops, a hop-count ceiling, and dial-time failover to the
next-best route when the preferred next hop is down or refuses.  Static
routes stay as an override: a static prefix at least as specific as the
best mesh match dials first, with mesh paths as backup.

All signaling runs in :meth:`tick`, which the exchange drives inside
the audio block cycle -- link reader threads only park parsed signaling
frames, so exchange state is mutated under one clock (and, on a server,
under the topology lock).  Bearer is handled on the reader thread as it
arrives, touching only the leg table and a small bearer lock, never the
exchange.  On link loss every call riding the link is released mid-call
on both sides within a tick.
"""

from __future__ import annotations

import itertools
import logging
import os
import socket
import threading
import time
from collections.abc import Callable

import numpy as np

from ..alib.connection import RetryPolicy
from ..dsp.encodings import MULAW_DECODE_TABLE, mulaw_encode
from ..listener import Listener
from ..obs import NULL_REGISTRY
from ..protocol.wire import ConnectionClosed
from ..telephony.call import CallState
from ..telephony.line import HookState, Line
from .discovery import (
    DEFAULT_POLL_INTERVAL,
    MeshDiscovery,
    MeshRegistry,
    PeerRecord,
)
from .jitter import JitterBuffer
from .link import (
    DEFAULT_KEEPALIVE_INTERVAL,
    DEFAULT_OUTBOUND_BOUND,
    TrunkLink,
)
from .routing import RouteTable
from .wire import MAX_ADVERT_ENTRIES, UNREACHABLE_HOPS, FrameType, \
    Handshake, TrunkFrame, TrunkProtocolError

log = logging.getLogger(__name__)

#: Cap on the exponential backoff exponent (RetryPolicy caps the delay
#: itself; this just keeps ``multiplier ** attempt`` bounded).
_MAX_BACKOFF_EXPONENT = 16

#: Seconds that bound a dial's connect and handshake, and an accepted
#: peer's handshake.
HANDSHAKE_TIMEOUT = 2.0

#: RELEASE reasons that mean "this *path* failed", not "the callee
#: declined": a still-ringing outbound leg retries its next candidate
#: route instead of failing the call.
RETRYABLE_RELEASES = frozenset({
    "trunk down", "routing loop", "max hops exceeded",
})

#: Cadence (in ticks) of the per-leg gauge pass (the jitter depth and
#: active-call gauges).  160 ms at the 20 ms block cycle -- fresh
#: enough for stats consumers, invisible to the bearer path.
GAUGE_LEG_TICKS = 8

#: Numbers this process's unnamed gateways.  Peers refuse a handshake
#: that carries their own name, so the default must not repeat: it is
#: ``host:pid:n``.
_UNNAMED = itertools.count(1)


def parse_route(text: str) -> tuple[str, str, int]:
    """Parse a ``PREFIX=host:port`` route argument."""
    prefix, _, endpoint = text.partition("=")
    host, _, port = endpoint.rpartition(":")
    if not prefix or not host or not port.isdigit():
        raise ValueError("route must look like PREFIX=host:port: %r" % text)
    return prefix, host, int(port)


class DialTarget:
    """One peer gateway this gateway dials, and (at most) its link.

    A static route names the number ``prefix`` homed at the peer; a mesh
    peer follows its latest registry record, whose address and
    ``prefixes`` the mesh tick copies in.  Either way the link is
    redialed after loss with the gateway's backoff.
    """

    def __init__(self, host: str, port: int, *, prefix: str = "",
                 prefixes: tuple[str, ...] = ()) -> None:
        self.host = host
        self.port = port
        self.prefix = prefix
        self.prefixes = prefixes
        self.link: TrunkLink | None = None
        self.connecting = False
        self.attempt = 0
        self.next_attempt_at = 0.0
        self.ever_connected = False

    def live_link(self) -> TrunkLink | None:
        link = self.link
        if link is not None and link.alive:
            return link
        return None


class _AdvertState:
    """What one link has been told about the route table so far."""

    __slots__ = ("version", "sent")

    def __init__(self) -> None:
        self.version = -1
        #: (prefix, origin) -> (hops, seq) as last advertised.
        self.sent: dict = {}


class _TrunkLeg(Line):
    """Line-compatible endpoint fronting the far side of a trunk call."""

    def __init__(self, number: str, exchange, gateway: "TrunkGateway",
                 link: TrunkLink | None, call_id: int) -> None:
        super().__init__(number, exchange)
        self.gateway = gateway
        self.link = link
        self.call_id = call_id
        self.alerting = False
        self.released = False
        self.jitter = gateway.build_jitter()
        self._seq_out = 0
        #: The trunk leg arriving bearer is forwarded to once a transit
        #: call connects (None: buffer it in ``jitter``).  A pair points
        #: at each other; releasing either side clears its half.  Set
        #: under the gateway's bearer lock.
        self.cut_to: _TrunkLeg | None = None
        #: Onward seq minus upstream seq, fixed by the first frame
        #: forwarded (None until then).
        self._seq_offset: int | None = None

    # -- frames out -----------------------------------------------------------

    def _send(self, frame: TrunkFrame) -> None:
        self.gateway.send_on(self.link, frame)

    def _send_release(self, reason: str) -> None:
        if self.released:
            return
        self.released = True
        self._send(TrunkFrame(FrameType.RELEASE, self.call_id,
                              reason=reason))
        self.gateway.deregister_leg(self)

    # -- exchange-facing audio/signaling overrides ----------------------------

    def deliver_audio(self, samples: np.ndarray) -> None:
        """The local party spoke: stage the block as bearer audio.

        The gateway's tick encodes every staged call's audio for this
        window in one table take and ships it as a single AUDIO_BATCH.
        The sequence number is allocated here, at stage time, so bearer
        ordering per call matches the order the exchange routed it.
        """
        link = self.link
        if link is not None and link.alive:
            seq = self._seq_out
            self._seq_out = seq + 1
            self.gateway._stage.setdefault(link, []).append(
                (self.call_id, seq, samples))

    def deliver_dtmf(self, digits: str) -> None:
        """The local party pressed keys: relay them as signaling."""
        self._send(TrunkFrame(FrameType.DTMF, self.call_id, digits=digits))


class RemoteLine(_TrunkLeg):
    """Outbound leg: the remote *callee* as seen by the local exchange.

    The leg carries an ordered list of candidate links (best route
    first).  Ringing dials the first live one; a path failure -- the
    link dying mid-dial, or the next hop releasing with a retryable
    reason like ``routing loop`` or ``trunk down`` -- fails over to the
    next candidate before the call itself is failed.
    """

    def __init__(self, number: str, exchange, gateway: "TrunkGateway",
                 link: TrunkLink | None, call_id: int, *,
                 candidates=()) -> None:
        super().__init__(number, exchange, gateway, link, call_id)
        self._candidates: list[TrunkLink] = list(candidates)
        self._via: tuple = ()
        self._hops = 0
        self._tandem = False
        self._upstream_link: TrunkLink | None = None
        self._attempted = False

    def start_ringing(self, caller_info) -> None:
        self.ringing = True
        self.caller_info = caller_info
        call = self.exchange.call_for(self)
        upstream = call.caller if call is not None else None
        if isinstance(upstream, InboundLeg):
            # Tandem switch: the caller is itself a trunk leg, so this
            # dial continues a path.  Inherit the loop-prevention trail
            # and never route back out the trunk the call came in on.
            self._via = upstream.via
            self._hops = upstream.hops + 1
            self._upstream_link = upstream.link
            self._tandem = True
        if not self._dial_next():
            # No live candidate: fail the call instead of ringing into
            # the void.  The call is already registered, so the release
            # path works synchronously from inside dial().
            self.gateway.deregister_leg(self)
            self.remote_released("trunk down")
            return
        if self._tandem:
            self.gateway._m_tandem.inc()

    def _dial_next(self) -> bool:
        """Send SETUP2 down the next viable candidate; False when none
        is left (dead links and via-listed next hops are skipped)."""
        while self._candidates:
            link = self._candidates.pop(0)
            if not link.alive or link.name in self._via:
                continue
            if link is self._upstream_link:
                continue
            first = not self._attempted
            self._attempted = True
            self.link = link
            self.call_id = link.allocate_call_id()
            self.gateway.register_outbound(self, first=first)
            info = self.caller_info
            self._send(TrunkFrame(
                FrameType.SETUP2, self.call_id, number=self.number,
                caller_id=info.number,
                forwarded_from=info.forwarded_from or "",
                hops=self._hops,
                via=self._via + (self.gateway.name,)))
            return True
        return False

    def failover(self, reason: str) -> bool:
        """Mid-dial path failure: retry the next-best route.

        Only a still-ringing leg fails over (an answered call's path
        death is a real mid-call drop), and only for path-shaped
        reasons -- busy or no-such-number came from the destination
        itself and must not be retried elsewhere.
        """
        if not self.ringing or reason not in RETRYABLE_RELEASES:
            return False
        if not self._dial_next():
            return False
        self.gateway._m_failovers.inc()
        return True

    def stop_ringing(self) -> None:
        """The caller abandoned (or a timer fired) while we alerted."""
        if self.ringing:
            self.ringing = False
            self._send_release("abandoned")

    def far_end_hung_up(self) -> None:
        """The local caller hung up on the connected call."""
        self._send_release("hangup")

    # Called by the gateway when the matching frames arrive.

    def remote_answered(self) -> None:
        self.ringing = False
        self.hook = HookState.OFF_HOOK
        self.exchange.line_off_hook(self)

    def remote_released(self, reason: str) -> None:
        if self.failover(reason):
            return
        self.ringing = False
        self.released = True
        self.exchange.remote_released(self, reason or "released")


class InboundLeg(_TrunkLeg):
    """Inbound leg: the remote *caller* as seen by the local exchange."""

    def __init__(self, number: str, exchange, gateway: "TrunkGateway",
                 link: TrunkLink, call_id: int) -> None:
        super().__init__(number, exchange, gateway, link, call_id)
        self.hook = HookState.OFF_HOOK    # the remote caller is off hook
        #: Tandem context from SETUP2: the gateways this call has
        #: already left, and how many trunk hops it has crossed.  A
        #: tandem dial onward inherits both.
        self.via: tuple = ()
        self.hops = 0

    def far_end_answered(self) -> None:
        """The call connected: answer upstream, and if the callee is
        itself a trunk leg (a tandem or forwarded transit call), cut
        the bearer through between the two trunks."""
        call = self.exchange.call_for(self)
        if call is not None and isinstance(call.callee, _TrunkLeg):
            self.gateway.cut_through(self, call.callee)
        self._send(TrunkFrame(FrameType.ANSWER, self.call_id))

    def far_end_hung_up(self) -> None:
        """The local callee hung up the connected call."""
        self._send_release("hangup")

    def call_failed(self, reason: str) -> None:
        """The local dial failed (busy, bad number, no answer...)."""
        self._send_release(reason)

    def remote_released(self, reason: str) -> None:
        """The remote caller went away: hang this leg up locally."""
        self.released = True
        if self.hook is HookState.OFF_HOOK:
            self.on_hook()


class TrunkGateway:
    """Federates the local exchange with remote peers over trunk links."""

    def __init__(self, exchange, *, name: str = "",
                 metrics=None,
                 keepalive_interval: float = DEFAULT_KEEPALIVE_INTERVAL,
                 outbound_bound: int = DEFAULT_OUTBOUND_BOUND,
                 jitter_depth_seconds: float = 0.32,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.exchange = exchange
        self.name = name or "%s:%d:%d" % (socket.gethostname(),
                                          os.getpid(), next(_UNNAMED))
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.keepalive_interval = keepalive_interval
        self.outbound_bound = outbound_bound
        self.jitter_depth_seconds = jitter_depth_seconds
        #: Read by every stale-link, redial and registry-TTL decision.
        self.now = clock
        #: Backoff between dials of an unreachable peer: 50 ms doubling
        #: to 2 s.  Its jitter is seeded by the name, so the redial
        #: schedule is this gateway's alone and the same on every run.
        self._redial = RetryPolicy(attempts=1, base_delay=0.05,
                                   max_delay=2.0, seed=self.name)
        self.host: str | None = None
        self.port: int | None = None
        self._routes: list[DialTarget] = []
        self._accepted: list[TrunkLink] = []
        #: The dynamic routing plane (off until enable_mesh): the route
        #: table always exists so lookup code never branches on None.
        self.mesh_enabled = False
        self.table = RouteTable(self.name)
        #: Discovered peers by name (static routes are ``_routes``).
        self._mesh_peers: dict[str, DialTarget] = {}
        self._mesh_neighbors: frozenset[str] | None = None
        self._mesh_advertise: tuple[str, int] | None = None
        self._registry: MeshRegistry | None = None
        self._discovery: MeshDiscovery | None = None
        self._seen_generation = 0
        #: link -> _AdvertState: what each mesh link was last told.
        self._advertised: dict[TrunkLink, _AdvertState] = {}
        #: link -> {call_id -> leg}; mutated on the tick thread under
        #: _state_lock (removals also under _bearer_lock, so a reader
        #: that finds a leg under it knows the leg is registered).
        self._legs: dict[TrunkLink, dict[int, _TrunkLeg]] = {}
        #: link -> [(call_id, seq, pcm)] staged this flush window: the
        #: blocks local parties spoke.  Touched only on the tick thread
        #: (deliver_audio runs inside the exchange's block cycle), so it
        #: needs no lock.
        self._stage: dict[TrunkLink, list] = {}
        self._state_lock = threading.Lock()
        #: Notified when a dialed link comes up (wait_connected).
        self._link_up = threading.Condition(self._state_lock)
        #: Makes a reader's forward-or-push decisions for a batch, a
        #: cut-through install and a leg's release atomic with respect
        #: to each other.  Held only across queue handoffs.
        self._bearer_lock = threading.Lock()
        self._listener: Listener | None = None
        self._running = False
        self._started = False
        m = self.metrics
        self._m_frames_in = m.counter("trunk.frames_in")
        self._m_frames_out = m.counter("trunk.frames_out")
        self._m_signaling_in = m.counter("trunk.signaling_in")
        self._m_signaling_out = m.counter("trunk.signaling_out")
        self._m_connects = m.counter("trunk.connects")
        self._m_reconnects = m.counter("trunk.reconnects")
        self._m_setup_refused = m.counter("trunk.setup_refused")
        self._m_calls_in = m.counter("trunk.calls.inbound")
        self._m_calls_out = m.counter("trunk.calls.outbound")
        self._m_links = m.gauge("trunk.links")
        self._m_active = m.gauge("trunk.active_remote_calls")
        self._m_jitter_depth = m.gauge("trunk.jitter.depth_samples")
        self._m_late = m.counter("trunk.jitter.late_frames")
        self._m_lost = m.counter("trunk.jitter.lost_frames")
        self._m_underruns = m.counter("trunk.jitter.underruns")
        self._m_jitter_shed = m.counter("trunk.jitter.shed_samples")
        self._m_outbound_shed = m.counter("trunk.outbound.shed_audio_frames")
        self._m_batch_out = m.counter("trunk.batch.frames_out")
        self._m_batch_in = m.counter("trunk.batch.frames_in")
        self._m_batch_entries_out = m.counter("trunk.batch.entries_out")
        self._m_batch_entries_in = m.counter("trunk.batch.entries_in")
        self._m_sendalls = m.counter("trunk.link.sendalls")
        self._m_recvs = m.counter("trunk.link.recvs")
        self._m_adverts_in = m.counter("trunk.route.adverts_in")
        self._m_adverts_out = m.counter("trunk.route.adverts_out")
        self._m_withdrawn = m.counter("trunk.route.withdrawn")
        self._m_loop_refused = m.counter("trunk.route.loop_refused")
        self._m_hop_refused = m.counter("trunk.route.hop_refused")
        self._m_failovers = m.counter("trunk.route.failovers")
        self._m_tandem = m.counter("trunk.route.tandem_calls")
        self._m_tandem_frames = m.counter("trunk.route.tandem_frames")
        self._m_route_entries = m.gauge("trunk.route.entries")
        self._m_mesh_peers = m.gauge("mesh.peers")
        self._m_polls = m.counter("mesh.discovery.polls")
        self._m_poll_failures = m.counter("mesh.discovery.poll_failures")
        self._m_registrations = m.counter("mesh.registry.registrations")
        self._m_reg_expired = m.counter("mesh.registry.expired")
        self._gauge_ticks = 0
        exchange.add_trunk_resolver(self)
        exchange.add_party(self)

    # -- configuration --------------------------------------------------------

    def add_route(self, prefix: str, host: str, port: int) -> DialTarget:
        route = DialTarget(host, port, prefix=prefix)
        self._routes.append(route)
        if self._started:
            self._kick_route(route, self.now())
        return route

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Configure (and, if already started, open) the trunk listener."""
        self.host = host
        self.port = port
        if self._started:
            self._open_listener()

    @property
    def routes(self) -> list[DialTarget]:
        return list(self._routes)

    def enable_mesh(self, *, registry: tuple[str, int] | None = None,
                    serve_registry: tuple[str, int] | None = None,
                    prefixes=(),
                    neighbors=None,
                    advertise: tuple[str, int] | None = None,
                    poll_interval: float = DEFAULT_POLL_INTERVAL) -> None:
        """Join the dynamic routing mesh (docs/TELEPHONY.md).

        ``registry`` is the host/port of the fleet's registry endpoint;
        ``serve_registry`` makes *this* node host it (a node may do
        both -- the registry host registers with itself when
        ``registry`` is omitted).  ``prefixes`` are the number prefixes
        this exchange originates.  ``neighbors`` restricts which
        discovered peers this node *initiates* links to (topology
        policy; None links to every peer, deduplicated by name order so
        two nodes never cross-connect).  ``advertise`` overrides the
        trunk listener address published to the registry -- e.g. when
        peers must reach it through a proxy or NAT.

        Gateway names must be unique across the mesh: the name is the
        registry key, the route-advert origin, and the SETUP2 via-list
        entry that makes loop prevention work.
        """
        self.mesh_enabled = True
        for prefix in prefixes:
            self.table.add_local(prefix)
        if neighbors is not None:
            self._mesh_neighbors = frozenset(neighbors)
        self._mesh_advertise = advertise
        if serve_registry is not None:
            self._registry = MeshRegistry(*serve_registry, clock=self.now)
        if registry or serve_registry:
            self._discovery = MeshDiscovery(registry or serve_registry,
                                            self._mesh_record,
                                            interval=poll_interval)
        if self.host is None:
            # A mesh node must accept trunks from its peers; pick an
            # ephemeral listener unless one was configured explicitly.
            self.listen()
        if self._started:
            self._start_mesh()

    def _mesh_record(self) -> PeerRecord:
        """This node's registration (called by the discovery poller)."""
        if self._mesh_advertise is not None:
            host, port = self._mesh_advertise
        else:
            host, port = self.host or "127.0.0.1", self.port or 0
        return PeerRecord(self.name, host, port,
                          self.table.local_prefixes)

    def _start_mesh(self) -> None:
        if self._registry is not None:
            self._registry.start()
            if (self._discovery is not None
                    and self._discovery.registry[1] == 0):
                # Registering with our own just-bound registry: the
                # ephemeral port is only known now.
                self._discovery.registry = (self._registry.host,
                                            self._registry.port)
        if self._discovery is not None:
            self._discovery.start()

    def build_jitter(self) -> JitterBuffer:
        """A leg's buffer, counting its tallies into ``trunk.jitter.*``
        as they happen."""
        rate = self.exchange.sample_rate
        jitter = JitterBuffer(
            max_depth_samples=max(1, int(self.jitter_depth_seconds * rate)))
        jitter.m_late, jitter.m_lost = self._m_late, self._m_lost
        jitter.m_underruns = self._m_underruns
        jitter.m_shed = self._m_jitter_shed
        return jitter

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "TrunkGateway":
        if self._started:
            return self
        self._started = True
        self._running = True
        if self.host is not None:
            self._open_listener()
        if self.mesh_enabled:
            self._start_mesh()
        for route in self._routes:
            self._kick_route(route, self.now())
        return self

    def stop(self) -> None:
        self._running = False
        self._started = False
        if self._discovery is not None:
            self._discovery.stop()
        if self._registry is not None:
            self._registry.stop()
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        for link in self._all_links():
            link.close()
        self.exchange.remove_trunk_resolver(self)
        self.exchange.remove_party(self)

    def _open_listener(self) -> None:
        if self._listener is not None:
            return
        self._listener = Listener(self.host, self.port or 0, self._handshake,
                                  "trunk-accept").start()
        self.port = self._listener.port

    def connected(self) -> bool:
        """Every configured route currently has a live link."""
        return all(route.live_link() is not None for route in self._routes)

    def wait_connected(self, timeout: float = 5.0) -> bool:
        """Wait up to ``timeout`` wall seconds for every route to come
        up (tests, tools); woken by each link a dial brings up."""
        with self._link_up:
            return self._link_up.wait_for(self.connected, timeout)

    # -- resolver API (called by the exchange under its lock) -----------------

    def route_for(self, number: str) -> DialTarget | None:
        best = None
        for route in self._routes:
            if number.startswith(route.prefix):
                if best is None or len(route.prefix) > len(best.prefix):
                    best = route
        return best

    def outbound_leg(self, number: str) -> Line | None:
        """A fresh outbound leg for ``number``, if any route covers it.

        The leg carries every viable path, ordered: the static route
        wins when its prefix is at least as specific as the best mesh
        match (``--trunk-route`` stays an override), then mesh
        candidates by hop count.  Only *live* links become candidates
        -- a prefix whose every next hop is dead still resolves (so the
        failure is "trunk down", not "no such number") but the dial
        fails fast instead of queueing into a dead link.
        """
        route = self.route_for(number)
        static_len = len(route.prefix) if route is not None else -1
        mesh_links: list[TrunkLink] = []
        mesh_live_len = -1
        mesh_known_len = -1
        if self.mesh_enabled:
            mesh_links, mesh_live_len = self.table.candidates(number)
            mesh_known_len = self.table.remote_match_len(number)
        if route is None and mesh_known_len < 0:
            return None
        candidates: list[TrunkLink] = []
        static_link = route.live_link() if route is not None else None
        if static_len >= max(mesh_live_len, mesh_known_len):
            if static_link is not None:
                candidates.append(static_link)
            candidates += [link for link in mesh_links
                           if link is not static_link]
        else:
            candidates = list(mesh_links)
            if static_link is not None and static_link not in candidates:
                candidates.append(static_link)
        link = candidates[0] if candidates else None
        return RemoteLine(number, self.exchange, self, link, 0,
                          candidates=candidates)

    # -- leg registry ---------------------------------------------------------

    def register_outbound(self, leg: RemoteLine, *,
                          first: bool = True) -> None:
        with self._state_lock:
            self._legs.setdefault(leg.link, {})[leg.call_id] = leg
        if first:
            self._m_calls_out.inc()
        self._m_active.set(self._leg_count())

    def deregister_leg(self, leg: _TrunkLeg) -> None:
        with self._state_lock, self._bearer_lock:
            by_call = self._legs.get(leg.link)
            if by_call is not None and by_call.get(leg.call_id) is leg:
                del by_call[leg.call_id]
                if not by_call:
                    self._legs.pop(leg.link, None)
            leg.cut_to = None
        self._m_active.set(self._leg_count())

    def _leg_count(self) -> int:
        with self._state_lock:
            return sum(len(by_call) for by_call in self._legs.values())

    # -- frames out -----------------------------------------------------------

    def send_on(self, link: TrunkLink | None, frame: TrunkFrame) -> None:
        if link is None or not link.alive:
            return
        # lock-ok: TrunkLink.send is a bounded queue handoff, not socket I/O
        if link.send(frame):
            self._m_signaling_out.inc()

    def _flush_staged(self) -> None:
        """Encode and ship every link's spoken audio (tick thread).

        One AUDIO_BATCH per link: one ``np.concatenate`` + one mu-law
        table take covers every spoken block, whose entries are
        zero-copy views into that single encode.
        """
        if not self._stage:
            return
        stage = self._stage
        self._stage = {}
        for link, spoken in stage.items():
            if not link.alive:
                continue
            blocks = [samples for _call_id, _seq, samples in spoken]
            pcm = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            encoded = memoryview(mulaw_encode(pcm))
            batch = []
            position = 0
            for call_id, seq, samples in spoken:
                length = len(samples)
                batch.append((call_id, seq,
                              encoded[position:position + length]))
                position += length
            accepted = link.send_batch(batch)
            if accepted:
                self._m_frames_out.inc(accepted)

    # -- the tick (runs inside the exchange's block cycle) --------------------

    def tick(self, frames: int) -> None:
        now = self.now()
        links = self._reap_dead_links(now)
        for route in self._routes:
            if route.live_link() is None:
                self._kick_route(route, now)
        if self.mesh_enabled:
            self._mesh_tick(now)
        for link in links:
            while link.inbound:
                self._handle_frame(link, link.inbound.popleft())
        self._pump_audio(frames)
        # Everything local parties spoke this block cycle goes out as
        # one batch per link (transit audio already left on arrival).
        self._flush_staged()
        if self.mesh_enabled:
            self._flush_adverts(links)
        self._update_gauges(links)

    def _all_links(self) -> list[TrunkLink]:
        with self._state_lock:
            targets = [*self._routes, *self._mesh_peers.values()]
            links = [target.link for target in targets
                     if target.link is not None]
            links.extend(self._accepted)
        return links

    def _reap_dead_links(self, now: float) -> list[TrunkLink]:
        """Close stale links and release the calls of dead ones; the
        links still alive."""
        links = self._all_links()
        for link in links:
            if link.alive and now - link.last_rx > link.keepalive_timeout:
                log.warning("trunk link %s stale (%.1fs silent): closing",
                            link.name, now - link.last_rx)
                link.close()
        dead = [link for link in links if not link.alive]
        if dead:
            with self._state_lock:
                self._accepted = [link for link in self._accepted
                                  if link not in dead]
        for link in dead:
            if self.mesh_enabled:
                # Withdraw everything the dead link taught us *before*
                # releasing legs: a failover dial inside the release
                # must not re-select the dead path, and the version
                # bump makes the advert flush propagate withdrawals.
                lost = self.table.withdraw_link(link)
                if lost:
                    log.info("trunk link %s down: withdrew %d route(s)",
                             link.name, len(lost))
                self._advertised.pop(link, None)
            self._release_all_on(link, "trunk down")
        return [link for link in links if link.alive]

    def _release_all_on(self, link: TrunkLink, reason: str) -> None:
        with self._state_lock, self._bearer_lock:
            legs = list(self._legs.pop(link, {}).values())
            for leg in legs:
                leg.cut_to = None
        for leg in legs:
            # A ringing outbound leg whose path just died retries its
            # next-best candidate before the call is failed.
            leg.remote_released(reason)
        if legs:
            self._m_active.set(self._leg_count())

    # -- route (re)connection -------------------------------------------------

    def _kick_route(self, target: DialTarget, now: float) -> None:
        if not self._running:
            return
        with self._state_lock:
            if target.connecting or now < target.next_attempt_at:
                return
            target.connecting = True
        threading.Thread(target=self._connect_route, args=(target,),
                         name="trunk-connect-%s:%d" % (target.host,
                                                       target.port),
                         daemon=True).start()

    def _connect_route(self, target: DialTarget) -> None:
        try:
            sock = socket.create_connection(
                (target.host, target.port), timeout=HANDSHAKE_TIMEOUT)
        except OSError as exc:
            self._connect_failed(target, str(exc))
            return
        link = self._handshake(sock, target)
        if link is None:
            self._connect_failed(target, "handshake failed")
            return
        with self._state_lock:
            target.connecting = False
            target.attempt = 0
            reconnect, target.ever_connected = target.ever_connected, True
        self._m_connects.inc()
        if reconnect:
            self._m_reconnects.inc()
        log.info("trunk link to %s:%d up (peer %r)", target.host,
                 target.port, link.name)

    def _connect_failed(self, target: DialTarget, why: str) -> None:
        with self._state_lock:
            delay = self._redial.delay(
                min(target.attempt, _MAX_BACKOFF_EXPONENT))
            target.attempt += 1
            target.next_attempt_at = self.now() + delay
            target.connecting = False
        log.debug("trunk dial to %s:%d failed (%s); retry in %.2fs",
                  target.host, target.port, why, delay)

    # -- mesh: discovery-driven links + route adverts (tick thread) -----------

    def _mesh_tick(self, now: float) -> None:
        """Fold the latest discovery snapshot into peer links."""
        discovery = self._discovery
        if (discovery is not None
                and discovery.generation != self._seen_generation):
            self._seen_generation = discovery.generation
            roster = discovery.peers()
            stale_links: list[TrunkLink] = []
            with self._state_lock:
                for name, record in roster.items():
                    peer = self._mesh_peers.get(name)
                    if peer is None:
                        peer = self._mesh_peers[name] = DialTarget(
                            record.host, record.port)
                    elif (record.host, record.port) != (peer.host,
                                                        peer.port):
                        if peer.link is not None:
                            stale_links.append(peer.link)
                            peer.link = None
                        peer.host, peer.port = record.host, record.port
                    peer.prefixes = record.prefixes
                for name in [name for name in self._mesh_peers
                             if name not in roster]:
                    peer = self._mesh_peers.pop(name)
                    if peer.link is not None:
                        stale_links.append(peer.link)
            for link in stale_links:
                # Deregistered (or re-addressed) peers: close outside
                # the state lock, the reap releases their calls.
                link.close()
        with self._state_lock:
            peers = list(self._mesh_peers.items())
        linked_names = {link.name for link in self._all_links()
                        if link.alive}
        for name, peer in peers:
            if (self._should_initiate(name)
                    and peer.live_link() is None
                    and name not in linked_names):
                self._kick_route(peer, now)

    def _should_initiate(self, name: str) -> bool:
        """Does the neighbor policy let us open the link to ``name``?

        With an explicit neighbor list, only listed peers are dialed
        (the topology knob the line/star soaks turn).  Without one,
        every peer is a neighbor and the lexically smaller name
        initiates, so two nodes never cross-connect.
        """
        if name == self.name:
            return False
        if self._mesh_neighbors is not None:
            return name in self._mesh_neighbors
        return self.name < name

    def _flush_adverts(self, links: list[TrunkLink]) -> None:
        """Tell each mesh link what changed in the route table.

        Re-advertisement is bounded two ways: nothing is sent while the
        table version a link last saw is current, and what is sent is
        the *diff* against that link's previous export (vanished routes
        go out as UNREACHABLE_HOPS withdrawals).  A fresh link has no
        advert state, so it receives the full table once.
        """
        version = self.table.version
        for link in links:
            if not link.alive:
                continue
            state = self._advertised.get(link)
            if state is None:
                state = self._advertised[link] = _AdvertState()
            elif state.version == version:
                continue
            export = self.table.exports_for(link)
            adverts = [(prefix, origin, hops, seq)
                       for (prefix, origin), (hops, seq) in export.items()
                       if state.sent.get((prefix, origin)) != (hops, seq)]
            adverts += [(prefix, origin, UNREACHABLE_HOPS, seq)
                        for (prefix, origin), (_hops, seq)
                        in state.sent.items()
                        if (prefix, origin) not in export]
            state.version = version
            state.sent = export
            for start in range(0, len(adverts), MAX_ADVERT_ENTRIES):
                chunk = tuple(adverts[start:start + MAX_ADVERT_ENTRIES])
                self.send_on(link, TrunkFrame(FrameType.ROUTE_ADVERT,
                                              adverts=chunk))
                self._m_adverts_out.inc(len(chunk))

    # -- the handshake (connector and connection threads) -------------------

    def _handshake(self, sock: socket.socket,
                   target: DialTarget | None = None) -> TrunkLink | None:
        """Exchange preambles on a fresh trunk socket, bounded by
        :data:`HANDSHAKE_TIMEOUT`; a compatible peer becomes a live link.

        ``target`` is the peer this gateway dialed (the initiator speaks
        first); None means the socket was accepted.  The link is
        attached to ``target`` or to the accepted list.  Returns None,
        with the socket closed, if the peer is refused or the gateway
        stopped meanwhile.
        """
        local = Handshake(self.name, sample_rate=self.exchange.sample_rate)
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            if target is not None:
                sock.sendall(local.encode())
            peer = Handshake.read_from(sock)
            if target is None:
                sock.sendall(local.encode())
            problem = local.compatible_with(peer)
            if problem is not None:
                raise TrunkProtocolError(problem)
            sock.settimeout(None)
        except (OSError, ConnectionClosed, TrunkProtocolError) as exc:
            sock.close()
            # A refusal is counted on either end.  A dial that merely
            # failed (reset, timeout, early close) is left to the
            # redial backoff; the acceptor has no backoff and counts it.
            if target is None or isinstance(exc, TrunkProtocolError):
                log.warning("trunk handshake refused: %s", exc)
                self._m_setup_refused.inc()
            else:
                log.debug("trunk handshake with %s:%d failed: %s",
                          target.host, target.port, exc)
            return None
        with self._state_lock:
            # stop() may have swept the links while this peer was
            # handshaking; a link attached now would outlive it.
            if self._running:
                link = TrunkLink(
                    sock, peer, initiated=target is not None,
                    keepalive_interval=self.keepalive_interval,
                    outbound_bound=self.outbound_bound, clock=self.now)
                link.on_bearer = self._bearer_arrived
                link.start()
                if target is None:
                    self._accepted.append(link)
                else:
                    target.link = link
                    self._link_up.notify_all()
                return link
        sock.close()
        return None

    # -- frame handling (tick thread) -----------------------------------------

    def _leg_for(self, link: TrunkLink, call_id: int) -> _TrunkLeg | None:
        with self._state_lock:
            return self._legs.get(link, {}).get(call_id)

    def _handle_frame(self, link: TrunkLink, frame: TrunkFrame) -> None:
        self._m_signaling_in.inc()
        if frame.type is FrameType.ROUTE_ADVERT:
            self._m_adverts_in.inc(len(frame.adverts))
            if self.mesh_enabled:
                # learn() bumps the table version on change; the next
                # advert flush propagates it onward.
                for prefix, origin, hops, seq in frame.adverts:
                    self.table.learn(link, prefix, origin, hops, seq)
            # A non-mesh gateway (static routes only) ignores adverts
            # rather than refusing them: a mesh neighbor advertises to
            # every link it has.
            return
        if frame.type is FrameType.SETUP2:
            self._handle_setup(link, frame)
            return
        leg = self._leg_for(link, frame.call_id)
        if leg is None:
            return
        if frame.type is FrameType.ALERTING:
            leg.alerting = True
        elif frame.type is FrameType.ANSWER:
            if isinstance(leg, RemoteLine):
                leg.remote_answered()
        elif frame.type is FrameType.RELEASE:
            self.deregister_leg(leg)
            leg.remote_released(frame.reason)
        elif frame.type is FrameType.DTMF:
            self.exchange.route_dtmf(leg, frame.digits)

    def _handle_setup(self, link: TrunkLink, frame: TrunkFrame) -> None:
        if self._leg_for(link, frame.call_id) is not None:
            log.warning("trunk link %s: duplicate call id %d in SETUP2",
                        link.name, frame.call_id)
            self.send_on(link, TrunkFrame(FrameType.RELEASE, frame.call_id,
                                          reason="duplicate call id"))
            return
        # The via list names every gateway the call already crossed;
        # seeing our own name means a routing loop, and a hop count
        # at the bound means someone's topology is degenerate.  Both
        # releases are retryable, so the upstream tandem fails over
        # to its next candidate instead of killing the call.
        if self.name in frame.via:
            self._m_loop_refused.inc()
            log.warning("trunk link %s: routing loop for %r (via %s)",
                        link.name, frame.number, "/".join(frame.via))
            self.send_on(link, TrunkFrame(
                FrameType.RELEASE, frame.call_id, reason="routing loop"))
            return
        if frame.hops >= self.table.max_hops:
            self._m_hop_refused.inc()
            self.send_on(link, TrunkFrame(
                FrameType.RELEASE, frame.call_id,
                reason="max hops exceeded"))
            return
        leg = InboundLeg(frame.caller_id or "unknown", self.exchange,
                         self, link, frame.call_id)
        leg.via = frame.via
        leg.hops = frame.hops
        with self._state_lock:
            self._legs.setdefault(link, {})[frame.call_id] = leg
        self._m_calls_in.inc()
        self._m_active.set(self._leg_count())
        self.exchange.dial(leg, frame.number,
                           forwarded_from=frame.forwarded_from or None)
        if self.exchange.call_for(leg) is not None:
            self.send_on(link, TrunkFrame(FrameType.ALERTING,
                                          frame.call_id))
        # else: dial already failed the call; the leg's call_failed sent
        # the RELEASE and deregistered itself.

    # -- bearer: arrival, cut-through and pump -------------------------------

    def _bearer_arrived(self, link: TrunkLink, entries) -> None:
        """One AUDIO_BATCH from ``link`` (its reader thread).

        An entry whose leg is cut through goes straight out on the
        onward link, raw: jitter belongs where audio is played out, so
        a tandem hop keeps no buffer and adds no tick.  Upstream gaps
        reach the far end as gaps (a fixed offset maps each upstream seq
        onto the onward numbering) and its jitter buffer conceals each
        exactly once.  Other entries go into their leg's jitter buffer;
        those for released calls are dropped.
        """
        forwards: dict[TrunkLink, list] = {}
        late = 0
        with self._bearer_lock:
            by_call = self._legs.get(link, {})
            for call_id, seq, payload in entries:
                leg = by_call.get(call_id)
                if leg is None:
                    continue
                onward = leg.cut_to
                if onward is None:
                    leg.jitter.push(seq, payload)
                    continue
                if onward.cut_to is not leg:
                    continue        # the onward side is released
                offset = leg._seq_offset
                if offset is None:
                    offset = leg._seq_offset = onward._seq_out - seq
                onward_seq = seq + offset
                if onward_seq < onward._seq_out:
                    # At or below the last seq forwarded to this leg.
                    late += 1
                    continue
                onward._seq_out = onward_seq + 1
                batch = forwards.get(onward.link)
                if batch is None:
                    batch = forwards[onward.link] = []
                batch.append((onward.call_id, onward_seq, payload))
            for onward_link, batch in forwards.items():
                self._forward(onward_link, batch)
        if late:
            self._m_late.inc(late)
        count = len(entries)
        self._m_frames_in.inc(count)
        self._m_batch_in.inc()
        self._m_batch_entries_in.inc(count)

    def _forward(self, link: TrunkLink, batch: list) -> None:
        """Queue transit bearer on its onward link (bearer lock held)."""
        self._m_tandem_frames.inc(len(batch))
        accepted = link.send_batch(batch)
        if accepted:
            self._m_frames_out.inc(accepted)

    def cut_through(self, leg: _TrunkLeg, onward: _TrunkLeg) -> None:
        """Switch a transit call's bearer between two trunk legs.

        Runs once per call, on the tick the call connects.  Each leg's
        audio held from before answer goes onward first, as one block;
        then the pair is published to the link readers.  The bearer
        lock keeps reader entries from overtaking the held block or
        landing in a buffer nobody drains again.
        """
        with self._bearer_lock:
            for source, target in ((leg, onward), (onward, leg)):
                held = source.jitter.drain_raw()
                if held and target.link is not None and target.link.alive:
                    seq = target._seq_out
                    target._seq_out += 1
                    self._forward(target.link,
                                  [(target.call_id, seq, held)])
            leg.cut_to, onward.cut_to = onward, leg

    def _pump_audio(self, frames: int) -> None:
        """Play out every call that ends here, in one pass over the legs.

        A leg is pumped when its buffer holds audio (or a talkspurt is
        ending, whose underrun counts), it is not cut through and its
        call is connected.  Legs with nothing buffered are skipped
        outright: routing explicit silence and routing nothing sound
        identical to the far side, and a 256-call link's quiet direction
        would otherwise pay the whole pump for zeros.  Transit legs are
        cut through on arrival and never pumped.  The pumped legs' raw
        mu-law windows are decoded in ONE table take, and each far party
        gets its slice.
        """
        call_for = self.exchange.call_for
        connected = CallState.CONNECTED
        raw, parties = [], []
        with self._state_lock:
            for by_call in self._legs.values():
                for leg in by_call.values():
                    jitter = leg.jitter
                    if leg.cut_to is not None or not jitter.poppable():
                        continue
                    call = call_for(leg)
                    if call is None or call.state is not connected:
                        continue
                    raw.append(jitter.pop_raw(frames))
                    parties.append(call.other_party(leg))
        if not parties:
            return
        decoded = np.take(MULAW_DECODE_TABLE,
                          np.frombuffer(b"".join(raw), dtype=np.uint8))
        for index, party in enumerate(parties):
            party.deliver_audio(decoded[index * frames:(index + 1) * frames])

    # -- metric folding -------------------------------------------------------

    def _fold(self, obj, attr: str, counter) -> None:
        current = getattr(obj, attr)
        folded_attr = "_folded_" + attr
        previous = getattr(obj, folded_attr, 0)
        if current > previous:
            counter.inc(current - previous)
            setattr(obj, folded_attr, current)

    def _update_gauges(self, links: list[TrunkLink]) -> None:
        links = [link for link in links if link.alive]
        self._m_links.set(len(links))
        for link in links:
            self._fold(link, "shed_audio_frames", self._m_outbound_shed)
            self._fold(link, "sendalls", self._m_sendalls)
            self._fold(link, "recvs", self._m_recvs)
            self._fold(link, "batch_frames_out", self._m_batch_out)
            self._fold(link, "batch_entries_out", self._m_batch_entries_out)
        if self.mesh_enabled:
            self._m_route_entries.set(self.table.entry_count())
            self._fold(self.table, "withdrawn", self._m_withdrawn)
            with self._state_lock:
                self._m_mesh_peers.set(len(self._mesh_peers))
            if self._discovery is not None:
                self._fold(self._discovery, "polls", self._m_polls)
                self._fold(self._discovery, "poll_failures",
                           self._m_poll_failures)
            if self._registry is not None:
                self._fold(self._registry, "registrations",
                           self._m_registrations)
                self._fold(self._registry, "expired", self._m_reg_expired)
        # The per-leg gauges walk every leg, hundreds per link, so they
        # refresh every Nth tick.  (The jitter tallies need no walk:
        # each buffer counts into trunk.jitter.* as it goes.)
        self._gauge_ticks += 1
        if (self._gauge_ticks - 1) % GAUGE_LEG_TICKS:
            return
        with self._state_lock:
            legs = [leg for by_call in self._legs.values()
                    for leg in by_call.values()]
        self._m_jitter_depth.set(
            sum(leg.jitter.depth_samples for leg in legs))
        self._m_active.set(len(legs))

    # -- introspection (tests, stats) -----------------------------------------

    def buffered_audio_samples(self) -> int:
        """Total audio queued in every leg's jitter buffer right now.

        Transit legs buffer nothing once connected (they are cut
        through on arrival), so on a tandem node this covers the calls
        that end there plus any transit audio held before answer.
        """
        with self._state_lock:
            legs = [leg for by_call in self._legs.values()
                    for leg in by_call.values()]
        return sum(leg.jitter.depth_samples for leg in legs)

    def live_link_count(self) -> int:
        return len([link for link in self._all_links() if link.alive])

    def mesh_snapshot(self) -> dict:
        """The mesh section of GET_SERVER_STATS: who we know, what we
        can route.  Empty dict when mesh routing is not enabled."""
        if not self.mesh_enabled:
            return {}
        linked = {link.name for link in self._all_links() if link.alive}
        with self._state_lock:
            peers = [{
                "name": name,
                "endpoint": "%s:%d" % (peer.host, peer.port),
                "prefixes": list(peer.prefixes),
                "linked": name in linked,
            } for name, peer in sorted(self._mesh_peers.items())]
        snapshot = {
            "node": self.name,
            "max_hops": self.table.max_hops,
            "advert_seq": self.table.seq,
            "local_prefixes": list(self.table.local_prefixes),
            "peers": peers,
            "routes": self.table.snapshot(),
        }
        if self._discovery is not None:
            snapshot["registry"] = "%s:%d" % self._discovery.registry
        if self._registry is not None:
            snapshot["serving_registry"] = "%s:%d" % (
                self._registry.host, self._registry.port)
        return snapshot


def build_trunk(settings, exchange, metrics,
                clock: Callable[[], float]) -> TrunkGateway | None:
    """The gateway a server's :class:`~repro.server.config.ServerConfig`
    asks for, on ``exchange``; None when it names no trunk listener,
    route or mesh.  The server starts and stops it with itself."""
    mesh = settings.mesh_registry or settings.mesh_join
    if not (settings.trunk_listen or settings.trunk_routes or mesh):
        return None
    gateway = TrunkGateway(exchange, name=settings.trunk_name,
                           metrics=metrics, clock=clock)
    if settings.trunk_listen is not None:
        gateway.listen(*settings.trunk_listen)
    for prefix, host, port in settings.trunk_routes:
        gateway.add_route(prefix, host, port)
    if mesh:
        # Join (and optionally serve) the dynamic routing mesh; static
        # --trunk-route entries stay as overrides.
        gateway.enable_mesh(registry=settings.mesh_join,
                            serve_registry=settings.mesh_registry,
                            prefixes=settings.mesh_prefixes,
                            neighbors=settings.mesh_neighbors or None)
    return gateway


__all__ = ["HANDSHAKE_TIMEOUT", "DialTarget", "InboundLeg", "RemoteLine",
           "TrunkGateway", "build_trunk", "parse_route"]
