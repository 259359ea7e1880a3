"""Tests for the dynamic trunk mesh: discovery, route propagation and
multi-hop tandem switching (docs/TELEPHONY.md, "Mesh routing").

The integration tests stand up small in-process fleets federated over
real TCP trunks, with discovery running against a real registry, and
drive every exchange by hand -- the same deterministic pump pattern as
tests/test_trunk.py.
"""

import io
import socket
import time

import numpy as np
import pytest

from repro.dsp.encodings import mulaw_decode, mulaw_encode
from repro.obs import MetricsRegistry
from repro.telephony import CallState, TelephoneExchange
from repro.trunk import (
    FrameType,
    Handshake,
    RouteTable,
    TrunkFrame,
    TrunkGateway,
    UNREACHABLE_HOPS,
    read_frame,
)
from repro.trunk.discovery import (
    REGISTRY_IO_TIMEOUT,
    REGISTRY_TTL,
    MeshDiscovery,
    MeshRegistry,
    OP_PEERS,
    OP_REGISTER,
    PeerRecord,
    RegistryProtocolError,
    decode_registry_frame,
    encode_peers,
    encode_register,
)

from conftest import dead_port, wait_for
from manual_clock import ManualClock

RATE = 8000
BLOCK = 160


class FakeLink:
    def __init__(self, name, alive=True):
        self.name = name
        self.alive = alive

    def __repr__(self):
        return "FakeLink(%r)" % self.name


class TestRouteTable:
    def test_learn_and_longest_prefix_match(self):
        table = RouteTable("A")
        b, c = FakeLink("B"), FakeLink("C")
        assert table.learn(b, "2", "B", 0, 1)
        assert table.learn(c, "21", "C", 0, 1)
        links, length = table.candidates("2155")
        assert links == [c] and length == 2
        links, length = table.candidates("2955")
        assert links == [b] and length == 1

    def test_lowest_hop_preference_orders_candidates(self):
        table = RouteTable("A")
        near, far = FakeLink("B"), FakeLink("C")
        table.learn(far, "3", "D", 3, 1)
        table.learn(near, "3", "D", 0, 1)
        links, _ = table.candidates("300")
        assert links == [near, far]

    def test_dead_links_never_match(self):
        table = RouteTable("A")
        b = FakeLink("B")
        table.learn(b, "2", "B", 0, 1)
        b.alive = False
        links, length = table.candidates("200")
        assert links == [] and length == -1
        # ... but the prefix is still *known*, so the gateway reports
        # "trunk down" rather than "no such number".
        assert table.remote_match_len("200") == 1

    def test_withdraw_link_forgets_its_routes(self):
        table = RouteTable("A")
        b, c = FakeLink("B"), FakeLink("C")
        table.learn(b, "2", "B", 0, 1)
        table.learn(c, "2", "B", 1, 1)
        version = table.version
        assert sorted(table.withdraw_link(b)) == [("2", "B")]
        assert table.version > version
        links, _ = table.candidates("200")
        assert links == [c]                  # the alternate path survives
        assert table.withdrawn == 1

    def test_withdrawal_advert_removes_route(self):
        table = RouteTable("A")
        b = FakeLink("B")
        table.learn(b, "3", "C", 1, 4)
        assert table.learn(b, "3", "C", UNREACHABLE_HOPS, 4)
        assert table.remote_match_len("300") == -1

    def test_stale_seq_ignored(self):
        table = RouteTable("A")
        b = FakeLink("B")
        table.learn(b, "2", "B", 0, 5)
        assert not table.learn(b, "2", "B", 0, 3)
        assert table.stale_ignored == 1
        # A stale withdrawal must not kill the fresher route either.
        assert not table.learn(b, "2", "B", UNREACHABLE_HOPS, 3)
        assert table.remote_match_len("200") == 1

    def test_own_origin_echo_never_learned(self):
        table = RouteTable("A")
        table.add_local("1")
        b = FakeLink("B")
        assert not table.learn(b, "1", "A", 1, 1)
        assert table.remote_match_len("100") == -1

    def test_hop_bound_drops_distant_routes(self):
        table = RouteTable("A", max_hops=3)
        b = FakeLink("B")
        assert not table.learn(b, "9", "Z", 3, 1)   # cost 4 > 3
        assert table.hop_limited == 1
        assert table.learn(b, "9", "Z", 2, 1)       # cost 3 == bound

    def test_exports_apply_split_horizon(self):
        table = RouteTable("A")
        table.add_local("1")
        b, c = FakeLink("B"), FakeLink("C")
        table.learn(b, "2", "B", 0, 1)
        table.learn(c, "3", "C", 0, 1)
        export = table.exports_for(b)
        assert ("1", "A") in export and export[("1", "A")][0] == 0
        assert ("3", "C") in export and export[("3", "C")][0] == 1
        # What b taught us is never advertised back to b.
        assert ("2", "B") not in export

    def test_exports_skip_dead_paths(self):
        table = RouteTable("A")
        b, c = FakeLink("B"), FakeLink("C")
        table.learn(b, "2", "B", 0, 1)
        b.alive = False
        assert ("2", "B") not in table.exports_for(c)


class TestRegistryWire:
    def test_register_roundtrip(self):
        record = PeerRecord("B", "10.0.0.2", 4001, ("2", "29"))
        frame = encode_register(record)
        op, records = decode_registry_frame(frame[4:])
        assert op == OP_REGISTER and records == [record]

    def test_peers_roundtrip(self):
        roster = [PeerRecord("B", "h", 1, ("2",)),
                  PeerRecord("C", "h", 2, ())]
        op, records = decode_registry_frame(encode_peers(roster)[4:])
        assert op == OP_PEERS and records == roster

    def test_unknown_op_rejected(self):
        with pytest.raises(RegistryProtocolError):
            decode_registry_frame(bytes([77]))

    def test_truncated_frame_rejected(self):
        frame = encode_register(PeerRecord("B", "h", 1, ("2",)))
        with pytest.raises(RegistryProtocolError):
            decode_registry_frame(frame[4:-2])

    def test_absurd_peer_count_rejected(self):
        body = bytes([OP_PEERS]) + (60000).to_bytes(2, "little")
        with pytest.raises(RegistryProtocolError):
            decode_registry_frame(body)


class TestRegistry:
    def test_register_poll_and_self_exclusion(self):
        registry = MeshRegistry("127.0.0.1", 0).start()
        try:
            records = {
                "B": PeerRecord("B", "127.0.0.1", 4001, ("2",)),
                "C": PeerRecord("C", "127.0.0.1", 4002, ("3",)),
            }
            polls = {
                name: MeshDiscovery(("127.0.0.1", registry.port),
                                    lambda record=record: record)
                for name, record in records.items()
            }
            assert polls["B"].poll_once()
            assert polls["C"].poll_once()
            assert polls["B"].poll_once()
            # Each node sees the fleet minus itself.
            assert set(polls["B"].peers()) == {"C"}
            assert set(polls["C"].peers()) == {"B"}
            assert polls["B"].peers()["C"].prefixes == ("3",)
        finally:
            registry.stop()

    def test_ttl_expires_silent_peers(self):
        clock = ManualClock()
        registry = MeshRegistry("127.0.0.1", 0, clock=clock).start()
        try:
            live = MeshDiscovery(
                ("127.0.0.1", registry.port),
                lambda: PeerRecord("A", "127.0.0.1", 4000, ()))
            ghost = MeshDiscovery(
                ("127.0.0.1", registry.port),
                lambda: PeerRecord("G", "127.0.0.1", 4009, ()))
            assert ghost.poll_once() and live.poll_once()
            assert set(live.peers()) == {"G"}
            # The ghost stops registering; at the TTL it is still live.
            clock.advance(REGISTRY_TTL)
            assert live.poll_once()
            assert set(live.peers()) == {"G"}
            assert registry.expired == 0
            # Past it, the ghost is gone (the poller re-registered
            # itself in each round trip, so it stays).
            clock.advance(0.001)
            assert live.poll_once()
            assert set(live.peers()) == set()
            assert registry.expired == 1
        finally:
            registry.stop()

    def test_poll_failure_counted_not_fatal(self):
        discovery = MeshDiscovery(
            ("127.0.0.1", dead_port()),
            lambda: PeerRecord("A", "127.0.0.1", 4000, ()))
        assert not discovery.poll_once()
        assert discovery.poll_failures == 1
        assert discovery.generation == 0

    def test_garbage_connection_does_not_kill_registry(self):
        registry = MeshRegistry("127.0.0.1", 0).start()
        try:
            # One client hangs up without a byte, one sends garbage.
            socket.create_connection(("127.0.0.1", registry.port),
                                     timeout=2.0).close()
            with socket.create_connection(("127.0.0.1", registry.port),
                                          timeout=2.0) as sock:
                sock.sendall(b"GET / HTTP/1.0\r\n\r\n")
            discovery = MeshDiscovery(
                ("127.0.0.1", registry.port),
                lambda: PeerRecord("A", "127.0.0.1", 4000, ()))
            assert discovery.poll_once()     # still serving
            # Each request runs on its own thread; the two bad ones
            # may still be finishing.
            assert wait_for(lambda: registry.bad_requests == 2, timeout=2.0)
        finally:
            registry.stop()

    def test_silent_client_does_not_stall_registrations(self):
        # A client that connects and never speaks holds only its own
        # request thread (bounded by REGISTRY_IO_TIMEOUT); a concurrent
        # poll is served at once instead of queueing behind it.
        registry = MeshRegistry("127.0.0.1", 0).start()
        silent = socket.create_connection(("127.0.0.1", registry.port))
        try:
            discovery = MeshDiscovery(
                ("127.0.0.1", registry.port),
                lambda: PeerRecord("A", "127.0.0.1", 4000, ()))
            started = time.monotonic()
            assert discovery.poll_once()
            assert time.monotonic() - started < 0.5 < REGISTRY_IO_TIMEOUT
        finally:
            silent.close()
            registry.stop()


class MeshFleet:
    """N in-process exchanges joined into one mesh.

    ``topology`` maps node name -> (prefixes, neighbors); the first
    node serves the registry.  A ``no_mesh`` node never joins the mesh:
    it is a plain static-route gateway that tests wire up with classic
    ``--trunk-route`` entries after the fleet is up.
    """

    def __init__(self, topology, no_mesh=()):
        self.exchanges = {}
        self.gateways = {}
        for name, (prefixes, neighbors) in topology.items():
            exchange = TelephoneExchange(RATE)
            gateway = TrunkGateway(
                exchange, name=name, metrics=MetricsRegistry(),
                keepalive_interval=0.1)
            self.exchanges[name] = exchange
            self.gateways[name] = gateway
        first = True
        for name, (prefixes, neighbors) in topology.items():
            gateway = self.gateways[name]
            if name in no_mesh:
                gateway.listen("127.0.0.1", 0)
            elif first:
                gateway.enable_mesh(serve_registry=("127.0.0.1", 0),
                                    prefixes=prefixes, neighbors=neighbors,
                                    poll_interval=0.05)
                gateway.start()
                registry = gateway._registry
                self.registry = (registry.host, registry.port)
                first = False
                continue
            else:
                gateway.enable_mesh(registry=self.registry,
                                    prefixes=prefixes, neighbors=neighbors,
                                    poll_interval=0.05)
            gateway.start()

    def stop(self):
        for gateway in self.gateways.values():
            gateway.stop()

    def pump(self, blocks=1):
        for _ in range(blocks):
            for exchange in self.exchanges.values():
                exchange.tick(BLOCK)
            time.sleep(0.002)

    def pump_until(self, predicate, blocks=1200):
        for _ in range(blocks):
            if predicate():
                return True
            self.pump()
        return predicate()

    def knows(self, node, number, hops=None):
        """Does ``node`` have a live route for ``number`` (at ``hops``)?"""
        links, length = self.gateways[node].table.candidates(number)
        if not links or length < 0:
            return False
        if hops is None:
            return True
        rows = self.gateways[node].table.snapshot()
        return any(row["hops"] == hops for row in rows
                   if number.startswith(row["prefix"]) and row["live"])

    def link_between(self, initiator, acceptor):
        peer = self.gateways[initiator]._mesh_peers.get(acceptor)
        return peer.live_link() if peer is not None else None


def _listener(line):
    events = {"failed": [], "hangup": [], "answered": [], "rings": []}

    class Listener:
        def on_call_failed(self, reason):
            events["failed"].append(reason)

        def on_far_hangup(self):
            events["hangup"].append(True)

        def on_answered(self):
            events["answered"].append(True)

        def on_ring_start(self, caller_info):
            events["rings"].append(caller_info)

    line.add_listener(Listener())
    return events


LINE_ABC = {
    "A": (("1",), {"B"}),
    "B": (("2",), {"C"}),
    "C": (("3",), set()),
}


def _call_with_audio(fleet, caller_line, callee_line):
    """Dial callee from caller, connect, assert two-way sample-exact
    audio through however many tandems sit between them."""
    caller_line.off_hook()
    caller_line.dial(callee_line.number)
    assert fleet.pump_until(lambda: callee_line.ringing), "no ring"
    callee_line.off_hook()
    caller_exchange = caller_line.exchange
    assert fleet.pump_until(
        lambda: caller_exchange.call_for(caller_line) is not None
        and (caller_exchange.call_for(caller_line).state
             is CallState.CONNECTED))
    sent_a = np.arange(1, BLOCK + 1, dtype=np.int16) * 37
    sent_b = np.arange(1, BLOCK + 1, dtype=np.int16) * -53
    heard_a, heard_b = [], []
    for _ in range(20):
        caller_line.send_audio(sent_a)
        callee_line.send_audio(sent_b)
        fleet.pump()
    for _ in range(150):
        fleet.pump()
        for line, sink in ((callee_line, heard_b), (caller_line, heard_a)):
            block = line.receive_audio(BLOCK)
            if np.any(block):
                sink.append(block)
        if len(heard_b) >= 3 and len(heard_a) >= 3:
            break
    # Tandems forward the mu-law bytes untouched, so the far end hears
    # exactly decode(encode(x)) however many of them the call crossed.
    assert any(np.array_equal(h, mulaw_decode(mulaw_encode(sent_a)))
               for h in heard_b), "caller->callee audio lost"
    assert any(np.array_equal(h, mulaw_decode(mulaw_encode(sent_b)))
               for h in heard_a), "callee->caller audio lost"


class TestMeshConvergence:
    def test_line_converges_and_tandem_call_carries_audio(self):
        fleet = MeshFleet(LINE_ABC)
        try:
            # Routes converge from discovery alone: A learns C's prefix
            # two hops away without a single static route.
            assert fleet.pump_until(lambda: fleet.knows("A", "300", hops=2))
            assert fleet.gateways["A"].routes == []
            alice = fleet.exchanges["A"].add_line("100")
            carol = fleet.exchanges["C"].add_line("300")
            _call_with_audio(fleet, alice, carol)
            assert carol.caller_info.number == "100"
            gw_b = fleet.gateways["B"]
            assert gw_b._m_tandem.value == 1
            for gateway in fleet.gateways.values():
                assert gateway._m_loop_refused.value == 0
        finally:
            fleet.stop()

    def test_withdrawal_and_readvert_after_partition_heal(self):
        fleet = MeshFleet(LINE_ABC)
        try:
            assert fleet.pump_until(lambda: fleet.knows("A", "300"))
            link = fleet.link_between("B", "C")
            link.close()                     # partition the B-C segment
            # The withdrawal propagates: A forgets C's prefix entirely.
            assert fleet.pump_until(
                lambda: fleet.gateways["A"].table.remote_match_len("300")
                < 0, blocks=3000)
            assert fleet.gateways["A"].table.withdrawn >= 1
            # Heal: B's mesh tick redials C and the route re-adverts.
            assert fleet.pump_until(
                lambda: fleet.knows("A", "300", hops=2), blocks=3000)
            alice = fleet.exchanges["A"].add_line("100")
            carol = fleet.exchanges["C"].add_line("300")
            _call_with_audio(fleet, alice, carol)
        finally:
            fleet.stop()

    def test_mesh_dial_to_dead_path_fails_fast_as_trunk_down(self):
        fleet = MeshFleet({"A": (("1",), {"B"}), "B": (("2",), set())})
        try:
            assert fleet.pump_until(lambda: fleet.knows("A", "200"))
            link = fleet.link_between("A", "B")
            link.close()
            alice = fleet.exchanges["A"].add_line("100")
            events = _listener(alice)
            alice.off_hook()
            # The route is still in the table but its only next hop is
            # dead: the dial must fail synchronously as a path failure,
            # not queue into the dead link or claim the number is gone.
            alice.dial("200")
            assert events["failed"] == ["trunk down"]
        finally:
            fleet.stop()


class TestTandemFailover:
    # Two disjoint paths of different length: A-B-D (preferred, 2 hops)
    # and A-C-E-D (fallback, 3 hops).
    DIAMOND = {
        "A": (("1",), {"B", "C"}),
        "B": (("2",), {"D"}),
        "C": (("3",), {"E"}),
        "E": (("5",), {"D"}),
        "D": (("4",), set()),
    }

    def test_failover_mid_dial_when_preferred_path_dies_downstream(self):
        fleet = MeshFleet(self.DIAMOND)
        try:
            gw_a = fleet.gateways["A"]
            assert fleet.pump_until(
                lambda: len(gw_a.table.candidates("400")[0]) == 2,
                blocks=3000)
            alice = fleet.exchanges["A"].add_line("100")
            dave = fleet.exchanges["D"].add_line("400")
            alice_events = _listener(alice)
            # Kill the preferred path's *downstream* segment, then dial
            # before the withdrawal can reach A: the SETUP2 rides the
            # stale best route to B, B's only next hop is dead, and the
            # retryable "trunk down" release sends A to the 3-hop path.
            fleet.link_between("B", "D").close()
            alice.off_hook()
            alice.dial("400")
            assert fleet.pump_until(lambda: dave.ringing, blocks=3000)
            assert gw_a._m_failovers.value == 1
            assert alice_events["failed"] == []
            dave.off_hook()
            assert fleet.pump_until(
                lambda: fleet.exchanges["A"].call_for(alice) is not None
                and (fleet.exchanges["A"].call_for(alice).state
                     is CallState.CONNECTED), blocks=3000)
            # The surviving leg runs over the fallback neighbor.
            leg = next(leg for by_call in gw_a._legs.values()
                       for leg in by_call.values())
            assert leg.link.name == "C"
        finally:
            fleet.stop()


class TestTandemRefusals:
    """Raw-socket SETUP2 edge cases against a live gateway."""

    def _gateway(self):
        exchange = TelephoneExchange(RATE)
        gateway = TrunkGateway(exchange, name="B",
                               metrics=MetricsRegistry(),
                               keepalive_interval=0.1)
        gateway.listen("127.0.0.1", 0)
        gateway.start()
        exchange.add_line("200")
        return exchange, gateway

    def _handshaken_socket(self, gateway):
        sock = socket.create_connection(("127.0.0.1", gateway.port),
                                        timeout=2.0)
        sock.sendall(Handshake("X", sample_rate=RATE).encode())
        sock.settimeout(2.0)
        Handshake.read_from(sock)
        return sock

    def _await_release(self, exchange, sock, blocks=200):
        for _ in range(blocks):
            exchange.tick(BLOCK)
            try:
                frame = read_frame(sock)
            except socket.timeout:
                continue
            if frame.type is FrameType.RELEASE:
                return frame
        raise AssertionError("no RELEASE received")

    def test_routing_loop_refused_via_the_via_list(self):
        exchange, gateway = self._gateway()
        sock = None
        try:
            sock = self._handshaken_socket(gateway)
            sock.sendall(TrunkFrame(
                FrameType.SETUP2, 1, number="200", caller_id="100",
                hops=1, via=("X", "B")).encode())
            release = self._await_release(exchange, sock)
            assert release.reason == "routing loop"
            assert gateway._m_loop_refused.value == 1
            # The refused call never touched the local exchange.
            assert not exchange.endpoint_for("200").ringing
        finally:
            if sock is not None:
                sock.close()
            gateway.stop()

    def test_max_hops_refused(self):
        exchange, gateway = self._gateway()
        sock = None
        try:
            sock = self._handshaken_socket(gateway)
            sock.sendall(TrunkFrame(
                FrameType.SETUP2, 1, number="200", caller_id="100",
                hops=gateway.table.max_hops, via=("X",)).encode())
            release = self._await_release(exchange, sock)
            assert release.reason == "max hops exceeded"
            assert gateway._m_hop_refused.value == 1
        finally:
            if sock is not None:
                sock.close()
            gateway.stop()

    def test_clean_setup2_rings_and_keeps_tandem_context(self):
        exchange, gateway = self._gateway()
        sock = None
        try:
            sock = self._handshaken_socket(gateway)
            sock.sendall(TrunkFrame(
                FrameType.SETUP2, 1, number="200", caller_id="100",
                hops=2, via=("X", "Y")).encode())
            for _ in range(200):
                exchange.tick(BLOCK)
                time.sleep(0.002)
                if exchange.endpoint_for("200").ringing:
                    break
            assert exchange.endpoint_for("200").ringing
            leg = next(leg for by_call in gateway._legs.values()
                       for leg in by_call.values())
            assert leg.via == ("X", "Y") and leg.hops == 2
        finally:
            if sock is not None:
                sock.close()
            gateway.stop()


class TestStaticLeafInterop:
    def test_static_peer_reached_through_a_tandem(self):
        # A (mesh) -> B (mesh, tandem) -> C (static gateway, no mesh).
        # B owns prefix "3" in the mesh because *it* knows the static
        # route there; C ignores the adverts B sends it.
        fleet = MeshFleet({
            "A": (("1",), {"B"}),
            "B": (("2", "3"), set()),
            "C": ((), set()),
        }, no_mesh=("C",))
        try:
            gw_b, gw_c = fleet.gateways["B"], fleet.gateways["C"]
            gw_b.add_route("3", "127.0.0.1", gw_c.port)
            assert gw_b.wait_connected(5.0)
            assert fleet.pump_until(lambda: fleet.knows("A", "300"))
            alice = fleet.exchanges["A"].add_line("100")
            carol = fleet.exchanges["C"].add_line("300")
            _call_with_audio(fleet, alice, carol)
            # The tandem leg crossed B, and C learned no routes.
            assert gw_b._m_tandem.value == 1
            assert not gw_c.mesh_enabled
            assert gw_c.table.entry_count() == 0
        finally:
            fleet.stop()


class TestMeshVisibility:
    def test_mesh_snapshot_reports_peers_and_routes(self):
        fleet = MeshFleet(LINE_ABC)
        gw_a = fleet.gateways["A"]
        try:
            # Routes (adverts via B) and the roster (A's own registry
            # poll) arrive independently: wait for both.
            assert fleet.pump_until(
                lambda: fleet.knows("A", "300", hops=2)
                and "C" in gw_a._mesh_peers)
            snapshot = gw_a.mesh_snapshot()
            assert snapshot["node"] == "A"
            assert snapshot["local_prefixes"] == ["1"]
            by_name = {peer["name"]: peer for peer in snapshot["peers"]}
            assert by_name["B"]["linked"]
            assert by_name["C"]["prefixes"] == ["3"]
            rows = {row["prefix"]: row for row in snapshot["routes"]}
            assert rows["3"]["origin"] == "C" and rows["3"]["hops"] == 2
            assert rows["3"]["next_hop"] == "B" and rows["3"]["live"]
            # Mesh-off gateways report an empty section.
            plain = TrunkGateway(TelephoneExchange(RATE), name="Z")
            assert plain.mesh_snapshot() == {}
        finally:
            fleet.stop()

    def test_stats_reply_carries_mesh_over_the_wire(self):
        from repro.protocol.requests import GetServerStatsReply
        from repro.protocol.wire import Reader, Writer

        mesh = {"node": "A", "max_hops": 8, "advert_seq": 1,
                "local_prefixes": ["1"], "peers": [], "routes": []}
        reply = GetServerStatsReply(1.5, 42, {"c": 1}, {"g": 2.0}, {}, [],
                                    mesh=mesh)
        writer = Writer()
        reply.write_payload(writer)
        decoded = GetServerStatsReply.read_payload(
            Reader(writer.getvalue()))
        assert decoded.mesh == mesh
        # And the empty default stays empty (and cheap) on the wire.
        writer = Writer()
        GetServerStatsReply(1.5, 42, {}, {}, {}, []).write_payload(writer)
        assert GetServerStatsReply.read_payload(
            Reader(writer.getvalue())).mesh == {}

    def test_routes_subcommand_renders_the_mesh(self):
        from repro.alib.cli import cmd_routes

        mesh = {
            "node": "A", "max_hops": 8, "advert_seq": 3,
            "local_prefixes": ["1"], "registry": "127.0.0.1:9000",
            "peers": [{"name": "B", "endpoint": "127.0.0.1:4001",
                       "prefixes": ["2"], "linked": True}],
            "routes": [{"prefix": "3", "origin": "C", "hops": 2, "seq": 1,
                        "next_hop": "B", "live": True}],
        }

        class FakeClient:
            def server_stats(self):
                from repro.protocol.requests import GetServerStatsReply
                return GetServerStatsReply(0.0, 0, {}, {}, {}, [],
                                           mesh=mesh)

        out = io.StringIO()
        assert cmd_routes(FakeClient(), None, out) == 0
        text = out.getvalue()
        assert "node:          A" in text
        assert "peer B" in text and "linked" in text
        assert "route 3" in text and "hops=2" in text

        class EmptyClient:
            def server_stats(self):
                from repro.protocol.requests import GetServerStatsReply
                return GetServerStatsReply(0.0, 0, {}, {}, {}, [])

        out = io.StringIO()
        assert cmd_routes(EmptyClient(), None, out) == 1
        assert "mesh routing not enabled" in out.getvalue()
