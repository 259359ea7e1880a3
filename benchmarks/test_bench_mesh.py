"""E17 -- mesh soak: discovery-built routes and tandem switching under
chaos partitions.

Five in-process exchanges join a ring mesh (A-B-C-D-E-A) with ZERO
static routes: every trunk link comes from registry discovery and every
route from ROUTE_ADVERT propagation.  Node B's trunk listener hides
behind a chaos proxy with latency jitter, so the A-B segment is both a
degraded link and the partition point.  The soak then proves the
paper's distributed-telephony story end to end:

  1. the fleet converges from discovery alone (timed),
  2. a call crosses >= 2 tandem hops with sample-exact two-way audio,
     the tandem node cutting its bearer through,
  3. the A-B segment is partitioned mid-fleet and a redial completes
     over the alternate ring direction (one hop longer),
  4. healing the partition restores the withdrawn path,

with the loop-refusal and hop-refusal counters silent throughout.
Results land in BENCH_MESH.json via the harness result sink; CI re-reads
them in the E17 gate.
"""

import time

import numpy as np

from repro.bench import scaled
from repro.bench.harness import record_perf
from repro.chaos import ChaosProxy, FaultSchedule
from repro.dsp.encodings import mulaw_decode, mulaw_encode
from repro.obs import MetricsRegistry
from repro.telephony import CallState, TelephoneExchange
from repro.trunk import TrunkGateway

RATE = 8000
BLOCK = 160

#: Ring order; each node owns one prefix and initiates to its successor.
NODES = "ABCDE"
PREFIXES = {"A": "1", "B": "2", "C": "3", "D": "4", "E": "5"}
POLL_INTERVAL = 0.05

#: Talk window per call, in 20 ms blocks.
TALK_TICKS = scaled(25, 10)
#: Pump budget (blocks) for each convergence/teardown wait.
WAIT_BLOCKS = scaled(6000, 6000)


def _build_ring():
    """The 5-node fleet; returns (exchanges, gateways, proxy)."""
    successor = {a: b for a, b in zip(NODES, NODES[1:] + NODES[0])}
    exchanges, gateways = {}, {}
    for name in NODES:
        exchange = TelephoneExchange(RATE)
        exchanges[name] = exchange
        gateways[name] = TrunkGateway(exchange, name=name,
                                      metrics=MetricsRegistry(),
                                      keepalive_interval=0.1)
    gw_a = gateways["A"]
    gw_a.enable_mesh(serve_registry=("127.0.0.1", 0),
                     prefixes=(PREFIXES["A"],),
                     neighbors={successor["A"]},
                     poll_interval=POLL_INTERVAL)
    gw_a.start()
    registry = (gw_a._registry.host, gw_a._registry.port)
    # B's listener binds first so the proxy knows its upstream; B then
    # advertises the PROXY's address, putting the whole A->B segment --
    # signaling, adverts and bearer -- behind the fault injector.
    gw_b = gateways["B"]
    gw_b.listen("127.0.0.1", 0)
    gw_b.start()
    proxy = ChaosProxy(("127.0.0.1", gw_b.port),
                       schedule=FaultSchedule(seed=17, latency=0.0005,
                                              jitter=0.002)).start()
    gw_b.enable_mesh(registry=registry, prefixes=(PREFIXES["B"],),
                     neighbors={successor["B"]},
                     poll_interval=POLL_INTERVAL,
                     advertise=("127.0.0.1", proxy.port))
    for name in "CDE":
        gateways[name].enable_mesh(registry=registry,
                                   prefixes=(PREFIXES[name],),
                                   neighbors={successor[name]},
                                   poll_interval=POLL_INTERVAL)
        gateways[name].start()
    return exchanges, gateways, proxy


def _pump(exchanges, blocks=1):
    for _ in range(blocks):
        for exchange in exchanges.values():
            exchange.tick(BLOCK)
        time.sleep(0.002)


def _pump_until(exchanges, predicate, blocks=WAIT_BLOCKS):
    for _ in range(blocks):
        if predicate():
            return True
        _pump(exchanges)
    return predicate()


def _ring_distance(a: str, b: str) -> int:
    apart = abs(NODES.index(a) - NODES.index(b))
    return min(apart, len(NODES) - apart)


def _converged(gateways):
    """Every node's best live route to every other node's prefix is the
    short way round the ring.

    Adverts race each other, so a node can first learn a prefix only the
    long way round; a live route alone is not convergence.
    """
    for name, gateway in gateways.items():
        best = {}
        for row in gateway.table.snapshot():
            if row["live"]:
                best[row["prefix"]] = min(row["hops"],
                                          best.get(row["prefix"], row["hops"]))
        for other, prefix in PREFIXES.items():
            if other != name and \
                    best.get(prefix) != _ring_distance(name, other):
                return False
    return True


def _place_call(exchanges, gateways, caller_node, caller, callee,
                callee_node):
    """Dial, connect, exchange sample-exact audio both ways, hang up.

    Returns the trunk-hop count the call crossed (from the terminating
    leg's SETUP2 hop counter), or -1 on any failure.
    """
    caller.off_hook()
    caller.dial(callee.number)
    if not _pump_until(exchanges, lambda: callee.ringing):
        caller.on_hook()
        return -1
    # The terminating InboundLeg carries the tandem context.
    leg = next(leg for by_call in gateways[callee_node]._legs.values()
               for leg in by_call.values())
    hops = leg.hops + 1
    callee.off_hook()
    caller_ex = exchanges[caller_node]
    if not _pump_until(
            exchanges,
            lambda: caller_ex.call_for(caller) is not None
            and caller_ex.call_for(caller).state is CallState.CONNECTED):
        caller.on_hook()
        return -1
    sent_a = np.arange(1, BLOCK + 1, dtype=np.int16) * 37
    sent_b = np.arange(1, BLOCK + 1, dtype=np.int16) * -53
    for _ in range(TALK_TICKS):
        caller.send_audio(sent_a)
        callee.send_audio(sent_b)
        _pump(exchanges)
    heard_a, heard_b = [], []
    for _ in range(200):
        _pump(exchanges)
        for line, sink in ((callee, heard_b), (caller, heard_a)):
            block = line.receive_audio(BLOCK)
            if np.any(block):
                sink.append(block)
        if len(heard_b) >= 3 and len(heard_a) >= 3:
            break
    # Tandems forward the mu-law bytes untouched: the expected audio is
    # decode(encode(x)) however many tandem hops sit in the path.
    two_way = (
        any(np.array_equal(h, mulaw_decode(mulaw_encode(sent_a)))
            for h in heard_b)
        and any(np.array_equal(h, mulaw_decode(mulaw_encode(sent_b)))
                for h in heard_a))
    caller.on_hook()
    callee.on_hook()
    callee_ex = exchanges[callee_node]
    _pump_until(exchanges,
                lambda: caller_ex.call_for(caller) is None
                and callee_ex.call_for(callee) is None)
    return hops if two_way else -1


def test_mesh_soak_discovery_tandem_partition(report):
    exchanges, gateways, proxy = _build_ring()
    gw_a = gateways["A"]
    try:
        started = time.monotonic()
        assert _pump_until(exchanges, lambda: _converged(gateways)), \
            "mesh never converged from discovery"
        converge_seconds = time.monotonic() - started
        # Acceptance: the routing plane was built with zero static routes.
        static_routes = sum(len(gw.routes) for gw in gateways.values())
        assert static_routes == 0

        alice = exchanges["A"].add_line("100")
        carol = exchanges["C"].add_line("300")
        # First call rides the short ring direction: A -> B -> C.
        hops_first = _place_call(exchanges, gateways, "A", alice,
                                 carol, "C")
        assert hops_first == 2, \
            "first tandem call unhealthy (hops=%d)" % hops_first
        assert gateways["B"]._m_tandem.value == 1
        # B cut the call's bearer through rather than buffering it.
        tandem_frames = gateways["B"]._m_tandem_frames.value
        assert tandem_frames > 0, "tandem B forwarded no bearer blocks"

        # Chaos partition: blackhole the proxy, then sever the live A-B
        # trunk.  Reconnect attempts stall in the blackhole, so the
        # partition holds until healed.
        proxy.partition()
        severed = proxy.sever_all()
        assert severed > 0, "partition severed no trunk connection"
        # A withdraws the B path; the alternate direction survives.
        assert _pump_until(
            exchanges,
            lambda: gw_a.table.candidates("300")[0]
            and all(link.name != "B"
                    for link in gw_a.table.candidates("300")[0])), \
            "no alternate route to C after the partition"
        hops_redial = _place_call(exchanges, gateways, "A", alice,
                                  carol, "C")
        redial_ok = hops_redial == 3
        assert redial_ok, \
            "redial did not cross A-E-D-C (hops=%d)" % hops_redial

        # Heal: the proxy flows again, B's mesh peer reconnects, and the
        # short path re-adverts back into A's table.
        proxy.heal()
        healed = _pump_until(
            exchanges,
            lambda: any(link.name == "B" and link.alive
                        for link in gw_a.table.candidates("300")[0]))
        assert healed, "B path never re-adverted after heal"

        loop_refused = sum(gw._m_loop_refused.value
                           for gw in gateways.values())
        hop_refused = sum(gw._m_hop_refused.value
                          for gw in gateways.values())
        adverts_out = sum(gw._m_adverts_out.value
                          for gw in gateways.values())
        record_perf("mesh.soak.converge",
                    (len(NODES) - 1) * len(NODES) / converge_seconds,
                    sink="BENCH_MESH.json",
                    converge_seconds=round(converge_seconds, 3),
                    nodes=len(NODES),
                    static_routes=static_routes,
                    tandem_hops_first=hops_first,
                    tandem_hops_redial=hops_redial,
                    tandem_frames=int(tandem_frames),
                    redial_ok=redial_ok,
                    healed=healed,
                    loop_refused=int(loop_refused),
                    hop_refused=int(hop_refused),
                    adverts_out=int(adverts_out),
                    chaos={"latency": proxy.schedule.latency,
                           "jitter": proxy.schedule.jitter})
        report.row("E17", "mesh convergence (5 nodes, 0 static routes)",
                   "%.2f s" % converge_seconds,
                   "routes from discovery alone")
        report.row("E17", "tandem call A->C",
                   "%d hops" % hops_first, ">= 2 hops, two-way audio")
        report.row("E17", "redial after partition",
                   "%d hops via E-D" % hops_redial,
                   "alternate route, two-way audio")
        report.row("E17", "loop/hop refusals post-convergence",
                   "%d / %d" % (loop_refused, hop_refused), "0 / 0")
        # Loop prevention must be silent in a healthy mesh: the via list
        # exists for misrouted frames, not normal operation.
        assert loop_refused == 0 and hop_refused == 0
        assert adverts_out > 0
    finally:
        for gateway in gateways.values():
            gateway.stop()
        proxy.stop()
