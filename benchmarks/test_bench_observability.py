"""E18 -- the cost of watching: dispatcher metrics overhead.

The observability layer meters every request on the dispatch path
(per-opcode counter + latency histogram).  That instrumentation must be
close to free: the registry's no-op mode exists precisely so the
difference can be measured.  This experiment pushes the same pipelined
request batch through a metered server and an unmetered one and compares
throughput.
"""

import statistics

from repro.obs import MetricsRegistry
from repro.protocol.requests import NoOperation
from testkit.rig import make_rig, scaled

BATCH = scaled(4000, 400)

#: Measurement rounds per side.  Both rigs stay open and the rounds
#: interleave, alternating which side goes first, so a burst of host
#: noise lands on both sides instead of on whichever rig ran second;
#: the medians then discard the rounds such a burst did hit.
ROUNDS = 15


def _pipelined_rate(rig) -> float:
    import time

    started = time.perf_counter()
    for _ in range(BATCH):
        rig.client.conn.send(NoOperation())
    rig.client.sync()
    return BATCH / (time.perf_counter() - started)


def test_metrics_overhead_is_small(benchmark, report):
    samples = {"off": [], "on": []}
    # Wall-clock pacing keeps both hubs idle between blocks: a
    # virtual-paced hub spins at CPU speed, and two of them would
    # contend for the interpreter with every measured batch.
    with make_rig(realtime=True,
                  metrics=MetricsRegistry(enabled=False)) as off_rig, \
            make_rig(realtime=True,
                     metrics=MetricsRegistry(enabled=True)) as on_rig:
        rigs = {"off": off_rig, "on": on_rig}
        for rig in rigs.values():
            rig.client.sync()

        def run_rounds():
            for index in range(ROUNDS):
                order = ("off", "on") if index % 2 == 0 else ("on", "off")
                for side in order:
                    samples[side].append(_pipelined_rate(rigs[side]))

        benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    rates = {side: statistics.median(values)
             for side, values in samples.items()}
    overhead = rates["off"] / rates["on"] - 1.0
    cost_us = (1.0 / rates["on"] - 1.0 / rates["off"]) * 1e6
    report.row("E18", "request rate, metrics enabled",
               "%.0f /s" % rates["on"], "median of %d rounds" % ROUNDS)
    report.row("E18", "request rate, metrics disabled",
               "%.0f /s" % rates["off"], "median of %d rounds" % ROUNDS)
    report.row("E18", "dispatch metering overhead",
               "%.1f%% (%.2f us/req)" % (overhead * 100.0, cost_us),
               "absolute cost, not ratio")
    # Assert the *absolute* per-request metering cost.  The zero-copy
    # wire path made the unmetered request so cheap that a fixed ~2 us
    # of counter/histogram work is a large fraction of it; a ratio
    # bound would punish every future transport speedup.  A real
    # metering regression still trips this.
    assert cost_us < 15.0


def test_stats_request_reflects_traffic(benchmark, report):
    """GET_SERVER_STATS over the wire sees the requests that made it."""
    with make_rig() as rig:
        for _ in range(10):
            rig.client.conn.send(NoOperation())
        rig.client.sync()

        def fetch():
            return rig.client.server_stats()

        reply = benchmark.pedantic(fetch, rounds=scaled(5, 1), iterations=1)
        report.row("E18", "GET_SERVER_STATS round trip",
                   "%d counters" % len(reply.counters),
                   "one request returns the whole registry")
        assert reply.counter("requests.NO_OPERATION") >= 10
        assert reply.counter("requests.total") > 0
