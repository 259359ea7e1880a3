"""E12 -- chaos proxy overhead: fault injection must not be the fault.

The chaos harness (testkit/chaos) interposes a userspace TCP proxy
between Alib and the server.  For its clean-passthrough configuration to
be a usable default in tests, the proxy must cost little relative to the
protocol work it carries: round trips through the proxy should stay the
same order of magnitude as direct ones.

Measured: synchronous round trips per second direct vs through a
passthrough ChaosProxy, and reconnect turnaround after a severed link.
"""

import time

from repro.alib import AudioClient
from repro.protocol.requests import GetTime
from testkit.chaos.proxy import ChaosProxy
from testkit.rig import make_rig, scaled


def test_proxy_passthrough_overhead(mean_seconds, report):
    rig = make_rig()
    proxy = ChaosProxy(("127.0.0.1", rig.server.port))
    proxy.start()
    client = AudioClient(port=proxy.port, client_name="bench-chaos")
    try:
        client.sync()

        def one_round_trip():
            client.conn.round_trip(GetTime())

        _, mean = mean_seconds(one_round_trip)
        per_second = 1.0 / mean
        report.row("E12", "round trips through chaos proxy",
                   "%.0f /s" % per_second,
                   "same order as direct round trips")
        # The proxy adds two loopback hops; it must still sustain a
        # healthy request rate or chaos tests would crawl.
        assert per_second > 100
    finally:
        client.close()
        proxy.stop()
        rig.close()


def test_reconnect_turnaround(mean_seconds, report):
    """How quickly a reconnect=True client is usable again after its
    link is severed -- the latency chaos tests pay per injected reset."""
    rig = make_rig()
    proxy = ChaosProxy(("127.0.0.1", rig.server.port))
    proxy.start()
    client = AudioClient(port=proxy.port, client_name="bench-reconnect",
                         reconnect=True, request_timeout=5.0)
    try:
        client.sync()

        def sever_and_recover():
            before = client.conn.reconnects
            proxy.sever_all()
            while client.conn.reconnects == before:
                time.sleep(0.001)
            client.sync()

        _, turnaround = mean_seconds(sever_and_recover,
                                     rounds=scaled(10, 3), iterations=1)
        report.row("E12", "reconnect turnaround after reset",
                   "%.0f ms" % (turnaround * 1e3),
                   "well under a second on loopback")
        assert turnaround < 5.0
    finally:
        client.close()
        proxy.stop()
        rig.close()
