"""E15 -- C10k soak: massive concurrent sessions on the I/O shards.

The selector load generator (testkit/loadgen.py) holds hundreds (fast
mode) to a thousand (full mode) concurrent protocol sessions
against a live real-time server, mixing connect churn, pure queries and
real playback LOUDs.  The run is gated on health -- zero protocol
errors, zero unexpected disconnects, zero connect failures, zero
timeouts -- and on the number of sessions actually held at peak.
Results land in BENCH_C10K.json via the harness result sink.
"""

from repro.server import AudioServer, ServerConfig
from testkit.loadgen import run_load
from testkit.rig import record_perf, scaled

#: Concurrent sessions the soak opens.
SESSIONS = scaled(1000, 200)
#: Concurrent sessions the soak must actually have held at peak.
HOLD_TARGET = scaled(500, 150)
#: Soak window (wall clock; the server paces in real time).
SOAK_SECONDS = scaled(15.0, 4.0)
#: Near-zero think time: round-trip latency, not scripted idling,
#: dominates the recorded throughput.
THINK_SECONDS = (0.0, 0.002)

PLAY_FRACTION = 0.1
CHURN_FRACTION = 0.02


def test_c10k_soak(report):
    server = AudioServer(settings=ServerConfig(realtime=True))
    server.start()
    try:
        stats = run_load(server.host, server.port, sessions=SESSIONS,
                         duration=SOAK_SECONDS, seed=11,
                         play_fraction=PLAY_FRACTION,
                         churn_fraction=CHURN_FRACTION,
                         think_seconds=THINK_SECONDS)
        counters = server.stats_snapshot()["counters"]
    finally:
        server.stop()

    record = stats.as_record()
    assert stats.protocol_errors == 0, record
    assert stats.unexpected_disconnects == 0, record
    assert stats.connect_failures == 0, record
    assert stats.timeouts == 0, record
    assert stats.connections_held >= HOLD_TARGET, record

    record_perf("c10k.shards", stats.requests_per_sec,
                sink="BENCH_C10K.json",
                play_fraction=PLAY_FRACTION,
                churn_fraction=CHURN_FRACTION,
                **record,
                **{name: value for name, value in sorted(counters.items())
                   if name.startswith("ioloop.")})
    report.row("E15", "sessions held / p99 latency",
               "%d / %.2f ms" % (stats.connections_held,
                                 stats.percentile(0.99)),
               ">= %d held, 0 errors" % HOLD_TARGET)
