"""E6 -- protocol cost: async pipelining vs round trips (paper 4.1, 3).

"Requests are asynchronous, so that an application can send requests
without waiting for the completion of previous requests."  The paper's
whole client-server argument (section 3) leans on round trips being
cheap enough and avoidable; this experiment quantifies both.

Measured: synchronous round trips per second on one connection;
pipelined async requests per second; connection setup cost.
"""


from repro.alib import AudioClient
from repro.protocol.requests import GetTime, NoOperation
from testkit.rig import make_rig, scaled


def test_round_trips_per_second(mean_seconds, report):
    rig = make_rig()
    try:
        rig.client.sync()

        def one_round_trip():
            rig.client.conn.round_trip(GetTime())

        _, mean = mean_seconds(one_round_trip)
        per_second = 1.0 / mean
        report.row("E6", "synchronous round trips",
                   "%.0f /s" % per_second, "the cost a queue avoids")
        assert per_second > 200
    finally:
        rig.close()


def test_pipelined_async_requests(mean_seconds, report):
    rig = make_rig()
    try:
        batch = scaled(2000, 200)

        def pipeline_batch():
            for _ in range(batch):
                rig.client.conn.send(NoOperation())
            rig.client.sync()

        _, mean = mean_seconds(pipeline_batch, rounds=scaled(5, 2),
                               iterations=1)
        per_second = batch / mean
        report.row("E6", "pipelined async requests",
                   "%.0f /s" % per_second,
                   "large multiple of round-trip rate")
        # The asynchronous protocol must beat one-at-a-time round trips
        # by a wide margin (that is its whole point).
        assert per_second > 2000
    finally:
        rig.close()


def test_connection_setup_cost(mean_seconds, report):
    rig = make_rig()
    try:
        def connect_and_close():
            client = AudioClient(port=rig.server.port, client_name="burst")
            client.server_info()
            client.close()

        _, mean = mean_seconds(connect_and_close, rounds=scaled(10, 3),
                               iterations=1)
        milliseconds = mean * 1000.0
        report.row("E6", "connection setup + first query",
                   "%.1f ms" % milliseconds,
                   "amortized by 'an existing server connection'")
        assert milliseconds < 200.0
    finally:
        rig.close()
