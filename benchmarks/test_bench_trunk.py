"""E13 -- trunk soak: federated calls under chaos faults.

Two real-time servers federated by a trunk whose TCP link rides a chaos
proxy with latency jitter.  Scripted parties on server A place call
after call to scripted answerers on server B for the soak window; each
call connects, exchanges speech both ways, and hangs up.  Throughput and
the trunk's bearer health (frames, jitter-buffer concealment, sheds)
land in BENCH_TRUNK.json via the harness result sink.
"""

import time

from repro.dsp import tones
from repro.hardware import HardwareConfig
from repro.server import AudioServer, ServerConfig
from repro.telephony import (
    Dial,
    HangUp,
    SimulatedParty,
    Speak,
    Wait,
    WaitForConnect,
)
from testkit.chaos.proxy import ChaosProxy
from testkit.chaos.schedule import FaultSchedule
from testkit.rig import record_perf, scaled

RATE = 8000

#: Soak window (wall-clock: both servers pace in real time).
SOAK_SECONDS = scaled(12.0, 3.0)
#: Concurrent caller/answerer pairs riding the one trunk link.
PAIRS = scaled(3, 2)


def _loop_script(callee_number):
    """One call: dial, connect, speak, linger, hang up -- repeated."""
    speech = tones.sine(300.0, 0.4, RATE, amplitude=8000)
    return [Dial(callee_number), WaitForConnect(), Speak(speech),
            Wait(0.2), HangUp(), Wait(0.2)]


class LoopingParty(SimulatedParty):
    """A SimulatedParty that restarts its script when it finishes.

    Each successfully connected cycle bumps ``completed`` (the caller
    hangs up first, so it never sees ``on_far_hangup`` itself).
    """

    def __init__(self, line, script_factory, **kwargs):
        self._script_factory = script_factory
        self.completed = 0
        super().__init__(line, script=script_factory(), **kwargs)

    def tick(self, frames):
        super().tick(frames)
        if not self.script:         # script drained: start the next cycle
            if self.connected:
                self.completed += 1
            self.connected = False
            self.call_failed = False
            self._script_started = False
            self.heard.clear()      # bound memory over a long soak
            self.script = list(self._script_factory())


def test_trunk_soak_under_chaos(report):
    schedule = FaultSchedule(seed=7, latency=0.001, jitter=0.004)
    server_b = AudioServer(HardwareConfig(lines=()), ServerConfig(
        realtime=True, trunk_listen=("127.0.0.1", 0), trunk_name="soak-b"))
    server_b.start()
    proxy = ChaosProxy(("127.0.0.1", server_b.trunk.port),
                       schedule=schedule).start()
    server_a = AudioServer(HardwareConfig(lines=()), ServerConfig(
        realtime=True, trunk_routes=(("5552", "127.0.0.1", proxy.port),),
        trunk_name="soak-a"))
    server_a.start()
    try:
        assert server_a.trunk.wait_connected(10.0)
        callers = []
        speech = tones.sine(500.0, 0.3, RATE, amplitude=8000)
        with server_b.lock:
            for index in range(PAIRS):
                answer_line = server_b.hub.exchange.add_line(
                    "5552%02d" % index)
                server_b.hub.exchange.add_party(LoopingParty(
                    answer_line, lambda: [Speak(speech)],
                    answer_after_rings=1))
        with server_a.lock:
            for index in range(PAIRS):
                caller_line = server_a.hub.exchange.add_line(
                    "5551%02d" % index)
                party = LoopingParty(
                    caller_line,
                    lambda i=index: _loop_script("5552%02d" % i),
                    answer_after_rings=None)
                callers.append(party)
                server_a.hub.exchange.add_party(party)

        started = time.monotonic()
        time.sleep(SOAK_SECONDS)
        elapsed = time.monotonic() - started

        completed = sum(party.completed for party in callers)
        snapshot = server_a.stats_snapshot()
        trunk_counters = {name: value
                          for name, value in snapshot["counters"].items()
                          if name.startswith("trunk.")}
        calls_per_second = completed / elapsed
        record_perf("trunk.soak.calls", calls_per_second,
                    sink="BENCH_TRUNK.json",
                    completed_calls=completed,
                    soak_seconds=round(elapsed, 2),
                    pairs=PAIRS,
                    chaos={"latency": schedule.latency,
                           "jitter": schedule.jitter},
                    **trunk_counters)
        report.row("E13", "federated calls completed under chaos",
                   "%d (%.2f /s)" % (completed, calls_per_second),
                   "calls survive a jittery trunk")
        report.row("E13", "bearer frames across trunk",
                   "%d out / %d in"
                   % (trunk_counters.get("trunk.frames_out", 0),
                      trunk_counters.get("trunk.frames_in", 0)),
                   "nonzero both directions")
        # The soak must actually complete calls and move bearer audio.
        assert completed > 0
        assert trunk_counters.get("trunk.frames_out", 0) > 0
        assert trunk_counters.get("trunk.frames_in", 0) > 0
    finally:
        server_a.stop()
        proxy.stop()
        server_b.stop()


# -- E16: bearer fast-path fanout ---------------------------------------------
#
# scaled(256, 32) concurrent calls ride ONE trunk link; the callers all
# speak every tick, driven as fast as the exchanges can tick (no
# real-time pacing).  The gates are absolute health of the batched
# bearer: far-end audio sample-identical to the exact mu-law round trip,
# every block delivered, zero loss/lateness/shedding, AUDIO_BATCH frames
# on the wire, and at most MAX_SENDALLS_PER_TICK writes per talk tick.

import numpy as np

from repro.dsp.encodings import mulaw_decode, mulaw_encode
from repro.telephony import TelephoneExchange

BLOCK = 160

#: Concurrent calls sharing the single trunk link.
FANOUT_CALLS = scaled(256, 32)
#: Measured talk window, in 20 ms blocks per call.
FANOUT_TALK_TICKS = scaled(50, 20)
#: Syscall gate: one flush per tick is one sendall; the writer may split
#: a window across two sweeps, never one write per call.
MAX_SENDALLS_PER_TICK = 2


def _call_stream(index):
    """A deterministic per-call block whose mu-law roundtrip has no
    zero samples (so concealment silence is distinguishable)."""
    ramp = (np.arange(BLOCK, dtype=np.int16) * 13) % 331
    return (ramp + 100 + index).astype(np.int16)


def _measure_fanout(calls, talk_ticks):
    """Run the fanout workload once; returns throughput + health."""
    from repro.obs import MetricsRegistry
    from repro.trunk import TrunkGateway

    # Depth/bounds sized so the whole talk window fits everywhere:
    # the gate demands ZERO sheds, losses and late frames.
    depth_seconds = (talk_ticks + 32) * BLOCK / RATE
    line_buffer_seconds = (4 * talk_ticks + 300) * BLOCK / RATE
    outbound_bound = calls * (talk_ticks + 8)

    ex_a = TelephoneExchange(RATE)
    ex_b = TelephoneExchange(RATE)
    gw_b = TrunkGateway(ex_b, name="fan-b", metrics=MetricsRegistry(),
                        outbound_bound=outbound_bound,
                        jitter_depth_seconds=depth_seconds)
    gw_b.listen("127.0.0.1", 0)
    gw_b.start()
    gw_a = TrunkGateway(ex_a, name="fan-a", metrics=MetricsRegistry(),
                        outbound_bound=outbound_bound,
                        jitter_depth_seconds=depth_seconds)
    gw_a.add_route("9", "127.0.0.1", gw_b.port)
    gw_a.start()

    def pump_until(predicate, limit=6000):
        for _ in range(limit):
            if predicate():
                return True
            ex_a.tick(BLOCK)
            ex_b.tick(BLOCK)
            time.sleep(0.0005)
        return predicate()

    try:
        assert gw_a.wait_connected(10.0), "fanout trunk never connected"
        a_lines = [ex_a.add_line("8%03d" % k) for k in range(calls)]
        b_lines = [ex_b.add_line("9%03d" % k) for k in range(calls)]
        for line in b_lines:
            line.max_buffer_seconds = line_buffer_seconds
        for k, line in enumerate(a_lines):
            line.off_hook()
            line.dial("9%03d" % k)
        assert pump_until(lambda: all(line.ringing for line in b_lines)), \
            "not every fanout call rang"
        for line in b_lines:
            line.off_hook()
        from repro.telephony import CallState

        def all_connected():
            return all(
                (call := ex_a.call_for(line)) is not None
                and call.state is CallState.CONNECTED
                for line in a_lines)

        assert pump_until(all_connected), "not every fanout call connected"

        streams = [_call_stream(k) for k in range(calls)]
        expected = [mulaw_decode(mulaw_encode(stream))
                    for stream in streams]
        assert all(np.all(want != 0) for want in expected)

        a_link = gw_a.routes[0].link
        b_link = gw_b._accepted[0]
        sendalls_before, recvs_before = a_link.sendalls, b_link.recvs
        total = calls * talk_ticks
        started = time.perf_counter()
        for _ in range(talk_ticks):
            for line, stream in zip(a_lines, streams):
                line.send_audio(stream)
            ex_a.tick(BLOCK)
            ex_b.tick(BLOCK)
        # The wire transfer counts until B's gateway has ingested every
        # bearer block (the reader thread may still be draining).
        spins = 0
        while gw_b._m_frames_in.value < total and spins < 20000:
            ex_a.tick(BLOCK)
            ex_b.tick(BLOCK)
            spins += 1
            time.sleep(0)
        elapsed = time.perf_counter() - started
        frames_per_sec = total / elapsed
        sendalls = a_link.sendalls - sendalls_before
        recvs = b_link.recvs - recvs_before

        # Unmeasured flush: drain every jitter buffer into the lines.
        for _ in range(talk_ticks + 64):
            ex_a.tick(BLOCK)
            ex_b.tick(BLOCK)

        sample_identical = True
        for line, want in zip(b_lines, expected):
            heard = line.receive_audio(line._buffered)
            voiced = heard[heard != 0]
            if not np.array_equal(voiced, np.tile(want, talk_ticks)):
                sample_identical = False
                break

        stats = {
            "frames_per_sec": frames_per_sec,
            "bearer_blocks": int(gw_b._m_frames_in.value),
            "sample_identical": bool(sample_identical),
            "lost_frames": int(gw_b._m_lost.value),
            "late_frames": int(gw_b._m_late.value),
            "jitter_shed_samples": int(gw_b._m_jitter_shed.value),
            "outbound_shed_frames": int(a_link.shed_audio_frames),
            "underruns": int(gw_b._m_underruns.value),
            "dropped_line_blocks": int(
                ex_b.metrics.counter(
                    "telephony.line.dropped_blocks").value),
            "sendalls": int(sendalls),
            "recvs": int(recvs),
            "sendalls_per_tick": sendalls / talk_ticks,
            "batch_frames": int(a_link.batch_frames_out),
            "batch_entries": int(a_link.batch_entries_out),
            "links_alive": bool(a_link.alive and b_link.alive),
        }
        return stats
    finally:
        gw_a.stop()
        gw_b.stop()


def _fanout_healthy(stats):
    return (stats["sample_identical"] and stats["links_alive"]
            and stats["lost_frames"] == 0 and stats["late_frames"] == 0
            and stats["jitter_shed_samples"] == 0
            and stats["outbound_shed_frames"] == 0)


def test_trunk_fanout_fast_path(report):
    calls, talk_ticks = FANOUT_CALLS, FANOUT_TALK_TICKS
    stats = _measure_fanout(calls, talk_ticks)
    record_perf("trunk.fanout.batched", stats["frames_per_sec"],
                sink="BENCH_TRUNK.json", calls=calls,
                talk_ticks=talk_ticks,
                max_sendalls_per_tick=MAX_SENDALLS_PER_TICK,
                zero_regressions=_fanout_healthy(stats), **stats)
    report.row("E16", "batched bearer (AUDIO_BATCH)",
               "%.0f frames/s" % stats["frames_per_sec"],
               "%d sendalls (%.2f/tick), %d batches x ~%d calls"
               % (stats["sendalls"], stats["sendalls_per_tick"],
                  stats["batch_frames"],
                  stats["batch_entries"] // max(1, stats["batch_frames"])))

    # Health gates: every block arrived bit-exact, with no loss,
    # lateness or shedding anywhere in the pipeline, batched on the
    # wire at a bounded number of writes per tick.
    assert stats["bearer_blocks"] == calls * talk_ticks, \
        "wire lost bearer blocks: %r" % stats
    assert _fanout_healthy(stats), "unhealthy: %r" % stats
    assert stats["batch_frames"] > 0
    assert stats["sendalls_per_tick"] <= MAX_SENDALLS_PER_TICK, \
        "%.2f sendalls per talk tick" % stats["sendalls_per_tick"]
