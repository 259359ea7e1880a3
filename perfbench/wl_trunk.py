"""The ``trunk`` workload: 128 tandem-switched calls, open loop.

Three :class:`TelephoneExchange` s with :class:`TrunkGateway` s run on
loopback.  Static routes send ``7xxx`` from A to B and from B to C, so B
tandem-switches every call.  One generator thread ticks A, B and C in
lockstep on a fixed 20 ms schedule: before A's tick every talking caller
speaks one block, after C's tick every callee line is read, ringing
lines are answered on the first ring, and lines whose far end hung up
are put back on hook.  A few calls a second fall silent, hang up and
redial, so signalling churns beside the bearer traffic.

Each caller's blocks are mu-law-exact PCM (the decode of voiced mu-law
codes), so C must hear them sample for sample.  Every block is timed
from the moment its tick was due.  The jitter buffers never shrink, so a
stall of the shared host raises every later block of a call by whole
blocks; the driver-facing latency is therefore each call session's
lowest mouth->ear (the buffering the call was built with), and the raw
mouth->ear percentiles are reported beside it.  How late the generator released its
ticks is reported (``late_ticks`` counts those over one block late) but
is not a failed op: a stall of the shared host, not the program, is what
makes a tick late, and any audio it cost shows up in the output checks.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from common import (
    BLOCK,
    BLOCK_SECONDS,
    SAMPLE_RATE,
    SETUP_REPEATS,
    HostSpeed,
    Result,
    median,
    mulaw_decode_reference,
    quantile,
    timed_setup,
    voiced_mulaw_codes,
)

CALLS = 128
#: Distinct blocks per caller; block n of a call is pattern n % 64.
PATTERN_BLOCKS = 64
#: One call starts hanging up every this many ticks (~4 a second).
CHURN_EVERY_TICKS = 12
#: A caller falls silent this long before hanging up, so everything it
#: said drains to C before the release.
QUIET_TICKS = 15
#: A caller waits at least this long on hook before redialling.
REDIAL_GAP_TICKS = 5
#: Longest the drain after the run may take.
DRAIN_SECONDS = 2.0
#: Bearer payloads a link may queue before shedding.  The gateway's
#: default (256) is meant as "five seconds of bearer", but it counts
#: payloads across every call on the link: at 128 calls it is 40 ms, and
#: any 40 ms stall of a writer thread on a shared host sheds audio.  The
#: workload sizes the bound to that stated intent for its call count.
OUTBOUND_BOUND = CALLS * 250


def trunk_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    codes = voiced_mulaw_codes(rng, CALLS * PATTERN_BLOCKS * BLOCK)
    pcm = mulaw_decode_reference(codes).reshape(CALLS, PATTERN_BLOCKS, BLOCK)
    churn = rng.integers(0, CALLS, size=4096).tolist()
    return {"pcm": pcm, "churn": churn}


class _Rig:
    """Three exchanges and gateways, routed A -> B -> C."""

    def __init__(self) -> None:
        from repro.obs import MetricsRegistry
        from repro.telephony import TelephoneExchange
        from repro.trunk import TrunkGateway

        self.registries = [MetricsRegistry() for _ in range(3)]
        self.exchanges = [TelephoneExchange(SAMPLE_RATE) for _ in range(3)]
        for exchange, registry in zip(self.exchanges, self.registries):
            exchange.attach_metrics(registry)
        ex_a, ex_b, ex_c = self.exchanges
        reg_a, reg_b, reg_c = self.registries
        gw_c = TrunkGateway(ex_c, name="perfbench-c", metrics=reg_c,
                            outbound_bound=OUTBOUND_BOUND)
        gw_c.listen("127.0.0.1", 0)
        gw_c.start()
        gw_b = TrunkGateway(ex_b, name="perfbench-b", metrics=reg_b,
                            outbound_bound=OUTBOUND_BOUND)
        gw_b.listen("127.0.0.1", 0)
        gw_b.add_route("7", "127.0.0.1", gw_c.port)
        gw_b.start()
        gw_a = TrunkGateway(ex_a, name="perfbench-a", metrics=reg_a,
                            outbound_bound=OUTBOUND_BOUND)
        gw_a.add_route("7", "127.0.0.1", gw_b.port)
        gw_a.start()
        self.gateways = [gw_a, gw_b, gw_c]
        if not (gw_a.wait_connected(10.0) and gw_b.wait_connected(10.0)):
            self.stop()
            raise RuntimeError("trunk links did not come up")
        self.callers = [ex_a.add_line("5%03d" % index)
                        for index in range(CALLS)]
        self.callees = [ex_c.add_line("7%03d" % index)
                        for index in range(CALLS)]

    def counter(self, name: str) -> int:
        return sum(registry.counter(name).value
                   for registry in self.registries)

    def stop(self) -> None:
        """Stop the gateways side by side (each stop can block ~2 s)."""
        threads = [threading.Thread(target=gateway.stop)
                   for gateway in self.gateways]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


class _Traffic:
    """The generator: per-call state and the lockstep tick."""

    def __init__(self, rig: _Rig, inputs: dict) -> None:
        from repro.telephony.call import CallState
        from repro.telephony.line import HookState

        self.connected_state = CallState.CONNECTED
        self.on_hook_state = HookState.ON_HOOK
        self.rig = rig
        self.pcm = inputs["pcm"]
        self.churn = deque(inputs["churn"])
        self.phase = ["idle"] * CALLS
        self.sent = [0] * CALLS
        self.heard = [0] * CALLS
        self.due = [deque() for _ in range(CALLS)]
        self.dialled_at = [0.0] * CALLS
        self.hangup_at = [0] * CALLS
        self.redial_at = [0] * CALLS
        self.recording = False
        self.redial = True
        self.m2e: list[float] = []
        #: Lowest mouth->ear of each call session, and of the current ones.
        self.floors: list[float] = []
        self.floor = [float("inf")] * CALLS
        self.setups: list[float] = []
        self.blocks_sent = 0
        self.blocks_heard = 0
        self.mismatched = 0
        self.dials = 0
        self.failed_dials = 0
        self.program_cpu = 0.0
        self.tick_index = 0

    def end_session(self, index: int) -> None:
        if self.floor[index] != float("inf"):
            self.floors.append(self.floor[index])
        self.floor[index] = float("inf")

    def dial(self, index: int, now: float) -> None:
        self.end_session(index)
        line = self.rig.callers[index]
        line.off_hook()
        line.dial("7%03d" % index)
        self.phase[index] = "dialling"
        self.dialled_at[index] = now
        self.sent[index] = self.heard[index] = 0
        self.due[index].clear()
        if self.recording:
            self.dials += 1

    def tick(self, due: float) -> None:
        rig, pcm, tick = self.rig, self.pcm, self.tick_index
        ex_a, ex_b, ex_c = rig.exchanges
        thread_cpu = time.thread_time
        if self.recording and tick % CHURN_EVERY_TICKS == 0:
            for _ in range(CALLS):
                index = self.churn[0]
                self.churn.rotate(-1)
                if self.phase[index] == "talking":
                    self.phase[index] = "quiet"
                    self.hangup_at[index] = tick + QUIET_TICKS
                    break
        cpu = thread_cpu()
        for index in range(CALLS):
            phase = self.phase[index]
            if phase == "talking":
                seq = self.sent[index]
                rig.callers[index].send_audio(
                    pcm[index, (seq + index) % PATTERN_BLOCKS])
                self.sent[index] = seq + 1
                self.due[index].append(due)
                if self.recording:
                    self.blocks_sent += 1
            elif phase == "quiet" and tick >= self.hangup_at[index]:
                rig.callers[index].on_hook()
                self.phase[index] = "down"
                self.redial_at[index] = tick + REDIAL_GAP_TICKS
        ex_a.tick(BLOCK)
        ex_b.tick(BLOCK)
        ex_c.tick(BLOCK)
        self.program_cpu += thread_cpu() - cpu
        now = time.perf_counter()
        for index in range(CALLS):
            callee = rig.callees[index]
            cpu = thread_cpu()
            if callee.ringing:
                callee.off_hook()
            elif (callee.hook is not self.on_hook_state
                  and ex_c.call_for(callee) is None):
                callee.on_hook()
            block = callee.receive_audio(BLOCK)
            self.program_cpu += thread_cpu() - cpu
            if block.any():
                self._heard(index, block, now)
            phase = self.phase[index]
            if phase == "dialling":
                call = ex_a.call_for(rig.callers[index])
                if call is None:
                    self.failed_dials += self.recording
                    rig.callers[index].on_hook()
                    self.phase[index] = "down"
                    self.redial_at[index] = tick + REDIAL_GAP_TICKS
                elif call.state is self.connected_state:
                    self.phase[index] = "talking"
                    if self.recording:
                        self.setups.append(now - self.dialled_at[index])
            elif (phase == "down" and self.redial
                  and tick >= self.redial_at[index]
                  and callee.hook is self.on_hook_state
                  and ex_c.call_for(callee) is None):
                cpu = thread_cpu()
                self.dial(index, now)
                self.program_cpu += thread_cpu() - cpu
        self.tick_index += 1

    def _heard(self, index: int, block: np.ndarray, now: float) -> None:
        seq = self.heard[index]
        waiting = self.due[index]
        expected = self.pcm[index, (seq + index) % PATTERN_BLOCKS]
        due = waiting.popleft() if waiting else None
        self.heard[index] = seq + 1
        if due is None or not np.array_equal(block, expected):
            self.mismatched += 1
            return
        if self.recording:
            self.blocks_heard += 1
            self.m2e.append(now - due)
            self.floor[index] = min(self.floor[index], now - due)

    def connected(self) -> bool:
        return all(phase == "talking" for phase in self.phase)

    def outstanding(self) -> int:
        return sum(len(waiting) for waiting in self.due)


class _Schedule:
    """Releases ticks every 20 ms from a fixed origin, open loop."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.count = 0
        self.lateness: list[float] = []

    def wait(self) -> float:
        due = self.origin + self.count * BLOCK_SECONDS
        self.count += 1
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        self.lateness.append(time.perf_counter() - due)
        return due


def _setup(inputs: dict):
    rig = _Rig()
    traffic = _Traffic(rig, inputs)
    schedule = _Schedule()
    for index in range(CALLS):
        traffic.dial(index, time.perf_counter())
    deadline = time.perf_counter() + 10.0
    while not traffic.connected():
        if time.perf_counter() > deadline:
            rig.stop()
            raise RuntimeError("calls did not connect during set-up")
        traffic.tick(schedule.wait())
    return rig, traffic


def run_trunk(seed: int, seconds: float, start_trace=None) -> Result:
    result = Result("trunk")
    inputs = trunk_inputs(seed)
    rig, stopping = None, []
    for _ in range(SETUP_REPEATS):
        if rig is not None:
            # A stop mostly waits out its accept thread (~2 s): let it
            # finish beside the next set-up, and before measuring.
            stopping.append(threading.Thread(target=rig.stop))
            stopping[-1].start()
        (rig, traffic), wall, scaled = timed_setup(lambda: _setup(inputs))
        result.setup_wall_s.append(wall)
        result.setup_s.append(scaled)
    for thread in stopping:
        thread.join()
    try:
        trace = start_trace() if start_trace is not None else None
        traffic.recording = True
        schedule = _Schedule()
        cpu_started = time.process_time()
        thread_started = time.thread_time()
        program_started = traffic.program_cpu
        ticks = 0
        end = schedule.origin + seconds
        speed = HostSpeed()
        while schedule.origin + schedule.count * BLOCK_SECONDS < end:
            traffic.tick(schedule.wait())
            ticks += 1
            speed.maybe_sample()
        process_cpu = time.process_time() - cpu_started
        generator_cpu = ((time.thread_time() - thread_started)
                         - (traffic.program_cpu - program_started))
        elapsed = time.perf_counter() - schedule.origin
        traffic.recording = False
        for index in range(CALLS):
            traffic.end_session(index)
        lateness = np.asarray(schedule.lateness)
        late_ticks = int(np.sum(lateness > BLOCK_SECONDS))
        if trace is not None:
            trace.finish(result, ops_keys=("telephony.exchange.tick",))
        heard_in_run = traffic.blocks_heard
        _drain(traffic)
        program_cpu = process_cpu - generator_cpu
        audio_seconds = ticks * BLOCK_SECONDS
        m2e_us = np.asarray(traffic.m2e) * 1e6
        floors_us = np.asarray(traffic.floors) * 1e6
        result.end_to_end.update({
            "ops_per_s": heard_in_run / elapsed,
            "op_p50_us": quantile(floors_us, 0.5),
            "op_p99_us": quantile(floors_us, 0.99),
            "cpu_us_per_op": (program_cpu * speed.cpu_factor()
                              / heard_in_run * 1e6),
        })
        result.named.update({
            "cpu_per_audio_s": (program_cpu / audio_seconds, "s/s"),
            "m2e_p50_ms": (quantile(m2e_us, 0.5) / 1e3, "ms"),
            "m2e_p99_ms": (quantile(m2e_us, 0.99) / 1e3, "ms"),
            "m2e_floor_p50_ms": (quantile(floors_us, 0.5) / 1e3, "ms"),
            "sessions": (float(len(floors_us)), "count"),
            "call_setup_p50_ms": (median(traffic.setups) * 1e3, "ms"),
            "call_setups": (float(len(traffic.setups)), "count"),
            "calls": (float(CALLS), "count"),
            "host_speed": (speed.cpu_factor(), "ratio"),
            "steal_share": (speed.steal_share(), "ratio"),
        })
        result.generator.update({
            "generator_cpu_s": generator_cpu,
            "generator_share": generator_cpu / max(process_cpu, 1e-9),
            "lateness_p50_ms": quantile(lateness, 0.5) * 1e3,
            "lateness_p99_ms": quantile(lateness, 0.99) * 1e3,
            "lateness_max_ms": float(lateness.max()) * 1e3,
            "late_ticks": float(late_ticks),
        })
        # Blocks C never heard although the pipeline counted none lost,
        # late or shed: they arrived, but an earlier mid-call underrun
        # left them below the jitter buffer's re-prime threshold when
        # the caller fell silent.  Reported, not failed.
        stranded = traffic.outstanding()
        result.named["stranded_blocks"] = (float(stranded), "count")
        pipeline = {name: rig.counter(name) for name in (
            "trunk.jitter.late_frames", "trunk.jitter.lost_frames",
            "trunk.jitter.shed_samples", "trunk.outbound.shed_audio_frames",
            "telephony.line.dropped_blocks")}
        result.attempted = traffic.blocks_sent + traffic.dials
        result.failed = (traffic.mismatched + traffic.failed_dials
                         + sum(pipeline.values()))
        result.check("c_hears_mulaw_round_trip", traffic.mismatched == 0,
                     "%d blocks differ" % traffic.mismatched)
        result.check("no_late_lost_or_shed_in_pipeline",
                     not any(pipeline.values()),
                     ", ".join("%s=%d" % item for item in pipeline.items()))
        result.check("every_dial_connects", traffic.failed_dials == 0,
                     "%d of %d redials failed"
                     % (traffic.failed_dials, traffic.dials))
    finally:
        rig.stop()
    return result


def _drain(traffic: _Traffic) -> None:
    """Unmeasured: silence every caller, let C hear what is in flight,
    then hang everything up so the gateways fold their jitter stats."""
    traffic.redial = False
    for index in range(CALLS):
        if traffic.phase[index] in ("talking", "dialling"):
            traffic.phase[index] = "quiet"
            traffic.hangup_at[index] = 1 << 62
    schedule = _Schedule()
    deadline = time.perf_counter() + DRAIN_SECONDS
    while traffic.outstanding() and time.perf_counter() < deadline:
        traffic.tick(schedule.wait())
    for index in range(CALLS):
        if traffic.phase[index] == "quiet":
            traffic.hangup_at[index] = traffic.tick_index
    for _ in range(QUIET_TICKS):
        traffic.tick(schedule.wait())
