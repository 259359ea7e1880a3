"""The ``control`` workload: request round trips against a real server.

The server is a ``repro.server.main --realtime`` child process with 8
background LOUDs playing.  Two raw-protocol connections run closed loops
with one operation outstanding each:

* **R** issues reads -- GetTime and QueryServer (lock-free) and
  QueryLoud and QueryVirtualDevice (served from the query snapshot);
* **W** repeats an application's LOUD cycle -- CreateLoud, two
  CreateVirtualDevice, CreateWire, SelectEvents, MapLoud, a queued Play
  of the catalogue ``beep``, StartQueue, QueryLoud, UnmapLoud and
  DestroyLoud -- sent as one pipelined burst and closed by a GetTime.

The server and the generator are pinned to different CPUs.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR,
    RUN_DIR,
    SAMPLE_RATE,
    SETUP_REPEATS,
    HostSpeed,
    Result,
    child_env,
    pin,
    quantile,
    timed_setup,
    voiced_mulaw_codes,
    window_quantile,
    window_rate,
)

BACKGROUND_LOUDS = 8
READ_SCHEDULE = 4096


class RawConnection:
    """A bare protocol connection: framing and codecs, no Alib."""

    def __init__(self, port: int, name: str) -> None:
        from repro.protocol.setup import SetupReply, SetupRequest
        from repro.protocol.wire import MessageStream, set_nodelay

        self.sock = socket.create_connection(("127.0.0.1", port))
        set_nodelay(self.sock)
        self.sock.sendall(SetupRequest(client_name=name).encode())
        reply = SetupReply.read_from(self.sock)
        if not reply.accepted:
            raise RuntimeError("setup refused: %s" % reply.reason)
        self.next_id = reply.id_base + 1
        self.stream = MessageStream(self.sock)
        self.sequence = 0

    def alloc(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def send(self, requests) -> list[int]:
        """Send requests in one write; returns their sequence numbers."""
        from repro.protocol.wire import Message, MessageKind

        sequences, blob = [], bytearray()
        for request in requests:
            self.sequence = (self.sequence + 1) & 0xFFFF
            sequences.append(self.sequence)
            blob += Message(MessageKind.REQUEST, int(request.OPCODE),
                            self.sequence, request.encode()).encode()
        self.sock.sendall(blob)
        return sequences

    def replies(self, expected: list[tuple[int, type]]) -> tuple[list, int]:
        """Read until every ``(sequence, reply class)`` has arrived.

        Returns the parsed replies in order and the number of problems
        seen on the way: error messages and out-of-order or mistyped
        replies.  Events are skipped.
        """
        from repro.protocol.wire import MessageKind, Reader

        parsed, problems = [], 0
        for sequence, reply_cls in expected:
            while True:
                message = self.stream.read_message()
                if message.kind is MessageKind.EVENT:
                    continue
                if message.kind is MessageKind.ERROR:
                    problems += 1
                    continue
                break
            if message.sequence != sequence:
                problems += 1
            try:
                reader = Reader(message.payload)
                reply = reply_cls.read_payload(reader)
                reader.expect_end()
            except Exception:
                problems += 1
                reply = None
            parsed.append(reply)
        return parsed, problems

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def control_inputs(seed: int, seconds: float) -> dict:
    """The background sound and R's read schedule."""
    rng = np.random.default_rng([seed, 4])
    frames = int(seconds + 60) * SAMPLE_RATE
    return {"background": voiced_mulaw_codes(rng, frames).tobytes(),
            "reads": rng.integers(0, 4, size=READ_SCHEDULE).tolist(),
            "targets": rng.integers(0, BACKGROUND_LOUDS,
                                    size=READ_SCHEDULE).tolist()}


class _Server:
    """The server child process."""

    def __init__(self, trace_out: Path | None) -> None:
        command = [sys.executable, "-u", str(BENCH_DIR / "server_child.py"),
                   "--cpu", "1"]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--realtime", "--port", "0"]
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError("server child did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        fields = Path("/proc/%d/stat" % self.process.pid).read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class _Session:
    """A server child plus the R and W connections and the background."""

    def __init__(self, inputs: dict, trace_out: Path | None) -> None:
        from repro.protocol.attributes import AttributeList
        from repro.protocol import requests as rq
        from repro.protocol.types import (
            MULAW_8K,
            Command,
            CommandMode,
            DeviceClass,
            QueueOp,
        )

        self.server = _Server(trace_out)
        try:
            self.writer = RawConnection(self.server.port, "perfbench-w")
            self.reader = RawConnection(self.server.port, "perfbench-r")
        except OSError:
            self.server.stop()
            raise
        conn = self.writer
        background = conn.alloc()
        self.beep = conn.alloc()
        setup = [rq.CreateSound(background, MULAW_8K),
                 rq.WriteSoundData(background, 0, inputs["background"]),
                 rq.LoadSound(self.beep, "beep", "")]
        self.louds = []
        for _ in range(BACKGROUND_LOUDS):
            loud, player, output, wire = (conn.alloc() for _ in range(4))
            setup += [
                rq.CreateLoud(loud),
                rq.CreateVirtualDevice(player, loud, DeviceClass.PLAYER),
                rq.CreateVirtualDevice(output, loud, DeviceClass.OUTPUT),
                rq.CreateWire(wire, player, 0, output, 0),
                rq.MapLoud(loud),
                rq.IssueCommand(loud, player, Command.PLAY,
                                CommandMode.QUEUED,
                                AttributeList.of(sound=background)),
                rq.ControlQueue(loud, QueueOp.START)]
            self.louds.append((loud, player, output))
        setup.append(rq.GetTime())
        sequences = conn.send(setup)
        _, problems = conn.replies([(sequences[-1], rq.GetTimeReply)])
        if problems:
            self.close()
            raise RuntimeError("background set-up drew %d errors" % problems)

    def close(self) -> None:
        self.writer.close()
        self.reader.close()
        self.server.stop()


def run_control(seed: int, seconds: float, trace: bool = False) -> Result:
    from repro.protocol import requests as rq
    from repro.protocol.attributes import AttributeList
    from repro.protocol.types import (
        Command,
        CommandMode,
        DeviceClass,
        EventMask,
        QueueOp,
    )

    result = Result("control")
    inputs = control_inputs(seed, seconds)
    cpus = sorted(os.sched_getaffinity(0))
    pin(0)
    RUN_DIR.mkdir(exist_ok=True)
    trace_out = RUN_DIR / ("control-trace-%d.json" % os.getpid())
    session = None
    for repeat in range(SETUP_REPEATS):
        if session is not None:
            session.close()
        traced = trace and repeat == SETUP_REPEATS - 1
        session, wall, scaled = timed_setup(
            lambda: _Session(inputs, trace_out if traced else None))
        result.setup_wall_s.append(wall)
        result.setup_s.append(scaled)

    writer, reader = session.writer, session.reader
    loud, player, output, wire = (writer.alloc() for _ in range(4))
    cycle = [
        rq.CreateLoud(loud),
        rq.CreateVirtualDevice(player, loud, DeviceClass.PLAYER),
        rq.CreateVirtualDevice(output, loud, DeviceClass.OUTPUT),
        rq.CreateWire(wire, player, 0, output, 0),
        rq.SelectEvents(loud, EventMask.QUEUE),
        rq.MapLoud(loud),
        rq.IssueCommand(loud, player, Command.PLAY, CommandMode.QUEUED,
                        AttributeList.of(sound=session.beep)),
        rq.ControlQueue(loud, QueueOp.START),
        rq.QueryLoud(loud),
        rq.UnmapLoud(loud),
        rq.DestroyLoud(loud),
        rq.GetTime(),
    ]
    built = sorted((player, output))
    reads = []
    for kind, target in zip(inputs["reads"], inputs["targets"]):
        bg_loud, bg_player, _ = session.louds[target]
        reads.append([
            (rq.GetTime(), rq.GetTimeReply, None),
            (rq.QueryServer(), rq.QueryServerReply, None),
            (rq.QueryLoud(bg_loud), rq.QueryLoudReply,
             sorted(session.louds[target][1:])),
            (rq.QueryVirtualDevice(bg_player), rq.QueryVirtualDeviceReply,
             DeviceClass.PLAYER),
        ][kind])
    stop = threading.Event()
    read_us: list[float] = []
    read_at: list[float] = []
    cycle_ms: list[float] = []
    #: (completion time, requests completed) for the windowed rate.
    done: list[tuple[float, int]] = []
    problems = {"read": 0, "cycle": 0}

    def read_loop():
        index = 0
        while not stop.is_set():
            request, reply_cls, want = reads[index % READ_SCHEDULE]
            index += 1
            started = time.perf_counter()
            sequence, = reader.send([request])
            (reply,), bad = reader.replies([(sequence, reply_cls)])
            finished = time.perf_counter()
            read_us.append((finished - started) * 1e6)
            read_at.append(finished)
            done.append((finished, 1))
            if not bad and want is not None:
                if reply_cls is rq.QueryLoudReply:
                    bad = sorted(reply.devices) != want or not reply.mapped
                else:
                    bad = reply.device_class != want
            problems["read"] += bool(bad)

    def cycle_loop():
        while not stop.is_set():
            started = time.perf_counter()
            sequences = writer.send(cycle)
            (query, _), bad = writer.replies(
                [(sequences[8], rq.QueryLoudReply),
                 (sequences[11], rq.GetTimeReply)])
            finished = time.perf_counter()
            cycle_ms.append((finished - started) * 1e3)
            done.append((finished, len(cycle)))
            if not bad:
                bad = sorted(query.devices) != built or not query.mapped
            problems["cycle"] += bool(bad)

    server_cpu = session.server.cpu_seconds()
    generator_cpu = time.process_time()
    started = time.perf_counter()
    threads = [threading.Thread(target=read_loop, name="perfbench-r"),
               threading.Thread(target=cycle_loop, name="perfbench-w")]
    # The main thread samples host speed on both CPUs while R and W run.
    speed = HostSpeed(unit_cpus=cpus)
    for thread in threads:
        thread.start()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        speed.sample()
        time.sleep(min(0.05, max(0.0, deadline - time.perf_counter())))
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    generator_cpu = time.process_time() - generator_cpu
    server_cpu = session.server.cpu_seconds() - server_cpu
    session.close()

    requests = len(read_us) + len(cycle) * len(cycle_ms)
    done.sort()
    done_at = np.array([when for when, _ in done])
    done_count = np.array([count for _, count in done], dtype=np.float64)
    rate = window_rate(done_at - started, done_count)
    scaled_reads = np.asarray(read_us) * speed.wall_factors(read_at)
    result.end_to_end.update({
        "ops_per_s": window_rate(done_at - started,
                                 done_count / speed.wall_factors(done_at)),
        "op_p50_us": quantile(scaled_reads, 0.5),
        "op_p99_us": window_quantile(read_at, scaled_reads, 0.99),
        "cpu_us_per_op": server_cpu * speed.cpu_factor() / requests * 1e6,
    })
    result.named.update({
        "req_per_s": (rate, "1/s"),
        "read_p50_us": (quantile(read_us, 0.5), "us"),
        "read_p99_us": (quantile(read_us, 0.99), "us"),
        "cycle_p50_ms": (quantile(cycle_ms, 0.5), "ms"),
        "cycle_p99_ms": (quantile(cycle_ms, 0.99), "ms"),
        "reads": (float(len(read_us)), "count"),
        "cycles": (float(len(cycle_ms)), "count"),
        "server_cpu_share": (server_cpu / elapsed, "s/s"),
        "host_speed": (speed.cpu_factor(), "ratio"),
        "steal_share": (speed.steal_share(), "ratio"),
    })
    result.generator["generator_share"] = generator_cpu / elapsed
    result.attempted = requests
    result.failed = problems["read"] + problems["cycle"]
    result.check("reads_match_sequence_type_and_tree", not problems["read"],
                 "%d bad reads" % problems["read"])
    result.check("cycles_clean_and_see_their_tree", not problems["cycle"],
                 "%d bad cycles" % problems["cycle"])
    if trace:
        with open(trace_out) as handle:
            traced = json.load(handle)
        trace_out.unlink()
        result.layers = traced["layers"]
        result.shares = traced["shares"]
        result.spans = traced["spans"]
    return result
