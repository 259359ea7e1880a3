"""E8 -- the client-server question itself (paper section 3).

The paper argues a separate server process is worth its cost: "the cost
of multiple servers ... can be reduced to the cost of the context switch
between server processes and data sharing across server address spaces
...  these differences are probably minor."

Measured: the same sustained-playback workload through (a) the full
socket protocol and (b) direct in-process access to the hub (the
'merged, no server' strawman).  The socket path's overhead factor is the
price of sharing, arbitration and device independence.
"""


from repro.hardware import AudioHub, HardwareConfig
from repro.protocol.types import PCM16_8K
from testkit.rig import (
    CpuMeter,
    build_playback_loud,
    make_rig,
    scaled,
    wait_queue_empty,
)
from testkit.workloads import tone_seconds

RATE = 8000
SECONDS = scaled(20.0, 2.0)


def socket_path_cpu() -> float:
    """Full protocol: client -> socket -> server -> hub."""
    rig = make_rig()
    try:
        loud, player, _output = build_playback_loud(rig.client)
        audio = tone_seconds(SECONDS, RATE)
        sound = rig.client.sound_from_samples(audio, PCM16_8K)
        rig.client.sync()
        with CpuMeter(rig.server) as meter:
            player.play(sound)
            loud.start_queue()
            wait_queue_empty(rig.client, loud, timeout=300)
        return meter.cpu_seconds / SECONDS
    finally:
        rig.close()


def direct_path_cpu() -> float:
    """The strawman: the application owns the hardware directly."""
    hub = AudioHub(HardwareConfig())
    audio = tone_seconds(SECONDS, RATE)
    state = {"cursor": 0}

    def feed(sample_time, frames):
        cursor = state["cursor"]
        if cursor < len(audio):
            hub.speakers[0].play(audio[cursor:cursor + frames])
            state["cursor"] = cursor + frames

    hub.add_tick_callback(feed)
    import time

    cpu_start = time.process_time()
    blocks = int(SECONDS * RATE / hub.block_frames) + 1
    for _ in range(blocks):
        hub.run_block()
    cpu = time.process_time() - cpu_start
    return cpu / SECONDS


def test_server_vs_direct_overhead(benchmark, report):
    results = {}

    def run_both():
        results["socket"] = socket_path_cpu()
        results["direct"] = direct_path_cpu()

    benchmark.pedantic(run_both, rounds=scaled(2, 1), iterations=1)
    overhead = results["socket"] / max(results["direct"], 1e-9)
    report.row("E8", "server (socket) CPU per audio second",
               "%.2f%%" % (results["socket"] * 100.0), "")
    report.row("E8", "direct in-process CPU per audio second",
               "%.2f%%" % (results["direct"] * 100.0), "")
    report.row("E8", "server-model overhead factor",
               "%.1fx" % overhead,
               "a modest constant ('differences are probably minor')")
    # The server may cost a few times the bare-metal path, but both are
    # tiny fractions of a CPU; the paper's argument holds as long as the
    # absolute cost stays far under the 10% budget.
    assert results["socket"] < 0.10
