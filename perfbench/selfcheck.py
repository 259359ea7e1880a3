"""Self-checks of the benchmark's own machinery.

Usage::

    python3 perfbench/selfcheck.py

Checks that the same seed yields the same generated inputs, that
self-time arithmetic is right on a synthetic span tree, that a sleep
injected into one wrapped program call lands in that layer's self time
rather than its parent's, and that ``catalogue.json`` and
``BENCHMARK.json`` name the same metrics with the same units.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from common import ROOT, load_catalogue, prepare_program


def _same(left, right) -> bool:
    if isinstance(left, dict):
        return (left.keys() == right.keys()
                and all(_same(left[key], right[key]) for key in left))
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right))
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def check_seeded_inputs() -> None:
    from wl_control import control_inputs
    from wl_stepped import gapless_inputs, voices_inputs
    from wl_trunk import trunk_inputs

    generators = {
        "control": lambda seed: control_inputs(seed, 10),
        "voices": voices_inputs,
        "gapless": gapless_inputs,
        "trunk": trunk_inputs,
    }
    for name, generate in generators.items():
        if not _same(generate(7), generate(7)):
            raise AssertionError("%s: seed 7 gave different inputs" % name)
        if _same(generate(7), generate(8)):
            raise AssertionError("%s: seeds 7 and 8 gave equal inputs"
                                 % name)


def check_self_time_arithmetic() -> None:
    """outer(10) holds middle(6) which holds leaf(2); outer also calls
    a sibling leaf(1).  Self times: outer 3, middle 4, leaf 2+1."""
    from tracing import Tracer

    now = [0]

    def clock():
        return now[0]

    def advance(amount):
        now[0] += amount

    tracer = Tracer(clock=clock, cpu_clock=clock)

    def leaf(cost):
        advance(cost)

    def middle():
        advance(2)
        traced_leaf(2)
        advance(2)

    def outer():
        advance(1)
        traced_middle()
        traced_leaf(1)
        advance(2)

    traced_leaf = tracer.wrap(leaf, "layer.leaf", "leaf")
    traced_middle = tracer.wrap(middle, "layer.middle", "middle")
    traced_outer = tracer.wrap(outer, "layer.outer", "outer")
    traced_outer()
    agg = tracer.aggregate()
    want = {"layer.outer": (1, 10, 3), "layer.middle": (1, 6, 4),
            "layer.leaf": (2, 3, 3)}
    for layer, (count, wall, own) in want.items():
        got = (agg.calls(layer), agg.mean_wall_us(layer) * 1e3
               * agg.calls(layer), agg.total_self_us(layer) * 1e3)
        if not np.allclose(got, (count, wall, own)):
            raise AssertionError("%s: count/wall/self %r, want %r"
                                 % (layer, got, (count, wall, own)))
    shares = agg.shares("layer.outer.outer")
    if not np.isclose(shares.get("layer.leaf", 0), 0.3):
        raise AssertionError("leaf share under outer %r, want 0.3" % shares)


def check_injected_sleep() -> None:
    """Slow CommandQueue.tick_post by 3 ms: the conductor's self time
    grows by it and the hub block that calls it does not."""
    from repro.alib import AudioClient
    from repro.hardware import HardwareConfig
    from repro.protocol.types import DeviceClass
    from repro.server import AudioServer, conductor

    from common import Result
    from tracing import TraceSession

    delay = 0.003
    original = conductor.CommandQueue.__dict__["tick_post"]

    def slow_tick_post(self, now, frames, devices=None):
        time.sleep(delay)
        return original(self, now, frames, devices)

    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="selfcheck")
    try:
        loud = client.create_loud()
        player = loud.create_device(DeviceClass.PLAYER)
        output = loud.create_device(DeviceClass.OUTPUT)
        loud.wire(player, 0, output, 0)
        loud.map()
        player.play(client.load_sound("beep"))
        loud.start_queue()
        client.sync()
        conductor.CommandQueue.tick_post = slow_tick_post
        try:
            session = TraceSession()
            server.hub.step(20)
            result = Result("selfcheck")
            session.finish(result, ops_keys=("hardware.hub.run_block",))
        finally:
            conductor.CommandQueue.tick_post = original
    finally:
        client.close()
        server.stop()
    layers = result.layers
    if layers["server.conductor.tick_post_us"] < delay * 1e6:
        raise AssertionError("conductor self time %.0f us missed the %.0f "
                             "us sleep" % (layers["server.conductor."
                                                  "tick_post_us"],
                                           delay * 1e6))
    if layers["hardware.hub.self_us"] > delay * 1e6 / 2:
        raise AssertionError("hub self time %.0f us absorbed the sleep"
                             % layers["hardware.hub.self_us"])


def check_catalogue() -> None:
    catalogue = load_catalogue()
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    with open(path) as handle:
        declared = json.load(handle)
    for section in ("end_to_end", "per_layer"):
        names = {entry["name"]: entry["unit"] for entry in declared[section]}
        listed = {name: entry["unit"]
                  for name, entry in catalogue[section].items()}
        if names != listed:
            raise AssertionError("%s differs between BENCHMARK.json and "
                                 "catalogue.json" % section)
    workloads = {entry["name"] for entry in declared["workloads"]}
    if workloads != set(catalogue["workloads"]):
        raise AssertionError("workloads differ between BENCHMARK.json and "
                             "catalogue.json")


def main() -> int:
    prepare_program()
    for check in (check_seeded_inputs, check_self_time_arithmetic,
                  check_injected_sleep, check_catalogue):
        check()
        print("selfcheck %-28s ok" % check.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
