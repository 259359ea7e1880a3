"""Smoke: perfbench's tracer still hooks the trunk bearer path and the
gapless clip boundary.

``perfbench/tracing.py`` wraps code by name: on the trunk,
``decode_frame`` as the module global ``FrameStream`` calls,
``JitterBuffer.push``/``pop_raw``, ``TrunkLink.send``/``send_batch``/
``start`` and ``TrunkGateway.tick``; at a clip boundary,
``CommandQueue.tick_pre``/``tick_post``, ``EventRouter.emit`` and
``Message.encode``.  A refactor that renames or bypasses one of them
does not break the traced run; it silently reads 0 for that layer.  Each
test runs a short traced workload in a subprocess and fails unless the
run is correct and each of its layers measured something.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Per-layer metrics fed by the trunk hooks; each must read > 0.
HOOKED = ("trunk.wire.decode_us", "trunk.jitter.dwell_ms",
          "trunk.gateway.tick_us", "trunk.link.send_us")
#: Per-layer metrics fed by the clip-boundary hooks on gapless.
BOUNDARY_HOOKED = ("server.conductor.tick_pre_us",
                   "server.conductor.tick_post_us",
                   "server.events.emit_us", "protocol.encode_us")


def _unhooked(workload: str, hooked) -> list:
    """The ``hooked`` layers a 2 s traced run of ``workload`` read 0 for."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    return [name for name in hooked if not metrics[name]["value"] > 0]


def test_traced_trunk_run_measures_every_hooked_layer():
    unhooked = _unhooked("trunk", HOOKED)
    assert unhooked == [], "tracer read 0 for %s" % ", ".join(unhooked)


def test_traced_gapless_run_measures_the_boundary_layers():
    unhooked = _unhooked("gapless", BOUNDARY_HOOKED)
    assert unhooked == [], "tracer read 0 for %s" % ", ".join(unhooked)
