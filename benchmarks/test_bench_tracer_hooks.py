"""Smoke: perfbench's tracer still hooks the trunk bearer path.

``perfbench/tracing.py`` wraps trunk code by name: ``decode_frame`` as
the module global ``FrameStream`` calls, ``JitterBuffer.push``/
``pop_raw``, ``TrunkLink.send``/``send_batch``/``start`` and
``TrunkGateway.tick``.  A refactor that renames or bypasses one of them
does not break the traced run; it silently reads 0 for that layer.  This
runs a short traced trunk workload in a subprocess and fails unless the
run is correct and each of those layers measured something.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Per-layer metrics fed by the trunk hooks; each must read > 0.
HOOKED = ("trunk.wire.decode_us", "trunk.jitter.dwell_ms",
          "trunk.gateway.tick_us", "trunk.link.send_us")


def test_traced_trunk_run_measures_every_hooked_layer():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "trunk", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    unhooked = [name for name in HOOKED
                if not metrics[name]["value"] > 0]
    assert unhooked == [], "tracer read 0 for %s" % ", ".join(unhooked)
