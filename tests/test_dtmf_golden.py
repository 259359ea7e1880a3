"""The telephone's SendDTMF against golden vectors.

tests/golden/dtmf_line.json pins, for four stepped scenarios on one
answered line, the exact int16 audio the telephone sent toward the far
end (length, SHA-256 and each block's peak) and every queue event the
client saw, COMMAND_DONE's sample time and status (detail) included:

* ``seam`` -- two queued SendDTMF back to back, the first starting
  mid-block after a Delay, with a queued ChangeGain between them: the
  pre-issued successor starts on the exact sample its predecessor ends;
* ``over_player`` -- SendDTMF in a CoBegin beside a player wired into
  the telephone's sink 1, at a device gain below unity: tones and the
  player's audio are mixed and the gain applies once to the mix;
* ``stop`` -- an immediate Stop in the middle of a tone, then the queue
  goes on to the next SendDTMF;
* ``pause`` -- an immediate Pause in the middle of a tone and a Resume
  five blocks later: the tones resume where they stopped.

Regenerate (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_dtmf_golden.py``.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.dsp import tones
from repro.hardware import HardwareConfig
from repro.protocol import events as ev
from repro.protocol.types import (
    PCM16_8K,
    CommandMode,
    DeviceClass,
    EventMask,
)
from repro.server import AudioServer, qprogram

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dtmf_line.json"
RATE = 8000
BLOCKS = 80


def _seam(client, loud, telephone):
    loud.delay(13)
    telephone.send_dtmf("12")
    loud.delay_end()
    telephone.change_gain(50)
    telephone.send_dtmf("3")
    return {}


def _over_player(client, loud, telephone):
    player = loud.create_device(DeviceClass.PLAYER)
    loud.wire(player, 0, telephone, 1)
    telephone.change_gain(80, mode=CommandMode.IMMEDIATE)
    prompt = client.sound_from_samples(tones.sine(440.0, 0.7, RATE, 20000),
                                       PCM16_8K)
    loud.co_begin()
    player.play(prompt)
    loud.delay(7)
    telephone.send_dtmf("45")
    loud.delay_end()
    loud.co_end()
    telephone.send_dtmf("6")
    return {}


def _stop(client, loud, telephone):
    telephone.send_dtmf("123")
    telephone.send_dtmf("9")
    return {2: telephone.stop}


def _pause(client, loud, telephone):
    telephone.send_dtmf("78")
    telephone.send_dtmf("0")
    return {3: telephone.pause, 8: telephone.resume}


SCENARIOS = {"seam": _seam, "over_player": _over_player, "stop": _stop,
             "pause": _pause}


def dtmf_scenario(name: str) -> dict:
    """One stepped run, digested into the golden file's shape."""
    qprogram._serials = itertools.count(1)
    server = AudioServer(HardwareConfig())
    server.start(start_hub=False)
    client = AudioClient(port=server.port, client_name="golden")
    try:
        loud = client.create_loud()
        telephone = loud.create_device(DeviceClass.TELEPHONE)
        loud.select_events(EventMask.QUEUE)
        loud.map()
        telephone.answer()
        schedule = SCENARIOS[name](client, loud, telephone)
        loud.start_queue()
        client.sync()
        for block in range(BLOCKS):
            action = schedule.get(block)
            if action is not None:
                action()
                client.sync()
            server.hub.step(1)
        client.sync()
        line = np.asarray(server.hub.lines[0].capture.samples(),
                          dtype="<i2")
        peaks = np.abs(line.astype(np.int32)).reshape(-1, 160).max(axis=1)
        return {
            "line_samples": int(line.size),
            "line_sha256": hashlib.sha256(line.tobytes()).hexdigest(),
            "block_peaks": [int(peak) for peak in peaks],
            "events": [[int(event.code), event.detail, event.sample_time,
                        event.args.get(ev.ARG_COMMAND_SERIAL),
                        event.args.get(ev.ARG_COMMAND)]
                       for event in client.pending_events()],
        }
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_send_dtmf_matches_golden(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)[name]
    assert max(golden["block_peaks"]) > 0
    assert dtmf_scenario(name) == golden


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump({name: dtmf_scenario(name) for name in sorted(SCENARIOS)},
                  handle, indent=1)
        handle.write("\n")
    print("wrote", GOLDEN)
