"""The trunk jitter buffer against golden vectors.

tests/golden/jitter_seed*.json were recorded with the jitter buffer
whose every push went through the pending dict (a ``bytes`` copy, then a
drain into the ring).  Each file pins one seeded script of pushes and
pops on one :class:`~repro.trunk.jitter.JitterBuffer`.  The pushes cover
in-order frames, frames reordered inside the window, gaps past the
window, duplicate and late frames, overflow past ``max_depth_samples``
and one block larger than the whole depth; the pops cover an underrun
and a talkspurt restart.  After every step the file holds the popped
bytes, the four tallies (late, lost, underruns, shed), ``depth_samples``
and ``poppable()``.  Any change to how the buffer stores or plays audio
must reproduce them byte for byte.

Regenerate (only when the behaviour is meant to change) with
``PYTHONPATH=src python tests/test_jitter_golden.py``.
"""

import json
import pathlib
import random

import pytest

from repro.trunk.jitter import JitterBuffer

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEEDS = (1, 2, 3)
#: Nominal block length: small, so the vectors stay readable.
FRAME = 8


def _payload(seq: int, length: int) -> bytes:
    """Bytes that name their frame and never read as 0xFF silence."""
    return bytes((seq * 7 + index) % 255 for index in range(length))


def jitter_script(seed: int) -> dict:
    """A seeded buffer configuration and its push/pop steps."""
    rng = random.Random(seed)
    window = 2 + seed % 3
    depth = rng.choice((5, 6, 7)) * FRAME
    steps = []
    seq = first = rng.randrange(1 << 16)

    def push(number, length=FRAME):
        steps.append(["push", number, _payload(number, length).hex()])

    def pop(frames=FRAME):
        steps.append(["pop", frames])

    # In order, with pumps between some of the pushes.
    for _ in range(rng.randint(3, 6)):
        push(seq)
        seq += 1
        if rng.random() < 0.5:
            pop()
    # Reordered inside the window: neighbouring pairs swapped.
    for _ in range(2):
        push(seq + 1)
        push(seq)
        seq += 2
    pop()
    # A gap past the window: declared lost once ``window`` frames wait.
    seq += rng.randint(1, 3)
    for _ in range(window):
        push(seq)
        seq += 1
    # Duplicate and late frames: one already played, one skipped past.
    push(seq - 1)
    push(seq - window - 1)
    # Play out, run dry (the underrun), then one more silent pump.
    for _ in range(2 * window + 8):
        pop(rng.choice((FRAME // 2, FRAME, 2 * FRAME)))
    # Talkspurt restart.
    push(seq)
    seq += 1
    pop()
    pop()
    # Overflow past the depth bound with nobody pumping.
    for _ in range(depth // FRAME + 3):
        push(seq, rng.choice((FRAME // 2, FRAME, FRAME + 3)))
        seq += 1
    pop(2 * FRAME)
    # One block larger than the whole depth.
    push(seq, depth + rng.randint(1, FRAME))
    seq += 1
    for _ in range(depth // FRAME + 2):
        pop()
    # A random tail: mostly in order, some gaps, some late frames (the
    # first seq, long played; never a duplicate of a waiting frame).
    for _ in range(40):
        if rng.random() < 0.6:
            skip = rng.choice((0, 0, 0, 0, 1, 2, None))
            length = rng.choice((FRAME // 2, FRAME, 2 * FRAME))
            if skip is None:
                push(first, length)
            else:
                push(seq + skip, length)
                seq += skip + 1
        else:
            pop(rng.choice((FRAME // 2, FRAME, 2 * FRAME)))
    return {"max_depth_samples": depth, "reorder_window": window,
            "steps": steps}


def run_script(script: dict) -> list:
    """Play a script on a fresh buffer; one record per step."""
    jb = JitterBuffer(max_depth_samples=script["max_depth_samples"],
                      reorder_window=script["reorder_window"])
    records = []
    for step in script["steps"]:
        if step[0] == "push":
            jb.push(step[1], bytes.fromhex(step[2]))
            out = None
        else:
            out = bytes(jb.pop_raw(step[1])).hex()
        records.append([out, jb.late_frames, jb.lost_frames, jb.underruns,
                        jb.shed_samples, jb.depth_samples, jb.poppable()])
    return records


def scenario(seed: int) -> dict:
    script = jitter_script(seed)
    return {"seed": seed, **script, "records": run_script(script)}


@pytest.mark.parametrize("seed", SEEDS)
def test_jitter_buffer_matches_golden(seed):
    with open(GOLDEN / ("jitter_seed%d.json" % seed)) as handle:
        golden = json.load(handle)
    late, lost, underruns, shed = golden["records"][-1][1:5]
    assert late and lost and underruns and shed
    # The script is replayed from the file, so the vectors pin the
    # buffer even if the script generator above changes.
    assert run_script(golden) == golden["records"]
    assert scenario(seed) == golden


if __name__ == "__main__":
    for seed in SEEDS:
        path = GOLDEN / ("jitter_seed%d.json" % seed)
        with open(path, "w") as handle:
            json.dump(scenario(seed), handle, indent=1)
            handle.write("\n")
        print("wrote", path)
