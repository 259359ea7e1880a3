"""The Soundviewer widget driven by live sync events (paper Figure 6-1).

"To test synchronization with other media, we have implemented a
graphical sound viewer widget ...  The widget displays a continually
updated bar graph as a sound is played.  Audio server synchronization
events are used to control the graphics."

The original was an X widget; this one draws in the terminal, but the
data flow is the paper's: the widget repaints only when a SYNC event
arrives from the audio server -- it never polls.

Run:  python examples/soundviewer_demo.py
"""

import sys

from repro.alib import AudioClient
from repro.dsp import tones
from repro.protocol.types import (
    DeviceClass,
    EventCode,
    EventMask,
    PCM16_8K,
)
from repro.server import AudioServer, ServerConfig
from repro.toolkit import Soundviewer

RATE = 8000


def main() -> None:
    # Real-time pacing so the bar visibly progresses for a human.
    realtime = "--fast" not in sys.argv
    server = AudioServer(settings=ServerConfig(realtime=realtime))
    server.start()
    client = AudioClient(port=server.port, client_name="soundviewer")

    # A three-second sweep so there is something to watch.
    sweep = tones.sine(330.0, 1.0, RATE)
    import numpy as np

    sound_samples = np.concatenate([
        tones.sine(330.0, 1.0, RATE),
        tones.sine(440.0, 1.0, RATE),
        tones.sine(550.0, 1.0, RATE),
    ])
    sound = client.sound_from_samples(sound_samples, PCM16_8K)

    loud = client.create_loud()
    player = loud.create_device(DeviceClass.PLAYER)
    output = loud.create_device(DeviceClass.OUTPUT)
    loud.wire(player, 0, output, 0)
    loud.select_events(EventMask.QUEUE | EventMask.SYNC)
    loud.map()

    viewer = Soundviewer(total_frames=len(sound_samples), sample_rate=RATE,
                         width=50)
    # Mark a selection, as in the figure ("the dashes in the middle
    # denote a part of the sound that has been selected").
    viewer.select(len(sound_samples) * 2 // 5, len(sound_samples) * 3 // 5)

    print("playing %.1f s; the bar repaints on server SYNC events only"
          % (len(sound_samples) / RATE))
    print(" " + viewer.render_ticks())
    player.play(sound, sync_interval_ms=100)
    loud.start_queue()

    while True:
        event = client.next_event(timeout=30.0)
        if event is None:
            break
        if viewer.handle_event(event):
            sys.stdout.write("\r[%s]" % viewer.render())
            sys.stdout.flush()
        if event.code is EventCode.QUEUE_EMPTY:
            break
    print("\n%d repaints, all event-driven; selection %s kept"
          % (viewer.repaints, viewer.selected_range))

    client.close()
    server.stop()
    print("done.")


if __name__ == "__main__":
    main()
