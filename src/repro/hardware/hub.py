"""The audio hub: the simulated CODEC and its block cycle.

The hub is the device layer's heartbeat.  It owns the one sample clock
(as a real CODEC crystal would), every physical device, the acoustic
rooms, and the connection to the telephone exchange.  Each tick it runs
one block through the whole machine:

1. rooms advance (last block's speaker output becomes audible; a room
   mixes it when a microphone first reads it),
2. devices ``begin_block`` (speakers clear, lines snapshot their input),
3. registered tick callbacks run -- this is where the server's command
   conductors and the wire-graph rendering engine execute,
4. devices ``end_block`` (speakers emit into rooms and captures, lines
   transmit),
5. block-end callbacks run -- the server delivers the block's events
   here, so a client told that something ended can already read the
   block it ended in,
6. the telephone exchange ticks (remote parties live one block),
7. the clock advances and the pacer releases the next block.

The hub can free-run in a thread (virtual or real-time pacing) or be
stepped manually for deterministic unit tests.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

from ..telephony.exchange import TelephoneExchange
from .clock import RealTimePacer, SampleClock, VirtualPacer
from .config import HardwareConfig
from .devices import (
    LineDevice,
    MicrophoneDevice,
    PhysicalAudioDevice,
    SpeakerDevice,
)
from .room import Room

TickCallback = Callable[[int, int], None]   # (sample_time, frames)
BlockEndCallback = Callable[[], None]


class AudioHub:
    """The simulated audio hardware of one workstation."""

    def __init__(self, config: HardwareConfig | None = None,
                 realtime: bool = False,
                 exchange: TelephoneExchange | None = None,
                 tick_exchange: bool | None = None) -> None:
        self.config = config or HardwareConfig()
        self.clock = SampleClock(self.config.sample_rate)
        self.pacer = RealTimePacer() if realtime else VirtualPacer()
        # When several workstations share one exchange (the distributed
        # environment of the paper's title), exactly one hub ticks it;
        # by default a hub ticks the exchange only if it created it.
        if tick_exchange is None:
            tick_exchange = exchange is None
        self.tick_exchange = tick_exchange
        self.exchange = exchange or TelephoneExchange(self.config.sample_rate)
        if self.exchange.sample_rate != self.config.sample_rate:
            raise ValueError("exchange and hub sample rates differ")
        self.rooms: dict[str, Room] = {}
        self.devices: list[PhysicalAudioDevice] = []
        self.speakers: list[SpeakerDevice] = []
        self.microphones: list[MicrophoneDevice] = []
        self.lines: list[LineDevice] = []
        self._tick_callbacks: list[TickCallback] = []
        self._block_end_callbacks: list[BlockEndCallback] = []
        self._running = False
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        #: When set (by the audio server), the whole block cycle runs
        #: under this lock so exchange/device callbacks are serialized
        #: against request dispatch.
        self.external_lock: threading.RLock | None = None
        self._build_devices()

    # -- construction ---------------------------------------------------------

    def _room(self, name: str) -> Room:
        if name not in self.rooms:
            self.rooms[name] = Room(name)
        return self.rooms[name]

    def _build_devices(self) -> None:
        capture = self.config.capture_output
        for spec in self.config.speakers:
            speaker = SpeakerDevice(spec.name, self._room(spec.domain),
                                    capture)
            self.speakers.append(speaker)
            self.devices.append(speaker)
        for spec in self.config.microphones:
            microphone = MicrophoneDevice(spec.name, self._room(spec.domain))
            self.microphones.append(microphone)
            self.devices.append(microphone)
        for spec in self.config.lines:
            line = self.exchange.add_line(spec.number)
            if spec.forward_to is not None:
                line.forward_to = spec.forward_to
            device = LineDevice(spec.name, line, capture=capture)
            self.lines.append(device)
            self.devices.append(device)
        if self.config.speakerphone:
            # A hard-wired speaker + microphone + line trio; it spans the
            # desktop and telephone ambient domains (paper section 5.8).
            room = self._room("desktop")
            speaker = SpeakerDevice("speakerphone-speaker", room, capture)
            microphone = MicrophoneDevice("speakerphone-mic", room)
            line = self.exchange.add_line("5550199")
            line_device = LineDevice("speakerphone-line", line,
                                     capture=capture)
            for device in (speaker, microphone, line_device):
                self.devices.append(device)
            self.speakers.append(speaker)
            self.microphones.append(microphone)
            self.lines.append(line_device)

    # -- tick machinery -------------------------------------------------------

    @property
    def sample_rate(self) -> int:
        return self.config.sample_rate

    @property
    def block_frames(self) -> int:
        return self.config.block_frames

    @property
    def sample_time(self) -> int:
        """Sample time at the start of the current (unprocessed) block."""
        return self.clock.sample_time

    def add_tick_callback(self, callback: TickCallback) -> None:
        with self._lock:
            self._tick_callbacks.append(callback)

    def remove_tick_callback(self, callback: TickCallback) -> None:
        with self._lock:
            if callback in self._tick_callbacks:
                self._tick_callbacks.remove(callback)

    def add_block_end_callback(self, callback: BlockEndCallback) -> None:
        """Run ``callback`` each block after the devices end it."""
        with self._lock:
            self._block_end_callbacks.append(callback)

    def run_block(self) -> None:
        """Process exactly one block through the machine."""
        guard = (self.external_lock if self.external_lock is not None
                 else contextlib.nullcontext())
        with guard:
            frames = self.config.block_frames
            sample_time = self.clock.sample_time
            for room in self.rooms.values():
                room.advance(frames)
            for device in self.devices:
                device.begin_block(frames)
            with self._lock:
                callbacks = list(self._tick_callbacks)
                end_callbacks = list(self._block_end_callbacks)
            for callback in callbacks:
                callback(sample_time, frames)
            for device in self.devices:
                device.end_block()
            for callback in end_callbacks:
                callback()
            if self.tick_exchange:
                self.exchange.tick(frames)
        self.clock.advance(frames)

    def step(self, blocks: int = 1) -> None:
        """Manually advance N blocks (deterministic testing mode)."""
        if self._running:
            raise RuntimeError("cannot step while the hub thread runs")
        for _ in range(blocks):
            self.run_block()

    def step_seconds(self, seconds: float) -> None:
        """Manually advance at least ``seconds`` of audio time."""
        blocks = int(seconds * self.sample_rate
                     / self.config.block_frames) + 1
        self.step(blocks)

    # -- thread control -------------------------------------------------------

    def start(self) -> None:
        """Start the hub thread (the paper's device-layer threads)."""
        if self._running:
            return
        self._running = True
        self.pacer.start()
        self._thread = threading.Thread(target=self._run, name="audio-hub",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _run(self) -> None:
        while self._running:
            self.run_block()
            self.pacer.pace(self.config.block_frames, self.sample_rate)

    # -- convenience lookups --------------------------------------------------

    def find_device(self, name: str) -> PhysicalAudioDevice:
        for device in self.devices:
            if device.name == name:
                return device
        raise KeyError("no hardware device named %r" % name)

    def wait_for(self, predicate: Callable[[], bool],
                 timeout_seconds: float = 10.0,
                 audio_seconds: float | None = None) -> bool:
        """Wait (wall-clock) for a predicate while the hub runs.

        With ``audio_seconds`` set, also gives up once that much audio
        time has elapsed.  Returns True if the predicate became true.
        """
        import time

        start_samples = self.clock.sample_time
        deadline = time.monotonic() + timeout_seconds
        while time.monotonic() < deadline:
            if predicate():
                return True
            if audio_seconds is not None:
                elapsed = ((self.clock.sample_time - start_samples)
                           / self.sample_rate)
                if elapsed >= audio_seconds:
                    return predicate()
            time.sleep(0.001)
        return predicate()
