"""Virtual device base machinery.

"The different classes of virtual devices are subclasses of a common
virtual device object class." (paper section 6.1)

A virtual device:

* belongs to a LOUD and has a class, attributes, and typed ports;
* may be *bound* to a physical device once its LOUD is mapped;
* renders audio on demand: sinks *pull* from the sources wired to them,
  with per-block memoization so fan-out (one source wired to two sinks)
  sees one consistent block;
* executes commands through :class:`CommandHandle` objects that the
  command-queue conductor can start at an exact sample time, pause,
  cancel, and -- crucially for the paper's gapless guarantee -- ask for
  their *expected* completion sample so successors can be pre-issued.

Subclassing (the protocol's extension mechanism) happens through
:data:`DEVICE_CLASS_REGISTRY`: registering a new class name makes it
instantiable through the unmodified CreateVirtualDevice request.
"""

from __future__ import annotations

import numpy as np

from ...dsp.mixing import mix
from ...protocol.attributes import (
    ATTR_ENCODING,
    ATTR_SAMPLE_RATE,
    ATTR_SAMPLE_SIZE,
    AttributeList,
)
from ...protocol.errors import bad
from ...protocol.types import (
    Command,
    DeviceClass,
    Encoding,
    ErrorCode,
    MULAW_8K,
    PortDirection,
    PortInfo,
    SoundType,
)


class CommandHandle:
    """One in-flight device command, owned by the conductor."""

    can_pause = True

    def __init__(self, device: "VirtualDevice", leaf,
                 start_time: int) -> None:
        self.device = device
        self.leaf = leaf
        self.start_time = start_time
        self.finished = False
        self.finish_time: int | None = None
        self.status = 0     # 0 = completed, 1 = stopped, 2 = failed
        self.paused = False

    # -- conductor interface -------------------------------------------------

    def expected_end(self, block_start: int) -> int | None:
        """Absolute sample time this command will finish if rendering
        runs uninterrupted from ``block_start``; None if unknowable.

        The estimate may only move later as blocks pass (a pause, a
        starved device); anything that would make it earlier goes
        through a command, which wakes the queue.
        """
        return None

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def cancel(self, at_time: int) -> None:
        """Stop the command immediately (immediate-mode Stop, queue stop)."""
        self.finish(at_time, status=1)

    def finish(self, at_time: int, status: int = 0) -> None:
        if not self.finished:
            self.finished = True
            self.finish_time = at_time
            self.status = status
            self.device.handle_finished()


class InstantHandle(CommandHandle):
    """A command that completes the moment it starts (ChangeGain, ...)."""

    def __init__(self, device: "VirtualDevice", leaf,
                 start_time: int) -> None:
        super().__init__(device, leaf, start_time)
        self.finish(start_time)

    def expected_end(self, block_start: int) -> int | None:
        return self.start_time


class VirtualDevice:
    """Common base of all virtual device classes."""

    DEVICE_CLASS: DeviceClass
    #: Physical device classes this virtual class can bind to; None means
    #: the device is pure software and needs no hardware.
    BINDS_TO: DeviceClass | None = None

    def __init__(self, device_id: int, loud, attributes: AttributeList
                 ) -> None:
        self.device_id = device_id
        self.loud = loud
        self.attributes = attributes
        self.ports: list[PortInfo] = []
        self.wires: list = []
        self.bound = None           # server-side PhysicalDevice wrapper
        self.gain = 1.0
        self.server = loud.server if loud is not None else None
        if self.server is not None:
            metrics = self.server.metrics
        else:
            from ...obs import NULL_REGISTRY as metrics
        self._m_wire_frames = metrics.counter("audio.wire_frames")
        self._m_frames_mixed = metrics.counter("audio.frames_mixed")
        self._m_mixes = metrics.counter("audio.mix_operations")
        self._m_underruns = metrics.counter("audio.stream_underruns")
        self._block_serial = -1
        self._render_cache: dict[int, np.ndarray] = {}
        self.handles: list[CommandHandle] = []
        self._build_ports()
        if self.server is not None:
            self.server.invalidate_render_plan()

    # -- construction ---------------------------------------------------------

    def _build_ports(self) -> None:
        """Subclasses populate ``self.ports``."""
        raise NotImplementedError

    def _port_type(self) -> SoundType:
        """Sound type implied by this device's attributes (default mu-law).

        "In this example, the greeting message is stored in an 8-bit
        mu-law encoding.  Therefore, the attribute specification for the
        player is 8-bit mu-law." (paper section 5.9)
        """
        encoding = self.attributes.get(ATTR_ENCODING)
        rate = self.attributes.get(ATTR_SAMPLE_RATE)
        size = self.attributes.get(ATTR_SAMPLE_SIZE)
        if encoding is None and rate is None and size is None:
            return MULAW_8K
        encoding = Encoding(encoding) if encoding is not None \
            else Encoding.MULAW
        if size is None:
            size = {Encoding.MULAW: 8, Encoding.ALAW: 8, Encoding.PCM16: 16,
                    Encoding.ADPCM: 4}.get(encoding, 8)
        if rate is None:
            rate = 8000
        return SoundType(encoding, int(size), int(rate))

    def _add_port(self, direction: PortDirection,
                  sound_type: SoundType | None = None) -> None:
        index = len(self.ports)
        self.ports.append(PortInfo(index, direction,
                                   sound_type or self._port_type()))

    def port(self, index: int) -> PortInfo:
        if not 0 <= index < len(self.ports):
            raise bad(ErrorCode.BAD_VALUE, "no port %d" % index,
                      self.device_id)
        return self.ports[index]

    # -- wiring ---------------------------------------------------------------

    def attach_wire(self, wire) -> None:
        self.wires.append(wire)

    def detach_wire(self, wire) -> None:
        if wire in self.wires:
            self.wires.remove(wire)

    def wires_into(self, port_index: int) -> list:
        return [wire for wire in self.wires
                if wire.sink_device is self and wire.sink_port == port_index]

    # -- binding --------------------------------------------------------------

    def bind(self, physical) -> None:
        self.bound = physical

    def unbind(self) -> None:
        self.bound = None

    # -- the block cycle ------------------------------------------------------

    def begin_tick(self, sample_time: int, frames: int) -> None:
        """Reset per-block memoization; called once per hub block."""
        self._block_serial = sample_time
        self._render_cache = {}

    def render_source(self, port_index: int, sample_time: int,
                      frames: int) -> np.ndarray:
        """Block of linear samples this source port produces this tick."""
        if port_index in self._render_cache:
            return self._render_cache[port_index]
        block = self._render(port_index, sample_time, frames)
        self._render_cache[port_index] = block
        return block

    def _render(self, port_index: int, sample_time: int,
                frames: int) -> np.ndarray:
        """Subclass hook behind the memoization."""
        return np.zeros(frames, dtype=np.int16)

    def pull_sink(self, port_index: int, sample_time: int,
                  frames: int) -> np.ndarray:
        """Mix everything wired into one of our sink ports."""
        blocks = [wire.source_device.render_source(
                      wire.source_port, sample_time, frames)
                  for wire in self.wires_into(port_index)]
        if not blocks:
            return np.zeros(frames, dtype=np.int16)
        # Wire throughput: one counted block per wire feeding this sink.
        self._m_wire_frames.inc(frames * len(blocks))
        if len(blocks) == 1 and len(blocks[0]) == frames:
            return blocks[0]
        self._m_mixes.inc()
        self._m_frames_mixed.inc(frames * len(blocks))
        return mix(blocks, length=frames)

    def consume(self, sample_time: int, frames: int) -> None:
        """Active sinks drive their pulls here (called when LOUD active)."""

    # -- commands -------------------------------------------------------------

    def start_command(self, leaf, at_time: int) -> CommandHandle:
        """Begin executing a command; returns its handle.

        Raises ProtocolError for commands the class does not support.
        """
        handle = self._start(leaf, at_time)
        self.handles.append(handle)
        return handle

    def _start(self, leaf, at_time: int) -> CommandHandle:
        command = leaf.command
        if command is Command.CHANGE_GAIN:
            self.gain = float(leaf.args.get("gain", 100)) / 100.0
            return InstantHandle(self, leaf, at_time)
        if command is Command.STOP:
            self.stop_now(at_time)
            return InstantHandle(self, leaf, at_time)
        if command is Command.PAUSE:
            self.pause_now()
            return InstantHandle(self, leaf, at_time)
        if command is Command.RESUME:
            self.resume_now()
            return InstantHandle(self, leaf, at_time)
        raise bad(ErrorCode.BAD_MATCH,
                  "device class %s does not support %s"
                  % (self.DEVICE_CLASS.name, command.name), self.device_id)

    def handle_finished(self) -> None:
        """One of our handles just finished: tell the root's queue."""
        if self.loud is not None:
            queue = self.loud.root().queue
            if queue is not None:
                queue.finish_reported()

    def collect_finished(self) -> list[CommandHandle]:
        """Handles that finished since last collection (conductor post)."""
        if not self.handles:
            return []
        finished = [handle for handle in self.handles if handle.finished]
        if finished:
            self.handles = [handle for handle in self.handles
                            if not handle.finished]
        return finished

    # -- immediate-mode operations --------------------------------------------

    def stop_now(self, at_time: int) -> None:
        """Immediate Stop: cancel all in-flight commands on this device."""
        for handle in self.handles:
            if not handle.finished:
                handle.cancel(at_time)

    def pause_now(self) -> None:
        for handle in self.handles:
            if not handle.finished:
                handle.pause()

    def resume_now(self) -> None:
        for handle in self.handles:
            if not handle.finished:
                handle.resume()

    # -- activation state save/restore (paper section 5.4) --------------------

    def save_state(self) -> dict:
        """State to restore when the LOUD is re-activated."""
        return {"gain": self.gain}

    def restore_state(self, state: dict) -> None:
        self.gain = state.get("gain", self.gain)

    def describe(self) -> AttributeList:
        """Attributes for QueryVirtualDevice, including the binding."""
        merged = AttributeList(dict(self.attributes.items))
        if self.bound is not None:
            merged["device-id"] = self.bound.device_id
            merged["name"] = self.bound.name
        return merged


#: name -> class mapping used by CreateVirtualDevice; extensions register
#: subclasses here ("allowing extension of the class hierarchy using
#: existing protocol capabilities").
DEVICE_CLASS_REGISTRY: dict[DeviceClass, type[VirtualDevice]] = {}


def register_device_class(cls: type[VirtualDevice]) -> type[VirtualDevice]:
    """Class decorator: make a VirtualDevice subclass instantiable."""
    DEVICE_CLASS_REGISTRY[cls.DEVICE_CLASS] = cls
    return cls


def create_virtual_device(device_id: int, loud,
                          device_class: DeviceClass,
                          attributes: AttributeList) -> VirtualDevice:
    try:
        cls = DEVICE_CLASS_REGISTRY[device_class]
    except KeyError:
        raise bad(ErrorCode.BAD_VALUE,
                  "unknown device class %d" % device_class,
                  device_id) from None
    return cls(device_id, loud, attributes)
