"""Core protocol constants and value types.

The audio protocol is layered on a reliable, full duplex, 8-bit byte
stream (paper section 4.1).  This module defines the vocabulary both ends
of that stream share: device classes, sound encodings, command codes,
event codes, error codes, queue states and the small value types
(``SoundType``, ``PortInfo``) that appear inside messages.

Everything here is deliberately dumb data -- ``SoundType``'s annotations
declare its wire kinds, :mod:`repro.protocol.codec` marshals it, and the
semantics live in the server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Annotated

from .wire import U8, U32

#: Protocol version exchanged at connection setup.
PROTOCOL_MAJOR = 1
PROTOCOL_MINOR = 0

#: Default TCP port of the audio server ("a daemon at a well-known port").
DEFAULT_PORT = 7310


class DeviceClass(enum.IntEnum):
    """Virtual device classes (paper section 5.1).

    Each class defines generic audio functions supported by a set of
    device-independent commands.
    """

    INPUT = 1           # external inputs, e.g. microphones
    OUTPUT = 2          # external outputs, e.g. speakers
    PLAYER = 3          # converts stored sounds to an output stream
    RECORDER = 4        # stores an input stream as a sound
    TELEPHONE = 5       # combined input and output device
    MIXER = 6           # combines multiple inputs to outputs
    SYNTHESIZER = 7     # text-to-speech
    RECOGNIZER = 8      # speech recognition
    MUSIC = 9           # note-based music synthesis
    CROSSBAR = 10       # N x M routing switch
    DSP = 11            # generic signal processing


class Encoding(enum.IntEnum):
    """Audio data encodings.

    A sound's full type is the tuple ``(encoding, samplesize, samplerate)``
    (paper section 5.6); the encodings here determine how the raw bytes are
    interpreted.  ``ANALOG`` types a wire that represents a hard analog
    connection in the device LOUD.
    """

    ANALOG = 0
    MULAW = 1       # 8-bit mu-law, the paper's workhorse (8,000 bytes/sec)
    ALAW = 2        # 8-bit A-law
    PCM16 = 3       # 16-bit linear PCM, little-endian on the wire
    ADPCM = 4       # 4-bit IMA ADPCM ("can reduce audio data rates by half")


#: Telephone-quality sample rate (paper: 8,000 bytes per second mu-law).
RATE_TELEPHONE = 8000
#: CD-quality sample rate (paper: "just over 175,000 bytes per second").
RATE_CD = 44100


@dataclass(frozen=True)
class SoundType:
    """The (encoding, samplesize, samplerate) tuple typing all audio data."""

    encoding: Annotated[Encoding, U8]
    samplesize: U8      # bits per sample as stored (8, 16, or 4 for ADPCM)
    samplerate: U32     # samples per second

    def bytes_per_second(self) -> float:
        """Stored data rate of this type, in bytes per second."""
        return self.samplerate * self.samplesize / 8.0

    def frames_to_bytes(self, frames: int) -> int:
        """Number of stored bytes occupied by ``frames`` samples."""
        return (frames * self.samplesize + 7) // 8

    def bytes_to_frames(self, nbytes: int) -> int:
        """Number of whole samples stored in ``nbytes`` bytes."""
        return nbytes * 8 // self.samplesize


#: Telephone-quality mu-law, the default type almost everywhere.
MULAW_8K = SoundType(Encoding.MULAW, 8, RATE_TELEPHONE)
ALAW_8K = SoundType(Encoding.ALAW, 8, RATE_TELEPHONE)
PCM16_8K = SoundType(Encoding.PCM16, 16, RATE_TELEPHONE)
ADPCM_8K = SoundType(Encoding.ADPCM, 4, RATE_TELEPHONE)
PCM16_CD = SoundType(Encoding.PCM16, 16, RATE_CD)


class PortDirection(enum.IntEnum):
    """Device ports are audio inputs (sinks) or outputs (sources)."""

    SOURCE = 0      # audio flows out of the device here
    SINK = 1        # audio flows into the device here


@dataclass(frozen=True)
class PortInfo:
    """Description of one device port, as reported by device queries."""

    index: int
    direction: PortDirection
    sound_type: SoundType


class Command(enum.IntEnum):
    """Device and queue command codes (paper section 5.1 and 5.5).

    Commands are issued to a root LOUD's command queue in *queued* or
    *immediate* mode.  The queue pseudo-commands (CoBegin .. DelayEnd) are
    only meaningful queued; Stop/Pause/Resume/ChangeGain may be immediate.
    """

    # Common to most classes
    STOP = 1
    PAUSE = 2
    RESUME = 3          # the paper names this Restart for players/recorders
    CHANGE_GAIN = 4

    # Player
    PLAY = 10

    # Recorder
    RECORD = 20

    # Telephone
    DIAL = 30
    ANSWER = 31
    SEND_DTMF = 32
    HANG_UP = 33

    # Mixer
    SET_GAIN = 40       # per-input mix percentage

    # Speech synthesizer
    SPEAK_TEXT = 50
    SET_TEXT_LANGUAGE = 51
    SET_VALUES = 52
    SET_EXCEPTION_LIST = 53

    # Speech recognizer
    TRAIN = 60
    SET_VOCABULARY = 61
    ADJUST_CONTEXT = 62
    SAVE_VOCABULARY = 63
    LISTEN = 64
    STOP_LISTENING = 65

    # Music synthesizer
    NOTE = 70
    SET_STATE = 71
    SET_VOICE = 72

    # Crossbar
    SET_ROUTING = 80

    # DSP
    SET_PROGRAM = 90

    # Queue pseudo-commands: synchronization, not device control
    CO_BEGIN = 100
    CO_END = 101
    DELAY = 102
    DELAY_END = 103


class CommandMode(enum.IntEnum):
    """Whether a device command is queued or takes effect instantly."""

    QUEUED = 0
    IMMEDIATE = 1


#: Commands that may be issued in immediate mode.  Play/Record and friends
#: "must be synchronized with other commands, and can be issued only in
#: queued mode" (paper section 5.1).
IMMEDIATE_OK = frozenset({
    Command.STOP,
    Command.PAUSE,
    Command.RESUME,
    Command.CHANGE_GAIN,
    Command.SET_GAIN,
    Command.HANG_UP,
    Command.SET_ROUTING,
    Command.SET_PROGRAM,
    Command.STOP_LISTENING,
})


class QueueState(enum.IntEnum):
    """The four command-queue states (paper section 5.5)."""

    STOPPED = 0
    STARTED = 1
    CLIENT_PAUSED = 2
    SERVER_PAUSED = 3


class QueueOp(enum.IntEnum):
    """Operations on a command queue itself (the ControlQueue request)."""

    START = 0
    STOP = 1
    PAUSE = 2       # -> CLIENT_PAUSED
    RESUME = 3
    FLUSH = 4       # discard queued commands


class StackPosition(enum.IntEnum):
    """Where RestackLoud places a LOUD on the active stack."""

    TOP = 0
    BOTTOM = 1


class EventCode(enum.IntEnum):
    """Asynchronous event codes (paper section 5.7).

    Three major categories: command queue, device, and synchronization.
    """

    # Command queue events
    QUEUE_STARTED = 2
    QUEUE_STOPPED = 3
    QUEUE_PAUSED = 4
    QUEUE_RESUMED = 5
    COMMAND_DONE = 6
    QUEUE_EMPTY = 7

    # LOUD lifecycle events
    MAP_NOTIFY = 8
    UNMAP_NOTIFY = 9
    ACTIVATE_NOTIFY = 10
    DEACTIVATE_NOTIFY = 11

    # Telephone device events
    TELEPHONE_RING = 12
    TELEPHONE_ANSWERED = 13
    CALL_PROGRESS = 14
    DTMF_NOTIFY = 15

    # Recorder / player device events
    RECORD_STARTED = 16
    RECORD_STOPPED = 17
    PLAY_STARTED = 18
    PLAY_STOPPED = 19

    # Recognizer
    RECOGNITION = 20

    # Synchronization events: coordinate audio with other media
    SYNC = 21

    # Properties and manager support
    PROPERTY_NOTIFY = 22
    MAP_REQUEST = 23        # redirected map, delivered to the audio manager
    RESTACK_REQUEST = 24    # redirected restack

    # Flow control for client-supplied real-time data
    DATA_REQUEST = 25       # server wants more stream data
    DATA_AVAILABLE = 26     # recorded data ready for the client to read

    # Device LOUD monitoring
    DEVICE_STATE = 27


class EventMask(enum.IntFlag):
    """Bitmask used with SelectEvents: which event families a client wants.

    "The server generally sends an event to an application only if the
    application specifically asked to be informed of that event type."
    """

    NONE = 0
    QUEUE = 1 << 0
    LIFECYCLE = 1 << 1
    TELEPHONE = 1 << 2
    DTMF = 1 << 3
    RECORDER = 1 << 4
    PLAYER = 1 << 5
    RECOGNITION = 1 << 6
    SYNC = 1 << 7
    PROPERTY = 1 << 8
    REDIRECT = 1 << 9
    DATA = 1 << 10
    DEVICE_STATE = 1 << 11
    ALL = (1 << 12) - 1


#: Which mask bit gates each event code.
EVENT_MASK_FOR_CODE = {
    EventCode.QUEUE_STARTED: EventMask.QUEUE,
    EventCode.QUEUE_STOPPED: EventMask.QUEUE,
    EventCode.QUEUE_PAUSED: EventMask.QUEUE,
    EventCode.QUEUE_RESUMED: EventMask.QUEUE,
    EventCode.COMMAND_DONE: EventMask.QUEUE,
    EventCode.QUEUE_EMPTY: EventMask.QUEUE,
    EventCode.MAP_NOTIFY: EventMask.LIFECYCLE,
    EventCode.UNMAP_NOTIFY: EventMask.LIFECYCLE,
    EventCode.ACTIVATE_NOTIFY: EventMask.LIFECYCLE,
    EventCode.DEACTIVATE_NOTIFY: EventMask.LIFECYCLE,
    EventCode.TELEPHONE_RING: EventMask.TELEPHONE,
    EventCode.TELEPHONE_ANSWERED: EventMask.TELEPHONE,
    EventCode.CALL_PROGRESS: EventMask.TELEPHONE,
    EventCode.DTMF_NOTIFY: EventMask.DTMF,
    EventCode.RECORD_STARTED: EventMask.RECORDER,
    EventCode.RECORD_STOPPED: EventMask.RECORDER,
    EventCode.PLAY_STARTED: EventMask.PLAYER,
    EventCode.PLAY_STOPPED: EventMask.PLAYER,
    EventCode.RECOGNITION: EventMask.RECOGNITION,
    EventCode.SYNC: EventMask.SYNC,
    EventCode.PROPERTY_NOTIFY: EventMask.PROPERTY,
    EventCode.MAP_REQUEST: EventMask.REDIRECT,
    EventCode.RESTACK_REQUEST: EventMask.REDIRECT,
    EventCode.DATA_REQUEST: EventMask.DATA,
    EventCode.DATA_AVAILABLE: EventMask.DATA,
    EventCode.DEVICE_STATE: EventMask.DEVICE_STATE,
}


class CallProgress(enum.IntEnum):
    """Detail codes carried by CALL_PROGRESS events."""

    IDLE = 0
    DIALING = 1
    RINGBACK = 2    # far end is ringing
    BUSY = 3
    CONNECTED = 4
    HANGUP = 5      # far end went on-hook
    FAILED = 6      # no such number, line dead, ...


class RecordTermination(enum.IntEnum):
    """Why a Record command may terminate (paper section 5.9)."""

    EXPLICIT = 0        # only an explicit Stop ends it
    ON_PAUSE = 1        # silence / pause detection
    ON_HANGUP = 2       # the wired telephone went on-hook
    MAX_LENGTH = 3      # a supplied maximum duration elapsed


class ErrorCode(enum.IntEnum):
    """Protocol error codes, generated asynchronously (paper section 4.1)."""

    BAD_REQUEST = 1         # unknown opcode or malformed payload
    BAD_VALUE = 2           # numeric argument out of range
    BAD_LOUD = 3            # id does not name a LOUD
    BAD_DEVICE = 4          # id does not name a virtual device
    BAD_WIRE = 5            # id does not name a wire
    BAD_SOUND = 6           # id does not name a sound
    BAD_MATCH = 7           # wire/port type mismatch, impossible mapping
    BAD_ACCESS = 8          # exclusive-use or permanent-wiring violation
    BAD_ATTRIBUTE = 9       # unknown or unsatisfiable attribute
    BAD_NAME = 10           # no catalogue entry by that name
    BAD_PROPERTY = 11       # property does not exist
    BAD_ID_CHOICE = 12      # resource id outside client range or reused
    BAD_ALLOC = 13          # server out of resources
    BAD_IMPLEMENTATION = 14 # server defect or unsupported extension


class OpCode(enum.IntEnum):
    """Request opcodes.  One per protocol request."""

    CREATE_LOUD = 1
    DESTROY_LOUD = 2
    CREATE_VIRTUAL_DEVICE = 3
    DESTROY_VIRTUAL_DEVICE = 4
    CREATE_WIRE = 5
    DESTROY_WIRE = 6
    MAP_LOUD = 7
    UNMAP_LOUD = 8
    RESTACK_LOUD = 9
    QUERY_LOUD = 10
    QUERY_VIRTUAL_DEVICE = 11
    AUGMENT_VIRTUAL_DEVICE = 12
    QUERY_WIRE = 13

    CREATE_SOUND = 14
    DESTROY_SOUND = 15
    WRITE_SOUND_DATA = 16
    READ_SOUND_DATA = 17
    QUERY_SOUND = 18
    LIST_CATALOGUE = 19
    LOAD_SOUND = 20

    ISSUE_COMMAND = 21
    CONTROL_QUEUE = 22
    QUERY_QUEUE = 23

    SELECT_EVENTS = 24
    CHANGE_PROPERTY = 25
    GET_PROPERTY = 26
    DELETE_PROPERTY = 27
    LIST_PROPERTIES = 28

    SET_REDIRECT = 29
    ALLOW_REQUEST = 30

    QUERY_SERVER = 31
    QUERY_DEVICE_LOUD = 32
    QUERY_AMBIENT_DOMAINS = 33
    GET_TIME = 34
    NO_OPERATION = 35
    SET_SOUND_STREAM = 36   # mark a sound as client-supplied real-time data
    GET_SERVER_STATS = 37   # the server's metrics snapshot (observability)


class DeviceState(enum.IntEnum):
    """Detail codes carried by DEVICE_STATE events from the device LOUD."""

    IDLE = 0
    ACTIVE = 1
    RINGING = 2
    OFF_HOOK = 3
    ON_HOOK = 4
