"""Virtual device classes (paper section 5.1).

Importing this package registers every class in
:data:`~repro.server.vdevices.base.DEVICE_CLASS_REGISTRY`.
"""

from .base import (
    CommandHandle,
    DEVICE_CLASS_REGISTRY,
    InstantHandle,
    VirtualDevice,
    create_virtual_device,
    register_device_class,
)
from .io import InputDevice, OutputDevice
from .mixer import CrossbarDevice, MixerDevice
from .music import MusicDevice
from .dspdev import DspDevice
from .player import PlayerDevice
from .playback import PlaybackHandle, PlaybackProgram, ProgramDevice
from .recognizer import RecognizerDevice
from .recorder import RecordHandle, RecorderDevice
from .synthesizer import SynthesizerDevice
from .telephone import TelephoneDevice

__all__ = [
    "CommandHandle", "CrossbarDevice", "DEVICE_CLASS_REGISTRY", "DspDevice",
    "InputDevice", "InstantHandle", "MixerDevice", "MusicDevice",
    "OutputDevice", "PlaybackHandle", "PlaybackProgram", "PlayerDevice",
    "ProgramDevice", "RecognizerDevice", "RecordHandle", "RecorderDevice",
    "SynthesizerDevice", "TelephoneDevice", "VirtualDevice",
    "create_virtual_device", "register_device_class",
]
