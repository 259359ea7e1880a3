"""The audio server (paper sections 4-6)."""

from .config import ServerConfig
from .core import AudioServer
from .resources import DEVICE_LOUD_ID

__all__ = ["AudioServer", "DEVICE_LOUD_ID", "ServerConfig"]
