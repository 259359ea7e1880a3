"""The server's settings, read in one place: the only server module
that reads the environment.  ``REPRO_METRICS=0`` meters into a disabled
registry, ``REPRO_LOCK_DEBUG=1`` makes the server's locks assert their
rank order; both are read when a config is built without naming them.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, field, fields

from ..hardware.config import HardwareConfig

Address = tuple[str, int]


@dataclass(frozen=True)
class ServerConfig:
    """The daemon's flags, one field each (``--help`` describes them),
    plus the two environment switches."""

    host: str = "127.0.0.1"
    port: int = 0               # 0: ephemeral; server.port once started
    realtime: bool = False
    catalogue: str | None = None
    stats_interval: float | None = None     # the daemon's StatsLogger
    outbound_bound: int = 1024     # messages awaiting a client's shard
    stall_deadline: float = 5.0
    trunk_listen: Address | None = None
    trunk_routes: tuple[tuple[str, str, int], ...] = ()
    trunk_name: str = ""
    mesh_registry: Address | None = None
    mesh_join: Address | None = None
    mesh_prefixes: tuple[str, ...] = ()
    mesh_neighbors: tuple[str, ...] = ()
    metrics: bool = field(default_factory=lambda: os.environ.get(
        "REPRO_METRICS", "1") != "0")
    lock_debug: bool = field(default_factory=lambda: os.environ.get(
        "REPRO_LOCK_DEBUG", "") == "1")


def from_args(args: argparse.Namespace
              ) -> tuple[HardwareConfig, ServerConfig]:
    """The daemon's hardware and server configs from its parsed flags.
    It keeps no output capture: nothing reads one, and it would grow by
    every block played."""
    given = {name: tuple(value) if isinstance(value, list) else value
             for name, value in vars(args).items()}

    def fields_of(cls) -> dict:
        return {spec.name: given[spec.name] for spec in fields(cls)
                if spec.name in given}

    return (HardwareConfig(capture_output=False, **fields_of(HardwareConfig)),
            ServerConfig(**fields_of(ServerConfig)))
