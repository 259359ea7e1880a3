"""The composition root: the daemon's flags become its settings, and a
lint keeps environment reads and wall-clock calls out of the server."""

import importlib.util
import textwrap
from dataclasses import fields
from pathlib import Path

from repro.hardware import HardwareConfig
from repro.server import ServerConfig
from repro.server.config import from_args
from repro.server.main import build_parser

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "check_composition_root.py")
_spec = importlib.util.spec_from_file_location("check_composition_root",
                                               _SCRIPT)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def _check(tmp_path, source, **rules):
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent(source))
    return [(line, reason) for _path, line, reason
            in lint.check_file(path, **rules)]


def test_environment_reads_are_flagged(tmp_path):
    violations = _check(tmp_path, """\
        import os
        from os import getenv

        debug = os.environ.get("X") == "1"
        level = os.getenv("Y")
    """)
    assert violations == [
        (2, "os.getenv read outside the config module"),
        (4, "os.environ read outside the config module"),
        (5, "os.getenv read outside the config module"),
    ]


def test_wall_clock_calls_are_flagged(tmp_path):
    violations = _check(tmp_path, """\
        import time
        from time import sleep

        def tick(self):
            now = time.monotonic()
            stamp = time.time()
            time.sleep(0.005)
    """, clock=True)
    assert violations == [
        (2, "time.sleep instead of the injected clock"),
        (5, "time.monotonic instead of the injected clock"),
        (6, "time.time instead of the injected clock"),
        (7, "time.sleep instead of the injected clock"),
    ]


def test_the_clock_seam_and_metering_are_allowed(tmp_path):
    violations = _check(tmp_path, """\
        import time
        from time import perf_counter

        class Gateway:
            def __init__(self, *, clock=time.monotonic):
                self.now = clock

            def tick(self):
                started = time.perf_counter()
                return self.now() - started + perf_counter()
    """, clock=True)
    assert violations == []


def test_clock_rule_only_where_asked(tmp_path):
    assert _check(tmp_path, """\
        import time
        deadline = time.monotonic() + 1.0
    """) == []


def test_only_the_config_module_reads_the_environment():
    assert lint.ENV_ALLOWED == (lint._SRC / "server" / "config.py",)
    assert set(lint.CLOCK_SCANNED) == {lint._SRC / "server",
                                       lint._SRC / "trunk"}


def test_the_tree_passes():
    assert lint.main() == 0


def test_every_daemon_flag_sets_a_config_field():
    """A flag whose ``dest`` named no field would be dropped silently."""
    dests = {action.dest for action in build_parser()._actions
             if action.dest != "help"}
    names = {spec.name for cls in (HardwareConfig, ServerConfig)
             for spec in fields(cls)}
    assert dests <= names


def test_flags_parse_into_frozen_settings(monkeypatch):
    monkeypatch.setenv("REPRO_METRICS", "0")
    monkeypatch.delenv("REPRO_LOCK_DEBUG", raising=False)
    hardware, settings = from_args(build_parser().parse_args(
        ["--rate", "16000", "--stall-deadline", "2.5",
         "--trunk-route", "5=east:7431", "--trunk-route", "6=west:7431",
         "--mesh-prefix", "1"]))
    assert (hardware.sample_rate, hardware.block_frames) == (16000, 160)
    assert hardware.capture_output is False
    assert settings.stall_deadline == 2.5
    assert settings.outbound_bound == 1024      # left at its default
    assert settings.trunk_routes == (("5", "east", 7431),
                                     ("6", "west", 7431))
    assert settings.mesh_prefixes == ("1",)
    assert (settings.metrics, settings.lock_debug) == (False, False)
    hash(settings)      # frozen, with tuples for the repeatable flags
