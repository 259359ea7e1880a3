"""Shared fixtures: a running audio server and connected clients."""

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.chaos.fixtures import (  # noqa: F401
    chaos_client,
    chaos_proxy,
    make_chaos_proxy,
)
from repro.hardware import HardwareConfig
from repro.leakguard import no_leaked_threads_or_fds  # noqa: F401
from repro.server import AudioServer

RATE = 8000
BLOCK = 160


@pytest.fixture
def server():
    """A running audio server on an ephemeral port (virtual pacing)."""
    audio_server = AudioServer(HardwareConfig())
    audio_server.start()
    yield audio_server
    audio_server.stop()


@pytest.fixture
def client(server):
    """One connected client."""
    audio_client = AudioClient(port=server.port, client_name="test")
    yield audio_client
    audio_client.close()


@pytest.fixture
def second_client(server):
    audio_client = AudioClient(port=server.port, client_name="test-2")
    yield audio_client
    audio_client.close()


@pytest.fixture
def make_client(server):
    """Factory for extra clients, all cleaned up at teardown."""
    created = []

    def factory(name="extra"):
        audio_client = AudioClient(port=server.port, client_name=name)
        created.append(audio_client)
        return audio_client

    yield factory
    for audio_client in created:
        audio_client.close()


def wait_for(predicate, timeout=10.0):
    """Poll a predicate with a wall-clock timeout."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def wait_blocks(server, blocks: int) -> None:
    """Wait until the running hub has completed ``blocks`` more blocks."""
    hub = server.hub
    target = hub.sample_time + blocks * hub.block_frames
    assert hub.clock.wait_until(target, timeout=10.0), "hub stalled"


def speaker_audio(server, settle_blocks: int = 3) -> np.ndarray:
    """The first speaker's captured output, once the hub has run
    ``settle_blocks`` more blocks.

    The hub runs tick callbacks, which emit and flush events, before
    ``device.end_block()`` appends the block's speaker capture; audio
    read straight after an event (QUEUE_EMPTY, COMMAND_DONE) can
    therefore miss the block that produced it.
    """
    wait_blocks(server, settle_blocks)
    return server.hub.speakers[0].capture.samples()
