"""Shared fixtures: a running audio server and connected clients."""

import os
import threading
import time

import numpy as np
import pytest

from repro.alib import AudioClient
from repro.chaos.fixtures import (  # noqa: F401
    chaos_client,
    chaos_proxy,
    make_chaos_proxy,
)
from repro.hardware import HardwareConfig
from repro.server import AudioServer

RATE = 8000
BLOCK = 160

#: Total time the leak guard waits for a test's threads to finish and
#: its fds to close after teardown.
LEAK_GRACE_SECONDS = 1.0


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_leaked_threads_or_fds():
    """Fail any test that leaves a live thread or an open fd behind.

    Autouse fixtures set up first and tear down last, so this sees the
    process after every other fixture of the test has stopped what it
    started.  Stopping is allowed to finish asynchronously within
    ``LEAK_GRACE_SECONDS``.
    """
    threads_before = set(threading.enumerate())
    fds_before = _open_fds()
    yield
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    while True:
        threads = [thread for thread in threading.enumerate()
                   if thread not in threads_before and thread.is_alive()]
        fds = _open_fds() - fds_before
        remaining = deadline - time.monotonic()
        if (not threads and not fds) or remaining <= 0:
            break
        if threads:
            threads[0].join(timeout=remaining)
        else:
            time.sleep(min(0.01, remaining))
    leaks = ["thread %r" % thread.name for thread in threads]
    leaks += ["fd %s -> %s" % (fd, _fd_target(fd)) for fd in sorted(fds)]
    if leaks:
        pytest.fail("test leaked: " + ", ".join(leaks), pytrace=False)


def _fd_target(fd: str) -> str:
    try:
        return os.readlink("/proc/self/fd/" + fd)
    except OSError:
        return "?"


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
