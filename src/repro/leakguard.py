"""Pytest leak guard shared by the test and benchmark suites.

Import :func:`no_leaked_threads_or_fds` into a ``conftest.py`` and it
runs around every test there (it is autouse)::

    from repro.leakguard import no_leaked_threads_or_fds  # noqa: F401

A rig that is never stopped -- a virtual-paced hub spinning at CPU
speed for the rest of the session, say -- then fails the test that
leaked it instead of skewing whatever runs next.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

#: Total time the guard waits for a test's threads to finish and its
#: fds to close after teardown.
LEAK_GRACE_SECONDS = 1.0


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def _fd_target(fd: str) -> str:
    try:
        return os.readlink("/proc/self/fd/" + fd)
    except OSError:
        return "?"


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
