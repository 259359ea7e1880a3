"""Pytest fixture layer: run any test under chaos.

Importing these names in ``tests/conftest.py`` makes the chaos harness
available everywhere::

    from testkit.chaos.fixtures import (        # noqa: F401
        chaos_client, chaos_proxy, make_chaos_proxy)

``chaos_proxy`` gives a clean-passthrough proxy in front of the standard
``server`` fixture; ``make_chaos_proxy`` builds proxies with custom
fault schedules; ``chaos_client`` is a reconnecting Alib client wired
through the proxy.  :func:`raw_setup` is the raw-socket helper the
failure-injection tests share.
"""

from __future__ import annotations

import socket

import pytest

from repro.alib import AudioClient
from repro.protocol.setup import SetupRequest
from .proxy import ChaosProxy
from .schedule import FaultSchedule


def raw_setup(port: int, client_name: str = "raw",
              host: str = "127.0.0.1") -> socket.socket:
    """A bare socket just past the setup handshake (no Alib machinery).

    For tests that feed the server hand-crafted bytes; the caller owns
    (and must close) the socket.
    """
    sock = socket.create_connection((host, port))
    sock.sendall(SetupRequest(client_name=client_name).encode())
    sock.recv(4096)     # setup reply; contents irrelevant to raw tests
    return sock


@pytest.fixture
def make_chaos_proxy(server):
    """Factory for chaos proxies in front of the ``server`` fixture.

    ``factory(schedule=FaultSchedule(seed=7, ...))`` starts a proxy with
    that fault schedule; all proxies stop at teardown.
    """
    created: list[ChaosProxy] = []

    def factory(schedule: FaultSchedule | None = None,
                metrics=None) -> ChaosProxy:
        proxy = ChaosProxy(("127.0.0.1", server.port), schedule=schedule,
                           metrics=metrics)
        proxy.start()
        created.append(proxy)
        return proxy

    yield factory
    for proxy in created:
        proxy.stop()


@pytest.fixture
def chaos_proxy(make_chaos_proxy):
    """A clean-passthrough proxy; inject faults via manual controls."""
    return make_chaos_proxy()


@pytest.fixture
def chaos_client(chaos_proxy):
    """A reconnecting Alib client connected through ``chaos_proxy``."""
    client = AudioClient(port=chaos_proxy.port, client_name="chaos",
                         reconnect=True, request_timeout=5.0)
    yield client
    client.close()
