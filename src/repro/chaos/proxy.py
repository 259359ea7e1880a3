"""In-process TCP fault-injection proxy.

:class:`ChaosProxy` sits between an Alib client and the audio server,
pumping bytes in both directions through a :class:`.schedule.FaultSchedule`.
Because the server also listens on loopback, the proxy is just another
loopback hop -- no root, no netem, no external tooling -- yet it can
inject every failure the Alib resilience layer must survive: latency,
throttling, truncated writes, mid-message connection resets and full
partitions.

Tests usually drive it through the fixtures in :mod:`.fixtures`::

    proxy = ChaosProxy(("127.0.0.1", server.port),
                       schedule=FaultSchedule(seed=7, reset_probability=0.01))
    proxy.start()
    client = AudioClient(port=proxy.port, reconnect=True)

Manual controls (``sever_all``, ``partition``/``heal``) complement the
schedule for tests that need a fault at an exact moment rather than an
exact byte offset.
"""

from __future__ import annotations

import socket
import threading
import time

from ..listener import Listener
from ..obs import MetricsRegistry, NULL_REGISTRY
from .schedule import Decision, DOWN, FaultSchedule, UP

_CHUNK = 65536


class _Link:
    """One proxied client connection: two pump threads and two sockets."""

    def __init__(self, proxy: "ChaosProxy", client_sock: socket.socket,
                 server_sock: socket.socket) -> None:
        self.proxy = proxy
        self.client_sock = client_sock
        self.server_sock = server_sock
        self.closed = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._pump, name="chaos-up",
                             args=(UP, client_sock, server_sock), daemon=True),
            threading.Thread(target=self._pump, name="chaos-down",
                             args=(DOWN, server_sock, client_sock),
                             daemon=True),
        ]

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def _pump(self, direction: str, source: socket.socket,
              sink: socket.socket) -> None:
        proxy = self.proxy
        try:
            while not self.closed:
                try:
                    chunk = source.recv(_CHUNK)
                except OSError:
                    break
                if not chunk:
                    break
                proxy._wait_if_partitioned()
                decision = proxy._decide(direction, len(chunk))
                if decision.delay > 0:
                    time.sleep(decision.delay)
                if decision.partition:
                    proxy.partition(proxy.schedule.partition_seconds)
                if decision.truncate is not None:
                    proxy._m_truncated.inc()
                    chunk = chunk[:decision.truncate]
                if decision.reset:
                    proxy._m_resets.inc()
                    break
                if chunk:
                    try:
                        sink.sendall(chunk)
                    except OSError:
                        break
                    proxy._count(direction, len(chunk))
        finally:
            self.close()

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        for sock in (self.client_sock, self.server_sock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._link_closed(self)


class ChaosProxy:
    """A loopback TCP proxy that injects faults from a schedule.

    Listens on an ephemeral port (``proxy.port`` after :meth:`start`)
    and forwards every accepted connection to ``upstream``.  All fault
    decisions come from the shared :class:`FaultSchedule`; with a
    default schedule the proxy is a clean passthrough.
    """

    def __init__(self, upstream: tuple[str, int], *,
                 schedule: FaultSchedule | None = None,
                 host: str = "127.0.0.1",
                 metrics: MetricsRegistry | None = None) -> None:
        self.upstream = upstream
        self.schedule = schedule or FaultSchedule()
        self.host = host
        self.port: int | None = None
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_connections = self.metrics.counter("chaos.connections")
        self._m_resets = self.metrics.counter("chaos.resets")
        self._m_truncated = self.metrics.counter("chaos.truncated_chunks")
        self._m_severed = self.metrics.counter("chaos.severed")
        self._m_bytes_up = self.metrics.counter("chaos.bytes_up")
        self._m_bytes_down = self.metrics.counter("chaos.bytes_down")
        self._listener: Listener | None = None
        self._links: list[_Link] = []
        self._links_lock = threading.Lock()
        self._schedule_lock = threading.Lock()
        #: Cleared while a partition is in force; pumps wait on it.
        self._flowing = threading.Event()
        self._flowing.set()
        self._stopping = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ChaosProxy":
        self._listener = Listener(self.host, 0, self._bridge,
                                  "chaos-accept").start()
        self.port = self._listener.port
        return self

    def stop(self) -> None:
        with self._links_lock:
            self._stopping = True
        self._flowing.set()
        if self._listener is not None:
            self._listener.stop()
            self._listener = None
        self.sever_all(count_metric=False)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- manual fault controls ------------------------------------------------

    def sever_all(self, count_metric: bool = True) -> int:
        """Hard-close every live link (both halves).  Returns how many."""
        with self._links_lock:
            links = list(self._links)
        for link in links:
            link.close()
        if links and count_metric:
            self._m_severed.inc(len(links))
        return len(links)

    def partition(self, seconds: float | None = None) -> None:
        """Stop forwarding in both directions (until :meth:`heal`).

        With ``seconds`` the partition heals itself from a timer thread,
        so schedule-driven partitions cannot wedge a test forever.
        """
        self._flowing.clear()
        if seconds is not None:
            timer = threading.Timer(seconds, self.heal)
            timer.daemon = True
            timer.start()

    def heal(self) -> None:
        """Resume forwarding after :meth:`partition`."""
        self._flowing.set()

    # -- internals ------------------------------------------------------------

    def _bridge(self, client_sock: socket.socket) -> None:
        """Connect one accepted client upstream and start its pumps."""
        try:
            server_sock = socket.create_connection(self.upstream,
                                                   timeout=5.0)
            server_sock.settimeout(None)
        except OSError:
            client_sock.close()
            return
        for sock in (client_sock, server_sock):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _Link(self, client_sock, server_sock)
        with self._links_lock:
            # stop() flips _stopping under this lock before it severs
            # the links, so a link added here is always severed.
            stopping = self._stopping
            if not stopping:
                self._links.append(link)
        if stopping:
            client_sock.close()
            server_sock.close()
            return
        self._m_connections.inc()
        link.start()

    def _decide(self, direction: str, nbytes: int) -> Decision:
        with self._schedule_lock:
            return self.schedule.decide(direction, nbytes)

    def _wait_if_partitioned(self) -> None:
        self._flowing.wait()

    def _count(self, direction: str, nbytes: int) -> None:
        if direction == UP:
            self._m_bytes_up.inc(nbytes)
        else:
            self._m_bytes_down.inc(nbytes)

    def _link_closed(self, link: _Link) -> None:
        with self._links_lock:
            try:
                self._links.remove(link)
            except ValueError:
                pass
