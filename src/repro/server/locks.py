"""Instrumented locks and the lock-discipline debug mode.

The server's locks form a strict hierarchy (docs/INTERNALS.md):

* rank 10 -- ``AudioServer.lock`` (the *topology* lock): request
  mutations, the block cycle, plan invalidation;
* rank 20 -- ``AudioServer._clients_lock``: the connection list;
* rank 30 -- per-client outbound queue condition variables (leaves,
  plain stdlib locks, never held across another acquisition).

:class:`InstrumentedRLock` wraps :class:`threading.RLock` with two
always-on histograms -- ``lock.wait_us`` (time spent blocked acquiring)
and ``lock.hold_us`` (outermost hold duration) -- and an opt-in debug
mode that asserts the rank order above on every acquisition and warns
when a hold exceeds a threshold.  The server's locks run in debug mode
when ``REPRO_LOCK_DEBUG=1`` (read by ``server/config.py``).  The
metrics share one histogram pair across all instrumented locks, so the
snapshot answers "is anything contending?" with two names.
"""

from __future__ import annotations

import logging
import threading
from time import perf_counter

from ..obs import MICROSECOND_BUCKETS, NULL_REGISTRY

log = logging.getLogger(__name__)

#: Ranks for the server's lock hierarchy; acquire in increasing order.
RANK_TOPOLOGY = 10
RANK_CLIENTS = 20
RANK_OUTBOUND = 30

#: Debug mode logs an outermost hold longer than this many seconds.
HOLD_WARN_SECONDS = 0.05


class LockDisciplineError(RuntimeError):
    """A thread acquired locks against the declared rank order."""


#: Per-thread stack of (rank, name) for locks currently held outermost.
_held = threading.local()


def _held_stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


class InstrumentedRLock:
    """A re-entrant lock that measures its waits and holds.

    Drop-in for ``threading.RLock()`` as a context manager and via
    ``acquire``/``release``.  Wait time is observed on every outermost
    acquisition (re-entrant acquires never block and are not counted),
    hold time on the matching outermost release.  With ``debug`` on,
    acquiring a lock whose rank is not strictly greater than every lock
    the thread already holds raises :class:`LockDisciplineError`, and
    holds beyond :data:`HOLD_WARN_SECONDS` are logged.
    """

    __slots__ = ("name", "rank", "debug", "_inner", "_local", "_m_wait",
                 "_m_hold")

    def __init__(self, name: str, rank: int,
                 metrics=None, debug: bool = False) -> None:
        self.name = name
        self.rank = rank
        self.debug = debug
        self._inner = threading.RLock()
        self._local = threading.local()     # depth + entered_at, per thread
        if metrics is None:
            metrics = NULL_REGISTRY
        self._m_wait = metrics.histogram("lock.wait_us",
                                         edges=MICROSECOND_BUCKETS)
        self._m_hold = metrics.histogram("lock.hold_us",
                                         edges=MICROSECOND_BUCKETS)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._local, "depth", 0)
        if self.debug and depth == 0:
            self._check_order()
        started = perf_counter()
        if not self._inner.acquire(blocking, timeout):
            return False
        if depth == 0:
            now = perf_counter()
            self._m_wait.observe((now - started) * 1e6)
            self._local.entered_at = now
            if self.debug:
                _held_stack().append((self.rank, self.name))
        self._local.depth = depth + 1
        return True

    def release(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth == 1:
            held = perf_counter() - self._local.entered_at
            self._m_hold.observe(held * 1e6)
            if self.debug:
                stack = _held_stack()
                if stack and stack[-1] == (self.rank, self.name):
                    stack.pop()
                if held > HOLD_WARN_SECONDS:
                    log.warning("lock %r held %.1f ms (warn threshold "
                                "%.1f ms)", self.name, held * 1e3,
                                HOLD_WARN_SECONDS * 1e3)
        if depth > 0:
            self._local.depth = depth - 1
        self._inner.release()

    def _check_order(self) -> None:
        for rank, name in _held_stack():
            if rank >= self.rank:
                raise LockDisciplineError(
                    "acquiring lock %r (rank %d) while holding %r "
                    "(rank %d): locks must be taken in increasing rank"
                    % (self.name, self.rank, name, rank))

    def __enter__(self) -> "InstrumentedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
