#!/usr/bin/env python
"""Lock-discipline lint: no blocking I/O or IPC waits under a server lock.

Walks every module under ``src/repro/server/`` and
``src/repro/trunk/``, plus the shared accept loop in
``src/repro/listener.py``, and flags calls that can
block indefinitely -- socket operations (``sendall``, ``send``,
``recv``, ``accept``, ``connect``) and ``time.sleep`` -- made lexically
inside a ``with self.lock:`` (or any ``*.lock`` / ``*_lock``) block.
The topology lock gates the 20 ms block cycle; one stalled peer socket
under it would stall every client's audio (docs/PERFORMANCE.md,
"Concurrency model").

A second hazard class is **IPC waits**: receives on queues, pipes,
sockets and selectors (``poll``, ``recv_bytes``, or a
``.get``/``.join``/``.wait``/``.select`` on anything named like a queue,
pipe, connection, socket, worker, process or selector).  Waiting on
another thread or process while holding the topology lock deadlocks the
block cycle if that party ever needs the lock's owner to make progress.
A ``.select()`` on a selector held under a lock likewise parks a whole
selector I/O shard (``server/ioloop.py``) -- every client on it --
behind whichever thread wants that lock.  The shard loop blocks in
``select`` only lock-free; its ops queue is drained with the lock held
for pointer swaps alone.

Some code runs under a lock *implicitly*: the trunk gateway's tick is
driven from inside the hub's block cycle with the topology lock already
held, so there is no lexical ``with lock:`` to anchor on.  Files listed
in ``IMPLICIT_LOCK_FILES`` are checked as if every function body held a
lock, except the named functions that run on their own threads (route
connectors, the per-connection handshake, test helpers).  A
``sendall`` added to the gateway's tick path fails the lint even though
no ``with`` is in sight.

A line may opt out with an explicit ``# lock-ok: <reason>`` pragma --
used for waits that are *bounded* and by design part of the cycle
itself, or calls that merely look blocking (a queue-handoff method
named ``send``), never for open-ended peers.

Exit status is nonzero if any violation is found, so CI can gate on it.
Queue handoffs (``put``, ``notify``) are deliberately fine -- the writer
threads do the actual socket work outside the lock.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Method names that can block on a peer or the clock.
BLOCKING_ATTRS = frozenset({
    "sendall", "send", "sendto", "recv", "recv_into", "accept", "connect",
})

#: Method names that always mean "wait on another process/thread".
IPC_WAIT_ATTRS = frozenset({"poll", "recv_bytes"})

#: Method names that mean an IPC wait only when the receiver looks like
#: an IPC endpoint (``.get`` alone would flag every dict lookup).
IPC_WAIT_ATTRS_NAMED = frozenset({"get", "join", "wait", "select"})

#: Receiver-name fragments that mark an IPC endpoint.  ``selector``
#: makes ``self.selector.select(...)`` a flagged wait (the I/O-shard
#: loop) without touching unrelated ``.select`` calls; the fragment is
#: deliberately not ``sel``, which every ``self.*`` receiver contains.
IPC_RECEIVER_HINTS = ("queue", "conn", "pipe", "sock", "proc", "worker",
                      "shm", "process", "selector")

_SRC = Path(__file__).resolve().parent.parent / "src/repro"
#: Directories and files whose code runs under (or takes) the server's
#: locks: the server proper, the trunk gateway whose tick runs inside the
#: hub's block cycle under the topology lock, and the accept loop both
#: of them (and every other TCP service) hand their sockets from.
SCAN_PATHS = (_SRC / "server", _SRC / "trunk", _SRC / "listener.py")

#: src/repro-relative files whose functions run under a lock implicitly
#: (no lexical ``with``), mapped to the functions that do NOT -- they
#: run on their own threads.
IMPLICIT_LOCK_FILES = {
    "trunk/gateway.py": frozenset({
        "_connect_route",   # short-lived connector thread
        "_handshake",       # connector or per-connection thread
        "wait_connected",   # wall-clock helper for tests/tools
    }),
    # The mesh route table mutates only on the gateway's tick, so every
    # function is implicitly under the topology lock -- and none may do
    # socket I/O at all (it is plain data).
    "trunk/routing.py": frozenset(),
    # Discovery does real socket I/O, but only off the tick: the
    # gateway's tick merely starts poll threads and reads snapshots.
    "trunk/discovery.py": frozenset({
        "_serve",           # one request, on its connection thread
        "_handle",          # that request's I/O, same thread
        "poll_once",        # one round trip, on a poll thread (and tests)
    }),
}


def _is_lock_expr(node: ast.expr) -> bool:
    """True for ``self.lock``, ``server.lock``, ``self._clients_lock``..."""
    if isinstance(node, ast.Attribute):
        return node.attr == "lock" or node.attr.endswith("_lock")
    return False


def _is_time_sleep(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time")


def _receiver_name(node: ast.expr) -> str:
    """The dotted-name text of a call receiver, lowercased ('' if not
    a plain name/attribute chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


class LockDisciplineVisitor(ast.NodeVisitor):
    def __init__(self, path: Path, source_lines: list[str],
                 implicit_exempt: frozenset | None = None) -> None:
        self.path = path
        self.source_lines = source_lines
        self.lock_depth = 0
        #: Non-None makes every function body implicitly locked except
        #: the named ones (IMPLICIT_LOCK_FILES rule).
        self.implicit_exempt = implicit_exempt
        self._function_depth = 0
        self.violations: list[tuple[Path, int, str]] = []

    def _exempted(self, node: ast.AST) -> bool:
        """True if the call (or the line above it) carries a lock-ok
        pragma."""
        end = getattr(node, "end_lineno", node.lineno)
        for lineno in range(max(node.lineno - 1, 1), end + 1):
            if lineno <= len(self.source_lines) \
                    and "# lock-ok:" in self.source_lines[lineno - 1]:
                return True
        return False

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lock_expr(item.context_expr)
                     for item in node.items)
        self.lock_depth += 1 if locked else 0
        self.generic_visit(node)
        self.lock_depth -= 1 if locked else 0

    def visit_Call(self, node: ast.Call) -> None:
        if self.lock_depth > 0 and not self._exempted(node):
            func = node.func
            if _is_time_sleep(func):
                self.violations.append(
                    (self.path, node.lineno, "time.sleep under a lock"))
            elif isinstance(func, ast.Attribute):
                if func.attr in BLOCKING_ATTRS:
                    self.violations.append(
                        (self.path, node.lineno,
                         "socket .%s() under a lock" % func.attr))
                elif func.attr in IPC_WAIT_ATTRS or (
                        func.attr in IPC_WAIT_ATTRS_NAMED
                        and any(hint in _receiver_name(func.value)
                                for hint in IPC_RECEIVER_HINTS)):
                    self.violations.append(
                        (self.path, node.lineno,
                         "IPC wait .%s() under a lock" % func.attr))
        self.generic_visit(node)

    # Lock scope is per-function: a def nested inside a with-block runs
    # later, on its own thread, not under the enclosing lock.  Under the
    # implicit-lock rule, top-level (method) bodies instead START at
    # depth 1 unless exempt; nested defs still run on their own threads.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved = self.lock_depth
        if (self.implicit_exempt is not None and self._function_depth == 0
                and node.name not in self.implicit_exempt):
            self.lock_depth = 1
        else:
            self.lock_depth = 0
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
        self.lock_depth = saved

    visit_AsyncFunctionDef = visit_FunctionDef


def check_file(path: Path,
               implicit_exempt: frozenset | None = None
               ) -> list[tuple[Path, int, str]]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    visitor = LockDisciplineVisitor(path, source.splitlines(),
                                    implicit_exempt=implicit_exempt)
    visitor.visit(tree)
    return visitor.violations


def scanned_files():
    """Every module the lint checks, in a stable order."""
    for scan_path in SCAN_PATHS:
        if scan_path.is_dir():
            yield from sorted(scan_path.rglob("*.py"))
        else:
            yield scan_path


def main() -> int:
    violations = []
    checked = 0
    root = _SRC.parent.parent
    for path in scanned_files():
        key = path.relative_to(_SRC).as_posix()
        violations.extend(check_file(
            path, implicit_exempt=IMPLICIT_LOCK_FILES.get(key)))
        checked += 1
    for path, line, reason in violations:
        print("%s:%d: %s" % (path.relative_to(root), line, reason))
    if violations:
        print("%d lock-discipline violation(s)" % len(violations))
        return 1
    print("lock discipline ok (%d modules checked)" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
