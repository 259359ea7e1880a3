#!/usr/bin/env python
"""Composition-root lint: settings come from one module, time from a seam.

The server is configured in one place: ``src/repro/server/config.py``
builds a :class:`ServerConfig` from the command line and the two
``REPRO_*`` variables.  A read of ``os.environ`` or ``getenv``
anywhere else under ``src/repro`` is a setting that bypasses it.

Every keepalive, redial backoff, registry TTL and stall eviction in
``src/repro/server/`` and ``src/repro/trunk/`` reads an injected clock
(``now()``), so a test can move time by hand.  A ``time.monotonic``,
``time.time`` or ``time.sleep`` there is a deadline that only wall
time can reach.  The one allowed spelling is a parameter default, the
seam itself: ``clock=time.monotonic``.  ``time.perf_counter`` is
metering, not a deadline, and stays allowed.

Timers there are deadlines too: the gateway's tick checks each against
``now()``.  A ``.wait(...)`` or ``.wait_for(...)`` given a timeout, or a
``.get(timeout=...)``, is a timer that only wall time can fire.  The one
allowed is ``TrunkGateway.wait_connected``, whose timeout is its
caller's wall-clock budget.  A bounded ``join(timeout=...)`` on stop is
not a timer and stays allowed.

Exit status is nonzero if any violation is found, so CI can gate on it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src/repro"

#: The one module that reads the environment.
ENV_ALLOWED = (_SRC / "server" / "config.py",)

#: Packages whose deadlines must read the injected clock.
CLOCK_SCANNED = (_SRC / "server", _SRC / "trunk")

#: ``time`` functions that read or wait on wall time.
WALL_CLOCK = frozenset({"monotonic", "time", "sleep"})

#: ``Class.method``s whose timed wait is a caller's budget, not a timer.
TIMED_WAIT_ALLOWED = frozenset({"TrunkGateway.wait_connected"})


def _defaults(tree: ast.AST) -> set[int]:
    """ids of every node inside a parameter default."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for default in [*node.args.defaults, *node.args.kw_defaults]:
                if default is not None:
                    inside.update(id(sub) for sub in ast.walk(default))
    return inside


def _allowed_waits(tree: ast.AST) -> set[int]:
    """ids of every node inside a :data:`TIMED_WAIT_ALLOWED` method."""
    inside: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                        and "%s.%s" % (node.name, item.name)
                        in TIMED_WAIT_ALLOWED):
                    inside.update(id(sub) for sub in ast.walk(item))
    return inside


def _timed_wait(call: ast.Call) -> str | None:
    """The method a call waits in with a timeout, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    timeout = any(keyword.arg == "timeout" for keyword in call.keywords)
    if func.attr == "wait":
        timeout = timeout or bool(call.args)
    elif func.attr == "wait_for":
        timeout = timeout or len(call.args) > 1
    elif func.attr != "get":
        return None
    return func.attr if timeout else None


def check_file(path: Path, *, env: bool = True,
               clock: bool = False) -> list[tuple[Path, int, str]]:
    """Violations in one module: environment reads when ``env``,
    wall-clock calls and timed waits when ``clock``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    seam = _defaults(tree)
    budgets = _allowed_waits(tree) if clock else set()
    violations = []
    for node in ast.walk(tree):
        if (clock and isinstance(node, ast.Call)
                and id(node) not in budgets):
            wait = _timed_wait(node)
            if wait is not None:
                violations.append(
                    (path, node.lineno,
                     "timed .%s() instead of a deadline on the "
                     "injected clock" % wait))
        elif isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            owner, attr = node.value.id, node.attr
            if env and owner == "os" and attr in ("environ", "getenv"):
                violations.append(
                    (path, node.lineno,
                     "os.%s read outside the config module" % attr))
            elif (clock and owner == "time" and attr in WALL_CLOCK
                    and id(node) not in seam):
                violations.append(
                    (path, node.lineno,
                     "time.%s instead of the injected clock" % attr))
        elif isinstance(node, ast.ImportFrom) and node.module in ("os",
                                                                  "time"):
            for alias in node.names:
                if env and node.module == "os" and alias.name in (
                        "environ", "getenv"):
                    violations.append(
                        (path, node.lineno,
                         "os.%s read outside the config module"
                         % alias.name))
                elif (clock and node.module == "time"
                        and alias.name in WALL_CLOCK):
                    violations.append(
                        (path, node.lineno,
                         "time.%s instead of the injected clock"
                         % alias.name))
    return sorted(violations, key=lambda violation: violation[1])


def _under(path: Path, roots) -> bool:
    return any(path == root or root in path.parents for root in roots)


def main() -> int:
    violations = []
    checked = 0
    root = _SRC.parent.parent
    for path in sorted(_SRC.rglob("*.py")):
        violations.extend(check_file(
            path, env=not _under(path, ENV_ALLOWED),
            clock=_under(path, CLOCK_SCANNED)))
        checked += 1
    for path, line, reason in violations:
        print("%s:%d: %s" % (path.relative_to(root), line, reason))
    if violations:
        print("%d composition-root violation(s)" % len(violations))
        return 1
    print("composition root ok (%d modules checked)" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
