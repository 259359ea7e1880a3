#!/usr/bin/env python
"""Composition-root lint: settings come from one module, time from a seam.

The server is configured in one place: ``src/repro/server/config.py``
builds a :class:`ServerConfig` from the command line and the two
``REPRO_*`` variables.  A read of ``os.environ`` or ``getenv``
anywhere else under ``src/repro`` is a setting that bypasses it.
``repro.bench`` is exempt: its ``REPRO_BENCH_FAST`` belongs to the
benchmark rigs, not the server.

Every keepalive, redial backoff, registry TTL and stall eviction in
``src/repro/server/`` and ``src/repro/trunk/`` reads an injected clock
(``now()``), so a test can move time by hand.  A ``time.monotonic``,
``time.time`` or ``time.sleep`` there is a deadline that only wall
time can reach.  The one allowed spelling is a parameter default, the
seam itself: ``clock=time.monotonic``.  ``time.perf_counter`` is
metering, not a deadline, and stays allowed.

Exit status is nonzero if any violation is found, so CI can gate on it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src/repro"

#: The one module that reads the environment, and the benchmark rigs.
ENV_ALLOWED = (_SRC / "server" / "config.py", _SRC / "bench")

#: Packages whose deadlines must read the injected clock.
CLOCK_SCANNED = (_SRC / "server", _SRC / "trunk")

#: ``time`` functions that read or wait on wall time.
WALL_CLOCK = frozenset({"monotonic", "time", "sleep"})


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


def check_file(path: Path, *, env: bool = True,
               clock: bool = False) -> list[tuple[Path, int, str]]:
    """Violations in one module: environment reads when ``env``,
    wall-clock calls when ``clock``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    seam = _defaults(tree)
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value,
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
