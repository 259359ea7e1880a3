"""Launch ``repro.server.main`` for the ``control`` workload.

Usage::

    python3 -u perfbench/server_child.py [--cpu N] [--trace-out FILE] \
        -- <repro-audio-server arguments>

``--cpu`` pins the server to one allowed CPU, away from the load
generator.  With ``--trace-out`` the benchmark's span recorder is
installed before the server starts, and when the server exits (SIGTERM)
the per-layer metrics of everything it served are written to FILE as
JSON.  The program itself is unchanged either way.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import Result, pin, prepare_program


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="server_child")
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args[:1] == ["--"]:
        server_args = server_args[1:]
    prepare_program()
    if args.cpu is not None:
        pin(args.cpu)
    from repro.server import main as server_main

    if args.trace_out is None:
        return server_main.main(server_args)
    from tracing import TraceSession

    session = TraceSession()
    code = server_main.main(server_args)
    result = Result("control")
    session.finish(result, ops_keys=("server.dispatch.handle",
                                     "server.dispatch.handle_unlocked"))
    with open(args.trace_out, "w") as handle:
        json.dump({"layers": result.layers, "shares": result.shares,
                   "spans": result.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
