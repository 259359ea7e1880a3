"""Command-line entry point: run an audio server.

``repro-audio-server --help`` lists the flags.  Each sets one field of
the server's HardwareConfig or ServerConfig (``config.py``), parsed
once here.

SIGUSR1 dumps a stats snapshot to stderr at any time; one more snapshot
is dumped at shutdown.  The ``--trunk-*`` and ``--mesh-*`` flags
federate this server's exchange with its peers, by static routes or
through the self-assembling mesh (docs/TELEPHONY.md).
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..obs import StatsLogger
from ..protocol.types import DEFAULT_PORT
from ..trunk import parse_route
from .config import from_args
from .core import AudioServer


def parse_trunk_listen(text: str) -> tuple[str, int]:
    """Parse a ``[HOST:]PORT`` trunk listen address."""
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(
            "trunk listen address must be [HOST:]PORT: %r" % text)
    return (host or "127.0.0.1", int(port))


def build_parser() -> argparse.ArgumentParser:
    """The daemon's flags; each ``dest`` names the field it sets, and a
    flag left out leaves that field at its default."""
    parser = argparse.ArgumentParser(
        prog="repro-audio-server", argument_default=argparse.SUPPRESS,
        description="The desktop-audio server (USENIX '91 reproduction).")
    parser.add_argument("--host")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--realtime", action="store_true",
                        help="pace audio blocks against the wall clock")
    parser.add_argument("--catalogue", metavar="DIR",
                        help="directory of .au files served as the "
                             "'local' catalogue")
    parser.add_argument("--speakerphone", action="store_true",
                        help="add the hard-wired speakerphone trio")
    parser.add_argument("--rate", type=int, dest="sample_rate", metavar="HZ",
                        help="device-layer sample rate (default 8000)")
    parser.add_argument("--block", type=int, dest="block_frames",
                        metavar="FRAMES",
                        help="block size in frames (default 160 = 20 ms)")
    parser.add_argument("--stats-interval", type=float, metavar="SECONDS",
                        help="dump a stats snapshot to stderr every "
                             "SECONDS (also dumped on SIGUSR1 and at "
                             "shutdown)")
    parser.add_argument("--outbound-bound", type=int, metavar="MESSAGES",
                        help="per-client outbound queue bound; oldest "
                             "events are shed past it (default 1024)")
    parser.add_argument("--stall-deadline", type=float, metavar="SECONDS",
                        help="evict a client whose socket leaves a write "
                             "unfinished this long (default 5.0)")
    parser.add_argument("--trunk-listen", type=parse_trunk_listen,
                        metavar="[HOST:]PORT",
                        help="accept inter-server telephony trunks on "
                             "this address (default host 127.0.0.1)")
    parser.add_argument("--trunk-route", action="append",
                        type=parse_route, metavar="PREFIX=HOST:PORT",
                        dest="trunk_routes",
                        help="home numbers starting with PREFIX at the "
                             "peer server's trunk listener (repeatable)")
    parser.add_argument("--trunk-name",
                        help="name announced in the trunk handshake; "
                             "must differ from every peer's, static or "
                             "mesh (default HOSTNAME:PID:N)")
    parser.add_argument("--mesh-registry", type=parse_trunk_listen,
                        metavar="[HOST:]PORT",
                        help="serve the mesh discovery registry on this "
                             "address (and join the mesh through it)")
    parser.add_argument("--mesh-join", type=parse_trunk_listen,
                        metavar="HOST:PORT",
                        help="join the mesh via a registry served by "
                             "another node")
    parser.add_argument("--mesh-prefix", action="append",
                        metavar="PREFIX", dest="mesh_prefixes",
                        help="number prefix this exchange originates, "
                             "advertised fleet-wide (repeatable)")
    parser.add_argument("--mesh-neighbor", action="append",
                        metavar="NAME", dest="mesh_neighbors",
                        help="only initiate trunk links to these peers "
                             "(repeatable; default: link to every "
                             "discovered peer)")
    return parser


def main(argv: list[str] | None = None) -> int:
    hardware, settings = from_args(build_parser().parse_args(argv))
    server = AudioServer(hardware, settings=settings)
    server.start()
    print("audio server listening on %s:%d" % (server.host, server.port))
    if server.trunk is not None and server.trunk.port is not None:
        print("trunk listening on %s:%d"
              % (server.trunk.host, server.trunk.port))
    if server.trunk is not None and server.trunk.mesh_enabled:
        registry = server.trunk._registry
        if registry is not None:
            print("mesh registry serving on %s:%d"
                  % (registry.host, registry.port))
        print("mesh routing enabled (node %r)" % server.trunk.name)
    stats = StatsLogger(server, interval=settings.stats_interval)
    stats.start()
    stop = threading.Event()

    def handle_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    if hasattr(signal, "SIGUSR1"):
        signal.signal(signal.SIGUSR1, lambda _signum, _frame: stats.dump())
    try:
        stop.wait()
    finally:
        stats.stop()
        stats.dump()
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
