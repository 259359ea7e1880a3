"""Command-line entry point: run an audio server.

Usage::

    repro-audio-server [--port N] [--realtime] [--catalogue DIR]
                       [--speakerphone] [--rate HZ] [--block FRAMES]
                       [--stats-interval SECONDS]
                       [--outbound-bound MESSAGES]
                       [--stall-deadline SECONDS]
                       [--trunk-listen [HOST:]PORT]
                       [--trunk-route PREFIX=HOST:PORT]...
                       [--trunk-name NAME]
                       [--mesh-registry [HOST:]PORT]
                       [--mesh-join HOST:PORT]
                       [--mesh-prefix PREFIX]... [--mesh-neighbor NAME]...

SIGUSR1 dumps a stats snapshot to stderr at any time; one more snapshot
is dumped at shutdown.

Trunking (docs/TELEPHONY.md): ``--trunk-listen`` accepts trunk
connections from peer servers; each ``--trunk-route`` homes a number
prefix at a peer, so local clients can dial numbers that live on other
servers' exchanges.

Mesh routing (docs/TELEPHONY.md, "Mesh routing"): ``--mesh-registry``
serves the fleet's discovery registry from this node; ``--mesh-join``
points at a registry served elsewhere.  Either one joins the mesh:
peers are discovered and linked automatically, each ``--mesh-prefix``
is advertised fleet-wide as homed here, and calls to prefixes owned
further away are tandem-switched through intermediate nodes.  Static
``--trunk-route`` entries stay as overrides.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..hardware.config import HardwareConfig
from ..obs import StatsLogger
from ..protocol.types import DEFAULT_PORT
from ..trunk import parse_route
from .core import AudioServer


def parse_trunk_listen(text: str) -> tuple[str, int]:
    """Parse a ``[HOST:]PORT`` trunk listen address."""
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise ValueError(
            "trunk listen address must be [HOST:]PORT: %r" % text)
    return (host or "127.0.0.1", int(port))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-audio-server",
        description="The desktop-audio server (USENIX '91 reproduction).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--realtime", action="store_true",
                        help="pace audio blocks against the wall clock")
    parser.add_argument("--catalogue", default=None, metavar="DIR",
                        help="directory of .au files served as the "
                             "'local' catalogue")
    parser.add_argument("--speakerphone", action="store_true",
                        help="add the hard-wired speakerphone trio")
    parser.add_argument("--rate", type=int, default=8000,
                        help="device-layer sample rate (default 8000)")
    parser.add_argument("--block", type=int, default=160,
                        help="block size in frames (default 160 = 20 ms)")
    parser.add_argument("--stats-interval", type=float, default=None,
                        metavar="SECONDS",
                        help="dump a stats snapshot to stderr every "
                             "SECONDS (also dumped on SIGUSR1 and at "
                             "shutdown)")
    parser.add_argument("--outbound-bound", type=int, default=1024,
                        metavar="MESSAGES",
                        help="per-client outbound queue bound; oldest "
                             "events are shed past it (default 1024)")
    parser.add_argument("--stall-deadline", type=float, default=5.0,
                        metavar="SECONDS",
                        help="evict a client whose socket leaves a write "
                             "unfinished this long (default 5.0)")
    parser.add_argument("--trunk-listen", default=None,
                        type=parse_trunk_listen,
                        metavar="[HOST:]PORT",
                        help="accept inter-server telephony trunks on "
                             "this address (default host 127.0.0.1)")
    parser.add_argument("--trunk-route", action="append", default=[],
                        type=parse_route, metavar="PREFIX=HOST:PORT",
                        dest="trunk_routes",
                        help="home numbers starting with PREFIX at the "
                             "peer server's trunk listener (repeatable)")
    parser.add_argument("--trunk-name", default="",
                        help="name announced in the trunk handshake; "
                             "must differ from every peer's, static or "
                             "mesh (default HOSTNAME:PID:N)")
    parser.add_argument("--mesh-registry", default=None,
                        type=parse_trunk_listen,
                        metavar="[HOST:]PORT",
                        help="serve the mesh discovery registry on this "
                             "address (and join the mesh through it)")
    parser.add_argument("--mesh-join", default=None,
                        type=parse_trunk_listen, metavar="HOST:PORT",
                        help="join the mesh via a registry served by "
                             "another node")
    parser.add_argument("--mesh-prefix", action="append", default=[],
                        metavar="PREFIX", dest="mesh_prefixes",
                        help="number prefix this exchange originates, "
                             "advertised fleet-wide (repeatable)")
    parser.add_argument("--mesh-neighbor", action="append", default=[],
                        metavar="NAME", dest="mesh_neighbors",
                        help="only initiate trunk links to these peers "
                             "(repeatable; default: link to every "
                             "discovered peer)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Nothing in the daemon reads its output capture: keep none.
    config = HardwareConfig(sample_rate=args.rate, block_frames=args.block,
                            speakerphone=args.speakerphone,
                            capture_output=False)
    server = AudioServer(config, host=args.host, port=args.port,
                         realtime=args.realtime,
                         catalogue_dir=args.catalogue,
                         outbound_bound=args.outbound_bound,
                         stall_deadline=args.stall_deadline,
                         trunk_listen=args.trunk_listen,
                         trunk_routes=args.trunk_routes,
                         trunk_name=args.trunk_name,
                         mesh_registry=args.mesh_registry,
                         mesh_join=args.mesh_join,
                         mesh_prefixes=args.mesh_prefixes,
                         mesh_neighbors=args.mesh_neighbors)
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
    stats = StatsLogger(server, interval=args.stats_interval)
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
