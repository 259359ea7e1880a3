"""Inter-server telephony trunks: federated exchanges over TCP.

A :class:`TrunkGateway` attached to a server's
:class:`~repro.telephony.exchange.TelephoneExchange` makes numbers homed
on *other* servers dialable here: a static prefix route table maps
numbers to peer gateways, signaling (SETUP2/ALERTING/ANSWER/RELEASE/DTMF)
and sequence-numbered mu-law bearer audio travel a compact
length-prefixed wire format, and remote calls surface locally as
Line-compatible endpoints so every exchange semantic works unchanged.

The mesh plane removes the hand-wiring: gateways find each
other through a :class:`MeshRegistry`, learn the fleet's numbering plan
from ROUTE_ADVERT frames into a :class:`RouteTable`, and tandem-switch
calls across intermediate nodes.  See docs/TELEPHONY.md for the model
and failure semantics.
"""

from .discovery import (
    MeshDiscovery,
    MeshRegistry,
    PeerRecord,
    RegistryProtocolError,
)
from .gateway import (
    DialTarget,
    InboundLeg,
    RemoteLine,
    TrunkGateway,
    parse_route,
)
from .jitter import JitterBuffer
from .link import TrunkLink
from .routing import DEFAULT_MAX_HOPS, RouteTable
from .wire import (
    TRUNK_MAJOR,
    UNREACHABLE_HOPS,
    FrameStream,
    FrameType,
    Handshake,
    TrunkFrame,
    TrunkProtocolError,
    decode_frame,
    read_frame,
)

__all__ = [
    "DEFAULT_MAX_HOPS", "DialTarget", "FrameStream", "FrameType",
    "Handshake", "InboundLeg", "JitterBuffer", "MeshDiscovery",
    "MeshRegistry", "PeerRecord", "RegistryProtocolError", "RemoteLine",
    "RouteTable", "TRUNK_MAJOR", "TrunkFrame", "TrunkGateway",
    "TrunkLink", "TrunkProtocolError", "UNREACHABLE_HOPS",
    "decode_frame", "parse_route", "read_frame",
]
