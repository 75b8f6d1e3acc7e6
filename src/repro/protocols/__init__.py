"""Agreement protocol building blocks, baseline protocols, the protocol
registry and the topology abstraction."""

from repro.protocols.base import BROADCAST, Outbound, ProtocolNode
from repro.protocols.bv_broadcast import BVBroadcastNode
from repro.protocols.binaa import BinAANode
from repro.protocols.rbc import ReliableBroadcastNode
from repro.protocols.binary_ba import BinaryBANode
from repro.protocols.registry import (
    EPSILON_AGREEMENT,
    EXACT_AGREEMENT,
    HIERARCHICAL_AGREEMENT,
    PROTOCOLS,
    ProtocolRow,
    Roster,
    get_protocol,
)
from repro.protocols.sharded_delphi import (
    ShardedDelphiNode,
    ShardedDelphiParameters,
    derive_sharded_parameters,
)
from repro.protocols.topology import FlatTopology, ShardedTopology, Topology

__all__ = [
    "BROADCAST",
    "BVBroadcastNode",
    "BinAANode",
    "BinaryBANode",
    "EPSILON_AGREEMENT",
    "EXACT_AGREEMENT",
    "FlatTopology",
    "HIERARCHICAL_AGREEMENT",
    "Outbound",
    "PROTOCOLS",
    "ProtocolNode",
    "ProtocolRow",
    "ReliableBroadcastNode",
    "Roster",
    "ShardedDelphiNode",
    "ShardedDelphiParameters",
    "ShardedTopology",
    "Topology",
    "derive_sharded_parameters",
    "get_protocol",
]
