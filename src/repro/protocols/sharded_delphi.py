"""Two-level sharded Delphi.

Flat Delphi broadcasts every BUNDLE to all ``n`` nodes — O(n^2) messages
per round, which caps practical cell sizes around the paper's n=160.
The sharded variant splits the nodes into consistent-hash groups of
``m`` nodes (:class:`repro.protocols.topology.ShardedTopology`) and runs
the protocol twice:

1. **Intra-group round** — each group runs an independent Delphi
   instance over its members' inputs, namespaced ``group:<g>/`` so the
   topology scopes its broadcasts to the group.
2. **Inter-group round** — each group's representative carries the
   group's decided value into a second Delphi instance among the
   ``ceil(n/m)`` representatives, namespaced ``reps/``.
3. **Fan-down** — when a representative decides the inter-group round it
   broadcasts a group-scoped FINAL carrying the final value; members
   verify the sender is their representative and adopt it.

Epsilon composition: the inter-group round leaves honest representative
outputs within ``epsilon`` of each other, and every honest group member
adopts its representative's value verbatim, so the end-to-end honest
spread is at most ``epsilon``.  Validity relaxes by one extra level of
composition (the representative round runs over group outputs, which
already sit within the per-group relaxed hull); the hierarchical monitor
in :mod:`repro.faults.monitors` checks both.

Representative-round messages can arrive before a representative's own
group has decided (another group may finish first).  The inner
:class:`DelphiNode` drops pre-start messages, so the wrapper buffers
them and replays them in arrival order once the representative engine
starts — identically on every engine, keeping fingerprints byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.analysis.parameters import DelphiParameters, derive_parameters
from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.protocols.base import (
    BROADCAST,
    Namespace,
    Outbound,
    ProtocolNode,
    byzantine_bound,
    peel,
)
from repro.protocols.topology import (
    GROUP_NAMESPACE_PREFIX,
    REP_NAMESPACE,
    ShardedTopology,
)

#: Protocol tag carried by sharded-delphi control messages.
PROTOCOL = "sharded-delphi"

#: Fan-down message type: the representative's final value for its group.
FINAL = "FINAL"

#: Default group size when a spec does not override ``extras['group_size']``.
DEFAULT_GROUP_SIZE = 16


@dataclass(frozen=True)
class ShardedDelphiParameters:
    """Derived parameters for one sharded run.

    ``rep_params`` is ``None`` when the topology has a single group (the
    inter-group round degenerates to the group's own decision).
    """

    topology: ShardedTopology
    group_params: Tuple[DelphiParameters, ...]
    rep_params: Optional[DelphiParameters]
    epsilon: float
    delta_max: float

    @property
    def n(self) -> int:
        return self.topology.num_nodes


def derive_sharded_parameters(
    n: int,
    epsilon: float,
    delta_max: float,
    rho0: Optional[float] = None,
    max_rounds: Optional[int] = None,
    group_size: int = DEFAULT_GROUP_SIZE,
    num_groups: int = 0,
    seed: int = 0,
) -> ShardedDelphiParameters:
    """Derive per-group and representative-round Delphi parameters.

    The representative round's ``delta_max`` is doubled: group outputs
    stay within the global honest-input hull plus the per-group
    relaxation, so twice the flat bound safely covers the spread of the
    representatives' inputs.
    """
    topology = ShardedTopology(
        n,
        group_size=0 if num_groups else group_size,
        num_groups=num_groups,
        seed=seed,
    )
    group_params = tuple(
        derive_parameters(
            n=len(group),
            epsilon=epsilon,
            rho0=rho0,
            delta_max=delta_max,
            max_rounds=max_rounds,
        )
        for group in topology.groups
    )
    rep_params = None
    if topology.num_groups > 1:
        rep_params = derive_parameters(
            n=topology.num_groups,
            epsilon=epsilon,
            rho0=rho0,
            delta_max=2.0 * delta_max,
            max_rounds=max_rounds,
        )
    return ShardedDelphiParameters(
        topology=topology,
        group_params=group_params,
        rep_params=rep_params,
        epsilon=epsilon,
        delta_max=delta_max,
    )


def sharded_parameters_of(spec: Any) -> ShardedDelphiParameters:
    """Derive :class:`ShardedDelphiParameters` from a scenario spec."""
    extras = spec.extras or {}
    return derive_sharded_parameters(
        n=spec.n,
        epsilon=spec.epsilon,
        delta_max=spec.delta_max,
        rho0=spec.rho0,
        max_rounds=spec.max_rounds,
        group_size=int(extras.get("group_size", DEFAULT_GROUP_SIZE)),
        num_groups=int(extras.get("num_groups", 0)),
        seed=int(extras.get("topology_seed", spec.seed)),
    )


def sharded_topology_of(spec: Any) -> ShardedTopology:
    """The topology a scenario spec implies: the run's own groups, so the
    monitors' groups cannot drift from the run's."""
    return sharded_parameters_of(spec).topology


class ShardedDelphiNode(ProtocolNode):
    """One node of the two-level protocol.

    Wraps a group-local :class:`DelphiNode` (local ids are the node's
    index within its sorted group) and, on representatives, a second
    inter-group :class:`DelphiNode` whose ids are group indices.
    """

    def __init__(
        self, node_id: int, params: ShardedDelphiParameters, value: float
    ) -> None:
        # Imported here, not at module level: ``repro.core`` imports the
        # ``repro.protocols`` package (for BinAA), so a top-level import
        # would be circular.
        from repro.core.delphi import DelphiNode

        self._delphi_node_cls = DelphiNode
        topology = params.topology
        n = topology.num_nodes
        super().__init__(node_id, n, byzantine_bound(n))
        self.params = params
        self.topology = topology
        self.group = topology.group_of[node_id]
        members = topology.groups[self.group]
        self._local_of = {member: index for index, member in enumerate(members)}
        self._group_ns = Namespace(f"{GROUP_NAMESPACE_PREFIX}{self.group}")
        self._rep_ns = Namespace(REP_NAMESPACE)
        self._my_representative = topology.representatives[self.group]
        self.is_representative = self._my_representative == node_id
        self._group_node = DelphiNode(
            node_id=self._local_of[node_id],  # local index within the group
            params=params.group_params[self.group],
            value=float(value),
        )
        self._rep_node: Optional[Any] = None
        self._rep_buffer: List[Tuple[int, Message]] = []
        self.group_value: Optional[float] = None

    # ------------------------------------------------------------------
    # Protocol hooks

    def on_start(self) -> List[Outbound]:
        outbound = self._group_ns.wrap_all(self._group_node.on_start())
        self._after_group_step(outbound)
        return outbound

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        head, inner = peel(message)
        if head == self._group_ns.name:
            return self._on_group_message(sender, inner)
        if head == REP_NAMESPACE:
            return self._on_rep_message(sender, inner)
        return []

    # ------------------------------------------------------------------
    # Intra-group round and fan-down

    def _on_group_message(self, sender: int, inner: Message) -> List[Outbound]:
        local_sender = self._local_of.get(sender)
        if local_sender is None:
            return []  # cross-group or spoofed namespace: drop
        if inner.protocol == PROTOCOL and inner.mtype == FINAL:
            # Fan-down: only our elected representative may conclude.
            if sender == self._my_representative:
                self._decide(float(inner.payload))
            return []
        if self._has_output and not self.is_representative:
            return []
        outbound = self._group_ns.wrap_all(
            self._group_node.on_message(local_sender, inner)
        )
        self._after_group_step(outbound)
        return outbound

    def _after_group_step(self, outbound: List[Outbound]) -> None:
        if self.group_value is not None or not self._group_node.has_output:
            return
        self.group_value = float(self._group_node.output_value)
        if not self.is_representative:
            return
        if self.params.rep_params is None:
            # Single group: the inter-group round degenerates.
            self._conclude(self.group_value, outbound)
            return
        rep = self._delphi_node_cls(
            node_id=self.group,
            params=self.params.rep_params,
            value=self.group_value,
        )
        self._rep_node = rep
        outbound += self._rep_ns.wrap_all(rep.on_start())
        buffered, self._rep_buffer = self._rep_buffer, []
        for sender_group, inner in buffered:
            outbound += self._rep_ns.wrap_all(rep.on_message(sender_group, inner))
        self._after_rep_step(outbound)

    # ------------------------------------------------------------------
    # Inter-group round among representatives

    def _on_rep_message(self, sender: int, inner: Message) -> List[Outbound]:
        if not self.is_representative:
            return []  # scoped to reps by the topology; drop stray copies
        sender_group = self.topology.group_of_representative.get(sender)
        if sender_group is None:
            return []
        if self._rep_node is None:
            self._rep_buffer.append((sender_group, inner))
            return []
        if self._has_output:
            return []
        outbound = self._rep_ns.wrap_all(self._rep_node.on_message(sender_group, inner))
        self._after_rep_step(outbound)
        return outbound

    def _after_rep_step(self, outbound: List[Outbound]) -> None:
        if self._has_output or self._rep_node is None:
            return
        if not self._rep_node.has_output:
            return
        self._conclude(float(self._rep_node.output_value), outbound)

    def _conclude(self, value: float, outbound: List[Outbound]) -> None:
        self._decide(value)
        final = self._group_ns.wrap(Message(PROTOCOL, FINAL, None, value))
        outbound.append((BROADCAST, final))
