"""Topology abstraction for broadcast scoping.

The simulation engines historically expanded ``BROADCAST`` to *every*
node — a flat, fully-connected topology.  Sharded protocols need
narrower scopes: an intra-group BUNDLE should only reach the sender's
group, and the representatives' inter-group round should only reach the
other representatives.  ``Topology`` is the seam: the engines ask
``broadcast_targets(sender, message)`` instead of assuming ``range(n)``,
and the topology resolves the scope from the message's protocol
namespace.

Scoping is namespace based so the protocol layer stays oblivious to
node ids: a message tagged ``group:<g>/...`` (see
:class:`repro.protocols.base.Namespace`) reaches group ``g``'s
members, a message tagged ``reps/...`` reaches the representative set,
and anything else falls back to the flat all-nodes scope.

Group formation is a seeded consistent hash: each node id is placed on
a ring via a keyed blake2b digest (never Python's ``hash()``, which is
randomised per process), ids are sorted by ring position, and dealt
round-robin into ``ceil(n / group_size)`` groups.  This is deterministic
under a fixed seed, balanced within one node, and independent of the
order node ids are presented in.  The representative of a group is its
member with the smallest ring position, which is likewise stable under
permutation of the input ids.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.protocols.base import byzantine_bound, peel

#: Namespace name prefix (see :class:`Namespace`) scoping a message to one group.
GROUP_NAMESPACE_PREFIX = "group:"

#: Namespace scoping a message to the representative set.
REP_NAMESPACE = "reps"


def ring_position(seed: int, node_id: int) -> int:
    """Deterministic position of ``node_id`` on the seeded hash ring."""
    digest = hashlib.blake2b(
        f"{seed}:{node_id}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def form_groups(
    node_ids: Iterable[int], num_groups: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """Deal ``node_ids`` into ``num_groups`` balanced groups.

    Nodes are sorted by ``(ring_position, id)`` and dealt round-robin, so
    group sizes differ by at most one and the result depends only on the
    *set* of ids and the seed, not their presentation order.  Members
    within each group are returned sorted ascending by node id.
    """
    ids = sorted(set(node_ids))
    if not ids:
        raise ConfigurationError("cannot form groups over an empty id set")
    if not 1 <= num_groups <= len(ids):
        raise ConfigurationError(
            f"num_groups must be in [1, {len(ids)}], got {num_groups}"
        )
    ordered = sorted(ids, key=lambda node: (ring_position(seed, node), node))
    groups: List[List[int]] = [[] for _ in range(num_groups)]
    for index, node in enumerate(ordered):
        groups[index % num_groups].append(node)
    return [tuple(sorted(group)) for group in groups]


def elect_representative(members: Sequence[int], seed: int = 0) -> int:
    """The member with the smallest ``(ring_position, id)`` pair."""
    if not members:
        raise ConfigurationError("cannot elect a representative of an empty group")
    return min(members, key=lambda node: (ring_position(seed, node), node))


class Topology:
    """Base topology: maps a broadcast to its target node ids.

    ``broadcast_targets`` must return the same sequence, in the same
    order, on every engine — the deterministic engines rely on iterating
    identical target orders to keep their random streams in lockstep.
    """

    #: Fast-path flag: flat topologies let the engines keep their
    #: specialised all-nodes broadcast accounting.
    is_flat = True

    def __init__(self, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes

    def broadcast_targets(self, sender: int, message: Message) -> Sequence[int]:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        return {"kind": "flat", "num_nodes": self.num_nodes}


class FlatTopology(Topology):
    """Every broadcast reaches every node (the historical behaviour)."""

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        self._all = range(num_nodes)

    def broadcast_targets(self, sender: int, message: Message) -> Sequence[int]:
        return self._all


class ShardedTopology(Topology):
    """Seeded consistent-hash groups with per-group representatives.

    Broadcast scopes resolve from the message's outermost namespace (the
    ``head`` :func:`repro.protocols.base.peel` memoises on the message):

    - ``group:<g>`` -> members of group ``g``
    - ``reps``      -> the representative set
    - anything else -> all nodes (flat fallback)

    The scope table is built once from the groups, so no string a sender
    chooses can grow it.
    """

    is_flat = False

    def __init__(
        self,
        num_nodes: int,
        group_size: int = 0,
        num_groups: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(num_nodes)
        if bool(group_size) == bool(num_groups):
            raise ConfigurationError(
                "specify exactly one of group_size or num_groups"
            )
        if group_size:
            if group_size <= 0:
                raise ConfigurationError(
                    f"group_size must be positive, got {group_size}"
                )
            num_groups = -(-num_nodes // group_size)  # ceil(n / m)
        self.seed = seed
        self.group_size = group_size
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            form_groups(range(num_nodes), num_groups, seed)
        )
        self.num_groups = len(self.groups)
        self.group_of: Dict[int, int] = {}
        for index, group in enumerate(self.groups):
            for node in group:
                self.group_of[node] = index
        self.representatives: Tuple[int, ...] = tuple(
            elect_representative(group, seed) for group in self.groups
        )
        self.group_of_representative: Dict[int, int] = {
            rep: index for index, rep in enumerate(self.representatives)
        }
        self._all = range(num_nodes)
        self._scopes: Dict[Optional[str], Sequence[int]] = {
            f"{GROUP_NAMESPACE_PREFIX}{index}": group
            for index, group in enumerate(self.groups)
        }
        self._scopes[REP_NAMESPACE] = self.representatives

    # ------------------------------------------------------------------
    # Broadcast scoping

    def broadcast_targets(self, sender: int, message: Message) -> Sequence[int]:
        return self._scopes.get(peel(message)[0], self._all)

    # ------------------------------------------------------------------
    # Byzantine budgets

    def group_budget(self, group: int) -> int:
        """Per-group Byzantine budget: floor((m - 1) / 3) for group size m."""
        return byzantine_bound(len(self.groups[group]))

    def safe_corrupted_ids(self, count: int) -> Tuple[int, ...]:
        """Pick ``count`` non-representative ids within every group budget.

        Spreads corruptions round-robin across groups so no group exceeds
        floor((m - 1) / 3) and no representative is ever corrupted —
        suitable for fault cells that should still terminate.
        """
        if count < 0:
            raise ConfigurationError(f"count must be non-negative, got {count}")
        reps = set(self.representatives)
        pools = [
            [node for node in group if node not in reps][: self.group_budget(index)]
            for index, group in enumerate(self.groups)
        ]
        chosen: List[int] = []
        depth = 0
        while len(chosen) < count:
            progressed = False
            for pool in pools:
                if depth < len(pool):
                    chosen.append(pool[depth])
                    progressed = True
                    if len(chosen) == count:
                        break
            if not progressed:
                raise ConfigurationError(
                    f"cannot corrupt {count} nodes within per-group budgets "
                    f"(capacity {sum(len(pool) for pool in pools)})"
                )
            depth += 1
        return tuple(sorted(chosen))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "sharded",
            "num_nodes": self.num_nodes,
            "num_groups": self.num_groups,
            "seed": self.seed,
            "group_sizes": [len(group) for group in self.groups],
            "representatives": list(self.representatives),
        }
