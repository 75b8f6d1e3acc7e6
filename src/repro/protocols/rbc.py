"""Bracha reliable broadcast (RBC).

RBC is the substrate the paper identifies as the source of the ``O(n^3)``
communication of prior approximate-agreement protocols: restricting
equivocation at ``n = 3t + 1`` resilience requires every value to be
reliably broadcast, and RBC has an ``Omega(n^2)`` lower bound per broadcast.
Both baseline families (Abraham et al.'s AAA and the ACS protocols) use it,
so it is implemented here as a reusable engine.

Properties (for a designated broadcaster):

* **Validity** — if the broadcaster is honest, every honest node delivers its
  value.
* **Agreement** — if any honest node delivers ``v``, every honest node
  eventually delivers ``v``.
* **Integrity** — honest nodes deliver at most one value per broadcast.

Message pattern: ``SEND`` (broadcaster) → ``ECHO`` (all) → ``READY`` (all,
amplified at ``t + 1``), delivery at ``2t + 1`` ``READY``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode


def rbc_safety_violation(
    delivered: Mapping[int, Any], broadcaster_value: Any = None
) -> Optional[str]:
    """RBC safety predicate used by the runtime invariant monitors.

    ``delivered`` maps honest node ids to the value each has delivered so
    far.  Returns a human-readable description of the violated property, or
    ``None`` when agreement (all delivered values equal) and — when the
    broadcaster is honest and its value is given — validity both hold.
    """
    if not delivered:
        return None
    frozen = {node: _freeze(value) for node, value in delivered.items()}
    distinct = set(frozen.values())
    if len(distinct) > 1:
        pairs = sorted(delivered.items())
        return (
            "RBC agreement violated: honest nodes delivered different values "
            + ", ".join(f"node {node} -> {value!r}" for node, value in pairs)
        )
    if broadcaster_value is not None:
        expected = _freeze(broadcaster_value)
        if distinct != {expected}:
            return (
                "RBC validity violated: honest broadcaster sent "
                f"{broadcaster_value!r} but honest nodes delivered "
                f"{next(iter(delivered.values()))!r}"
            )
    return None

#: Sub-messages exchanged by the engine: (message type, value).
RbcSubMessage = Tuple[str, Any]

SEND = "SEND"
ECHO = "ECHO"
READY = "READY"


def _freeze(value: Any):
    """Canonical hashable representation of a broadcast value (lists and
    dicts arrive from the wire as mutable containers)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, set):
        return tuple(sorted(_freeze(item) for item in value))
    return value


class RBCEngine:
    """Runtime-agnostic Bracha RBC state machine for one broadcast instance.

    The embedding protocol broadcasts every returned sub-message to all nodes
    (including the local node) and feeds received sub-messages to
    :meth:`handle` together with the sender id.
    """

    def __init__(self, n: int, t: int, broadcaster: int, node_id: int) -> None:
        if n <= 3 * t:
            raise ConfigurationError(f"RBC requires n > 3t, got n={n}, t={t}")
        self.n = n
        self.t = t
        self.broadcaster = broadcaster
        self.node_id = node_id
        self.delivered: Optional[Any] = None
        self._echoed = False
        self._readied = False
        self._echoes: Dict[Any, Set[int]] = {}
        self._readies: Dict[Any, Set[int]] = {}
        self._originals: Dict[Any, Any] = {}

    @property
    def has_output(self) -> bool:
        """Whether this instance has delivered the broadcaster's value."""
        return self.delivered is not None

    def start(self, value: Any = None) -> List[RbcSubMessage]:
        """Start the instance; only the broadcaster passes a value."""
        if self.node_id == self.broadcaster:
            if value is None:
                raise ConfigurationError("broadcaster must provide a value")
            return [(SEND, value)]
        return []

    def handle(self, sender: int, sub: RbcSubMessage) -> List[RbcSubMessage]:
        """Process one delivered sub-message."""
        if self.delivered is not None and self._echoed:
            return []  # nothing left to send, and the output is fixed
        mtype, value = sub
        key = _freeze(value)
        self._originals.setdefault(key, value)
        out: List[RbcSubMessage] = []
        if mtype == SEND:
            if sender != self.broadcaster or self._echoed:
                return []
            self._echoed = True
            out.append((ECHO, value))
        elif mtype == ECHO:
            self._echoes.setdefault(key, set()).add(sender)
            if len(self._echoes[key]) >= self.n - self.t and not self._readied:
                self._readied = True
                out.append((READY, value))
        elif mtype == READY:
            self._readies.setdefault(key, set()).add(sender)
            if len(self._readies[key]) >= self.t + 1 and not self._readied:
                self._readied = True
                out.append((READY, value))
            if len(self._readies[key]) >= 2 * self.t + 1 and self.delivered is None:
                self.delivered = self._originals[key]
        return out


class ReliableBroadcastNode(ProtocolNode):
    """Standalone RBC protocol node for a single designated broadcaster."""

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        broadcaster: int,
        value: Any = None,
    ) -> None:
        super().__init__(node_id, n, t)
        self.engine = RBCEngine(n=n, t=t, broadcaster=broadcaster, node_id=node_id)
        self.value = value

    def on_start(self) -> List[Outbound]:
        return self._wrap(self.engine.start(self.value))

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != "rbc":
            return []
        payload = message.payload
        if not isinstance(payload, (list, tuple)) or len(payload) != 2:
            return []
        out = self._wrap(self.engine.handle(sender, (payload[0], payload[1])))
        if self.engine.has_output:
            self._decide(self.engine.delivered)
        return out

    def _wrap(self, subs: List[RbcSubMessage]) -> List[Outbound]:
        return [
            self.broadcast(Message("rbc", sub[0], None, list(sub))) for sub in subs
        ]
