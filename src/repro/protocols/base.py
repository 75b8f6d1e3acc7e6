"""The protocol-node abstraction shared by every protocol in this package.

A :class:`ProtocolNode` is a pure state machine.  It never touches the
network directly: its hooks return lists of :class:`Outbound` instructions
(``(destination, message)`` pairs, where the destination may be the special
constant :data:`BROADCAST`), and the runtime decides when each message is
delivered.  This inversion of control is what allows the same protocol code
to run under the deterministic simulator, the asyncio runtime and unit tests
that poke individual transitions.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.message import Message

#: Destination constant meaning "send to every node, including myself".
BROADCAST = -1

#: One outbound instruction: destination node id (or BROADCAST) and message.
Outbound = Tuple[int, Message]


def quorum_threshold(n: int, t: int) -> int:
    """The ``n - t`` quorum size used throughout asynchronous BFT protocols."""
    return n - t


def byzantine_bound(n: int) -> int:
    """The maximum number of Byzantine faults tolerated for ``n`` nodes
    (``t < n/3``)."""
    return (n - 1) // 3


def validate_resilience(n: int, t: int, factor: int = 3) -> None:
    """Check the standard ``n > factor * t`` resilience condition.

    Raises
    ------
    ConfigurationError
        If the condition is violated or parameters are nonsensical.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    if t < 0:
        raise ConfigurationError(f"t must be non-negative, got {t}")
    if n <= factor * t:
        raise ConfigurationError(
            f"resilience violated: need n > {factor}*t, got n={n}, t={t}"
        )


class ProtocolNode:
    """Base class for message-driven protocol state machines.

    Parameters
    ----------
    node_id:
        This node's identifier in ``{0, ..., n-1}``.
    n:
        Total number of nodes in the system.
    t:
        Maximum number of Byzantine nodes tolerated.
    """

    #: Resilience factor checked at construction (``n > factor * t``).
    resilience_factor = 3

    def __init__(self, node_id: int, n: int, t: int) -> None:
        validate_resilience(n, t, self.resilience_factor)
        if not 0 <= node_id < n:
            raise ConfigurationError(
                f"node_id must be in [0, {n}), got {node_id}"
            )
        self.node_id = node_id
        self.n = n
        self.t = t
        self._output: Any = None
        self._has_output = False

    # ------------------------------------------------------------------
    # Hooks implemented by concrete protocols
    # ------------------------------------------------------------------
    def on_start(self) -> List[Outbound]:
        """Called once when the protocol starts; returns initial messages."""
        return []

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        """Called for each delivered message; returns resulting messages."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Output handling
    # ------------------------------------------------------------------
    @property
    def output(self) -> Any:
        """The node's decided output, or ``None`` if it has not decided."""
        return self._output

    @property
    def has_output(self) -> bool:
        """Whether the node has produced its final output."""
        return self._has_output

    def _decide(self, value: Any) -> None:
        """Record the node's final output (idempotent: first decision wins)."""
        if not self._has_output:
            self._output = value
            self._has_output = True

    # ------------------------------------------------------------------
    # Convenience helpers for building outbound message lists
    # ------------------------------------------------------------------
    def broadcast(self, message: Message) -> Outbound:
        """Outbound instruction that sends ``message`` to every node."""
        return (BROADCAST, message)

    def send(self, destination: int, message: Message) -> Outbound:
        """Outbound instruction that sends ``message`` to one node."""
        if not 0 <= destination < self.n:
            raise ConfigurationError(
                f"destination must be in [0, {self.n}), got {destination}"
            )
        return (destination, message)

    @property
    def quorum(self) -> int:
        """The ``n - t`` quorum size for this configuration."""
        return quorum_threshold(self.n, self.t)


def peel(message: Message) -> Tuple[Optional[str], Optional[Message]]:
    """Split ``message`` at its outermost namespace: ``(head, inner)``.

    ``head`` is the protocol up to the first ``/`` and ``inner`` the same
    message without it; ``(None, None)`` if the protocol has no ``/``.  The
    split is memoised on the message, so every receiver of a broadcast (and
    the topology that scoped it) gets the *same* inner object — and with it
    whatever the inner protocol memoises there, such as Delphi's decoded
    bundle.
    """
    peeled = getattr(message, "_peel", None)
    if peeled is None:
        head, slash, rest = message.protocol.partition("/")
        peeled = (None, None)
        if slash:
            inner = Message(rest, message.mtype, message.round, message.payload)
            peeled = (head, inner)
        object.__setattr__(message, "_peel", peeled)
    return peeled


class Namespace:
    """Re-tags a sub-protocol's messages as ``<name>/<protocol>``.

    A sharded node wraps what its group-local Delphi emits in
    ``group:<g>`` so the topology scopes the broadcast and the receiver
    routes it back to its own group instance; :func:`peel` undoes it.
    """

    __slots__ = ("name", "_prefix")

    def __init__(self, name: str) -> None:
        if not name or "/" in name:
            raise ConfigurationError(
                f"a namespace name must be non-empty and contain no '/', got {name!r}"
            )
        self.name = name
        self._prefix = name + "/"

    def wrap(self, message: Message) -> Message:
        """``message`` inside this namespace, already sized and peeled."""
        wrapped = Message(
            self._prefix + message.protocol,
            message.mtype,
            message.round,
            message.payload,
        )
        set_slot = object.__setattr__
        set_slot(wrapped, "_size", message.size_bits() + 8 * len(self._prefix))
        set_slot(wrapped, "_peel", (self.name, message))
        return wrapped

    def wrap_all(self, outbound: List[Outbound]) -> List[Outbound]:
        """``outbound`` with every message wrapped; an empty list (most
        deliveries emit nothing) is handed back as it is."""
        if not outbound:
            return outbound
        wrap = self.wrap
        return [(destination, wrap(message)) for destination, message in outbound]

    def unwrap(self, message: Message) -> Optional[Message]:
        """The inner message, or ``None`` if the outermost namespace is not
        this one."""
        head, inner = peel(message)
        return inner if head == self.name else None
