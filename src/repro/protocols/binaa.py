"""BinAA: Binary Approximate Agreement (Algorithm 1 of the paper).

BinAA runs ``r_max = ceil(log2(1/epsilon))`` iterations of weak Binary-Value
broadcast.  In each iteration a node broadcasts an ``ECHO1`` for its current
state value, amplifies any value supported by ``t + 1`` senders, sends a
single ``ECHO2`` once some value reaches ``n - t`` ``ECHO1`` support, and
finishes the iteration when either

* condition (1): two distinct values each have ``n - t`` ``ECHO1`` support —
  the node adopts their midpoint, or
* condition (2): one value has ``n - t`` ``ECHO2`` support — the node adopts
  that value.

With binary inputs the range of honest state values at least halves every
iteration, so after ``r_max`` iterations honest values are within ``epsilon``
and the per-iteration communication is ``O(n^2)`` bits.

The protocol logic lives in :class:`BinAAEngine`, a runtime-agnostic state
machine that Delphi embeds (one engine per checkpoint, with the all-zero
region of checkpoints sharing a single engine — see
:mod:`repro.core.bundling`).  :class:`BinAANode` wraps a single engine as a
standalone :class:`~repro.protocols.base.ProtocolNode` so BinAA can also be
run, tested and benchmarked on its own.

State values are dyadic rationals (0, 1, and repeated midpoints), which are
exactly representable as Python floats for any practical ``r_max``, so
cross-node equality checks on values are exact.

Hot-path design.  :meth:`BinAAEngine.handle` is the single most-called
protocol function (one call per sub-message per engine per delivery), and
its state can only change when the touched value's support count crosses a
threshold — ``t + 1`` (amplification) or ``n - t`` (quorum).  Counts grow
by exactly one per recorded echo, so :meth:`handle` re-evaluates the full
progress conditions only when the new count *equals* a threshold (or the
echo was buffered for a future round, which re-evaluates on round entry);
every other echo provably leaves the engine at its previous fixpoint and
returns immediately.  This turns the per-event collection scans into an
incremental counter check without changing a single emitted sub-message.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.net.message import Message, submessage_payload_bits
from repro.protocols.base import Outbound, ProtocolNode

#: A sub-protocol message: (message type, round, state value).
SubMessage = Tuple[str, int, float]

ECHO1 = "ECHO1"
ECHO2 = "ECHO2"

#: Hard cap on rounds to protect against mis-configuration (2^-64 precision).
MAX_ROUNDS = 64


def rounds_for_epsilon(epsilon: float) -> int:
    """Number of BinAA iterations needed to reach ``epsilon`` agreement."""
    if not 0 < epsilon <= 1:
        raise ConfigurationError(f"epsilon must be in (0, 1], got {epsilon}")
    return max(1, min(MAX_ROUNDS, int(math.ceil(math.log2(1.0 / epsilon)))))


class _RoundState:
    """Per-iteration bookkeeping for one BinAA engine.

    ``echo1``/``echo2`` map a value to the bitmask of senders that echoed it
    (bit ``s`` set = sender ``s``): one int where a set of ids cost 2 KB at
    n = 40.  ``sender`` is the engine-supplied channel id, never payload.
    """

    __slots__ = ("echo1", "echo2", "amplified", "echo2_sent", "completed")

    def __init__(self) -> None:
        self.echo1: Dict[float, int] = {}
        self.echo2: Dict[float, int] = {}
        self.amplified: Set[float] = set()
        self.echo2_sent = False
        self.completed = False

    def copy(self) -> "_RoundState":
        """Independent copy (the tables hold immutable floats and ints)."""
        clone = _RoundState.__new__(_RoundState)
        clone.echo1 = dict(self.echo1)
        clone.echo2 = dict(self.echo2)
        clone.amplified = set(self.amplified)
        clone.echo2_sent = self.echo2_sent
        clone.completed = self.completed
        return clone


class BinAAEngine:
    """Runtime-agnostic BinAA state machine for one checkpoint.

    The engine communicates through :data:`SubMessage` tuples: the embedding
    protocol (or :class:`BinAANode`) is responsible for broadcasting every
    returned sub-message to all ``n`` nodes (including the sender itself) and
    feeding delivered sub-messages back through :meth:`handle`.

    Parameters
    ----------
    n, t:
        System size and fault tolerance (``n > 3t``).
    rounds:
        Number of iterations ``r_max`` to run.
    """

    __slots__ = (
        "n",
        "t",
        "rounds",
        "quorum",
        "amplify_at",
        "value",
        "current_round",
        "output",
        "started",
        "_round_state",
        "_cur_state",
        "bv_outputs",
        "on_complete",
    )

    def __init__(self, n: int, t: int, rounds: int) -> None:
        if n <= 3 * t:
            raise ConfigurationError(f"BinAA requires n > 3t, got n={n}, t={t}")
        if not 1 <= rounds <= MAX_ROUNDS:
            raise ConfigurationError(
                f"rounds must be in [1, {MAX_ROUNDS}], got {rounds}"
            )
        self.n = n
        self.t = t
        self.rounds = rounds
        self.quorum = n - t
        self.amplify_at = t + 1
        self.value: Optional[float] = None
        self.current_round = 0
        self.output: Optional[float] = None
        self.started = False
        self._round_state: Dict[int, _RoundState] = {}
        self._cur_state: Optional[_RoundState] = None
        self.bv_outputs: Dict[int, Tuple[float, ...]] = {}
        #: Optional zero-argument callback fired exactly once, when the
        #: engine completes its final round.  The embedding Delphi node uses
        #: it to keep an incremental count of still-running engines instead
        #: of rescanning engine collections per event.
        self.on_complete: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    @property
    def has_output(self) -> bool:
        """Whether the engine has completed all ``r_max`` iterations."""
        return self.output is not None

    def clone(self) -> "BinAAEngine":
        """Copy of the engine (used when a default checkpoint is split into
        an explicit one by the Delphi bundling layer).

        Hand-rolled instead of :func:`copy.deepcopy`: the mutable state is
        exactly the per-round tables and the ``bv_outputs`` dict, everything
        else is immutable scalars/tuples.
        """
        clone = BinAAEngine.__new__(BinAAEngine)
        clone.n = self.n
        clone.t = self.t
        clone.rounds = self.rounds
        clone.quorum = self.quorum
        clone.amplify_at = self.amplify_at
        clone.value = self.value
        clone.current_round = self.current_round
        clone.output = self.output
        clone.started = self.started
        clone._round_state = {
            round_number: state.copy()
            for round_number, state in self._round_state.items()
        }
        clone._cur_state = clone._round_state.get(clone.current_round)
        clone.bv_outputs = dict(self.bv_outputs)
        # A split clone belongs to the same embedding node, so it reports
        # its own (future) completion to the same counter.
        clone.on_complete = self.on_complete
        return clone

    def _state(self, round_number: int) -> _RoundState:
        state = self._round_state.get(round_number)
        if state is None:
            state = self._round_state[round_number] = _RoundState()
        if round_number == self.current_round:
            self._cur_state = state
        return state

    # ------------------------------------------------------------------
    def start(self, value: int) -> List[SubMessage]:
        """Begin the protocol with binary input ``value`` (0 or 1)."""
        if value not in (0, 1):
            raise ConfigurationError(f"BinAA input must be 0 or 1, got {value}")
        if self.started:
            raise ConfigurationError("BinAA engine already started")
        self.started = True
        self.value = float(value)
        return self._enter_round(1)

    def handle(self, sender: int, sub: SubMessage) -> List[SubMessage]:
        """Process one delivered sub-message from ``sender``."""
        if not self.started or self.output is not None:
            # Late traffic after completion cannot change the output; earlier
            # rounds' echoes were already broadcast, so peers do not need a
            # response either.
            return []
        mtype, round_number, value = sub
        if round_number == self.current_round:
            # Hot path: an echo for the round we are in.
            state = self._cur_state
            if mtype == ECHO1:
                table = state.echo1
                amplify_at = self.amplify_at
            elif mtype == ECHO2:
                table = state.echo2
                amplify_at = -1  # ECHO2 only feeds the quorum condition
            else:
                return []
            bit = 1 << sender
            senders = table.get(value, 0)
            if senders & bit:
                # Duplicate echo: no state change, the previous fixpoint
                # still holds.
                return []
            table[value] = senders = senders | bit
            count = senders.bit_count()
            # Incremental threshold check: support counts grow by one, so
            # the progress conditions can only newly fire when the count
            # lands exactly on a threshold.
            if count != self.quorum and count != amplify_at:
                return []
            return self._progress()
        # Cold path: buffered traffic for another round.  Future rounds are
        # consulted when we get there; past rounds are already completed
        # locally.
        if round_number < 1 or round_number > self.rounds:
            return []
        state = self._round_state.get(round_number)
        if state is None:
            state = self._round_state[round_number] = _RoundState()
        if mtype == ECHO1:
            table = state.echo1
        elif mtype == ECHO2:
            table = state.echo2
        else:
            return []
        table[value] = table.get(value, 0) | 1 << sender
        return []

    # ------------------------------------------------------------------
    def _enter_round(self, round_number: int) -> List[SubMessage]:
        self.current_round = round_number
        state = self._state(round_number)
        assert self.value is not None
        state.amplified.add(self.value)
        out: List[SubMessage] = [(ECHO1, round_number, self.value)]
        # Messages from faster nodes may already satisfy this round.
        out.extend(self._progress())
        return out

    def _progress(self) -> List[SubMessage]:
        out: List[SubMessage] = []
        while True:
            round_number = self.current_round
            state = self._state(round_number)
            if state.completed:
                return out

            # Bracha amplification at t+1 support (mutates only
            # ``state.amplified``, so iterating the live dict is safe).
            amplify_at = self.amplify_at
            for value, senders in state.echo1.items():
                if senders.bit_count() >= amplify_at and value not in state.amplified:
                    state.amplified.add(value)
                    out.append((ECHO1, round_number, value))

            # Single ECHO2 per round once a value has n-t ECHO1 support.
            if not state.echo2_sent:
                for value, senders in state.echo1.items():
                    if senders.bit_count() >= self.quorum:
                        state.echo2_sent = True
                        out.append((ECHO2, round_number, value))
                        break

            quorum = self.quorum
            strong_echo1 = [
                value
                for value, senders in state.echo1.items()
                if senders.bit_count() >= quorum
            ]

            next_value: Optional[float] = None
            if len(strong_echo1) >= 2:
                # Condition (1): adopt the midpoint of the two smallest
                # strongly echoed values.
                strong_echo1.sort()
                low, high = strong_echo1[0], strong_echo1[1]
                self.bv_outputs[round_number] = (low, high)
                next_value = (low + high) / 2.0
            else:
                strong_echo2 = [
                    value
                    for value, senders in state.echo2.items()
                    if senders.bit_count() >= quorum
                ]
                if strong_echo2:
                    # Condition (2): adopt the smallest ECHO2-supported value.
                    chosen = min(strong_echo2)
                    self.bv_outputs[round_number] = (chosen,)
                    next_value = chosen

            if next_value is None:
                return out

            state.completed = True
            self.value = next_value
            if round_number >= self.rounds:
                self.output = self.value
                callback = self.on_complete
                if callback is not None:
                    callback()
                return out
            out.extend(self._enter_round_inline(round_number + 1))

    def _enter_round_inline(self, round_number: int) -> List[SubMessage]:
        """Enter a round without recursing into :meth:`_progress` (the outer
        while-loop in :meth:`_progress` performs the re-evaluation)."""
        self.current_round = round_number
        state = self._state(round_number)
        assert self.value is not None
        state.amplified.add(self.value)
        return [(ECHO1, round_number, self.value)]


class BinAANode(ProtocolNode):
    """Standalone BinAA protocol node (Algorithm 1).

    Parameters
    ----------
    node_id, n, t:
        Standard system parameters.
    value:
        Binary input of this node.
    epsilon:
        Target agreement distance; determines the number of iterations.
    rounds:
        Explicit iteration count (overrides ``epsilon`` when given).
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        value: int,
        epsilon: float = 1e-3,
        rounds: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, n, t)
        if rounds is None:
            rounds = rounds_for_epsilon(epsilon)
        self.engine = BinAAEngine(n=n, t=t, rounds=rounds)
        self.value = value
        self.epsilon = epsilon

    def on_start(self) -> List[Outbound]:
        return self._wrap(self.engine.start(self.value))

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != "binaa":
            return []
        payload = message.payload
        if (
            not isinstance(payload, (list, tuple))
            or len(payload) != 3
            or not isinstance(payload[0], str)
        ):
            return []
        sub: SubMessage = (payload[0], int(payload[1]), float(payload[2]))
        out = self._wrap(self.engine.handle(sender, sub))
        if self.engine.has_output:
            self._decide(self.engine.output)
        return out

    def _wrap(self, subs: List[SubMessage]) -> List[Outbound]:
        # Sub-messages are fixed-shape triples, so the payload size is known
        # by formula — the message never walks its payload.
        return [
            self.broadcast(
                Message.sized(
                    "binaa", sub[0], sub[1], list(sub), submessage_payload_bits(sub)
                )
            )
            for sub in subs
        ]
