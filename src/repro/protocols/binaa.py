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
protocol function (one call per sub-message per engine per delivery).
Between calls the engine sits at a fixpoint of the current round's
progress conditions, and a support count grows by exactly one per new
sender, so an echo can only move the engine when its value's count lands
*exactly* on a threshold — and then only through that value:

* an ``ECHO1`` count reaching ``t + 1`` can only amplify that value;
* an ``ECHO1`` count reaching ``n - t`` can only send the round's single
  ``ECHO2`` (for that value) and complete the round by condition (1) if one
  other value is already at ``n - t``;
* an ``ECHO2`` count reaching ``n - t`` completes the round by condition (2)
  with that value: at a fixpoint no other ``ECHO2`` value is at quorum and
  fewer than two ``ECHO1`` values are.

Each crossing is therefore settled from the value that crossed it.  The full
re-evaluation of a round (:meth:`BinAAEngine._progress`) runs once, on round
entry, where echoes buffered while the round lay in the future are read for
the first time.  An echo for a past round can change nothing and is not
recorded.  The emitted sub-messages, and their order, are exactly those of a
full re-evaluation after every echo (``tests/test_binaa.py`` holds that
model).
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

    __slots__ = ("echo1", "echo2", "amplified", "echo2_sent")

    def __init__(self) -> None:
        self.echo1: Dict[float, int] = {}
        self.echo2: Dict[float, int] = {}
        self.amplified: Set[float] = set()
        self.echo2_sent = False

    def copy(self) -> "_RoundState":
        """Independent copy (the tables hold immutable floats and ints)."""
        clone = _RoundState.__new__(_RoundState)
        clone.echo1 = dict(self.echo1)
        clone.echo2 = dict(self.echo2)
        clone.amplified = set(self.amplified)
        clone.echo2_sent = self.echo2_sent
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
        current = self.current_round
        if round_number == current:
            state = self._cur_state
        elif current < round_number <= self.rounds:
            # Buffered unevaluated until round entry.
            state = self._state(round_number)
        else:
            # A past round is complete here: its echo can change nothing.
            return []
        if mtype == ECHO1:
            table = state.echo1
        elif mtype == ECHO2:
            table = state.echo2
        else:
            return []
        bit = 1 << sender
        senders = table.get(value, 0)
        if senders & bit:
            return []
        table[value] = senders = senders | bit
        if round_number != current:
            return []
        # The engine was at a fixpoint and this count grew by one, so only
        # a count landing exactly on a threshold can move it (module
        # docstring), and only through ``value``.
        count = senders.bit_count()
        if count == self.quorum:
            if mtype == ECHO2:
                return self._complete((value,), value)
            return self._echo1_quorum(state, value)
        if count == self.amplify_at and mtype == ECHO1 and value not in state.amplified:
            state.amplified.add(value)
            return [(ECHO1, current, value)]
        return []

    # ------------------------------------------------------------------
    def _enter_round(self, round_number: int) -> List[SubMessage]:
        self.current_round = round_number
        state = self._cur_state = self._state(round_number)
        assert self.value is not None
        state.amplified.add(self.value)
        out: List[SubMessage] = [(ECHO1, round_number, self.value)]
        # Messages from faster nodes may already satisfy this round.
        out += self._progress(state)
        return out

    def _progress(self, state: _RoundState) -> List[SubMessage]:
        """Full re-evaluation of the round just entered, where the echoes
        buffered while it lay in the future are read for the first time
        (every later echo of the round is settled by :meth:`handle`)."""
        round_number = self.current_round
        out: List[SubMessage] = []
        # Bracha amplification at t+1 support (mutates only
        # ``state.amplified``, so iterating the live dict is safe).
        amplify_at = self.amplify_at
        for value, senders in state.echo1.items():
            if senders.bit_count() >= amplify_at and value not in state.amplified:
                state.amplified.add(value)
                out.append((ECHO1, round_number, value))
        # The first value at n-t ECHO1 support sends the round's ECHO2 and
        # tests condition (1).
        quorum = self.quorum
        for value, senders in state.echo1.items():
            if senders.bit_count() >= quorum:
                out += self._echo1_quorum(state, value)
                break
        if round_number in self.bv_outputs:  # completed by condition (1)
            return out
        strong_echo2 = [
            value for value, senders in state.echo2.items() if senders.bit_count() >= quorum
        ]
        if strong_echo2:
            # Condition (2): adopt the smallest ECHO2-supported value.
            chosen = min(strong_echo2)
            out += self._complete((chosen,), chosen)
        return out

    def _echo1_quorum(self, state: _RoundState, value: float) -> List[SubMessage]:
        """``value`` has just reached n-t ECHO1 support in the current round."""
        round_number = self.current_round
        out: List[SubMessage] = []
        if value not in state.amplified:  # t + 1 == n - t only at n = 1
            state.amplified.add(value)
            out.append((ECHO1, round_number, value))
        # Single ECHO2 per round.
        if not state.echo2_sent:
            state.echo2_sent = True
            out.append((ECHO2, round_number, value))
        quorum = self.quorum
        strong_echo1 = sorted(
            other for other, senders in state.echo1.items() if senders.bit_count() >= quorum
        )
        if len(strong_echo1) >= 2:
            # Condition (1): adopt the midpoint of the two smallest strongly
            # echoed values.
            low, high = strong_echo1[0], strong_echo1[1]
            out += self._complete((low, high), (low + high) / 2.0)
        return out

    def _complete(self, bv_output: Tuple[float, ...], next_value: float) -> List[SubMessage]:
        """Finish the current round on ``next_value`` and enter the next one,
        or produce the output after the last."""
        round_number = self.current_round
        self.bv_outputs[round_number] = bv_output
        self.value = next_value
        if round_number < self.rounds:
            return self._enter_round(round_number + 1)
        self.output = next_value
        callback = self.on_complete
        if callback is not None:
            callback()
        return []


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
        try:
            sub: SubMessage = (payload[0], int(payload[1]), float(payload[2]))
        except (TypeError, ValueError, OverflowError):
            return []
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
