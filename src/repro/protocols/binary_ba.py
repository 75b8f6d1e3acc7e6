"""Randomised binary Byzantine agreement (Mostefaoui–Moumen–Raynal style).

The ACS baselines (HoneyBadgerBFT/BKR-style and FIN) decide which proposals
enter the common subset by running binary BA instances, each of which needs a
*common coin* to circumvent FLP.  This module provides a signature-free
binary BA in the style of Mostefaoui, Moumen and Raynal (2015): per round,
a Binary-Value broadcast grows a set of admissible estimates, nodes exchange
``AUX`` votes over that set, and the round's common coin either confirms a
unanimous vote (decide) or becomes the next estimate.

Deciding is not stopping.  An engine that decides ``v`` in round ``r`` keeps
running rounds with estimate ``v`` and halts at the next round whose coin is
``v`` (HoneyBadgerBFT's ``already_decided`` rule); from then on it ignores
all input.  Once one honest engine decides ``v`` in round ``r``, every honest
engine enters round ``r + 1`` with estimate ``v``, so only ``v`` can gather
``2t + 1`` BVAL support after that: every undecided honest engine decides
``v`` at the latest in the round in which the early deciders halt, whose
messages they all sent.  No decision gossip is needed, so the engine has no
``DECIDE`` message; the embedding protocol must keep delivering messages to
a decided engine until the run ends.

The coin itself is the simulated threshold coin from
:mod:`repro.crypto.coin`; producing and verifying its shares is what makes
these baselines computationally expensive.  The testbed compute model
charges for that through each node's ``processing_cost`` (one unit per
received coin message).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.crypto.coin import CommonCoin
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode

#: Sub-messages: (message type, round, value-or-share payload).
BaSubMessage = Tuple[str, int, Any]

BVAL = "BVAL"
AUX = "AUX"
COIN = "COIN"

#: Safety bound on rounds: expected termination is O(1) rounds; hitting this
#: bound indicates a scheduling pathology rather than normal behaviour.
MAX_BA_ROUNDS = 64


def ba_safety_violation(outputs: Dict[int, Any]) -> Optional[str]:
    """Binary-BA safety predicate used by the runtime invariant monitors.

    ``outputs`` maps honest node ids to decided values.  Returns a
    description of the violated property (outputs must be bits, and all
    honest outputs must be equal), or ``None`` when safety holds.
    """
    if not outputs:
        return None
    malformed = {
        node: value for node, value in outputs.items() if value not in (0, 1, 0.0, 1.0)
    }
    if malformed:
        pairs = ", ".join(f"node {n} -> {v!r}" for n, v in sorted(malformed.items()))
        return f"binary BA output not a bit: {pairs}"
    if len({int(value) for value in outputs.values()}) > 1:
        pairs = ", ".join(f"node {n} -> {int(v)}" for n, v in sorted(outputs.items()))
        return f"binary BA agreement violated: {pairs}"
    return None


class BinaryBAEngine:
    """One instance of randomised binary BA.

    Parameters
    ----------
    n, t:
        System parameters, ``n > 3t``.
    node_id:
        Local node id (needed to produce coin shares).
    coin:
        Shared :class:`~repro.crypto.coin.CommonCoin`; all nodes of the same
        BA instance must use a coin built with the same instance tag.
    instance:
        Tag distinguishing this BA instance (e.g. the proposer index in ACS).
    """

    def __init__(
        self,
        n: int,
        t: int,
        node_id: int,
        coin: CommonCoin,
        instance: str = "ba",
    ) -> None:
        if n <= 3 * t:
            raise ConfigurationError(f"binary BA requires n > 3t, got n={n}, t={t}")
        self.n = n
        self.t = t
        self.node_id = node_id
        self.coin = coin
        self.instance = instance
        self.round = 0
        self.estimate: Optional[int] = None
        self.output: Optional[int] = None

        self._bval_sent: Dict[int, Set[int]] = {}
        self._bval_recv: Dict[Tuple[int, int], Set[int]] = {}
        self._bin_values: Dict[int, Set[int]] = {}
        self._aux_sent: Set[int] = set()
        self._aux_recv: Dict[int, Dict[int, int]] = {}
        self._coin_shares: Dict[int, Dict[int, Any]] = {}
        self._coin_sent: Set[int] = set()
        self._coin_value: Dict[int, int] = {}
        self._halted = False

    @property
    def has_output(self) -> bool:
        """Whether this BA instance has decided."""
        return self.output is not None

    # ------------------------------------------------------------------
    def start(self, value: int) -> List[BaSubMessage]:
        """Begin with binary proposal ``value``."""
        if value not in (0, 1):
            raise ConfigurationError(f"binary BA input must be 0 or 1, got {value}")
        self.estimate = value
        return self._enter_round(1)

    def handle(self, sender: int, sub: BaSubMessage) -> List[BaSubMessage]:
        """Process one delivered sub-message from ``sender``."""
        mtype, round_number, payload = sub
        out: List[BaSubMessage] = []
        if self._halted or round_number < 1 or round_number > MAX_BA_ROUNDS:
            return out

        if mtype == BVAL:
            value = int(payload)
            self._bval_recv.setdefault((round_number, value), set()).add(sender)
            out.extend(self._on_bval_progress(round_number, value))
        elif mtype == AUX:
            self._aux_recv.setdefault(round_number, {})[sender] = int(payload)
        elif mtype == COIN:
            # Each share is verified once, on arrival; none is needed once
            # the round's coin is known.
            if round_number not in self._coin_value and self.coin.verify_share(
                (self.instance, round_number), payload
            ):
                self._coin_shares.setdefault(round_number, {})[sender] = payload
        else:
            return out

        if round_number == self.round:
            out.extend(self._progress())
        return out

    # ------------------------------------------------------------------
    def _enter_round(self, round_number: int) -> List[BaSubMessage]:
        self.round = round_number
        out: List[BaSubMessage] = []
        assert self.estimate is not None
        out.extend(self._broadcast_bval(round_number, self.estimate))
        out.extend(self._progress())
        return out

    def _broadcast_bval(self, round_number: int, value: int) -> List[BaSubMessage]:
        sent = self._bval_sent.setdefault(round_number, set())
        if value in sent:
            return []
        sent.add(value)
        return [(BVAL, round_number, value)]

    def _on_bval_progress(self, round_number: int, value: int) -> List[BaSubMessage]:
        out: List[BaSubMessage] = []
        support = len(self._bval_recv.get((round_number, value), set()))
        if support >= self.t + 1:
            out.extend(self._broadcast_bval(round_number, value))
        if support >= 2 * self.t + 1:
            self._bin_values.setdefault(round_number, set()).add(value)
        return out

    def _progress(self) -> List[BaSubMessage]:
        out: List[BaSubMessage] = []
        while not self._halted:
            round_number = self.round
            bin_values = self._bin_values.get(round_number, set())
            if not bin_values:
                return out

            if round_number not in self._aux_sent:
                self._aux_sent.add(round_number)
                out.append((AUX, round_number, min(bin_values)))

            aux = self._aux_recv.get(round_number, {})
            valid_aux = {
                sender: value for sender, value in aux.items() if value in bin_values
            }
            if len(valid_aux) < self.n - self.t:
                return out

            if round_number not in self._coin_sent:
                self._coin_sent.add(round_number)
                share = self.coin.share(self.node_id, (self.instance, round_number))
                out.append((COIN, round_number, share))

            coin_value = self._reveal_coin(round_number)
            if coin_value is None:
                return out

            values = set(valid_aux.values())
            if len(values) == 1:
                value = values.pop()
                if value == coin_value:
                    if self.output is None:
                        self.output = value
                    elif self.output == value:
                        self._halted = True
                        return out
                self.estimate = value
            else:
                self.estimate = coin_value

            out.extend(self._start_next_round(round_number + 1))

        return out

    def _start_next_round(self, round_number: int) -> List[BaSubMessage]:
        self.round = round_number
        assert self.estimate is not None
        return self._broadcast_bval(round_number, self.estimate)

    def _reveal_coin(self, round_number: int) -> Optional[int]:
        if round_number in self._coin_value:
            return self._coin_value[round_number]
        shares = self._coin_shares.get(round_number, {})
        if len(shares) < self.coin.threshold:
            return None
        value = self.coin.combine((self.instance, round_number), list(shares.values()))
        self._coin_value[round_number] = value
        return value


class BinaryBANode(ProtocolNode):
    """Standalone binary BA protocol node built on :class:`BinaryBAEngine`."""

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        value: int,
        coin: Optional[CommonCoin] = None,
        instance: str = "ba",
    ) -> None:
        super().__init__(node_id, n, t)
        if coin is None:
            coin = CommonCoin(num_nodes=n, threshold=t + 1, instance=instance)
        self.engine = BinaryBAEngine(n=n, t=t, node_id=node_id, coin=coin, instance=instance)
        self.value = value

    def on_start(self) -> List[Outbound]:
        return self._wrap(self.engine.start(self.value))

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != "bba":
            return []
        payload = message.payload
        if not isinstance(payload, (list, tuple)) or len(payload) != 3:
            return []
        out = self._wrap(self.engine.handle(sender, (payload[0], int(payload[1]), payload[2])))
        if self.engine.has_output:
            self._decide(self.engine.output)
        return out

    def processing_cost(self, message: Message) -> float:
        """Crypto units consumed when processing coin shares (used by the
        testbed compute model)."""
        if message.mtype == COIN:
            return 1.0
        return 0.0

    def _wrap(self, subs: List[BaSubMessage]) -> List[Outbound]:
        return [
            self.broadcast(Message("bba", sub[0], sub[1], list(sub))) for sub in subs
        ]
