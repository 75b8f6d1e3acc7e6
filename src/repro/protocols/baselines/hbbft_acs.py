"""HoneyBadgerBFT / BKR-style asynchronous common subset baseline.

The BKR construction (Ben-Or, Kelmer, Rabin 1994), popularised by
HoneyBadgerBFT, agrees on a common subset of at least ``n - t`` inputs with
``n`` parallel reliable broadcasts plus ``n`` parallel binary Byzantine
agreements.  Its computational cost — ``O(n)`` common coins per node — is
exactly the overhead the paper's introduction argues makes randomised convex
agreement impractical for compute-starved oracle/CPS deployments, so it is
reproduced here as the "expensive randomised" reference point in Table I and
the ablation benchmarks.

Protocol per node:

1. RBC-broadcast the node's own value.
2. When RBC ``j`` delivers, start binary BA ``j`` with input 1.
3. Once ``n - t`` BAs have decided 1, input 0 to every BA not yet started.
4. When every BA has decided, the agreed subset is ``{j : BA_j = 1}``; the
   node outputs the **median** of the subset's delivered values (the convex
   representative used for oracle agreement).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Set

from repro.crypto.coin import CommonCoin
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode
from repro.protocols.binary_ba import BinaryBAEngine
from repro.protocols.rbc import RBCEngine

PROTOCOL = "hbbft"


class HoneyBadgerAcsNode(ProtocolNode):
    """One node of the BKR-style ACS baseline."""

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        value: float,
        coin: Optional[CommonCoin] = None,
        instance: str = "hbbft",
    ) -> None:
        super().__init__(node_id, n, t)
        self.value = float(value)
        self.instance = instance
        self.coin = coin if coin is not None else CommonCoin(n, t + 1, instance=f"{instance}-coin")
        self._rbc: Dict[int, RBCEngine] = {}
        self._ba: Dict[int, BinaryBAEngine] = {}
        self._ba_started: Set[int] = set()
        self._delivered: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _rbc_engine(self, broadcaster: int) -> RBCEngine:
        if broadcaster not in self._rbc:
            self._rbc[broadcaster] = RBCEngine(
                n=self.n, t=self.t, broadcaster=broadcaster, node_id=self.node_id
            )
        return self._rbc[broadcaster]

    def _ba_engine(self, index: int) -> BinaryBAEngine:
        if index not in self._ba:
            self._ba[index] = BinaryBAEngine(
                n=self.n,
                t=self.t,
                node_id=self.node_id,
                coin=self.coin,
                instance=f"{self.instance}-ba-{index}",
            )
        return self._ba[index]

    def _wrap_rbc(self, broadcaster: int, subs) -> List[Outbound]:
        return [
            self.broadcast(Message(PROTOCOL, mtype, None, ["rbc", broadcaster, mtype, value]))
            for mtype, value in subs
        ]

    def _wrap_ba(self, index: int, subs) -> List[Outbound]:
        return [
            self.broadcast(
                Message(PROTOCOL, mtype, round_number, ["ba", index, mtype, round_number, value])
            )
            for mtype, round_number, value in subs
        ]

    # ------------------------------------------------------------------
    def on_start(self) -> List[Outbound]:
        engine = self._rbc_engine(self.node_id)
        return self._wrap_rbc(self.node_id, engine.start(self.value))

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != PROTOCOL:
            return []
        payload = message.payload
        if not isinstance(payload, (list, tuple)) or not payload:
            return []
        if payload[0] == "rbc":
            return self._on_rbc(sender, payload)
        if payload[0] == "ba":
            return self._on_ba(sender, payload)
        return []

    def _on_rbc(self, sender: int, payload: Sequence) -> List[Outbound]:
        if len(payload) != 4:
            return []
        broadcaster, mtype, value = int(payload[1]), str(payload[2]), payload[3]
        if not 0 <= broadcaster < self.n:
            return []
        engine = self._rbc_engine(broadcaster)
        out = self._wrap_rbc(broadcaster, engine.handle(sender, (mtype, value)))
        if engine.has_output and broadcaster not in self._delivered:
            self._delivered[broadcaster] = float(engine.delivered)
            out.extend(self._start_ba(broadcaster, 1))
        out.extend(self._maybe_finish())
        return out

    def _start_ba(self, index: int, value: int) -> List[Outbound]:
        if index in self._ba_started:
            return []
        self._ba_started.add(index)
        engine = self._ba_engine(index)
        out = self._wrap_ba(index, engine.start(value))
        out.extend(self._after_ba_progress())
        return out

    def _on_ba(self, sender: int, payload: Sequence) -> List[Outbound]:
        if len(payload) != 5:
            return []
        index = int(payload[1])
        mtype, round_number, value = str(payload[2]), int(payload[3]), payload[4]
        if not 0 <= index < self.n:
            return []
        engine = self._ba_engine(index)
        out = self._wrap_ba(index, engine.handle(sender, (mtype, round_number, value)))
        out.extend(self._after_ba_progress())
        out.extend(self._maybe_finish())
        return out

    def _after_ba_progress(self) -> List[Outbound]:
        """Once n-t BAs decided 1, vote 0 in every BA not yet joined."""
        decided_one = sum(
            1 for engine in self._ba.values() if engine.has_output and engine.output == 1
        )
        if decided_one < self.quorum:
            return []
        out: List[Outbound] = []
        for index in range(self.n):
            if index not in self._ba_started:
                out.extend(self._start_ba(index, 0))
        return out

    def _maybe_finish(self) -> List[Outbound]:
        if self.has_output:
            return []
        if len(self._ba_started) < self.n:
            return []
        if not all(
            index in self._ba and self._ba[index].has_output for index in range(self.n)
        ):
            return []
        agreed = [index for index in range(self.n) if self._ba[index].output == 1]
        if not all(index in self._delivered for index in agreed):
            return []
        values = [self._delivered[index] for index in agreed]
        self._decide(statistics.median(values))
        return []

    def processing_cost(self, message: Message) -> float:
        """Coin messages are the expensive (pairing-equivalent) operations."""
        if message.mtype == "COIN":
            return 1.0
        return 0.0
