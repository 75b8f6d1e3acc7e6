"""FIN-style asynchronous common subset (ACS) baseline.

FIN (Duan, Wang, Zhang — CCS 2023) is the state-of-the-art signature-light
ACS protocol the paper benchmarks against.  Its cost profile is: ``n``
parallel reliable broadcasts (``O(l n^2 + kappa n^3)`` bits), a constant
number of common-coin invocations used for proposal election, and
``O(log n)`` coin computations per node — far cheaper computationally than
MVBA protocols that verify ``O(n^2)`` signatures, but still cubic in
communication because of the RBCs.

The reproduction follows the same structure in a compact MVBA-style form:

1. **Value dissemination** — every node RBC-broadcasts its input value.
2. **Coverage proposal** — once a node has delivered ``n - t`` value RBCs, it
   RBC-broadcasts the *index set* (bitmap) of what it delivered.
3. **Proposal election** — repeated rounds: a common coin elects a leader;
   nodes run one binary BA on "has the leader's coverage proposal been
   delivered and is it fully covered locally?".  The first BA that outputs 1
   fixes the agreed index set; the protocol output is the **median** of the
   values in that set (the convex-valid representative the oracle
   application needs).

Because RBC provides agreement on both values and bitmaps, all honest nodes
that finish adopt the same index set and therefore the same median, which is
what the convex-validity comparison in the paper relies on.  The election
loop terminates quickly because a constant fraction of leaders are honest
and fully covered.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.coin import CommonCoin
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode
from repro.protocols.binary_ba import BinaryBAEngine
from repro.protocols.rbc import RBCEngine

PROTOCOL = "fin"

#: Safety bound on election rounds: past it a node stops electing and stays
#: undecided, as a binary BA does past ``MAX_BA_ROUNDS``.
MAX_ELECTIONS = 32


class FinAcsNode(ProtocolNode):
    """One node of the FIN-style ACS baseline.

    Parameters
    ----------
    node_id, n, t:
        System parameters (``n > 3t``).
    value:
        The node's real-valued oracle input.
    coin:
        Optional shared :class:`~repro.crypto.coin.CommonCoin`; by default a
        deterministic instance-tagged coin is derived, which all nodes of the
        same run construct identically.
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        t: int,
        value: float,
        coin: Optional[CommonCoin] = None,
        instance: str = "fin",
    ) -> None:
        super().__init__(node_id, n, t)
        self.value = float(value)
        self.instance = instance
        self.coin = coin if coin is not None else CommonCoin(n, t + 1, instance=f"{instance}-coin")
        # RBC engines: value RBCs are keyed ("val", broadcaster), coverage
        # proposals ("cov", broadcaster).
        self._rbc: Dict[Tuple[str, int], RBCEngine] = {}
        self._value_delivered: Dict[int, float] = {}
        self._cover_delivered: Dict[int, Tuple[int, ...]] = {}
        self._cover_sent = False
        # Election state.
        self._election_round = 0
        self._election_shares: Dict[int, Dict[int, object]] = {}
        self._election_share_sent: Set[int] = set()
        self._leaders: Dict[int, int] = {}
        self._ba: Dict[int, BinaryBAEngine] = {}
        self._ba_started: Set[int] = set()
        # BA messages that arrived before the local BA instance existed
        # (leader still unknown, or this node still in an earlier election).
        # Dropping them instead of buffering loses BVAL/AUX quorum votes and
        # can stall the whole election under unlucky delivery orderings.
        self._ba_pending: Dict[int, List[Tuple[int, Tuple[str, int, object]]]] = {}
        self._winning_election: Optional[int] = None

    # ------------------------------------------------------------------
    # RBC plumbing
    # ------------------------------------------------------------------
    def _engine(self, kind: str, broadcaster: int) -> RBCEngine:
        key = (kind, broadcaster)
        if key not in self._rbc:
            self._rbc[key] = RBCEngine(
                n=self.n, t=self.t, broadcaster=broadcaster, node_id=self.node_id
            )
        return self._rbc[key]

    def _wrap_rbc(self, kind: str, broadcaster: int, subs) -> List[Outbound]:
        out: List[Outbound] = []
        for mtype, value in subs:
            payload = ["rbc", kind, broadcaster, mtype, value]
            out.append(self.broadcast(Message(PROTOCOL, mtype, None, payload)))
        return out

    def _wrap_ba(self, election: int, subs) -> List[Outbound]:
        out: List[Outbound] = []
        for mtype, round_number, value in subs:
            payload = ["ba", election, mtype, round_number, value]
            out.append(self.broadcast(Message(PROTOCOL, mtype, round_number, payload)))
        return out

    # ------------------------------------------------------------------
    def on_start(self) -> List[Outbound]:
        engine = self._engine("val", self.node_id)
        return self._wrap_rbc("val", self.node_id, engine.start(self.value))

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if message.protocol != PROTOCOL:
            return []
        payload = message.payload
        if not isinstance(payload, (list, tuple)) or not payload:
            return []
        kind = payload[0]
        if kind == "rbc":
            return self._on_rbc(sender, payload)
        if kind == "elect":
            return self._on_election_share(sender, payload)
        if kind == "ba":
            return self._on_ba(sender, payload)
        return []

    # ------------------------------------------------------------------
    def _on_rbc(self, sender: int, payload: Sequence) -> List[Outbound]:
        if len(payload) != 5:
            return []
        _, kind, broadcaster, mtype, value = payload
        broadcaster = int(broadcaster)
        if not 0 <= broadcaster < self.n or kind not in ("val", "cov"):
            return []
        engine = self._engine(kind, broadcaster)
        out = self._wrap_rbc(kind, broadcaster, engine.handle(sender, (str(mtype), value)))
        if engine.has_output:
            if kind == "val" and broadcaster not in self._value_delivered:
                self._value_delivered[broadcaster] = float(engine.delivered)
                out.extend(self._maybe_send_cover())
            elif kind == "cov" and broadcaster not in self._cover_delivered:
                self._cover_delivered[broadcaster] = tuple(int(i) for i in engine.delivered)
        out.extend(self._maybe_start_election())
        out.extend(self._maybe_finish())
        return out

    def _maybe_send_cover(self) -> List[Outbound]:
        if self._cover_sent or len(self._value_delivered) < self.quorum:
            return []
        self._cover_sent = True
        cover = tuple(sorted(self._value_delivered))[: self.quorum]
        engine = self._engine("cov", self.node_id)
        return self._wrap_rbc("cov", self.node_id, engine.start(list(cover)))

    # ------------------------------------------------------------------
    # Proposal election
    # ------------------------------------------------------------------
    def _maybe_start_election(self) -> List[Outbound]:
        """Begin the first election once this node has broadcast its coverage."""
        if self._election_round > 0 or not self._cover_sent:
            return []
        return self._start_election(1)

    def _start_election(self, election: int) -> List[Outbound]:
        if election > MAX_ELECTIONS:
            return []
        self._election_round = election
        if election in self._election_share_sent:
            return []
        self._election_share_sent.add(election)
        share = self.coin.share(self.node_id, ("elect", self.instance, election))
        out = [
            self.broadcast(
                Message(PROTOCOL, "ELECT", election, ["elect", election, share])
            )
        ]
        # The leader may already be known from shares that arrived before we
        # entered this election; start its BA immediately in that case.
        out.extend(self._maybe_start_ba(election))
        return out

    def _on_election_share(self, sender: int, payload: Sequence) -> List[Outbound]:
        if len(payload) != 3:
            return []
        election = int(payload[1])
        share = payload[2]
        if not self.coin.verify_share(("elect", self.instance, election), share):
            return []
        self._election_shares.setdefault(election, {})[sender] = share
        out: List[Outbound] = []
        shares = self._election_shares[election]
        if election not in self._leaders and len(shares) >= self.coin.threshold:
            leader = self.coin.combine_value(
                ("elect", self.instance, election), list(shares.values()), self.n
            )
            self._leaders[election] = leader
            out.extend(self._maybe_start_ba(election))
        out.extend(self._maybe_finish())
        return out

    def _maybe_start_ba(self, election: int) -> List[Outbound]:
        if election in self._ba_started or election not in self._leaders:
            return []
        if self._election_round != election:
            return []
        return self._attach_ba(election)

    def _attach_ba(self, election: int) -> List[Outbound]:
        """Create the BA engine for ``election`` and replay buffered votes."""
        self._ba_started.add(election)
        leader = self._leaders[election]
        engine = BinaryBAEngine(
            n=self.n,
            t=self.t,
            node_id=self.node_id,
            coin=self.coin,
            instance=f"{self.instance}-ba-{election}",
        )
        self._ba[election] = engine
        out = self._wrap_ba(election, engine.start(1 if self._is_covered(leader) else 0))
        for sender, sub in self._ba_pending.pop(election, []):
            out.extend(self._wrap_ba(election, engine.handle(sender, sub)))
        out.extend(self._after_ba(election))
        return out

    def _is_covered(self, leader: int) -> bool:
        cover = self._cover_delivered.get(leader)
        if cover is None:
            return False
        return all(index in self._value_delivered for index in cover)

    def _on_ba(self, sender: int, payload: Sequence) -> List[Outbound]:
        if len(payload) != 5:
            return []
        election = int(payload[1])
        mtype, round_number, value = str(payload[2]), int(payload[3]), payload[4]
        engine = self._ba.get(election)
        out: List[Outbound] = []
        if engine is None:
            # The BA for this election has not started locally yet; start it
            # (with our current coverage verdict) so we do not stall peers,
            # or buffer the vote for replay if the leader is still unknown.
            out.extend(self._maybe_start_ba_lazy(election))
            engine = self._ba.get(election)
            if engine is None:
                self._ba_pending.setdefault(election, []).append(
                    (sender, (mtype, round_number, value))
                )
                return out
        out.extend(self._wrap_ba(election, engine.handle(sender, (mtype, round_number, value))))
        out.extend(self._after_ba(election))
        return out

    def _maybe_start_ba_lazy(self, election: int) -> List[Outbound]:
        if election in self._ba_started:
            return []
        if election not in self._leaders:
            return []
        return self._attach_ba(election)

    def _after_ba(self, election: int) -> List[Outbound]:
        engine = self._ba.get(election)
        if engine is None or not engine.has_output:
            return []
        out: List[Outbound] = []
        if engine.output == 1:
            if self._winning_election is None:
                self._winning_election = election
            out.extend(self._maybe_finish())
        elif self._election_round == election and self._winning_election is None:
            out.extend(self._start_election(election + 1))
        return out

    # ------------------------------------------------------------------
    def _maybe_finish(self) -> List[Outbound]:
        if self.has_output or self._winning_election is None:
            return []
        leader = self._leaders.get(self._winning_election)
        if leader is None:
            return []
        agreed_set = self._cover_delivered.get(leader)
        if agreed_set is None:
            return []
        if not all(index in self._value_delivered for index in agreed_set):
            return []
        values = [self._value_delivered[index] for index in agreed_set]
        self._decide(statistics.median(values))
        return []

    def processing_cost(self, message: Message) -> float:
        """Coin shares and BA coin messages are the expensive operations."""
        if message.mtype in ("ELECT", "COIN"):
            return 1.0
        return 0.0
