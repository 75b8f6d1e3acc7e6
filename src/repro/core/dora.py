"""DORA extension: attested oracle reporting on top of Delphi (Section V).

The Distributed Oracle Agreement (DORA) problem asks the oracle network to
hand the blockchain a *single attested value* within (a relaxation of) the
range of honest inputs.  Delphi solves it with one extra, computation-light
step:

1. run Delphi to reach ``epsilon``-approximate agreement;
2. round the output to the nearest integer multiple of ``epsilon`` — honest
   outputs now land on at most two adjacent multiples, so at least one
   multiple is reported by ``t + 1`` honest nodes;
3. broadcast a signature on the rounded value, wait for ``t + 1`` signatures
   on the same value, aggregate them and submit the aggregate to the SMR
   (blockchain) channel.

Because no value outside the two adjacent multiples can collect ``t + 1``
signatures, the SMR channel receives at most two candidate reports, and the
first one ordered is consumed — with zero per-node signature *verifications*
during agreement, which is the computational advantage over Chainlink's OCR
and the original DORA protocol that Table III reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.analysis.parameters import DelphiParameters
from repro.core.aggregation import round_to_epsilon
from repro.core.delphi import DelphiNode
from repro.crypto.signatures import AggregateSignature, Signature, SignatureScheme
from repro.net.message import Message
from repro.protocols.base import Outbound, ProtocolNode

PROTOCOL = "dora"
REPORT = "REPORT"


@dataclass(frozen=True)
class DoraCertificate:
    """An attested oracle report: the agreed value plus its aggregate
    signature from ``t + 1`` distinct oracles."""

    value: float
    aggregate: AggregateSignature

    @property
    def signer_count(self) -> int:
        """Number of distinct oracles that attested this value."""
        return len(self.aggregate.signers)


def certificate_validator(
    scheme: SignatureScheme, threshold: int
) -> Callable[[object], bool]:
    """The SMR channel's validity rule for oracle reports: the payload is a
    :class:`DoraCertificate` whose aggregate verifies under ``scheme`` with
    at least ``threshold`` (``t + 1``) distinct signers."""

    def validate(payload: object) -> bool:
        return isinstance(payload, DoraCertificate) and scheme.verify_aggregate(
            payload.value, payload.aggregate, threshold=threshold
        )

    return validate


class DoraNode(ProtocolNode):
    """Delphi plus the rounding/attestation step that solves DORA.

    Parameters
    ----------
    node_id, params, value:
        As for :class:`~repro.core.delphi.DelphiNode`.
    scheme:
        The shared :class:`~repro.crypto.signatures.SignatureScheme`; every
        node of the same oracle network must be constructed with the same
        scheme object (it plays the role of the network's PKI).
    """

    def __init__(
        self,
        node_id: int,
        params: DelphiParameters,
        value: float,
        scheme: SignatureScheme,
    ) -> None:
        super().__init__(node_id, params.n, params.t)
        if scheme.num_nodes != params.n:
            raise ConfigurationError(
                "signature scheme size does not match the oracle network size"
            )
        self.params = params
        self.scheme = scheme
        self.delphi = DelphiNode(node_id=node_id, params=params, value=value)
        self.rounded_value: Optional[float] = None
        self._signatures: Dict[float, Dict[int, Signature]] = {}
        self._report_sent = False

    # ------------------------------------------------------------------
    def on_start(self) -> List[Outbound]:
        return self.delphi.on_start()

    def on_message(self, sender: int, message: Message) -> List[Outbound]:
        if self.has_output:
            return []
        if message.protocol == PROTOCOL:
            return self._on_report(sender, message)
        out = self.delphi.on_message(sender, message)
        out.extend(self._maybe_report())
        return out

    # ------------------------------------------------------------------
    def _maybe_report(self) -> List[Outbound]:
        """Once Delphi decides, round and broadcast our signed report."""
        if self._report_sent or not self.delphi.has_output:
            return []
        self._report_sent = True
        value = self.delphi.output_value
        assert value is not None
        self.rounded_value = round_to_epsilon(value, self.params.epsilon)
        signature = self.scheme.sign(self.node_id, self.rounded_value)
        self._record(self.node_id, self.rounded_value, signature)
        payload = [self.rounded_value, signature]
        out = [self.broadcast(Message(PROTOCOL, REPORT, None, payload))]
        out.extend(self._maybe_certify())
        return out

    def _on_report(self, sender: int, message: Message) -> List[Outbound]:
        payload = message.payload
        if not isinstance(payload, (list, tuple)) or len(payload) != 2:
            return []
        value, signature = payload
        if not isinstance(signature, Signature) or signature.signer != sender:
            return []
        value = self._validated_report_value(value)
        if value is None:
            return []
        if not self.scheme.verify(value, signature):
            return []
        self._record(sender, value, signature)
        return self._maybe_certify()

    def _validated_report_value(self, value: object) -> Optional[float]:
        """Sanitise a Byzantine-controlled report value.

        Only finite real numbers that sit on the epsilon rounding grid can
        ever collect ``t + 1`` honest signatures, so anything else is
        rejected *before* touching it — ``float(value)`` on an arbitrary
        payload (a string, a list) raises and would crash an honest node.
        """
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        value = float(value)
        if not math.isfinite(value):
            return None
        if round_to_epsilon(value, self.params.epsilon) != value:
            return None
        return value

    def _record(self, sender: int, value: float, signature: Signature) -> None:
        self._signatures.setdefault(value, {})[sender] = signature

    def _maybe_certify(self) -> List[Outbound]:
        """Decide once some rounded value has ``t + 1`` signatures.

        Certification waits for the local Delphi instance to finish so that
        this node keeps contributing its BinAA echoes until every round is
        complete (stopping earlier could stall slower honest nodes).
        """
        if self.has_output or not self.delphi.has_output:
            return []
        for value, signatures in self._signatures.items():
            if len(signatures) >= self.t + 1:
                aggregate = self.scheme.aggregate(value, list(signatures.values()))
                self._decide(DoraCertificate(value=value, aggregate=aggregate))
                break
        return []

    # ------------------------------------------------------------------
    def processing_cost(self, message: Message) -> float:
        """One signature verification per received report (symmetric-key
        cost in this construction, unlike the pairing-heavy baselines)."""
        if message.protocol == PROTOCOL and message.mtype == REPORT:
            return 1.0
        return 0.0

    @property
    def certificate(self) -> Optional[DoraCertificate]:
        """The attested report once decided, else ``None``."""
        return self.output if self.has_output else None
