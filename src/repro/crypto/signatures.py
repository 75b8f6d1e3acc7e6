"""Simulated digital signatures and threshold signatures.

The baselines Delphi is compared against (FIN, Dumbo2, HoneyBadgerBFT,
Chainlink's reporting protocol, DORA) rely on digital signatures, aggregated
BLS signatures or threshold signatures, whose *computational cost* is the
very thing the paper argues against: one pairing is roughly a thousand times
more expensive than a symmetric-key operation.

A real pairing library is neither available offline nor needed to reproduce
the paper's results: what matters to the evaluation is (a) that signatures
are unforgeable within the simulation and (b) how many sign/verify
operations each protocol performs, because the testbed compute model charges
per operation.  We therefore simulate signatures with keyed HMACs (which
gives real unforgeability against parties who do not hold the signer's key
inside a single simulation) and expose explicit cost constants that the
compute model uses.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.crypto.hashing import hash_value

#: Relative cost of one signature verification, in "crypto units" consumed by
#: the compute model.  A symmetric-key operation costs 1 unit; the paper
#: states pairings cost ~1000x more.
PAIRING_COST_UNITS = 1000.0
SYMMETRIC_COST_UNITS = 1.0


@dataclass(frozen=True)
class Signature:
    """A simulated signature: signer id plus an HMAC over the message."""

    signer: int
    digest: bytes

    def size_bits(self) -> int:
        """Wire size of a single signature (matches a BLS point, 48 bytes)."""
        return 48 * 8


@dataclass(frozen=True)
class AggregateSignature:
    """An aggregate of individual signatures on the same message.

    The aggregate is modelled as the set of contributing signer ids plus a
    combined digest; its wire size is constant (one group element plus a
    signer bitmap), which reproduces the ``O(n + kappa)`` aggregate size the
    paper attributes to BLS aggregation.
    """

    signers: Tuple[int, ...]
    digest: bytes

    def size_bits(self) -> int:
        return 48 * 8 + len(self.signers)


class SimulatedSigner:
    """Per-node signing key (an HMAC key derived from the node id)."""

    def __init__(self, node_id: int, master_secret: bytes = b"repro-sign") -> None:
        self.node_id = node_id
        self._key = hashlib.sha256(master_secret + node_id.to_bytes(4, "big")).digest()

    def sign(self, message: Any) -> Signature:
        """Sign a JSON-like message."""
        digest = hmac.digest(self._key, hash_value(message), "sha256")
        return Signature(signer=self.node_id, digest=digest)


class SignatureScheme:
    """System-wide signature verification and aggregation.

    The scheme holds every node's verification key (i.e. the same HMAC keys,
    since HMAC is symmetric — acceptable because the scheme object itself is
    the trusted verifier inside the simulation) and counts how many
    sign/verify operations were performed so benchmarks can report
    computation complexity (Table I's "Sign"/"Verf" columns).
    """

    def __init__(self, num_nodes: int, master_secret: bytes = b"repro-sign") -> None:
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._signers = {
            node_id: SimulatedSigner(node_id, master_secret)
            for node_id in range(num_nodes)
        }
        self.sign_count = 0
        self.verify_count = 0

    def signer(self, node_id: int) -> SimulatedSigner:
        """The signing key of ``node_id``."""
        if node_id not in self._signers:
            raise ConfigurationError(f"unknown signer {node_id}")
        return self._signers[node_id]

    def sign(self, node_id: int, message: Any) -> Signature:
        """Sign ``message`` with node ``node_id``'s key."""
        self.sign_count += 1
        return self.signer(node_id).sign(message)

    def verify(self, message: Any, signature: Signature) -> bool:
        """Verify an individual signature."""
        self.verify_count += 1
        if not 0 <= signature.signer < self.num_nodes:
            return False
        expected = self._signers[signature.signer].sign(message)
        return hmac.compare_digest(expected.digest, signature.digest)

    def aggregate(self, message: Any, signatures: Sequence[Signature]) -> AggregateSignature:
        """Aggregate individual signatures on the same message.

        Raises
        ------
        ConfigurationError
            If any constituent signature is invalid or duplicated.
        """
        signers: List[int] = []
        combined = hashlib.sha256()
        for signature in sorted(signatures, key=lambda s: s.signer):
            if signature.signer in signers:
                raise ConfigurationError(
                    f"duplicate signature from signer {signature.signer}"
                )
            if not self.verify(message, signature):
                raise ConfigurationError(
                    f"cannot aggregate invalid signature from {signature.signer}"
                )
            signers.append(signature.signer)
            combined.update(signature.digest)
        return AggregateSignature(signers=tuple(signers), digest=combined.digest())

    def verify_aggregate(
        self, message: Any, aggregate: AggregateSignature, threshold: int
    ) -> bool:
        """Verify an aggregate signature and that it has enough signers."""
        self.verify_count += 1
        if len(set(aggregate.signers)) < threshold:
            return False
        combined = hashlib.sha256()
        for signer in sorted(set(aggregate.signers)):
            if not 0 <= signer < self.num_nodes:
                return False
            combined.update(self._signers[signer].sign(message).digest)
        return hmac.compare_digest(combined.digest(), aggregate.digest)


@dataclass
class ThresholdShare:
    """One node's share of a threshold signature on a message."""

    signer: int
    digest: bytes


class ThresholdSignatureScheme:
    """A (t+1)-of-n threshold signature, simulated.

    Baseline protocols (Dumbo2, HoneyBadgerBFT's common coin) use threshold
    BLS signatures established through a DKG.  We simulate the functionality:
    ``t + 1`` valid shares on the same message combine into a deterministic
    group signature.  The scheme exposes the same operation counters as
    :class:`SignatureScheme` so the computation columns of Table I can be
    measured rather than asserted.
    """

    def __init__(self, num_nodes: int, threshold: int, master_secret: bytes = b"repro-thresh") -> None:
        if not 0 < threshold <= num_nodes:
            raise ConfigurationError(
                f"threshold must be in (0, {num_nodes}], got {threshold}"
            )
        self.num_nodes = num_nodes
        self.threshold = threshold
        self._group_key = hashlib.sha256(master_secret).digest()
        self._share_keys = {
            node_id: hashlib.sha256(master_secret + b"share" + node_id.to_bytes(4, "big")).digest()
            for node_id in range(num_nodes)
        }
        self.share_count = 0
        self.combine_count = 0
        self.verify_count = 0

    def share(self, node_id: int, message: Any) -> ThresholdShare:
        """Produce node ``node_id``'s share on ``message``."""
        if node_id not in self._share_keys:
            raise ConfigurationError(f"unknown share holder {node_id}")
        self.share_count += 1
        digest = hmac.digest(self._share_keys[node_id], hash_value(message), "sha256")
        return ThresholdShare(signer=node_id, digest=digest)

    def verify_share(self, message: Any, share: ThresholdShare) -> bool:
        """Check that a share is valid for ``message``."""
        self.verify_count += 1
        if share.signer not in self._share_keys:
            return False
        expected = hmac.digest(self._share_keys[share.signer], hash_value(message), "sha256")
        return hmac.compare_digest(expected, share.digest)

    def combine(self, message: Any, shares: Iterable[ThresholdShare]) -> bytes:
        """Combine at least ``threshold`` valid shares into the group signature."""
        valid_signers = set()
        for share in shares:
            if self.verify_share(message, share):
                valid_signers.add(share.signer)
        if len(valid_signers) < self.threshold:
            raise ConfigurationError(
                f"need {self.threshold} valid shares, got {len(valid_signers)}"
            )
        self.combine_count += 1
        return hmac.digest(self._group_key, hash_value(message), "sha256")

    def verify_combined(self, message: Any, signature: bytes) -> bool:
        """Verify a combined (group) signature."""
        self.verify_count += 1
        expected = hmac.digest(self._group_key, hash_value(message), "sha256")
        return hmac.compare_digest(expected, signature)
