"""Pairwise keys for the HMAC-SHA256 authenticated channels.

The paper implements authenticated channels "with Hash-based Message
Authentication Codes (HMAC) with the SHA256 Hash function and shared
symmetric keys".  :class:`ChannelKeyring` derives one symmetric key per
node pair from a system master secret.  The channel that uses them is
:class:`~repro.net.framing.ChannelCodec` on the socket wire; the simulators
account its tag as :data:`~repro.net.message.HMAC_TAG_BITS` per message.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError


def _derive_pair_key(master: bytes, a: int, b: int) -> bytes:
    """Derive the symmetric key shared by the unordered node pair ``{a, b}``."""
    low, high = (a, b) if a <= b else (b, a)
    material = master + low.to_bytes(4, "big") + high.to_bytes(4, "big")
    return hashlib.sha256(material).digest()


@dataclass
class ChannelKeyring:
    """Holds the pairwise symmetric keys of one node.

    In a deployment each pair of nodes would run an authenticated key
    exchange; here all pairwise keys are derived from a master secret the
    test/benchmark harness owns, which keeps key distribution out of the
    protocols (exactly as the paper assumes a pre-established authenticated
    channel).
    """

    node_id: int
    num_nodes: int
    master_secret: bytes = b"repro-delphi-master-secret"

    def __post_init__(self) -> None:
        if not 0 <= self.node_id < self.num_nodes:
            raise ConfigurationError(
                f"node_id {self.node_id} outside [0, {self.num_nodes})"
            )
        self._keys: Dict[int, bytes] = {
            peer: _derive_pair_key(self.master_secret, self.node_id, peer)
            for peer in range(self.num_nodes)
            if peer != self.node_id
        }

    def key_for(self, peer: int) -> bytes:
        """Symmetric key shared with ``peer``."""
        if peer not in self._keys:
            raise ConfigurationError(f"no channel key for peer {peer}")
        return self._keys[peer]
