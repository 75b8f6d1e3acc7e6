"""HMAC-SHA256 authenticated point-to-point channels.

The paper implements authenticated channels "with Hash-based Message
Authentication Codes (HMAC) with the SHA256 Hash function and shared
symmetric keys".  :class:`ChannelKeyring` derives one pairwise symmetric key
per ordered node pair from a system master secret, and
:class:`AuthenticatedChannel` signs and verifies messages with the real
:mod:`hmac` module, so the authentication path exercised here is the same
primitive the paper's implementation uses.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import AuthenticationError, ConfigurationError
from repro.net.message import Envelope, Message


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


class AuthenticatedChannel:
    """Signs outgoing and verifies incoming envelopes with HMAC-SHA256."""

    def __init__(self, keyring: ChannelKeyring) -> None:
        self.keyring = keyring

    @staticmethod
    def _message_bytes(sender: int, destination: int, message: Message) -> bytes:
        parts = [
            sender.to_bytes(4, "big"),
            destination.to_bytes(4, "big"),
            message.protocol.encode("utf-8"),
            b"\x00",
            message.mtype.encode("utf-8"),
            b"\x00",
            repr(message.round).encode("utf-8"),
            b"\x00",
            repr(message.payload).encode("utf-8"),
        ]
        return b"".join(parts)

    def seal(self, destination: int, message: Message) -> Envelope:
        """Produce an authenticated envelope for ``message`` to ``destination``."""
        key = self.keyring.key_for(destination)
        tag = hmac.digest(
            key,
            self._message_bytes(self.keyring.node_id, destination, message),
            "sha256",
        )
        return Envelope(
            sender=self.keyring.node_id,
            destination=destination,
            message=message,
            authenticated=True,
            tag=tag,
        )

    def verify(self, envelope: Envelope) -> Message:
        """Verify an incoming envelope's tag and return its message.

        Raises
        ------
        AuthenticationError
            If the envelope carries no tag or the tag does not verify.
        """
        if envelope.destination != self.keyring.node_id:
            raise AuthenticationError(
                f"envelope addressed to {envelope.destination}, "
                f"not to this node {self.keyring.node_id}"
            )
        if envelope.tag is None:
            raise AuthenticationError("envelope carries no authentication tag")
        key = self.keyring.key_for(envelope.sender)
        expected = hmac.digest(
            key,
            self._message_bytes(envelope.sender, envelope.destination, envelope.message),
            "sha256",
        )
        if not hmac.compare_digest(expected, envelope.tag):
            raise AuthenticationError(
                f"invalid HMAC tag on message from {envelope.sender}"
            )
        return envelope.message


def build_keyrings(num_nodes: int, master_secret: bytes = b"repro-delphi-master-secret") -> Dict[int, ChannelKeyring]:
    """Build one keyring per node, all derived from the same master secret."""
    return {
        node_id: ChannelKeyring(node_id=node_id, num_nodes=num_nodes, master_secret=master_secret)
        for node_id in range(num_nodes)
    }
