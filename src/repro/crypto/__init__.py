"""Cryptographic substrates: HMAC channel keys, hashing, simulated signatures
and common coins."""

from repro.crypto.hashing import hash_bytes, hash_value
from repro.crypto.hmac_channel import ChannelKeyring
from repro.crypto.signatures import (
    AggregateSignature,
    SignatureScheme,
    SimulatedSigner,
    ThresholdSignatureScheme,
)
from repro.crypto.coin import CommonCoin

__all__ = [
    "AggregateSignature",
    "ChannelKeyring",
    "CommonCoin",
    "SignatureScheme",
    "SimulatedSigner",
    "ThresholdSignatureScheme",
    "hash_bytes",
    "hash_value",
]
