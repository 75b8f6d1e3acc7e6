"""Hashing helpers built on SHA-256.

The paper uses SHA-256 both inside the HMAC authenticated channels and as
the computationally cheap primitive its baseline comparison (HashRand, FIN)
reasons about.  These helpers provide a single canonical way to hash
arbitrary JSON-like Python values so that every node derives identical
digests for identical logical content.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def _canonical_bytes(value: Any) -> bytes:
    """Serialise ``value`` to canonical bytes (sorted-key JSON, UTF-8)."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return json.dumps(value, sort_keys=True, default=str).encode("utf-8")


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).digest()


def hash_value(value: Any) -> bytes:
    """SHA-256 digest of a JSON-serialisable Python value."""
    return hash_bytes(_canonical_bytes(value))

