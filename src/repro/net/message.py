"""Protocol messages and their wire-size accounting.

Every protocol in this package exchanges :class:`Message` objects.  A message
carries a protocol tag (which protocol instance it belongs to), a message
type (``ECHO1``, ``ECHO2``, ``VAL``, ``SEND``, ``READY`` ...), an optional
round number and an arbitrary payload.

Because the paper's evaluation reports *communication complexity in bits*
(Table I, Fig. 6b), messages know how to estimate their serialised size.  The
estimate intentionally mirrors the paper's accounting: a value of ``l`` bits,
plus a constant per-field framing overhead, plus an HMAC tag when transported
over an authenticated channel.

Hot-path design (the protocol layer sends one message per node per event, so
message construction and sizing dominate a naive profile):

* :class:`Message` is a ``__slots__`` class, not a dataclass — no instance
  dict, no generated ``__init__`` indirection;
* the ``(protocol, mtype)`` pair is *interned*: every message constructed
  with the same pair shares the same two string objects and a precomputed
  header size (:data:`HEADER_BITS` plus the encoded names), so the header
  arithmetic happens once per distinct pair per process, not per message;
* the total size is memoised per instance, split into a payload-independent
  part (header + round varint) and the payload walk.  The payload-independent
  part survives :meth:`Message.with_payload`, so re-payloading a message
  (adversarial equivocation, re-broadcast wrappers) never re-derives the
  header, and ``with_payload`` with the identical payload object returns
  ``self`` — the full memo survives;
* BinAA sub-messages are fixed-shape ``(mtype, round, value)`` triples;
  :func:`submessage_payload_bits` sizes them by formula (memoised per
  distinct triple) instead of the generic recursive walk;
* derived, payload-pure caches live on the physical message: a broadcast
  hands the *same* :class:`Message` to every receiver, so the first one
  computes and the rest read.  ``_bundle_memo`` (the decoded Delphi bundle,
  :func:`repro.core.bundling.shared_decode`), ``_peel`` (the namespace
  split, :func:`repro.protocols.base.peel`) and ``_wire`` (the pickled wire
  bytes, :func:`repro.net.socket_transport.dumps_message`) are left unset
  at construction and dropped by ``__reduce__`` and ``with_payload``.  Equal
  wire bytes load as one shared message (``socket_transport.loads_message``),
  so the rule holds across a socket too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Framing overhead charged per message, in bits (type tags, ids, lengths).
HEADER_BITS = 64

#: Size of an HMAC-SHA256 authentication tag, in bits.
HMAC_TAG_BITS = 256

#: Default size of a single scalar input value, in bits (double precision).
VALUE_BITS = 64


def estimate_size_bits(payload: Any) -> int:
    """Estimate the serialised size of ``payload`` in bits.

    The estimate is intentionally simple and deterministic so that the
    communication-complexity benchmarks are reproducible:

    * ``None`` costs nothing,
    * booleans cost 1 bit,
    * integers cost their bit length (at least 8),
    * floats cost :data:`VALUE_BITS`,
    * strings and bytes cost 8 bits per character/byte,
    * lists, tuples, sets, dicts cost the sum of their elements plus 8 bits
      of length framing per container.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(8, payload.bit_length())
    if isinstance(payload, float):
        return VALUE_BITS
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (bytes, bytearray)):
        return 8 * len(payload)
    if isinstance(payload, dict):
        total = 8
        for key, value in payload.items():
            total += estimate_size_bits(key) + estimate_size_bits(value)
        return total
    if isinstance(payload, (list, tuple, set, frozenset)):
        total = 8
        for item in payload:
            total += estimate_size_bits(item)
        return total
    # Fall back to the JSON representation for unknown payload types.
    try:
        return 8 * len(json.dumps(payload, default=str))
    except (TypeError, ValueError):
        return 8 * len(repr(payload))


def int_size_bits(value: int) -> int:
    """:func:`estimate_size_bits` for a plain ``int`` (the 8-bit floor)."""
    return max(8, value.bit_length())


#: Interned ``(protocol, mtype)`` pairs -> (protocol, mtype, header bits).
#: The stored strings are the canonical objects every Message shares, so
#: hot-path tag comparisons hit CPython's identity fast path.
_HEADER_INTERN: Dict[Tuple[str, str], Tuple[str, str, int]] = {}

#: Soft cap on the header intern: a long-lived service mints ``epoch:<k>/``
#: tags forever and a socket peer chooses the strings ``loads_message``
#: constructs.  Interning only buys identity, so overflow starts over.
_HEADER_INTERN_CAP = 4096

#: Memoised round-field varint widths (the paper's ``log log`` term).
_ROUND_BITS: Dict[int, int] = {}

#: Soft cap on the round memo, for the same reason as the header intern: a
#: socket peer chooses the round ``loads_message`` constructs.
_ROUND_BITS_CAP = 4096

#: Memoised payload sizes of fixed-shape BinAA sub-message triples.
_SUB_BITS: Dict[Tuple[str, int, float], int] = {}

#: Soft cap on the sub-message size memo (distinct triples are bounded by
#: mtypes x rounds x dyadic values in honest runs; the cap only matters for
#: adversarial floods of unique triples).
_SUB_BITS_CAP = 65536


def _intern_header(protocol: str, mtype: str) -> Tuple[str, str, int]:
    key = (protocol, mtype)
    entry = _HEADER_INTERN.get(key)
    if entry is None:
        if len(_HEADER_INTERN) >= _HEADER_INTERN_CAP:
            _HEADER_INTERN.clear()
        entry = _HEADER_INTERN[key] = (
            protocol,
            mtype,
            HEADER_BITS + 8 * len(protocol) + 8 * len(mtype),
        )
    return entry


def round_field_bits(round_number: int) -> int:
    """Width of the variable-length round field, in bits (memoised)."""
    bits = _ROUND_BITS.get(round_number)
    if bits is None:
        if len(_ROUND_BITS) >= _ROUND_BITS_CAP:
            _ROUND_BITS.clear()
        bits = _ROUND_BITS[round_number] = max(
            4, int(math.ceil(math.log2(round_number + 2)))
        )
    return bits


def submessage_payload_bits(sub: Tuple[str, int, float]) -> int:
    """Payload size of one ``(mtype, round, value)`` BinAA sub-message.

    Fixed-shape fast path for the triples BinAA and the Delphi bundle codec
    move around: container framing + 8 bits per mtype character + the
    integer round + a :data:`VALUE_BITS` float.  Exactly equal to
    ``estimate_size_bits(tuple(sub))``, memoised per distinct triple.
    """
    bits = _SUB_BITS.get(sub)
    if bits is None:
        if len(_SUB_BITS) >= _SUB_BITS_CAP:
            _SUB_BITS.clear()
        mtype, round_number, _value = sub
        bits = _SUB_BITS[sub] = (
            8 + 8 * len(mtype) + int_size_bits(round_number) + VALUE_BITS
        )
    return bits


class Message:
    """A single protocol message (immutable).

    Attributes
    ----------
    protocol:
        Identifier of the protocol instance the message belongs to, e.g.
        ``"binaa"``, ``"delphi"``, ``"rbc:3"``.
    mtype:
        Message type within the protocol, e.g. ``"ECHO1"``.
    round:
        Optional round number (``None`` for round-free messages).
    payload:
        Arbitrary, JSON-like payload.
    """

    __slots__ = (
        "protocol", "mtype", "round", "payload",
        "_hr_bits", "_size", "_bundle_memo", "_peel", "_wire",
    )

    def __init__(
        self,
        protocol: str,
        mtype: str,
        round: Optional[int] = None,
        payload: Any = None,
    ) -> None:
        interned = _intern_header(protocol, mtype)
        hr_bits = interned[2]
        if round is not None:
            hr_bits += round_field_bits(round)
        set_slot = object.__setattr__
        set_slot(self, "protocol", interned[0])
        set_slot(self, "mtype", interned[1])
        set_slot(self, "round", round)
        set_slot(self, "payload", payload)
        set_slot(self, "_hr_bits", hr_bits)
        set_slot(self, "_size", None)

    @classmethod
    def sized(
        cls,
        protocol: str,
        mtype: str,
        round: Optional[int],
        payload: Any,
        payload_bits: int,
    ) -> "Message":
        """Construct a message whose payload size is already known.

        The bundle codec computes the payload's size while encoding it, so
        the message never walks its (large, nested) payload at all.  The
        caller guarantees ``payload_bits == estimate_size_bits(payload)``.
        """
        message = cls(protocol, mtype, round, payload)
        object.__setattr__(message, "_size", message._hr_bits + payload_bits)
        return message

    # ------------------------------------------------------------------
    # Immutability
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Message is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Message is immutable (cannot delete {name!r})")

    def __reduce__(self):
        # Memo slots are per-process caches; rebuild from the four fields.
        return (Message, (self.protocol, self.mtype, self.round, self.payload))

    # ------------------------------------------------------------------
    # Value semantics (mirrors the former frozen-dataclass behaviour)
    # ------------------------------------------------------------------
    def __eq__(self, other: Any):
        if self is other:
            return True
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.protocol == other.protocol
            and self.mtype == other.mtype
            and self.round == other.round
            and self.payload == other.payload
        )

    def __ne__(self, other: Any):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.protocol, self.mtype, self.round, self.payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(protocol={self.protocol!r}, mtype={self.mtype!r}, "
            f"round={self.round!r}, payload={self.payload!r})"
        )

    # ------------------------------------------------------------------
    # Wire-size accounting
    # ------------------------------------------------------------------
    def size_bits(self) -> int:
        """Serialised size of this message, in bits, excluding the HMAC tag.

        Memoised per instance: the header + round part was precomputed at
        construction, the payload walk runs at most once.
        """
        size = self._size
        if size is None:
            size = self._hr_bits + estimate_size_bits(self.payload)
            object.__setattr__(self, "_size", size)
        return size

    def size_bytes(self) -> int:
        """Serialised size of this message, rounded up to whole bytes."""
        return (self.size_bits() + 7) // 8

    def with_payload(self, payload: Any) -> "Message":
        """Return a copy of this message carrying a different payload.

        The payload-independent part of the size memo (interned header +
        round varint) survives the copy; passing the identical payload
        object returns ``self`` so the full memo survives too.
        """
        if payload is self.payload:
            return self
        clone = Message.__new__(Message)
        set_slot = object.__setattr__
        set_slot(clone, "protocol", self.protocol)
        set_slot(clone, "mtype", self.mtype)
        set_slot(clone, "round", self.round)
        set_slot(clone, "payload", payload)
        set_slot(clone, "_hr_bits", self._hr_bits)
        set_slot(clone, "_size", None)
        return clone


class Envelope:
    """A message in flight: sender, destination, message and authentication.

    Envelopes are what the network actually transports.  ``authenticated``
    records whether the message travelled over an authenticated channel, in
    which case its wire size includes an HMAC tag.
    """

    __slots__ = ("sender", "destination", "message", "authenticated", "tag")

    def __init__(
        self,
        sender: int,
        destination: int,
        message: Message,
        authenticated: bool = True,
        tag: Optional[bytes] = None,
    ) -> None:
        set_slot = object.__setattr__
        set_slot(self, "sender", sender)
        set_slot(self, "destination", destination)
        set_slot(self, "message", message)
        set_slot(self, "authenticated", authenticated)
        set_slot(self, "tag", tag)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Envelope is immutable (cannot set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Envelope is immutable (cannot delete {name!r})")

    def __reduce__(self):
        return (
            Envelope,
            (self.sender, self.destination, self.message, self.authenticated, self.tag),
        )

    def __eq__(self, other: Any):
        if self is other:
            return True
        if not isinstance(other, Envelope):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.destination == other.destination
            and self.message == other.message
            and self.authenticated == other.authenticated
            and self.tag == other.tag
        )

    def __hash__(self) -> int:
        return hash(
            (self.sender, self.destination, self.message, self.authenticated, self.tag)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope(sender={self.sender!r}, destination={self.destination!r}, "
            f"message={self.message!r}, authenticated={self.authenticated!r}, "
            f"tag={self.tag!r})"
        )

    def size_bits(self) -> int:
        """Wire size of the envelope in bits (message plus HMAC tag)."""
        bits = self.message.size_bits()
        if self.authenticated:
            bits += HMAC_TAG_BITS
        return bits

    def size_bytes(self) -> int:
        """Wire size of the envelope, rounded up to whole bytes."""
        return (self.size_bits() + 7) // 8

    def key(self) -> Tuple[int, int, str, str]:
        """A coarse identity used by adversarial schedulers to group envelopes."""
        return (self.sender, self.destination, self.message.protocol, self.message.mtype)


@dataclass
class MessageTrace:
    """Aggregated statistics over a set of transported envelopes.

    Used by the testbed models and benchmarks to report the total number of
    messages and bytes each protocol run consumed.
    """

    message_count: int = 0
    total_bits: int = 0
    per_sender_bits: dict = field(default_factory=dict)

    def record(self, envelope: Envelope) -> None:
        """Account for one transported envelope."""
        self.record_raw(envelope.sender, envelope.size_bits())

    def record_raw(self, sender: int, bits: int) -> None:
        """Account for one transported envelope given its precomputed size.

        The fast simulation engine accumulates traffic without building
        :class:`Envelope` objects and merges totals through this method.
        """
        self.message_count += 1
        self.total_bits += bits
        self.per_sender_bits[sender] = self.per_sender_bits.get(sender, 0) + bits

    def merge_counts(
        self, message_count: int, total_bits: int, per_sender_bits: Dict[int, int]
    ) -> None:
        """Merge pre-aggregated counts (one bulk update per simulation run)."""
        self.message_count += message_count
        self.total_bits += total_bits
        for sender, bits in per_sender_bits.items():
            self.per_sender_bits[sender] = self.per_sender_bits.get(sender, 0) + bits

    @property
    def total_bytes(self) -> int:
        """Total traffic in bytes."""
        return (self.total_bits + 7) // 8

    @property
    def total_megabytes(self) -> float:
        """Total traffic in megabytes (1 MB = 1e6 bytes)."""
        return self.total_bytes / 1e6
