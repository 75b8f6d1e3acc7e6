"""Length-prefixed wire framing and per-channel frame authentication.

The socket transport (:mod:`repro.net.socket_transport`) moves protocol
messages between real OS processes over TCP or Unix-domain stream sockets.
Stream sockets provide bytes, not messages, so this module supplies the two
byte-level layers the transport stacks on top of them:

**Framing.**  Every wire unit is a *frame*: a 4-byte big-endian length
prefix followed by exactly that many body bytes.  :func:`encode_frame`
produces frames, :class:`FrameDecoder` incrementally reassembles them from
arbitrarily split or coalesced reads (TCP guarantees neither message
boundaries nor read sizes).  Both sides enforce a configurable maximum frame
size *before* buffering the body, so a hostile or corrupted length prefix
cannot make a receiver allocate unbounded memory
(:class:`~repro.errors.FrameTooLargeError`), and a stream that ends mid-frame
is reported as :class:`~repro.errors.TruncatedStreamError` instead of
silently yielding a partial body.

**Authentication.**  Frame bodies are authenticated with the same pairwise
HMAC-SHA256 keys :mod:`repro.crypto.hmac_channel` derives (the paper's
"authenticated channels" assumption).  A connection starts with a
HELLO/HELLO-ACK handshake in which each side contributes a fresh session
nonce; every subsequent DATA frame carries a strictly increasing sequence
number and a tag computed over *both* nonces, the sequence number and the
payload:

* a **tampered** frame (any flipped bit in payload, sequence or tag) fails
  tag verification — :class:`~repro.errors.AuthenticationError`;
* a **replayed** frame from the same connection reuses a consumed sequence
  number — :class:`~repro.errors.ReplayError`;
* a frame (or whole recorded connection) replayed onto a *new* connection
  fails verification because the receiver's nonce differs — the receiver
  contributes randomness precisely so that a recorded dialer handshake
  cannot be replayed wholesale.

A DATA payload is a batch of length-prefixed blobs (:func:`join_blobs` /
:func:`split_blobs`); the blobs are opaque here.  The transport verifies the
tag *before* it splits or deserialises, so untrusted bytes are never parsed.
"""

from __future__ import annotations

import hmac
from typing import List, Optional, Sequence, Tuple

from repro.errors import (
    AuthenticationError,
    FrameError,
    FrameTooLargeError,
    ReplayError,
    TruncatedStreamError,
)

#: Bytes of big-endian length prefix in front of every frame body.
LENGTH_PREFIX_BYTES = 4

#: Default cap on a frame body.  Bundled Delphi messages are a few KiB even
#: at large n; 16 MiB leaves two orders of magnitude of headroom while still
#: bounding what a hostile length prefix can demand.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Bytes of session nonce each side contributes during the handshake.
NONCE_BYTES = 16

#: Bytes of the HMAC-SHA256 tag carried by authenticated frames.
TAG_BYTES = 32

#: Frame-body kind bytes (first byte of every authenticated frame body).
KIND_HELLO = 0x01
KIND_ACK = 0x02
KIND_DATA = 0x03

#: Bytes a sealed DATA body spends before its payload: kind, sequence, tag.
DATA_HEADER_BYTES = 1 + 8 + TAG_BYTES


# ----------------------------------------------------------------------
# Length-prefixed framing
# ----------------------------------------------------------------------
def encode_frame(body: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap ``body`` in a length-prefixed frame.

    Raises
    ------
    FrameTooLargeError
        If ``body`` exceeds ``max_frame_bytes`` (the receiver would reject
        it, so the sender refuses to emit it in the first place).
    """
    length = len(body)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame body of {length} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    return length.to_bytes(LENGTH_PREFIX_BYTES, "big") + body


class FrameDecoder:
    """Incremental frame reassembler for one byte stream.

    Feed it whatever chunks the socket hands you — single bytes, half a
    length prefix, three frames coalesced into one read — and it yields
    complete frame bodies in order.  The decoder is purely synchronous and
    allocates at most ``max_frame_bytes`` + one read of buffered data, so it
    can never hang or be memory-bombed by a hostile peer.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        #: Body length of the frame in progress (None while reading the prefix).
        self._expected: Optional[int] = None

    def feed(self, data: bytes) -> List[bytes]:
        """Consume one read's worth of bytes; return completed frame bodies.

        Raises
        ------
        FrameTooLargeError
            As soon as a length prefix announces a body beyond the cap —
            before any of that body is buffered.
        """
        self._buffer.extend(data)
        frames: List[bytes] = []
        while True:
            if self._expected is None:
                if len(self._buffer) < LENGTH_PREFIX_BYTES:
                    break
                expected = int.from_bytes(self._buffer[:LENGTH_PREFIX_BYTES], "big")
                if expected > self.max_frame_bytes:
                    raise FrameTooLargeError(
                        f"incoming frame declares {expected} bytes, "
                        f"cap is {self.max_frame_bytes}"
                    )
                del self._buffer[:LENGTH_PREFIX_BYTES]
                self._expected = expected
            if len(self._buffer) < self._expected:
                break
            body = bytes(self._buffer[: self._expected])
            del self._buffer[: self._expected]
            self._expected = None
            frames.append(body)
        return frames

    @property
    def partial(self) -> bool:
        """Whether the stream currently ends mid-frame."""
        return self._expected is not None or len(self._buffer) > 0

    def finish(self) -> None:
        """Signal end-of-stream.

        Raises
        ------
        TruncatedStreamError
            If the stream ended with an incomplete frame buffered (the peer
            crashed or the connection was cut mid-write).
        """
        if self.partial:
            have = len(self._buffer)
            want = (
                f"{self._expected}" if self._expected is not None else "a length prefix"
            )
            raise TruncatedStreamError(
                f"stream ended mid-frame ({have} bytes buffered, expecting {want})"
            )


# ----------------------------------------------------------------------
# Authenticated frame bodies
# ----------------------------------------------------------------------
def _require(condition: bool, detail: str) -> None:
    if not condition:
        raise FrameError(detail)


def join_blobs(blobs: Sequence[bytes]) -> bytes:
    """The DATA payload grammar: each blob behind its own length prefix.
    A batch of one is the same grammar, so there is one frame format."""
    return b"".join(
        len(blob).to_bytes(LENGTH_PREFIX_BYTES, "big") + blob for blob in blobs
    )


def split_blobs(payload: bytes) -> List[bytes]:
    """Inverse of :func:`join_blobs`, for a payload :meth:`ChannelCodec.open`
    has verified.  Each length is checked against what is left before it is
    sliced: a truncated prefix, a length past the end, an empty blob or an
    empty batch is a :class:`~repro.errors.FrameError`, never an allocation
    beyond the frame received."""
    blobs: List[bytes] = []
    offset, end = 0, len(payload)
    while offset < end:
        start = offset + LENGTH_PREFIX_BYTES
        _require(start <= end, "truncated blob length in DATA payload")
        stop = start + int.from_bytes(payload[offset:start], "big")
        _require(start < stop <= end, "blob length outside the DATA payload")
        blobs.append(payload[start:stop])
        offset = stop
    _require(bool(blobs), "empty DATA payload")
    return blobs


def _hello_tag(key: bytes, sender: int, receiver: int, epoch: int, nonce: bytes) -> bytes:
    material = (
        b"hello"
        + sender.to_bytes(4, "big")
        + receiver.to_bytes(4, "big")
        + epoch.to_bytes(8, "big")
        + nonce
    )
    return hmac.digest(key, material, "sha256")


def _ack_tag(
    key: bytes,
    sender: int,
    receiver: int,
    epoch: int,
    hello_nonce: bytes,
    ack_nonce: bytes,
) -> bytes:
    material = (
        b"ack"
        + sender.to_bytes(4, "big")
        + receiver.to_bytes(4, "big")
        + epoch.to_bytes(8, "big")
        + hello_nonce
        + ack_nonce
    )
    return hmac.digest(key, material, "sha256")


def encode_hello(key: bytes, sender: int, receiver: int, epoch: int, nonce: bytes) -> bytes:
    """The dialer's first frame body: identity, epoch tag and session nonce."""
    if len(nonce) != NONCE_BYTES:
        raise FrameError(f"hello nonce must be {NONCE_BYTES} bytes")
    tag = _hello_tag(key, sender, receiver, epoch, nonce)
    return (
        bytes([KIND_HELLO])
        + sender.to_bytes(4, "big")
        + epoch.to_bytes(8, "big")
        + nonce
        + tag
    )


def decode_hello(body: bytes) -> Tuple[int, int, bytes, bytes]:
    """Parse a HELLO body into ``(sender, epoch, nonce, tag)`` (unverified).

    The sender id must be parsed *before* verification because it selects
    the pairwise key; :func:`verify_hello` then checks the tag.
    """
    _require(len(body) == 1 + 4 + 8 + NONCE_BYTES + TAG_BYTES, "malformed HELLO frame")
    _require(body[0] == KIND_HELLO, "not a HELLO frame")
    sender = int.from_bytes(body[1:5], "big")
    epoch = int.from_bytes(body[5:13], "big")
    nonce = body[13 : 13 + NONCE_BYTES]
    tag = body[13 + NONCE_BYTES :]
    return sender, epoch, nonce, tag


def verify_hello(
    key: bytes, sender: int, receiver: int, epoch: int, nonce: bytes, tag: bytes
) -> None:
    """Verify a parsed HELLO against the pairwise key; raise on mismatch."""
    expected = _hello_tag(key, sender, receiver, epoch, nonce)
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationError(
            f"invalid HMAC tag on HELLO claiming to be from node {sender}"
        )


def encode_ack(
    key: bytes,
    sender: int,
    receiver: int,
    epoch: int,
    hello_nonce: bytes,
    ack_nonce: bytes,
) -> bytes:
    """The listener's reply: its own epoch and nonce, bound to the HELLO."""
    if len(ack_nonce) != NONCE_BYTES:
        raise FrameError(f"ack nonce must be {NONCE_BYTES} bytes")
    tag = _ack_tag(key, sender, receiver, epoch, hello_nonce, ack_nonce)
    return bytes([KIND_ACK]) + epoch.to_bytes(8, "big") + ack_nonce + tag


def decode_ack(body: bytes) -> Tuple[int, bytes, bytes]:
    """Parse an ACK body into ``(epoch, nonce, tag)`` (unverified)."""
    _require(len(body) == 1 + 8 + NONCE_BYTES + TAG_BYTES, "malformed HELLO-ACK frame")
    _require(body[0] == KIND_ACK, "not a HELLO-ACK frame")
    epoch = int.from_bytes(body[1:9], "big")
    nonce = body[9 : 9 + NONCE_BYTES]
    tag = body[9 + NONCE_BYTES :]
    return epoch, nonce, tag


def verify_ack(
    key: bytes,
    sender: int,
    receiver: int,
    epoch: int,
    hello_nonce: bytes,
    ack_nonce: bytes,
    tag: bytes,
) -> None:
    """Verify a parsed HELLO-ACK against the pairwise key; raise on mismatch."""
    expected = _ack_tag(key, sender, receiver, epoch, hello_nonce, ack_nonce)
    if not hmac.compare_digest(expected, tag):
        raise AuthenticationError("invalid HMAC tag on HELLO-ACK")


class ChannelCodec:
    """Authenticated DATA-frame codec for one established connection.

    One instance per direction per connection, constructed after the
    HELLO/HELLO-ACK handshake from the pairwise key and both session nonces.
    :meth:`seal` stamps each outgoing payload with the next sequence number
    and its tag; :meth:`open` verifies the tag *before* exposing the payload
    and enforces strictly increasing sequence numbers.

    Raises are all typed: :class:`~repro.errors.AuthenticationError` for a
    tampered frame, :class:`~repro.errors.ReplayError` for a reused sequence
    number, :class:`~repro.errors.FrameError` for a structurally malformed
    body.
    """

    def __init__(self, key: bytes, dialer_nonce: bytes, listener_nonce: bytes) -> None:
        self._key = key
        self._session = dialer_nonce + listener_nonce
        self._next_seq = 0
        self._last_seen = -1

    def _tag(self, seq: int, payload: bytes) -> bytes:
        material = b"data" + self._session + seq.to_bytes(8, "big") + payload
        return hmac.digest(self._key, material, "sha256")

    def seal(self, payload: bytes) -> bytes:
        """Build the authenticated DATA body for ``payload``."""
        seq = self._next_seq
        self._next_seq += 1
        return (
            bytes([KIND_DATA])
            + seq.to_bytes(8, "big")
            + self._tag(seq, payload)
            + payload
        )

    def open(self, body: bytes) -> bytes:
        """Verify one DATA body and return its payload.

        Verification order matters: the tag is checked before the replay
        window so a forged frame is always reported as tampering, and the
        payload is only handed out (for deserialisation) once both pass.
        """
        _require(len(body) >= DATA_HEADER_BYTES, "malformed DATA frame")
        _require(body[0] == KIND_DATA, "not a DATA frame")
        seq = int.from_bytes(body[1:9], "big")
        tag = body[9:DATA_HEADER_BYTES]
        payload = body[DATA_HEADER_BYTES:]
        if not hmac.compare_digest(self._tag(seq, payload), tag):
            raise AuthenticationError("invalid HMAC tag on DATA frame")
        if seq <= self._last_seen:
            raise ReplayError(
                f"replayed DATA frame: sequence {seq} already consumed "
                f"(last seen {self._last_seen})"
            )
        self._last_seen = seq
        return payload
