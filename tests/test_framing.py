"""Property tests for the length-prefixed framing codec.

The decoder must reassemble *any* payload sequence exactly, no matter how the
byte stream is chunked; oversized and truncated streams must fail with typed
errors; and feeding it arbitrary garbage must terminate promptly (the decoder
is purely synchronous and bounded, so "never hangs" reduces to "every feed()
call returns after a bounded number of buffer operations").
"""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hmac_channel import ChannelKeyring
from repro.errors import (
    AuthenticationError,
    FrameError,
    FrameTooLargeError,
    ReplayError,
    TruncatedStreamError,
)
from repro.net.framing import (
    ChannelCodec,
    FrameDecoder,
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    encode_frame,
    join_blobs,
    split_blobs,
)

payloads = st.lists(st.binary(min_size=0, max_size=200), min_size=0, max_size=20)


def chunked(stream: bytes, cuts):
    """Split ``stream`` at the (sorted, deduplicated) cut offsets."""
    offsets = sorted({min(cut, len(stream)) for cut in cuts})
    pieces = []
    previous = 0
    for offset in offsets:
        pieces.append(stream[previous:offset])
        previous = offset
    pieces.append(stream[previous:])
    return pieces


class TestReassemblyProperties:
    @given(
        bodies=payloads,
        cuts=st.lists(st.integers(min_value=0, max_value=5000), max_size=40),
    )
    def test_any_chunking_reassembles_exactly(self, bodies, cuts):
        stream = b"".join(encode_frame(body) for body in bodies)
        decoder = FrameDecoder()
        out = []
        for piece in chunked(stream, cuts):
            out.extend(decoder.feed(piece))
        assert out == bodies
        assert not decoder.partial
        decoder.finish()  # complete stream: must not raise

    @given(bodies=payloads)
    def test_byte_at_a_time_dribbling(self, bodies):
        stream = b"".join(encode_frame(body) for body in bodies)
        decoder = FrameDecoder()
        out = []
        for index in range(len(stream)):
            out.extend(decoder.feed(stream[index : index + 1]))
        assert out == bodies

    @given(bodies=payloads)
    def test_single_coalesced_read(self, bodies):
        stream = b"".join(encode_frame(body) for body in bodies)
        assert FrameDecoder().feed(stream) == bodies

    @given(body=st.binary(max_size=200), extra=st.integers(min_value=1, max_value=32))
    def test_truncation_is_typed(self, body, extra):
        frame = encode_frame(body)
        cut = len(frame) - min(extra, len(frame) - (0 if body else 1))
        decoder = FrameDecoder()
        # Cutting anywhere strictly inside the frame leaves it partial...
        if cut <= 0:
            return
        decoder.feed(frame[:cut])
        assert decoder.partial
        with pytest.raises(TruncatedStreamError):
            decoder.finish()

    @given(garbage=st.binary(min_size=0, max_size=4096))
    def test_garbage_never_hangs_or_crashes_untyped(self, garbage):
        """Arbitrary bytes either parse as frames or raise the typed cap
        error — nothing else, and always promptly."""
        decoder = FrameDecoder(max_frame_bytes=1024)
        try:
            frames = decoder.feed(garbage)
        except FrameTooLargeError:
            return
        assert all(len(frame) <= 1024 for frame in frames)
        # Whatever remains is either clean or an honest partial frame.
        if decoder.partial:
            with pytest.raises(TruncatedStreamError):
                decoder.finish()
        else:
            decoder.finish()


class TestSizeCap:
    def test_sender_refuses_oversized_body(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(b"x" * 11, max_frame_bytes=10)

    def test_receiver_rejects_oversized_prefix_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=10)
        prefix = (11).to_bytes(LENGTH_PREFIX_BYTES, "big")
        with pytest.raises(FrameTooLargeError):
            decoder.feed(prefix)

    def test_cap_boundary_is_inclusive(self):
        body = b"x" * 10
        frame = encode_frame(body, max_frame_bytes=10)
        assert FrameDecoder(max_frame_bytes=10).feed(frame) == [body]

    def test_default_cap_matches_module_constant(self):
        assert encode_frame(b"")[:LENGTH_PREFIX_BYTES] == b"\x00" * LENGTH_PREFIX_BYTES
        assert MAX_FRAME_BYTES == 16 * 1024 * 1024


class TestBlobGrammar:
    """The DATA payload: a batch of length-prefixed blobs.  The splitter only
    ever sees bytes whose tag verified, but the key holder may be the
    adversary, so everything that is not a batch is a FrameError."""

    @given(blobs=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=20))
    def test_split_inverts_join(self, blobs):
        assert split_blobs(join_blobs(blobs)) == blobs

    @pytest.mark.parametrize(
        "payload",
        [
            b"",  # an empty batch
            b"\x00\x00",  # truncated length
            join_blobs([b"ok"]) + b"\x00\x00\x00",  # truncated length after a blob
            b"\x00\x00\x00\x09short",  # length past the end
            b"\xff\xff\xff\xffx",  # 4 GiB declared, one byte present
            b"\x00\x00\x00\x00",  # zero-length blob
            join_blobs([b"ok"]) + b"\x00\x00\x00\x00",  # zero-length blob, second
            join_blobs([b"ok"]) + b"!",  # trailing byte
        ],
    )
    def test_hostile_payloads_are_frame_errors(self, payload):
        with pytest.raises(FrameError):
            split_blobs(payload)

    @given(payload=st.binary(max_size=512))
    def test_arbitrary_bytes_split_exactly_or_raise_frame_error(self, payload):
        """Nothing but FrameError escapes, and what is handed out is a
        partition of the payload: no blob is built from a declared length."""
        try:
            blobs = split_blobs(payload)
        except FrameError:
            return
        assert all(blobs) and join_blobs(blobs) == payload


class TestChannelCodecProperties:
    @given(
        payload_sequence=st.lists(st.binary(max_size=200), min_size=1, max_size=10),
        key=st.binary(min_size=16, max_size=32),
    )
    def test_seal_open_round_trip_in_order(self, payload_sequence, key):
        tx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        rx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        for payload in payload_sequence:
            assert rx.open(tx.seal(payload)) == payload

    @given(payload=st.binary(max_size=100), flip=st.integers(min_value=0))
    def test_any_single_bit_flip_is_rejected(self, payload, flip):
        key = b"k" * 32
        tx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        rx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        body = bytearray(tx.seal(payload))
        body[(flip // 8) % len(body)] ^= 1 << (flip % 8)
        with pytest.raises((AuthenticationError, FrameError)):
            rx.open(bytes(body))

    @given(payload=st.binary(max_size=100))
    def test_a_frame_sealed_for_another_pair_is_rejected(self, payload):
        """Keys are per node pair: a frame 0 sealed for 1 does not open on
        the 0 -> 2 channel, even with the same session nonces."""
        keyrings = [ChannelKeyring(node_id=i, num_nodes=3) for i in range(3)]
        tx = ChannelCodec(keyrings[0].key_for(1), b"d" * 16, b"l" * 16)
        rx = ChannelCodec(keyrings[2].key_for(0), b"d" * 16, b"l" * 16)
        with pytest.raises(AuthenticationError):
            rx.open(tx.seal(payload))

    @given(drop_then_replay=st.integers(min_value=0, max_value=5))
    def test_out_of_order_delivery_is_a_replay(self, drop_then_replay):
        """Sequence numbers are strictly increasing: delivering an older
        (even never-seen) frame after a newer one is rejected as a replay."""
        key = b"k" * 32
        tx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        rx = ChannelCodec(key, b"d" * 16, b"l" * 16)
        old = tx.seal(b"old")
        for index in range(drop_then_replay + 1):
            rx.open(tx.seal(b"newer-%d" % index))
        with pytest.raises(ReplayError):
            rx.open(old)
