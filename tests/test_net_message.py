"""Tests for message construction and wire-size accounting."""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.message import (
    HEADER_BITS,
    HMAC_TAG_BITS,
    Envelope,
    Message,
    MessageTrace,
    estimate_size_bits,
    submessage_payload_bits,
)


def reference_size_bits(message: Message) -> int:
    """The pre-slotted Message size formula, re-derived from first
    principles (the parity oracle for the memoised implementation)."""
    bits = HEADER_BITS
    bits += 8 * len(message.protocol) + 8 * len(message.mtype)
    if message.round is not None:
        bits += max(4, int(math.ceil(math.log2(message.round + 2))))
    bits += estimate_size_bits(message.payload)
    return bits


class TestEstimateSizeBits:
    def test_none_costs_nothing(self):
        assert estimate_size_bits(None) == 0

    def test_bool_costs_one_bit(self):
        assert estimate_size_bits(True) == 1
        assert estimate_size_bits(False) == 1

    def test_small_int_has_floor(self):
        assert estimate_size_bits(1) == 8
        assert estimate_size_bits(0) == 8

    def test_large_int_uses_bit_length(self):
        assert estimate_size_bits(2 ** 40) == 41

    def test_float_costs_value_bits(self):
        assert estimate_size_bits(3.14) == 64

    def test_string_costs_8_bits_per_char(self):
        assert estimate_size_bits("abcd") == 32

    def test_bytes_cost_8_bits_per_byte(self):
        assert estimate_size_bits(b"\x00\x01\x02") == 24

    def test_list_sums_elements_plus_framing(self):
        assert estimate_size_bits([1.0, 2.0]) == 8 + 64 + 64

    def test_dict_sums_keys_and_values(self):
        size = estimate_size_bits({"a": 1.0})
        assert size == 8 + 8 + 64

    def test_nested_structures(self):
        payload = [[1.0, 2.0], [3.0]]
        assert estimate_size_bits(payload) == 8 + (8 + 128) + (8 + 64)


class TestMessage:
    def test_size_includes_header_and_names(self):
        message = Message("p", "T", None, None)
        assert message.size_bits() == HEADER_BITS + 8 + 8

    def test_round_number_adds_bits(self):
        without = Message("p", "T", None, None).size_bits()
        with_round = Message("p", "T", 5, None).size_bits()
        assert with_round > without

    def test_larger_round_costs_more_bits(self):
        small = Message("p", "T", 2, None).size_bits()
        large = Message("p", "T", 2 ** 20, None).size_bits()
        assert large > small

    def test_size_bytes_rounds_up(self):
        message = Message("p", "T", None, True)
        assert message.size_bytes() == (message.size_bits() + 7) // 8

    def test_with_payload_keeps_identity_fields(self):
        message = Message("p", "T", 3, 1.0)
        other = message.with_payload(2.0)
        assert other.protocol == "p" and other.mtype == "T" and other.round == 3
        assert other.payload == 2.0

    def test_messages_are_hashable_and_frozen(self):
        message = Message("p", "T", 1, 0.5)
        assert hash(message) == hash(Message("p", "T", 1, 0.5))
        with pytest.raises(AttributeError):
            message.mtype = "X"


#: Payload strategy mirroring what protocols actually send: scalars, flat
#: and nested sequences of JSON-ish values.
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)
_payloads = st.one_of(
    _scalar,
    st.lists(_scalar, max_size=4),
    st.lists(st.tuples(st.text(max_size=4), st.integers(1, 8), st.floats(0, 1)), max_size=3),
)


class TestSlottedMessageParity:
    """The __slots__/interned/memoised Message must behave exactly like the
    frozen dataclass it replaced."""

    @given(
        protocol=st.sampled_from(["delphi", "binaa", "rbc:3", "p"]),
        mtype=st.sampled_from(["BUNDLE", "ECHO1", "VAL", "T"]),
        round=st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 20)),
        payload=_payloads,
    )
    def test_size_equality_hash_parity(self, protocol, mtype, round, payload):
        message = Message(protocol, mtype, round, payload)
        assert message.size_bits() == reference_size_bits(message)
        assert message.size_bytes() == (message.size_bits() + 7) // 8
        twin = Message(protocol, mtype, round, payload)
        assert message == twin
        try:
            hash_value = hash(message)
        except TypeError:
            pass  # unhashable payloads (lists) — same as the dataclass
        else:
            assert hash_value == hash(twin)

    def test_no_instance_dict(self):
        message = Message("p", "T", 1, 0.5)
        assert not hasattr(message, "__dict__")

    def test_interned_tag_pair_is_shared(self):
        first = Message("delphi", "BUNDLE", None, None)
        second = Message("delphi", "BUNDLE", 3, [1.0])
        assert first.protocol is second.protocol
        assert first.mtype is second.mtype

    def test_inequality_and_not_implemented(self):
        assert Message("p", "T", 1, 0.5) != Message("p", "T", 2, 0.5)
        assert Message("p", "T", 1, 0.5) != "not-a-message"

    def test_pickle_roundtrip(self):
        message = Message("p", "T", 3, (1, 2.0, "x"))
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message
        assert clone.size_bits() == message.size_bits()

    def test_envelope_is_slotted_and_frozen(self):
        envelope = Envelope(0, 1, Message("p", "T", None, None))
        assert not hasattr(envelope, "__dict__")
        with pytest.raises(AttributeError):
            envelope.sender = 5
        assert pickle.loads(pickle.dumps(envelope)) == envelope


class TestSizeMemo:
    def test_memo_survives_repeated_queries(self):
        message = Message("p", "T", 3, [1.0, 2.0])
        first = message.size_bits()
        assert message._size == first
        assert message.size_bits() == first

    def test_round_memo_is_bounded(self):
        # A socket peer chooses the rounds loads_message constructs; the
        # memo starts over instead of growing with them.
        from repro.net import message as message_module

        for round_number in range(3 * message_module._ROUND_BITS_CAP):
            message = Message("p", "T", round_number, None)
            assert message.size_bits() == reference_size_bits(message)
            assert len(message_module._ROUND_BITS) <= message_module._ROUND_BITS_CAP

    def test_with_payload_same_object_returns_self(self):
        payload = [1.0, 2.0]
        message = Message("p", "T", 3, payload)
        message.size_bits()
        assert message.with_payload(payload) is message

    def test_with_payload_keeps_header_round_memo(self):
        message = Message("p", "T", 3, [1.0])
        message.size_bits()
        other = message.with_payload([2.0, 3.0])
        assert other is not message
        assert other._hr_bits == message._hr_bits
        assert other.size_bits() == reference_size_bits(other)

    def test_rebroadcast_after_with_payload_sizes_correctly(self):
        # An adversary re-payloads a message and the runtime sizes the copy
        # for every destination of the re-broadcast: the memo must belong to
        # the copy, never leak from the original.
        message = Message("p", "T", 1, 0)
        assert message.size_bits() == reference_size_bits(message)
        flipped = message.with_payload(1)
        for _destination in range(3):
            assert flipped.size_bits() == reference_size_bits(flipped)
        assert message.size_bits() == reference_size_bits(message)

    def test_presized_construction_matches_walk(self):
        payload = ((0, (1, 2), (("ECHO1", 1, 0.0),), ()),)
        presized = Message.sized("delphi", "BUNDLE", None, payload,
                                 estimate_size_bits(payload))
        plain = Message("delphi", "BUNDLE", None, payload)
        assert presized.size_bits() == plain.size_bits()

    @given(
        mtype=st.sampled_from(["ECHO1", "ECHO2", "X"]),
        round=st.integers(min_value=1, max_value=64),
        value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_submessage_fast_path_matches_generic_walk(self, mtype, round, value):
        sub = (mtype, round, value)
        assert submessage_payload_bits(sub) == estimate_size_bits(tuple(sub))
        assert submessage_payload_bits(sub) == estimate_size_bits(list(sub))


class TestEnvelope:
    def test_authenticated_envelope_includes_hmac(self):
        message = Message("p", "T", None, None)
        sealed = Envelope(0, 1, message, authenticated=True)
        plain = Envelope(0, 1, message, authenticated=False)
        assert sealed.size_bits() == plain.size_bits() + HMAC_TAG_BITS

    def test_key_groups_by_channel_and_type(self):
        message = Message("p", "T", None, None)
        envelope = Envelope(2, 3, message)
        assert envelope.key() == (2, 3, "p", "T")


class TestMessageTrace:
    def test_records_counts_and_bits(self):
        trace = MessageTrace()
        message = Message("p", "T", None, 1.0)
        trace.record(Envelope(0, 1, message))
        trace.record(Envelope(1, 0, message))
        assert trace.message_count == 2
        assert trace.total_bits == 2 * Envelope(0, 1, message).size_bits()

    def test_per_sender_accounting(self):
        trace = MessageTrace()
        message = Message("p", "T", None, None)
        trace.record(Envelope(0, 1, message))
        trace.record(Envelope(0, 2, message))
        trace.record(Envelope(1, 0, message))
        assert trace.per_sender_bits[0] == 2 * Envelope(0, 1, message).size_bits()
        assert trace.per_sender_bits[1] == Envelope(1, 0, message).size_bits()

    def test_megabyte_conversion(self):
        trace = MessageTrace()
        trace.total_bits = 8_000_000
        assert trace.total_megabytes == pytest.approx(1.0)
