"""Tests for Delphi's checkpoint/level state and the bundled message codec."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bundling
from repro.core.bundling import (
    Bundle,
    decode_bundle,
    encode_bundle,
    encode_bundle_sized,
    shared_decode,
)
from repro.core.checkpoints import LevelState
from repro.errors import ProtocolError
from repro.net.message import Message, estimate_size_bits
from repro.protocols.binaa import BinAAEngine

from helpers import UNCONVERTIBLE_BUNDLES


def legacy_encode_bundle(bundle):
    """The pre-tuple (nested-list, "dict-shaped") bundle encoding, kept as
    the equivalence oracle for the flat-tuple codec."""
    payload = []
    for level in sorted(bundle.levels):
        entry = bundle.levels[level]
        if entry.empty:
            continue
        payload.append(
            [
                level,
                list(entry.exclude),
                [[m, r, v] for m, r, v in entry.default],
                [
                    [index, [[m, r, v] for m, r, v in subs]]
                    for index, subs in sorted(entry.explicit.items())
                ],
            ]
        )
    return payload


def plan_of(payload):
    """The receive plan of an encoded payload, recomputed from the payload
    alone: per level in level order, ``(level, divergent_set, divergent,
    explicit_pairs, default_subs, exclude_set)``."""
    rows = []
    for level, exclude, default, explicit in sorted(payload):
        exclude_set = frozenset(exclude)
        divergent = exclude_set | {index for index, _subs in explicit}
        pairs = tuple((index, sub) for index, subs in sorted(explicit) for sub in subs)
        rows.append((level, divergent, tuple(sorted(divergent)), pairs, list(default), exclude_set))
    return tuple(rows)


#: Strategy for honest sub-messages: BinAA echo triples.
_subs = st.lists(
    st.tuples(
        st.sampled_from(["ECHO1", "ECHO2"]),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75]),
    ),
    min_size=0,
    max_size=3,
)


@st.composite
def bundles(draw):
    bundle = Bundle()
    for level in draw(st.lists(st.integers(0, 5), unique=True, max_size=3)):
        exclude = draw(st.lists(st.integers(-64, 64), unique=True, max_size=5))
        default = draw(_subs)
        if default:
            bundle.add_default(level, exclude, default)
        for index in draw(st.lists(st.integers(-64, 64), unique=True, max_size=4)):
            subs = draw(_subs)
            if subs:
                bundle.add_explicit(level, exclude, index, subs)
    return bundle


class TestTupleCodecEquivalence:
    """The flat-tuple codec must be observationally identical to the old
    nested-list codec: same decoded bundles, same wire-size accounting."""

    @given(bundle=bundles())
    def test_roundtrip_matches_legacy_codec(self, bundle):
        new_payload = encode_bundle(bundle)
        old_payload = legacy_encode_bundle(bundle)
        from_new = decode_bundle(new_payload)
        from_old = decode_bundle(old_payload)
        assert set(from_new.levels) == set(from_old.levels)
        for level, entry in from_new.levels.items():
            legacy = from_old.levels[level]
            assert entry.exclude == legacy.exclude
            assert entry.default == legacy.default
            assert entry.explicit == legacy.explicit
        assert from_new.plan == from_old.plan

    @given(bundle=bundles())
    def test_wire_size_identical_to_legacy_and_precomputed(self, bundle):
        payload, bits = encode_bundle_sized(bundle)
        assert bits == estimate_size_bits(payload)
        assert bits == estimate_size_bits(legacy_encode_bundle(bundle))

    @given(bundle=bundles())
    def test_decode_normalises_iteration_order(self, bundle):
        payload = encode_bundle(bundle)
        decoded = decode_bundle(payload)
        assert list(decoded.levels) == sorted(decoded.levels)
        for entry in decoded.levels.values():
            assert list(entry.explicit) == sorted(entry.explicit)
        # One plan row per level, each equal to the projections recomputed
        # from the payload, with the concrete types the receive path tests.
        assert decoded.plan == plan_of(payload)
        for row, entry in zip(decoded.plan, decoded.levels.values()):
            assert row[0] == entry.level and row[4] is entry.default
            assert type(row[1]) is frozenset and type(row[5]) is frozenset

    def test_decode_accepts_unsorted_byzantine_levels(self):
        # Byzantine senders may scramble level and exclude order; the decoder
        # normalises exactly as the old per-delivery sorts did.
        payload = [
            [3, [9, 1], [["ECHO1", 1, 0.0]], []],
            [0, [], [], [[7, [["ECHO2", 2, 1.0]]], [2, [["ECHO1", 1, 0.5]]]]],
        ]
        decoded = decode_bundle(payload)
        assert list(decoded.levels) == [0, 3]
        assert decoded.levels[3].exclude == (1, 9)
        assert list(decoded.levels[0].explicit) == [2, 7]

    def test_decode_reuses_honest_sub_tuples(self):
        bundle = Bundle()
        bundle.add_explicit(0, [], 4, [("ECHO1", 1, 1.0)])
        payload = encode_bundle(bundle)
        wire_sub = payload[0][3][0][1][0]  # level 0 -> explicit -> (4, subs)
        decoded = decode_bundle(payload)
        # Honest (str, int, float) triples are reused zero-copy by decode.
        assert decoded.levels[0].explicit[4][0] is wire_sub


def _level_state(level=0, separator=1.0, rounds=3, n=4, t=1):
    return LevelState(
        level=level,
        separator=separator,
        default_engine=BinAAEngine(n, t, rounds=rounds),
        own_checkpoints=(10, 11),
    )


class TestLevelState:
    def test_split_clones_default_history(self):
        state = _level_state()
        state.default_engine.start(0)
        state.default_engine.handle(1, ("ECHO1", 1, 0.0))
        engine = state.split(42)
        assert state.is_explicit(42)
        # The clone carries the default's received echoes: sender 1's bit is
        # set, and two more echoes (not three) reach the n - t = 3 quorum.
        assert engine._state(1).echo1[0.0] >> 1 & 1
        assert engine.handle(2, ("ECHO1", 1, 0.0)) == []
        assert ("ECHO2", 1, 0.0) in engine.handle(3, ("ECHO1", 1, 0.0))

    def test_split_is_independent_after_cloning(self):
        state = _level_state()
        state.default_engine.start(0)
        engine = state.split(42)
        engine.handle(2, ("ECHO1", 1, 1.0))
        assert 1.0 not in state.default_engine._state(1).echo1

    def test_double_split_rejected(self):
        state = _level_state()
        state.default_engine.start(0)
        state.split(5)
        with pytest.raises(ProtocolError):
            state.split(5)

    def test_ensure_explicit_idempotent(self):
        state = _level_state()
        state.default_engine.start(0)
        first = state.ensure_explicit(7)
        second = state.ensure_explicit(7)
        assert first is second

    def test_terminated_requires_all_engines(self):
        state = _level_state(rounds=1)
        state.default_engine.start(0)
        assert not state.terminated

    def test_checkpoint_value_uses_separator(self):
        state = _level_state(separator=2.0)
        assert state.checkpoint_value(5) == 10.0

    def test_checkpoint_weights_only_for_finished_engines(self):
        state = _level_state(rounds=1)
        state.default_engine.start(0)
        engine = state.ensure_explicit(3)
        assert state.checkpoint_weights() == {}
        # Drive the explicit engine to completion with unanimous zero echoes.
        for sender in range(4):
            engine.handle(sender, ("ECHO2", 1, 0.0))
        assert state.checkpoint_weights() == {3: 0.0}

    def test_explicit_indices_sorted(self):
        state = _level_state()
        state.default_engine.start(0)
        state.ensure_explicit(9)
        state.ensure_explicit(2)
        assert state.explicit_indices() == [2, 9]


class TestBundleCodec:
    def test_roundtrip(self):
        bundle = Bundle()
        bundle.add_explicit(0, [10, 11], 10, [("ECHO1", 1, 1.0)])
        bundle.add_explicit(0, [10, 11], 11, [("ECHO1", 1, 1.0)])
        bundle.add_default(0, [10, 11], [("ECHO1", 1, 0.0)])
        bundle.add_default(3, [1, 2], [("ECHO2", 2, 0.0)])
        decoded = decode_bundle(encode_bundle(bundle))
        assert set(decoded.levels) == {0, 3}
        assert decoded.levels[0].exclude == (10, 11)
        assert decoded.levels[0].explicit[10] == [("ECHO1", 1, 1.0)]
        assert decoded.levels[0].default == [("ECHO1", 1, 0.0)]
        assert decoded.levels[3].default == [("ECHO2", 2, 0.0)]

    def test_empty_bundle_encodes_to_empty_payload(self):
        assert encode_bundle(Bundle()) == ()
        assert Bundle().empty

    def test_empty_levels_are_skipped(self):
        bundle = Bundle()
        bundle.level(2, [1])  # created but never filled
        assert encode_bundle(bundle) == ()

    def test_malformed_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode_bundle("not-a-list")
        with pytest.raises(ProtocolError):
            decode_bundle([[0, [1]]])  # wrong arity
        with pytest.raises(ProtocolError):
            decode_bundle([[0, [], [["ECHO1", 1]], []]])  # bad sub-message
        for payload in UNCONVERTIBLE_BUNDLES:
            with pytest.raises(ProtocolError):
                decode_bundle(payload)

    def test_exclude_fixed_at_first_touch(self):
        bundle = Bundle()
        bundle.add_default(0, [1, 2], [("ECHO1", 1, 0.0)])
        bundle.add_default(0, [3], [("ECHO1", 1, 0.0)])
        assert bundle.levels[0].exclude == (1, 2)

    def test_payload_size_scales_with_explicit_set(self):
        from repro.net.message import estimate_size_bits

        small = Bundle()
        small.add_default(0, [], [("ECHO1", 1, 0.0)])
        big = Bundle()
        big.add_default(0, list(range(50)), [("ECHO1", 1, 0.0)])
        for index in range(50):
            big.add_explicit(0, list(range(50)), index, [("ECHO1", 1, 1.0)])
        assert estimate_size_bits(encode_bundle(big)) > estimate_size_bits(
            encode_bundle(small)
        )


def bundle_message(payload):
    return Message("delphi", "BUNDLE", None, payload)


def fields_of(bundle):
    """Every field of a decoded bundle, with the concrete types visible."""
    return repr(([dataclasses.astuple(entry) for entry in bundle.levels.values()], bundle.plan))


_junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


def _or_junk(good):
    """``good`` most of the time; anything at all otherwise."""
    return good | good | _junk


def _seq(element, max_size=3):
    return _or_junk(st.lists(element, max_size=max_size).map(tuple) | st.lists(element, max_size=max_size))


_hostile_sub = _or_junk(
    st.tuples(
        _or_junk(st.sampled_from(["ECHO1", "ECHO2"])),
        _or_junk(st.integers(1, 3)),
        _or_junk(st.sampled_from([0.0, 1.0, 0.5])),
    )
)

#: Payloads shaped like a bundle at every depth, with any field replaced by
#: arbitrary nested junk: what a Byzantine sender can hand the codec.
_hostile_payloads = _junk | _seq(
    _or_junk(
        st.tuples(
            _or_junk(st.integers(0, 2)),
            _seq(_or_junk(st.integers(0, 5))),
            _seq(_hostile_sub),
            _seq(_or_junk(st.tuples(_or_junk(st.integers(0, 5)), _seq(_hostile_sub))), 2),
        )
    )
)


class _Liar:
    """Hashes like the int 1 and claims to equal everything."""

    def __hash__(self):
        return hash(1)

    def __eq__(self, other):
        return True

    def __int__(self):
        return 7


class TestSharedDecode:
    """The content level behind ``Message._bundle_memo``: one decode per
    distinct payload, and only between payloads no decoder can tell apart."""

    HONEST = ((0, (1,), (("ECHO1", 1, 1.0),), ()),)

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(bundling, "_DECODED", {})

    @pytest.fixture
    def decodes(self, bundle_codec_calls):
        return bundle_codec_calls[1]

    @given(bundles())
    def test_shared_decode_equals_a_fresh_decode(self, bundle):
        payload = encode_bundle(bundle)
        expected = fields_of(decode_bundle(payload))
        first = shared_decode(bundle_message(payload))
        # A second physical message with the same content, as a receiver
        # across a socket builds it.
        again = shared_decode(bundle_message(pickle.loads(pickle.dumps(payload))))
        assert fields_of(first) == expected
        assert fields_of(again) == expected

    def test_equal_content_is_decoded_once(self, decodes):
        first = shared_decode(bundle_message(self.HONEST))
        clone = pickle.loads(pickle.dumps(self.HONEST))
        assert clone is not self.HONEST
        assert shared_decode(bundle_message(clone)) is first
        assert decodes == [self.HONEST]

    @pytest.mark.parametrize(
        "lookalike",
        [
            ((0.0, (1,), (("ECHO1", 1, 1.0),), ()),),
            ((False, (1,), (("ECHO1", 1, 1.0),), ()),),
            ((0, (1.0,), (("ECHO1", 1, 1.0),), ()),),
            ((0, (True,), (("ECHO1", 1, 1.0),), ()),),
            ((0, (1,), (("ECHO1", 1.0, 1.0),), ()),),
            ((0, (1,), (("ECHO1", True, 1.0),), ()),),
            ((0, (1,), (("ECHO1", 1, 1),), ()),),
            ((0, (1,), (("ECHO1", 1, True),), ()),),
            ((0, [1], (("ECHO1", 1, 1.0),), ()),),
            ((0, (1,), [("ECHO1", 1, 1.0)], ()),),
            [(0, (1,), (("ECHO1", 1, 1.0),), ())],
        ],
    )
    def test_lookalikes_never_share_an_entry(self, lookalike, decodes):
        for first, second in ((lookalike, self.HONEST), (self.HONEST, lookalike)):
            bundling._DECODED.clear()
            del decodes[:]
            one = shared_decode(bundle_message(first))
            two = shared_decode(bundle_message(second))
            assert one is not two
            assert len(decodes) == 2
            assert fields_of(one) == fields_of(decode_bundle(first))
            assert fields_of(two) == fields_of(decode_bundle(second))
            # The look-alike is decoded every time, as before this table.
            shared_decode(bundle_message(lookalike))
            assert len(decodes) == 3
            assert list(bundling._DECODED) == [self.HONEST]

    def test_negative_zero_does_not_stand_in_for_zero(self, decodes):
        zero = ((0, (), (("ECHO1", 1, 0.0),), ()),)
        negative = ((0, (), (("ECHO1", 1, -0.0),), ()),)
        assert zero == negative and hash(zero) == hash(negative)
        shared_decode(bundle_message(negative))
        honest = shared_decode(bundle_message(zero))
        assert fields_of(honest) == fields_of(decode_bundle(zero))
        assert list(bundling._DECODED) == [zero]

    def test_lying_element_cannot_poison_the_honest_entry(self, decodes):
        poisoned = ((0, (_Liar(),), (("ECHO1", 1, 1.0),), ()),)
        assert hash(poisoned) == hash(self.HONEST) and poisoned == self.HONEST
        # Decoded first, it is parsed but never stored or looked up.
        assert shared_decode(bundle_message(poisoned)).levels[0].exclude == (7,)
        assert bundling._DECODED == {}
        honest = shared_decode(bundle_message(self.HONEST))
        assert fields_of(honest) == fields_of(decode_bundle(self.HONEST))
        # Decoded second, it does not read the honest entry either.
        assert shared_decode(bundle_message(poisoned)).levels[0].exclude == (7,)
        assert len(decodes) == 3

    def test_unhashable_and_malformed_payloads_take_the_plain_path(self, decodes):
        unhashable = [[0, [1], [["ECHO1", 1, 1.0]], []]]
        for _ in range(2):
            decoded = shared_decode(bundle_message(unhashable))
            assert fields_of(decoded) == fields_of(decode_bundle(unhashable))
        malformed = ((0, (1,)),)
        message = bundle_message(malformed)
        assert shared_decode(message) is None
        assert shared_decode(message) is None  # memoised on the message
        assert shared_decode(bundle_message(malformed)) is None
        assert decodes == [unhashable, unhashable, malformed, malformed]
        assert bundling._DECODED == {}

    @given(_hostile_payloads)
    def test_arbitrary_payloads_decode_or_are_dropped(self, payload):
        decoded = shared_decode(bundle_message(payload))
        assert decoded is None or isinstance(decoded, Bundle)

    def test_table_is_bounded_under_a_flood_of_unique_payloads(self):
        for index in range(3 * bundling._DECODED_CAP):
            payload = ((0, (index,), (("ECHO1", 1, 1.0),), ()),)
            assert shared_decode(bundle_message(payload)).levels[0].exclude == (index,)
            assert len(bundling._DECODED) <= bundling._DECODED_CAP

    def test_oversized_payloads_are_decoded_but_not_kept(self, decodes):
        subs = tuple(("ECHO1", index, 1.0) for index in range(8192))
        oversized = ((0, (), subs, ()),)
        assert estimate_size_bits(oversized) > bundling._DECODED_MAX_BITS
        for _ in range(2):
            assert len(shared_decode(bundle_message(oversized)).levels[0].default) == 8192
        assert len(decodes) == 2 and bundling._DECODED == {}
