"""Tests for hashing, channel keys, simulated signatures and common coins."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.crypto.hashing import hash_bytes, hash_value
from repro.crypto.hmac_channel import ChannelKeyring
from repro.crypto.signatures import (
    SignatureScheme,
    Signature,
    ThresholdSignatureScheme,
)
from repro.crypto.coin import CommonCoin


class TestHashing:
    def test_deterministic(self):
        assert hash_value({"a": 1, "b": 2}) == hash_value({"b": 2, "a": 1})

    def test_different_values_different_digests(self):
        assert hash_value(1) != hash_value(2)

    def test_bytes_passthrough(self):
        assert hash_bytes(b"abc") == hash_value(b"abc")


class TestOneShotHmac:
    """Every tag in the package (frame handshake and DATA tags, signatures,
    threshold shares) is ``hmac.digest(key, material, "sha256")``; it must be
    the very bytes of the streaming ``hmac.new`` form peers and committed
    fingerprints were produced with."""

    @given(key=st.binary(max_size=200), material=st.binary(max_size=4096))
    def test_one_shot_equals_streaming(self, key, material):
        # Keys past SHA-256's 64-byte block are hashed first: both sides of it.
        assert hmac.digest(key, material, "sha256") == hmac.new(
            key, material, hashlib.sha256
        ).digest()


class TestChannelKeyring:
    def test_pairwise_keys_symmetric(self):
        keyrings = [ChannelKeyring(node_id=i, num_nodes=3) for i in range(3)]
        assert keyrings[0].key_for(1) == keyrings[1].key_for(0)
        assert keyrings[0].key_for(1) != keyrings[0].key_for(2)

    def test_invalid_node_id_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelKeyring(node_id=5, num_nodes=3)


class TestSignatureScheme:
    def test_sign_and_verify(self):
        scheme = SignatureScheme(4)
        signature = scheme.sign(2, 42.0)
        assert scheme.verify(42.0, signature)

    def test_wrong_message_fails(self):
        scheme = SignatureScheme(4)
        signature = scheme.sign(2, 42.0)
        assert not scheme.verify(43.0, signature)

    def test_forged_signer_fails(self):
        scheme = SignatureScheme(4)
        signature = scheme.sign(2, 42.0)
        forged = Signature(signer=1, digest=signature.digest)
        assert not scheme.verify(42.0, forged)

    def test_operation_counters(self):
        scheme = SignatureScheme(4)
        scheme.sign(0, 1.0)
        scheme.verify(1.0, scheme.sign(1, 1.0))
        assert scheme.sign_count == 2
        assert scheme.verify_count >= 1

    def test_aggregate_requires_valid_signatures(self):
        scheme = SignatureScheme(4)
        good = [scheme.sign(i, 7.0) for i in range(3)]
        aggregate = scheme.aggregate(7.0, good)
        assert scheme.verify_aggregate(7.0, aggregate, threshold=3)
        assert not scheme.verify_aggregate(7.0, aggregate, threshold=4)
        assert not scheme.verify_aggregate(8.0, aggregate, threshold=2)

    def test_aggregate_rejects_duplicates_and_forgeries(self):
        scheme = SignatureScheme(4)
        signature = scheme.sign(0, 7.0)
        with pytest.raises(ConfigurationError):
            scheme.aggregate(7.0, [signature, signature])
        with pytest.raises(ConfigurationError):
            scheme.aggregate(7.0, [Signature(signer=1, digest=signature.digest)])


class TestThresholdSignatures:
    def test_combine_needs_threshold_shares(self):
        scheme = ThresholdSignatureScheme(num_nodes=4, threshold=3)
        shares = [scheme.share(i, "msg") for i in range(3)]
        combined = scheme.combine("msg", shares)
        assert scheme.verify_combined("msg", combined)

    def test_too_few_shares_rejected(self):
        scheme = ThresholdSignatureScheme(num_nodes=4, threshold=3)
        shares = [scheme.share(i, "msg") for i in range(2)]
        with pytest.raises(ConfigurationError):
            scheme.combine("msg", shares)

    def test_invalid_share_does_not_count(self):
        scheme = ThresholdSignatureScheme(num_nodes=4, threshold=2)
        good = scheme.share(0, "msg")
        bad = scheme.share(1, "other")
        with pytest.raises(ConfigurationError):
            scheme.combine("msg", [good, bad])

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            ThresholdSignatureScheme(num_nodes=4, threshold=0)


class TestCommonCoin:
    def test_same_shares_same_coin_value(self):
        coin_a = CommonCoin(4, 2, instance="x")
        coin_b = CommonCoin(4, 2, instance="x")
        shares = [coin_a.share(i, "round-1") for i in range(2)]
        assert coin_a.combine("round-1", shares) == coin_b.combine("round-1", shares)

    def test_coin_value_is_binary(self):
        coin = CommonCoin(4, 2)
        shares = [coin.share(i, 5) for i in range(2)]
        assert coin.combine(5, shares) in (0, 1)

    def test_leader_election_value_in_range(self):
        coin = CommonCoin(7, 3)
        shares = [coin.share(i, "elect") for i in range(3)]
        assert 0 <= coin.combine_value("elect", shares, modulus=7) < 7

    def test_share_verification(self):
        coin = CommonCoin(4, 2)
        share = coin.share(1, "tag")
        assert coin.verify_share("tag", share)
        assert not coin.verify_share("other", share)

    def test_different_tags_can_differ(self):
        coin = CommonCoin(4, 2)
        values = set()
        for tag in range(32):
            shares = [coin.share(i, tag) for i in range(2)]
            values.add(coin.combine(tag, shares))
        assert values == {0, 1}

    def test_operation_counts_tracked(self):
        coin = CommonCoin(4, 2)
        shares = [coin.share(i, 1) for i in range(2)]
        coin.combine(1, shares)
        counts = coin.operation_counts
        assert counts["shares"] == 2
        assert counts["combines"] == 1
