"""Tests for the Byzantine adversary strategies."""

from repro.adversary.strategies import (
    CrashStrategy,
    DelayedHonestStrategy,
    EquivocatingStrategy,
    RandomBitStrategy,
    SpamStrategy,
)
from repro.net.message import Message
from repro.protocols.base import BROADCAST
from repro.protocols.bv_broadcast import BVBroadcastNode

from helpers import run_nodes


def _attach(strategy, value=1, n=4, t=1):
    node = BVBroadcastNode(0, n, t, value=value)
    strategy.attach(node)
    return node


class TestCrashStrategy:
    def test_emits_nothing(self):
        strategy = CrashStrategy()
        _attach(strategy)
        assert strategy.on_start() == []
        assert strategy.on_message(1, Message("bv", "ECHO1", 1, 1)) == []


class TestDelayedHonestStrategy:
    def test_holds_back_then_releases(self):
        strategy = DelayedHonestStrategy(hold_back=1)
        _attach(strategy)
        first = strategy.on_start()
        assert first == []  # held back
        second = strategy.on_message(1, Message("bv", "ECHO1", 1, 1))
        # The start-time broadcast is released once a newer batch arrives.
        assert any(message.mtype == "ECHO1" for _, message in second)


class TestEquivocatingStrategy:
    def test_sends_conflicting_bits_to_different_halves(self):
        strategy = EquivocatingStrategy()
        _attach(strategy, value=1)
        outbound = strategy.on_start()
        # Broadcast is expanded into per-destination sends.
        destinations = {destination for destination, _ in outbound}
        assert BROADCAST not in destinations
        payload_by_destination = {destination: message.payload for destination, message in outbound}
        assert payload_by_destination[0] != payload_by_destination[1]

    def test_non_binary_payloads_forwarded_unchanged(self):
        strategy = EquivocatingStrategy()
        _attach(strategy, value=1)
        outbound = strategy._equivocate([(2, Message("bv", "ECHO1", 1, "hello"))])
        assert outbound == [(2, Message("bv", "ECHO1", 1, "hello"))]


class TestRandomBitStrategy:
    def test_payloads_remain_binary(self):
        strategy = RandomBitStrategy(seed=1)
        _attach(strategy, value=1)
        for _, message in strategy.on_start():
            assert message.payload in (0, 1)

    def test_reproducible_for_seed(self):
        a = RandomBitStrategy(seed=5)
        b = RandomBitStrategy(seed=5)
        _attach(a, value=1)
        _attach(b, value=1)
        assert [m.payload for _, m in a.on_start()] == [m.payload for _, m in b.on_start()]


class TestSpamStrategy:
    def test_spams_unrelated_protocols(self):
        strategy = SpamStrategy(copies=2, protocols=("junk",))
        _attach(strategy)
        outbound = strategy.on_start()
        assert len(outbound) == 2
        assert all(message.protocol == "junk" for _, message in outbound)

    def test_spam_does_not_break_honest_bv_broadcast(self):
        nodes = {i: BVBroadcastNode(i, 4, 1, value=1) for i in range(4)}
        result = run_nodes(nodes, byzantine={3: SpamStrategy()})
        for node_id in (0, 1, 2):
            assert nodes[node_id].output == frozenset({1})
