"""Tests for randomised binary Byzantine agreement."""

from collections import deque

import pytest

from repro.adversary.strategies import CrashStrategy, RandomBitStrategy
from repro.crypto.coin import CommonCoin
from repro.errors import ConfigurationError
from repro.protocols.binary_ba import BinaryBAEngine, BinaryBANode

from helpers import run_nodes


def _run(values, t=1, byzantine=None, seed=0):
    n = len(values)
    coin = CommonCoin(n, t + 1, instance="test-ba")
    nodes = {
        i: BinaryBANode(i, n, t, value=values[i], coin=coin, instance="test-ba")
        for i in range(n)
    }
    result = run_nodes(nodes, byzantine=byzantine, seed=seed)
    return nodes, result


class TestBinaryBAEngine:
    def test_rejects_non_binary_input(self):
        coin = CommonCoin(4, 2)
        engine = BinaryBAEngine(4, 1, node_id=0, coin=coin)
        with pytest.raises(ConfigurationError):
            engine.start(5)

    def test_rejects_bad_resilience(self):
        coin = CommonCoin(4, 2)
        with pytest.raises(ConfigurationError):
            BinaryBAEngine(3, 1, node_id=0, coin=coin)

    def test_start_broadcasts_bval(self):
        coin = CommonCoin(4, 2)
        engine = BinaryBAEngine(4, 1, node_id=0, coin=coin)
        out = engine.start(1)
        assert ("BVAL", 1, 1) in out

    def test_decided_engine_runs_to_next_matching_coin_then_halts(self):
        # n = 4 with node 3 silent.  Coin shares to engine 2 are held back
        # until engine 0 decides, so engines 0 and 1 decide first and engine
        # 2 can only finish rounds 2..4 with their help.
        coin = CommonCoin(4, 2, instance="halt")
        instance = "halt-4"
        coins = [
            coin.combine((instance, r), [coin.share(i, (instance, r)) for i in (0, 1)])
            for r in range(1, 5)
        ]
        assert coins == [1, 0, 0, 1]  # decide 1 in round 1, halt in round 4
        engines = {
            i: BinaryBAEngine(4, 1, node_id=i, coin=coin, instance=instance)
            for i in range(3)
        }
        queue = deque(
            (i, target, sub) for i in engines for sub in engines[i].start(1)
            for target in engines
        )
        held = []
        after_decision = []
        engine_2_lagged = False
        while queue or held:
            if not queue or engines[0].has_output:
                queue.extend(held)
                held.clear()
            sender, target, sub = queue.popleft()
            if target == 2 and sub[0] == "COIN" and sender != 2 and not engines[0].has_output:
                held.append((sender, target, sub))
                continue
            out = engines[target].handle(sender, sub)
            if target == 0 and engines[0].has_output:
                if not after_decision:
                    engine_2_lagged = not engines[2].has_output
                after_decision.extend(out)
            queue.extend((target, peer, sub) for sub in out for peer in engines)

        assert engine_2_lagged
        assert {engine.output for engine in engines.values()} == {1}
        assert sorted({(mtype, r) for mtype, r, _ in after_decision}) == [
            (mtype, r) for mtype in ("AUX", "BVAL", "COIN") for r in (2, 3, 4)
        ]
        assert all(engine.round == 4 and engine._halted for engine in engines.values())
        halted = engines[0]
        assert halted.handle(1, ("BVAL", 5, 0)) == []
        assert halted.handle(1, ("AUX", 4, 0)) == []
        assert (5, 0) not in halted._bval_recv and halted._aux_recv[4].get(1) == 1


class TestBinaryBAProtocol:
    def test_unanimous_one_decides_one(self):
        nodes, result = _run([1, 1, 1, 1])
        assert result.all_honest_decided
        assert all(node.output == 1 for node in nodes.values())

    def test_unanimous_zero_decides_zero(self):
        nodes, result = _run([0, 0, 0, 0])
        assert result.all_honest_decided
        assert all(node.output == 0 for node in nodes.values())

    def test_mixed_inputs_agree_on_single_bit(self):
        for seed in range(4):
            nodes, result = _run([0, 1, 1, 0], seed=seed)
            assert result.all_honest_decided
            outputs = {node.output for node in nodes.values()}
            assert len(outputs) == 1
            assert outputs.pop() in (0, 1)

    def test_validity_output_was_someones_input(self):
        nodes, _ = _run([1, 1, 1, 0])
        decided = {node.output for node in nodes.values()}
        assert decided.issubset({0, 1})

    def test_crash_fault_tolerated(self):
        nodes, result = _run([1, 1, 1, 1], byzantine={2: CrashStrategy()})
        honest = [nodes[i].output for i in (0, 1, 3)]
        assert result.all_honest_decided
        assert set(honest) == {1}

    def test_byzantine_random_bits_agreement_holds(self):
        for seed in range(3):
            nodes, result = _run(
                [0, 0, 1, 1], byzantine={3: RandomBitStrategy(seed=seed)}, seed=seed
            )
            honest = [nodes[i].output for i in (0, 1, 2)]
            assert result.all_honest_decided
            assert len(set(honest)) == 1

    def test_seven_node_system(self):
        values = [1, 0, 1, 1, 0, 1, 0]
        n = 7
        coin = CommonCoin(n, 3, instance="seven")
        nodes = {
            i: BinaryBANode(i, n, 2, value=values[i], coin=coin, instance="seven")
            for i in range(n)
        }
        result = run_nodes(nodes)
        assert result.all_honest_decided
        assert len({node.output for node in nodes.values()}) == 1

    def test_crypto_cost_reported(self):
        node = BinaryBANode(0, 4, 1, value=1)
        from repro.net.message import Message

        assert node.processing_cost(Message("bba", "COIN", 1, None)) == 1.0
        assert node.processing_cost(Message("bba", "BVAL", 1, None)) == 0.0
