"""Tests for BinAA (Algorithm 1): the engine and the standalone protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.strategies import CrashStrategy, EquivocatingStrategy, RandomBitStrategy
from repro.errors import ConfigurationError
from repro.experiments.cells import build_inputs, run_spec
from repro.experiments.spec import ScenarioSpec
from repro.net.message import Message
from repro.protocols.binaa import BinAAEngine, BinAANode, rounds_for_epsilon
from repro.sim.runtime import SimulationConfig

from helpers import run_nodes


def _run(values, rounds=4, t=1, byzantine=None, seed=0):
    n = len(values)
    nodes = {i: BinAANode(i, n, t, value=values[i], rounds=rounds) for i in range(n)}
    result = run_nodes(nodes, byzantine=byzantine, seed=seed)
    return nodes, result


class TestRoundsForEpsilon:
    def test_halving_schedule(self):
        assert rounds_for_epsilon(0.5) == 1
        assert rounds_for_epsilon(0.25) == 2
        assert rounds_for_epsilon(1e-3) == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            rounds_for_epsilon(0.0)
        with pytest.raises(ConfigurationError):
            rounds_for_epsilon(2.0)


class TestBinAAEngineUnit:
    def test_rejects_non_binary_input(self):
        engine = BinAAEngine(4, 1, rounds=2)
        with pytest.raises(ConfigurationError):
            engine.start(2)

    def test_rejects_double_start(self):
        engine = BinAAEngine(4, 1, rounds=2)
        engine.start(1)
        with pytest.raises(ConfigurationError):
            engine.start(1)

    def test_rejects_bad_resilience(self):
        with pytest.raises(ConfigurationError):
            BinAAEngine(3, 1, rounds=2)

    def test_start_emits_echo1_for_own_value(self):
        engine = BinAAEngine(4, 1, rounds=2)
        out = engine.start(1)
        assert ("ECHO1", 1, 1.0) in out

    def test_unanimous_round_progression(self):
        # Drive one engine by hand with unanimous echoes from all peers.
        engine = BinAAEngine(4, 1, rounds=1)
        engine.start(1)
        emitted = []
        for sender in range(4):
            emitted += engine.handle(sender, ("ECHO1", 1, 1.0))
        # After n-t ECHO1s the engine sends an ECHO2.
        assert any(sub[0] == "ECHO2" for sub in emitted)
        for sender in range(4):
            emitted += engine.handle(sender, ("ECHO2", 1, 1.0))
        assert engine.has_output
        assert engine.output == 1.0

    def test_clone_is_independent(self):
        engine = BinAAEngine(4, 1, rounds=2)
        engine.start(0)
        clone = engine.clone()
        # An echo recorded in the original never shows in the clone ...
        engine.handle(1, ("ECHO1", 1, 1.0))
        assert engine._state(1).echo1[1.0] >> 1 & 1
        assert 1.0 not in clone._state(1).echo1
        # ... and the reverse.
        clone.handle(2, ("ECHO1", 1, 0.0))
        assert clone._state(1).echo1[0.0] >> 2 & 1
        assert 0.0 not in engine._state(1).echo1
        # Behaviour, not layout: the clone is one echo nearer the quorum.
        for sender in (0, 3):
            clone.handle(sender, ("ECHO1", 1, 0.0))
            engine.handle(sender, ("ECHO1", 1, 0.0))
        assert clone._state(1).echo2_sent and not engine._state(1).echo2_sent

    def test_a_sender_counts_once_per_value(self):
        # The supporter table is a bitmask keyed by the engine-supplied
        # sender id; whatever a sender repeats, it holds one bit per value.
        engine = BinAAEngine(4, 1, rounds=1)
        engine.start(0)
        for _ in range(5):
            assert engine.handle(1, ("ECHO1", 1, 1.0)) == []
            assert engine.handle(1, ("ECHO2", 1, 1.0)) == []
            assert engine.handle(1, ("ECHO1", 1, 0.5)) == []
        state = engine._state(1)
        assert state.echo1 == {1.0: 0b10, 0.5: 0b10}
        assert state.echo2 == {1.0: 0b10}
        assert not state.echo2_sent and not engine.has_output

    def test_n_distinct_senders_count_as_n(self):
        n, t = 40, 13
        engine = BinAAEngine(n, t, rounds=1)
        engine.start(1)
        emitted = []
        for sender in range(n):
            emitted.append(engine.handle(sender, ("ECHO1", 1, 1.0)))
        assert engine._state(1).echo1[1.0].bit_count() == n
        # The single ECHO2 goes out exactly when the (n - t)-th sender lands.
        assert [i for i, out in enumerate(emitted) if out] == [n - t - 1]

    def test_late_messages_after_output_are_ignored(self):
        engine = BinAAEngine(4, 1, rounds=1)
        engine.start(1)
        for sender in range(4):
            engine.handle(sender, ("ECHO2", 1, 1.0))
        assert engine.has_output
        assert engine.handle(0, ("ECHO1", 1, 0.0)) == []

    def test_out_of_range_round_ignored(self):
        engine = BinAAEngine(4, 1, rounds=2)
        engine.start(1)
        assert engine.handle(0, ("ECHO1", 99, 1.0)) == []
        assert engine.handle(0, ("ECHO1", 0, 1.0)) == []

    def test_past_round_echo_is_not_recorded(self):
        engine = BinAAEngine(4, 1, rounds=3)
        engine.start(1)
        for sender in range(3):
            engine.handle(sender, ("ECHO2", 1, 1.0))
        assert engine.current_round == 2
        before = _tables(engine)
        for sub in [("ECHO1", 1, 0.0), ("ECHO2", 1, 0.5), ("ECHO1", 1, 1.0)]:
            assert engine.handle(3, sub) == []
        assert _tables(engine) == before

    def test_round_entry_finds_two_buffered_echo1_quorums(self):
        # Round 2's ECHO1 quorums for 0.0 and 1.0 arrive while round 1 is
        # open; entering round 2 settles it by the midpoint at once.
        engine, model = BinAAEngine(4, 1, rounds=3), _SetModel(4, 1, rounds=3)
        assert engine.start(0) == model.start(0)
        for value in (0.0, 1.0):
            for sender in range(3):
                assert engine.handle(sender, ("ECHO1", 2, value)) == []
                model.handle(sender, ("ECHO1", 2, value))
        completing = [engine.handle(sender, ("ECHO2", 1, 0.0)) for sender in range(3)]
        assert completing[-1] == [
            ("ECHO1", 2, 0.0),
            ("ECHO1", 2, 1.0),
            ("ECHO2", 2, 0.0),
            ("ECHO1", 3, 0.5),
        ]
        assert completing == [model.handle(sender, ("ECHO2", 1, 0.0)) for sender in range(3)]
        assert engine.bv_outputs == {1: (0.0,), 2: (0.0, 1.0)}
        assert engine.current_round == 3 and engine.value == 0.5

    def test_round_entry_finds_a_buffered_echo2_quorum(self):
        engine, model = BinAAEngine(4, 1, rounds=3), _SetModel(4, 1, rounds=3)
        assert engine.start(0) == model.start(0)
        for sender in range(3):
            assert engine.handle(sender, ("ECHO2", 2, 1.0)) == []
            model.handle(sender, ("ECHO2", 2, 1.0))
        completing = [engine.handle(sender, ("ECHO2", 1, 0.0)) for sender in range(3)]
        assert completing[-1] == [("ECHO1", 2, 0.0), ("ECHO1", 3, 1.0)]
        assert completing == [model.handle(sender, ("ECHO2", 1, 0.0)) for sender in range(3)]
        assert engine.bv_outputs == {1: (0.0,), 2: (1.0,)}
        assert engine.current_round == 3 and engine.value == 1.0


def _tables(engine):
    """Every per-round table of ``engine``, as plain comparable values."""
    return {
        round_number: (dict(state.echo1), dict(state.echo2), set(state.amplified), state.echo2_sent)
        for round_number, state in engine._round_state.items()
    }


class _SetModel:
    """Algorithm 1 with a set of sender ids per value and a full
    re-evaluation after every echo: the spec the bitmask engine must equal."""

    def __init__(self, n, t, rounds):
        self.n, self.t, self.rounds = n, t, rounds
        self.round, self.value, self.output = 1, None, None
        self.echoes = {}  # (mtype, round) -> {value: set of senders}
        self.amplified, self.echo2_sent, self.bv_outputs = {}, set(), {}

    def start(self, value):
        self.value = float(value)
        return self._enter()

    def _enter(self):
        self.amplified[self.round] = {self.value}
        return [("ECHO1", self.round, self.value)] + self._progress()

    def handle(self, sender, sub):
        mtype, rnd, value = sub
        live = self.output is None and self.round <= rnd <= self.rounds
        if not live or mtype not in ("ECHO1", "ECHO2"):
            return []
        self.echoes.setdefault((mtype, rnd), {}).setdefault(value, set()).add(sender)
        return self._progress() if rnd == self.round else []

    def _progress(self):
        rnd, quorum, out = self.round, self.n - self.t, []
        echo1 = self.echoes.get(("ECHO1", rnd), {})
        echo2 = self.echoes.get(("ECHO2", rnd), {})
        for value, senders in echo1.items():
            if len(senders) > self.t and value not in self.amplified[rnd]:
                self.amplified[rnd].add(value)
                out.append(("ECHO1", rnd, value))
        strong1 = [v for v, senders in echo1.items() if len(senders) >= quorum]
        strong2 = [v for v, senders in echo2.items() if len(senders) >= quorum]
        if strong1 and rnd not in self.echo2_sent:
            self.echo2_sent.add(rnd)
            out.append(("ECHO2", rnd, strong1[0]))
        if len(strong1) < 2 and not strong2:
            return out
        chosen = tuple(sorted(strong1)[:2]) if len(strong1) >= 2 else (min(strong2),)
        self.bv_outputs[rnd] = chosen
        self.value = sum(chosen) / len(chosen)
        if rnd >= self.rounds:
            self.output = self.value
            return out
        self.round += 1
        return out + self._enter()


_VALUES = [0.0, 1.0, 0.5, 0.25, 0.75]

# Rounds are drawn relative to the engine's current one so that long random
# sequences do cross quorums: mostly the live round, some buffered for the
# next, some stale or out of range; senders repeat freely.
_ECHO = st.tuples(
    st.integers(0, 9),  # sender
    st.sampled_from(["ECHO1", "ECHO1", "ECHO2", "ECHO2", "READY"]),
    st.sampled_from([0, 0, 0, 0, 1, 1, -1, 9]),  # round - current round
    st.sampled_from(_VALUES),
)

# A whole next round delivered before the current one completes: every
# sender's ECHO1 for one or two values, and maybe every sender's ECHO2 for
# the first, so that round entry finds quorums already buffered.
_NEXT_ROUND = st.tuples(
    st.just("NEXT_ROUND"),
    st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2, unique=True),
    st.booleans(),  # with ECHO2s
)


def _expand(step, n, current_round):
    if step[0] != "NEXT_ROUND":
        sender, mtype, offset, value = step
        return [(sender % n, (mtype, current_round + offset, value))]
    _, values, with_echo2 = step
    echoes = [("ECHO1", value) for value in values]
    echoes += [("ECHO2", values[0])] * with_echo2
    return [
        (sender, (mtype, current_round + 1, value))
        for mtype, value in echoes
        for sender in range(n)
    ]


class TestBitmaskEngineEqualsSetModel:
    @given(
        steps=st.lists(_ECHO | _NEXT_ROUND, max_size=30)
        | st.lists(_ECHO, min_size=80, max_size=300)
        | st.lists(_ECHO | _NEXT_ROUND, min_size=40, max_size=80),
        own=st.integers(0, 1),
        nt=st.sampled_from([(4, 1), (7, 2), (10, 3)]),
    )
    @settings(max_examples=250)
    def test_same_submessages_bv_outputs_and_output(self, steps, own, nt):
        n, t = nt
        engine, model = BinAAEngine(n, t, rounds=3), _SetModel(n, t, rounds=3)
        assert engine.start(own) == model.start(own)
        for step in steps:
            for sender, sub in _expand(step, n, engine.current_round):
                assert engine.handle(sender, sub) == model.handle(sender, sub)
                assert engine.current_round == model.round
        assert engine.bv_outputs == model.bv_outputs
        assert engine.output == model.output


class TestRescanOnlyOnRoundEntry:
    """The clock-free guard on the incremental engine: the full
    re-evaluation of a round runs once per engine start and once per round
    entry, never on a threshold crossing."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_rescans_equal_starts_plus_round_entries(self, engine, monkeypatch):
        counts = {"rescans": 0, "entries": 0}
        start, handle, progress = BinAAEngine.start, BinAAEngine.handle, BinAAEngine._progress

        def counting_start(self, value):
            out = start(self, value)
            counts["entries"] += self.current_round  # round 1 and any cascade
            return out

        def counting_handle(self, sender, sub):
            before = self.current_round
            out = handle(self, sender, sub)
            counts["entries"] += self.current_round - before
            return out

        def counting_progress(self, *args):
            counts["rescans"] += 1
            return progress(self, *args)

        monkeypatch.setattr(BinAAEngine, "start", counting_start)
        monkeypatch.setattr(BinAAEngine, "handle", counting_handle)
        monkeypatch.setattr(BinAAEngine, "_progress", counting_progress)
        spec = ScenarioSpec(protocol="delphi", n=10, testbed="aws", seed=1)
        result, _ = run_spec(spec, build_inputs(spec), config=SimulationConfig(engine=engine))
        assert result.all_decided
        # 1,250 here (150 starts + 1,100 round entries); a rescan on every
        # threshold crossing would be 4,140.
        assert counts["entries"] > 0
        assert counts["rescans"] == counts["entries"]


class TestBinAAProtocol:
    def test_validity_unanimous_one(self):
        nodes, _ = _run([1, 1, 1, 1])
        for node in nodes.values():
            assert node.output == 1.0

    def test_validity_unanimous_zero(self):
        nodes, _ = _run([0, 0, 0, 0])
        for node in nodes.values():
            assert node.output == 0.0

    def test_epsilon_agreement_mixed_inputs(self):
        for seed in range(4):
            nodes, result = _run([0, 1, 0, 1], rounds=5, seed=seed)
            values = [node.output for node in nodes.values()]
            assert result.all_honest_decided
            assert max(values) - min(values) <= 2 ** -5 + 1e-12

    def test_outputs_within_input_hull(self):
        nodes, _ = _run([0, 1, 1, 0], rounds=4)
        for node in nodes.values():
            assert 0.0 <= node.output <= 1.0

    def test_seven_nodes_two_faults_crash(self):
        values = [1, 1, 0, 1, 0, 1, 1]
        nodes = {i: BinAANode(i, 7, 2, value=values[i], rounds=4) for i in range(7)}
        result = run_nodes(nodes, byzantine={5: CrashStrategy(), 6: CrashStrategy()})
        honest = [nodes[i].output for i in range(5)]
        assert result.all_honest_decided
        assert max(honest) - min(honest) <= 2 ** -4 + 1e-12

    def test_agreement_under_equivocation(self):
        values = [1, 1, 1, 0]
        nodes = {i: BinAANode(i, 4, 1, value=values[i], rounds=5) for i in range(4)}
        result = run_nodes(nodes, byzantine={3: EquivocatingStrategy()})
        honest = [nodes[i].output for i in range(3)]
        assert max(honest) - min(honest) <= 2 ** -5 + 1e-12
        assert all(0.0 <= value <= 1.0 for value in honest)

    def test_agreement_under_random_bits(self):
        values = [0, 0, 1, 1]
        nodes = {i: BinAANode(i, 4, 1, value=values[i], rounds=5) for i in range(4)}
        result = run_nodes(nodes, byzantine={1: RandomBitStrategy(seed=9)})
        honest = [nodes[i].output for i in (0, 2, 3)]
        assert max(honest) - min(honest) <= 2 ** -5 + 1e-12

    def test_adversarial_network_delay_does_not_break_agreement(self):
        values = [0, 1, 1, 0, 1, 0, 1]
        nodes = {i: BinAANode(i, 7, 2, value=values[i], rounds=4) for i in range(7)}
        result = run_nodes(nodes, adversarial_delay=0.05, seed=11)
        outputs = [node.output for node in nodes.values()]
        assert result.all_honest_decided
        assert max(outputs) - min(outputs) <= 2 ** -4 + 1e-12

    def test_ignores_malformed_payloads(self):
        node = BinAANode(0, 4, 1, value=1, rounds=2)
        node.on_start()
        assert node.on_message(1, Message("binaa", "ECHO1", 1, "garbage")) == []
        assert node.on_message(1, Message("binaa", "ECHO1", 1, [1, 2])) == []
        # Fields that do not convert are dropped, not raised.
        for payload in [("ECHO1", "x", 1.0), ("ECHO1", 1, None), ("ECHO1", float("inf"), 1.0)]:
            assert node.on_message(1, Message("binaa", "ECHO1", 1, payload)) == []
