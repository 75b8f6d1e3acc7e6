"""Integration tests for the Delphi protocol (Algorithm 2).

These exercise the three properties of Definition II.1 — termination,
rho-relaxed min-max validity and epsilon-agreement — under benign runs,
crash faults, Byzantine value injection and adversarial message delay, plus
the structural behaviours specific to the implementation (bundling, level
fallback, scalar vs structured output).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import AdversaryStrategy, HonestWithInput
from repro.adversary.strategies import CrashStrategy, SpamStrategy
from repro.analysis.parameters import derive_parameters
from repro.core.bundling import Bundle, decode_bundle
from repro.core.delphi import DelphiNode, DelphiOutput
from repro.errors import ProtocolError
from repro.net.message import Message

from helpers import UNCONVERTIBLE_BUNDLES, assert_agreement, assert_validity, run_nodes


@pytest.fixture
def run_delphi(make_delphi_params):
    """Build and run one Delphi instance; parameters come from the shared
    ``make_delphi_params`` factory fixture (see ``tests/conftest.py``)."""

    def _run(values, params=None, byzantine=None, seed=0, adversarial_delay=0.0):
        params = params or make_delphi_params(n=len(values))
        nodes = {
            i: DelphiNode(node_id=i, params=params, value=values[i]) for i in range(params.n)
        }
        result = run_nodes(
            nodes, byzantine=byzantine, seed=seed, adversarial_delay=adversarial_delay
        )
        return nodes, result, params

    return _run


class TestDelphiHappyPath:
    def test_termination_all_nodes_decide(self, run_delphi):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        _, result, _ = run_delphi(values)
        assert result.all_honest_decided

    def test_epsilon_agreement(self, run_delphi):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, _, params = run_delphi(values)
        outputs = [node.output for node in nodes.values()]
        assert_agreement(outputs, params.epsilon)

    def test_relaxed_validity(self, run_delphi):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, _, params = run_delphi(values)
        outputs = [node.output for node in nodes.values()]
        delta = max(values) - min(values)
        assert_validity(outputs, values, relaxation=max(params.rho0, delta))

    def test_identical_inputs_give_that_value(self, run_delphi):
        values = [10.0] * 7
        nodes, _, params = run_delphi(values)
        for node in nodes.values():
            assert abs(node.output - 10.0) <= params.rho0 + 1e-9

    def test_widely_spread_inputs_still_terminate(self, run_delphi, make_delphi_params):
        # delta close to delta_max exercises the higher levels.
        values = [2.0, 4.5, 7.0, 9.5, 12.0, 14.0, 15.5]
        params = make_delphi_params(n=7, epsilon=1.0, delta_max=16.0)
        nodes, result, _ = run_delphi(values, params=params)
        assert result.all_honest_decided
        outputs = [node.output for node in nodes.values()]
        assert_agreement(outputs, params.epsilon)
        delta = max(values) - min(values)
        assert_validity(outputs, values, relaxation=max(params.rho0, delta))

    def test_negative_inputs_supported(self, run_delphi, make_delphi_params):
        values = [-5.2, -5.0, -4.8, -5.4]
        params = make_delphi_params(n=4, epsilon=0.5, delta_max=8.0)
        nodes, result, _ = run_delphi(values, params=params)
        assert result.all_honest_decided
        outputs = [node.output for node in nodes.values()]
        assert_validity(outputs, values, relaxation=max(params.rho0, 0.6))

    def test_deterministic_given_seed(self, run_delphi, make_delphi_params):
        values = [1.0, 1.2, 1.5, 1.1]
        params = make_delphi_params(n=4, epsilon=0.5, delta_max=4.0)
        first = run_delphi(values, params=params, seed=5)[0]
        second = run_delphi(values, params=params, seed=5)[0]
        assert [first[i].output for i in range(4)] == [second[i].output for i in range(4)]

    def test_structured_output_mode(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=8.0)
        nodes = {
            i: DelphiNode(i, params, value=5.0 + 0.1 * i, scalar_output=False)
            for i in range(4)
        }
        run_nodes(nodes)
        for node in nodes.values():
            assert isinstance(node.output, DelphiOutput)
            assert len(node.output.level_aggregates) == params.level_count
            assert node.output_value == pytest.approx(node.output.value)


class _UnconvertibleBundles(AdversaryStrategy):
    """Runs the honest protocol but ships each bundle as one of
    :data:`helpers.UNCONVERTIBLE_BUNDLES`, which an honest receiver must
    drop rather than raise on."""

    PAYLOADS = UNCONVERTIBLE_BUNDLES

    def __init__(self):
        self.sent = 0

    def on_start(self):
        return self._replace(self.node.on_start())

    def on_message(self, sender, message):
        return self._replace(self.node.on_message(sender, message))

    def _replace(self, outbound):
        replaced = []
        for to, message in outbound:
            payload = self.PAYLOADS[self.sent % len(self.PAYLOADS)]
            replaced.append((to, message.with_payload(payload)))
            self.sent += 1
        return replaced


class TestDelphiFaults:
    def test_crash_faults(self, run_delphi):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        byz = {5: CrashStrategy(), 6: CrashStrategy()}
        nodes, result, params = run_delphi(values, byzantine=byz)
        honest_inputs = values[:5]
        outputs = [nodes[i].output for i in range(5)]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)
        delta = max(honest_inputs) - min(honest_inputs)
        assert_validity(outputs, honest_inputs, relaxation=max(params.rho0, delta))

    def test_byzantine_outlier_input(self, make_delphi_params):
        # Two Byzantine nodes run the honest protocol on wildly wrong inputs.
        honest_values = [10.2, 10.5, 10.9, 11.4, 10.1]
        params = make_delphi_params(n=7, epsilon=1.0, delta_max=16.0)
        values = honest_values + [0.5, 15.5]
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(7)}
        byz = {
            5: HonestWithInput(DelphiNode(5, params, value=0.5)),
            6: HonestWithInput(DelphiNode(6, params, value=15.5)),
        }
        result = run_nodes(nodes, byzantine=byz)
        outputs = [nodes[i].output for i in range(5)]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)
        # Validity relaxation bound from Theorem IV.3 applies to honest inputs.
        delta = max(honest_values) - min(honest_values)
        assert_validity(outputs, honest_values, relaxation=max(params.rho0, delta) + params.epsilon)

    def test_spam_does_not_break_agreement(self, make_delphi_params):
        values = [3.0, 3.2, 3.4, 3.1]
        params = make_delphi_params(n=4, epsilon=0.5, delta_max=8.0)
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(4)}
        result = run_nodes(nodes, byzantine={3: SpamStrategy()})
        outputs = [nodes[i].output for i in range(3)]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_bundles_with_unconvertible_fields(self, make_delphi_params, engine):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        params = make_delphi_params(n=7)
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(7)}
        liar = _UnconvertibleBundles()
        result = run_nodes(nodes, byzantine={6: liar}, engine=engine)
        assert liar.sent > len(_UnconvertibleBundles.PAYLOADS)
        honest_inputs = values[:6]
        outputs = [nodes[i].output for i in range(6)]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)
        delta = max(honest_inputs) - min(honest_inputs)
        assert_validity(outputs, honest_inputs, relaxation=max(params.rho0, delta))

    def test_adversarial_delay(self, run_delphi):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        nodes, result, params = run_delphi(values, adversarial_delay=0.05, seed=13)
        outputs = [node.output for node in nodes.values()]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)


class TestDelphiMechanics:
    def test_double_start_rejected(self, make_delphi_params):
        params = make_delphi_params(n=4)
        node = DelphiNode(0, params, value=1.0)
        node.on_start()
        with pytest.raises(ProtocolError):
            node.on_start()

    def test_malformed_bundle_discarded(self, make_delphi_params):
        params = make_delphi_params(n=4)
        node = DelphiNode(0, params, value=1.0)
        node.on_start()
        assert node.on_message(1, Message("delphi", "BUNDLE", None, "garbage")) == []

    def test_foreign_protocol_ignored(self, make_delphi_params):
        params = make_delphi_params(n=4)
        node = DelphiNode(0, params, value=1.0)
        node.on_start()
        assert node.on_message(1, Message("other", "BUNDLE", None, [])) == []

    def test_own_checkpoints_are_explicit_at_every_level(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=8.0)
        node = DelphiNode(0, params, value=5.3)
        node.on_start()
        for level in params.levels:
            state = node.level_state(level)
            assert set(state.own_checkpoints).issubset(set(state.explicit))
            assert set(state.own_checkpoints) == set(
                params.nearest_checkpoints(level, 5.3)
            )

    def test_explicit_sets_grow_by_splitting_on_divergent_info(self, make_delphi_params):
        values = [2.0, 9.0, 5.0, 7.0]
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=16.0)
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(4)}
        run_nodes(nodes)
        # Node 0 must have learned about checkpoints near node 1's input.
        level0 = nodes[0].level_state(0)
        assert any(index >= 8 for index in level0.explicit)

    def test_default_block_weight_stays_zero(self, make_delphi_params):
        values = [10.2, 10.5, 10.9, 11.4]
        params = make_delphi_params(n=4)
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(4)}
        run_nodes(nodes)
        for node in nodes.values():
            for level in params.levels:
                assert node.level_state(level).default_weight == 0.0

    def test_unknown_level_state_rejected(self, make_delphi_params):
        params = make_delphi_params(n=4)
        node = DelphiNode(0, params, value=1.0)
        node.on_start()
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            node.level_state(99)

    def test_bundled_traffic_message_count_quadratic_not_cubic(self, make_delphi_params):
        """Per-node traffic should not grow with a third factor of n: the
        bundling keeps per-(sender, processing step) traffic to one message."""
        small_values = [5.0 + 0.1 * i for i in range(4)]
        large_values = [5.0 + 0.05 * i for i in range(8)]
        params_small = make_delphi_params(n=4, epsilon=1.0, delta_max=8.0, max_rounds=4)
        params_large = make_delphi_params(n=8, epsilon=1.0, delta_max=8.0, max_rounds=4)
        nodes_small = {i: DelphiNode(i, params_small, small_values[i]) for i in range(4)}
        nodes_large = {i: DelphiNode(i, params_large, large_values[i]) for i in range(8)}
        result_small = run_nodes(nodes_small)
        result_large = run_nodes(nodes_large)
        ratio = result_large.trace.message_count / result_small.trace.message_count
        # Quadratic growth predicts ~4x; allow generous slack but reject ~8x+ (cubic).
        assert ratio < 7.0


def parent_process_bundle(node, sender, incoming):
    """The receive path before decoded bundles carried plan rows: the
    per-level projections are rebuilt from the decoded levels on every
    delivery and coverage is tested against ``dict_keys`` views.  The
    reference :class:`TestReceivePlan` holds ``_process_bundle`` to."""
    outgoing = None
    for entry in incoming.levels.values():
        level = entry.level
        state = node.levels.get(level)
        if state is None:
            continue
        explicit_map = state.explicit
        exclude_set = frozenset(entry.exclude)
        divergent_set = exclude_set.union(entry.explicit)
        if not divergent_set <= explicit_map.keys():
            for index in sorted(divergent_set):
                if index not in explicit_map:
                    engine = state.split(index)
                    if engine.output is None:
                        node._pending.count += 1
        for index, subs in entry.explicit.items():
            for sub in subs:
                emitted = explicit_map[index].handle(sender, sub)
                if emitted:
                    if outgoing is None:
                        outgoing = Bundle()
                    outgoing.add_explicit(level, state.exclude_key(), index, emitted)
        default_subs = entry.default
        if default_subs:
            for sub in default_subs:
                emitted = state.default_engine.handle(sender, sub)
                if emitted:
                    if outgoing is None:
                        outgoing = Bundle()
                    outgoing.add_default(level, state.exclude_key(), emitted)
            if explicit_map.keys() <= exclude_set:
                continue
            for index, engine in state.sorted_engines():
                if index in exclude_set:
                    continue
                for sub in default_subs:
                    emitted = engine.handle(sender, sub)
                    if emitted:
                        if outgoing is None:
                            outgoing = Bundle()
                        outgoing.add_explicit(level, state.exclude_key(), index, emitted)
    return outgoing


def engine_state(engine):
    rounds = {
        number: (dict(state.echo1), dict(state.echo2), set(state.amplified), state.echo2_sent)
        for number, state in engine._round_state.items()
    }
    return engine.value, engine.current_round, engine.output, dict(engine.bv_outputs), rounds


def node_state(node):
    return node._pending.count, {
        level: (
            engine_state(state.default_engine),
            [(index, engine_state(engine)) for index, engine in state.explicit.items()],
            state.explicit_set,
        )
        for level, state in node.levels.items()
    }


def bundle_fields(bundle):
    if bundle is None:
        return None
    fields = []
    for level, entry in bundle.levels.items():
        explicit = [(index, list(subs)) for index, subs in entry.explicit.items()]
        fields.append((level, entry.exclude, list(entry.default), explicit))
    return fields


_stream_sub = st.one_of(
    st.tuples(st.sampled_from(["ECHO1", "ECHO2"]), st.integers(1, 6), st.sampled_from([0.0, 1.0])),
    st.tuples(
        st.sampled_from(["ECHO1", "ECHO2", "BOGUS"]),
        st.sampled_from([0, 1, 9]),
        st.sampled_from([0.5, -2.0, 0.0]),
    ),
)
#: An honest-looking echo run: ECHO1 and ECHO2 of one value for rounds
#: 1..k, so that three senders' copies carry engines through rounds.
_stream_run = st.builds(
    lambda k, value: [(mtype, r, value) for r in range(1, k + 1) for mtype in ("ECHO1", "ECHO2")],
    st.integers(1, 6),
    st.sampled_from([0.0, 0.0, 1.0]),
)
_stream_subs = st.one_of(st.lists(_stream_sub, max_size=4), _stream_run)
_stream_index = st.integers(0, 9)
#: Excludes that shadow the receiver's level-0 checkpoints (5, 6) half the
#: time: the case where the walk over its engines is skipped.
_stream_exclude = st.one_of(
    st.lists(_stream_index, max_size=4),
    st.lists(_stream_index, max_size=2).map(lambda extra: [6, 5, *extra]),
)

#: Bundle-shaped payloads as any sender may ship them: unsorted and repeated
#: levels, excludes and explicit indices, unknown levels, foreign rounds and
#: message types; about half are left as an honest sender encodes them.
_stream_payload = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 5]),  # 5: a level the receiver does not run
        _stream_exclude,
        _stream_subs,
        st.lists(st.tuples(_stream_index, _stream_subs), max_size=3),
    ),
    max_size=3,
)


class TestReceivePlan:
    """``_process_bundle`` reads plan rows and a cached explicit set; for any
    stream of bundles it must act exactly as the parent's receive path."""

    PARAMS = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=6)

    def _node(self):
        node = DelphiNode(0, self.PARAMS, value=5.3)
        node.on_start()
        return node

    def test_a_split_reopens_the_senders_default_to_the_new_engine(self):
        node = self._node()
        state = node.level_state(0)
        own = state.exclude_key()
        assert own == (5, 6)
        # Sender 1 tracks exactly our explicit checkpoints: its default
        # covers none of them, and the walk over our engines is skipped.
        node._process_bundle(1, decode_bundle(((0, own, (("ECHO1", 1, 0.0),), ()),)))
        # Sender 2's divergent checkpoint 8 splits here.
        node._process_bundle(2, decode_bundle(((0, (8,), (), ((8, (("ECHO1", 1, 1.0),)),)),)))
        assert 8 in state.explicit
        # Sender 1 does not track 8, so its default now covers engine 8.
        node._process_bundle(1, decode_bundle(((0, own, (("ECHO2", 1, 0.0),), ()),)))
        assert state.explicit[8]._state(1).echo2.get(0.0, 0) >> 1 & 1

    @settings(max_examples=150)
    @given(
        stream=st.lists(
            st.tuples(st.integers(0, 3), st.one_of(_stream_payload, _stream_payload.map(sorted))),
            max_size=40,
        )
    )
    def test_same_outgoing_bundles_and_engine_states_as_the_parent(self, stream):
        node, reference = self._node(), self._node()
        for sender, payload in stream:
            try:
                incoming = decode_bundle(payload)
            except ProtocolError:
                continue
            expected = bundle_fields(parent_process_bundle(reference, sender, incoming))
            assert bundle_fields(node._process_bundle(sender, incoming)) == expected
            assert node_state(node) == node_state(reference)
