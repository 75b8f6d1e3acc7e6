"""Integration tests for the Delphi protocol (Algorithm 2).

These exercise the three properties of Definition II.1 — termination,
rho-relaxed min-max validity and epsilon-agreement — under benign runs,
crash faults, Byzantine value injection and adversarial message delay, plus
the structural behaviours specific to the implementation (bundling, level
fallback, scalar vs structured output).
"""

import pytest

from repro.adversary.base import AdversaryStrategy, HonestWithInput
from repro.adversary.strategies import CrashStrategy, SpamStrategy
from repro.analysis.parameters import derive_parameters
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
