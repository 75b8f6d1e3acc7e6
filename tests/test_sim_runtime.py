"""Tests for the discrete-event simulation runtime."""

from typing import List

import pytest

from repro.adversary.strategies import CrashStrategy
from repro.errors import SimulationError
from repro.net.message import Message
from repro.net.network import AsynchronousNetwork
from repro.net.latency import ConstantLatency
from repro.protocols.base import Outbound, ProtocolNode
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationRuntime


class EchoOnceNode(ProtocolNode):
    """Broadcasts one PING and decides once it has heard n - t PINGs."""

    def __init__(self, node_id, n, t):
        super().__init__(node_id, n, t)
        self.heard = set()

    def on_start(self) -> List[Outbound]:
        return [self.broadcast(Message("echo", "PING", None, self.node_id))]

    def on_message(self, sender, message) -> List[Outbound]:
        if message.mtype != "PING":
            return []
        self.heard.add(sender)
        if len(self.heard) >= self.quorum and not self.has_output:
            self._decide(len(self.heard))
        return []


class ChattyNode(ProtocolNode):
    """Keeps broadcasting forever (used to test the event-count safety cap).

    Self-deliveries are ignored so that the flood advances through real
    network hops instead of looping at a single instant.
    """

    def on_start(self):
        return [self.broadcast(Message("chat", "MSG", None, 0))]

    def on_message(self, sender, message):
        if sender == self.node_id:
            return []
        return [self.broadcast(Message("chat", "MSG", None, 0))]


def _nodes(cls, n=4, t=1):
    return {node_id: cls(node_id, n, t) for node_id in range(n)}


class TestSimulationRuntime:
    def test_all_honest_nodes_decide(self):
        runtime = SimulationRuntime(_nodes(EchoOnceNode))
        result = runtime.run()
        assert result.all_honest_decided
        assert set(result.outputs) == {0, 1, 2, 3}

    def test_runtime_positive_and_trace_recorded(self):
        runtime = SimulationRuntime(_nodes(EchoOnceNode))
        result = runtime.run()
        assert result.runtime_seconds > 0.0
        assert result.trace.message_count > 0

    def test_self_delivery_not_counted_as_network_traffic(self):
        runtime = SimulationRuntime(_nodes(EchoOnceNode))
        result = runtime.run()
        # 4 nodes broadcasting one PING each to 3 peers = 12 network envelopes.
        assert result.trace.message_count == 12

    def test_crash_faults_tolerated(self):
        nodes = _nodes(EchoOnceNode)
        runtime = SimulationRuntime(nodes, byzantine={3: CrashStrategy()})
        result = runtime.run()
        assert result.byzantine_nodes == [3]
        assert set(result.outputs) == {0, 1, 2}
        assert result.all_honest_decided

    def test_compute_model_slows_down_completion(self):
        fast = SimulationRuntime(_nodes(EchoOnceNode)).run()
        slow = SimulationRuntime(
            _nodes(EchoOnceNode),
            compute=ComputeModel(per_message_seconds=0.05),
        ).run()
        assert slow.runtime_seconds > fast.runtime_seconds

    def test_max_events_guard_raises(self):
        runtime = SimulationRuntime(
            _nodes(ChattyNode),
            config=SimulationConfig(max_events=200),
        )
        with pytest.raises(SimulationError):
            runtime.run()

    def test_max_time_stops_run(self):
        runtime = SimulationRuntime(
            _nodes(ChattyNode),
            network=AsynchronousNetwork(4, latency=ConstantLatency(0.001)),
            config=SimulationConfig(max_time=0.0035, max_events=10 ** 6),
        )
        result = runtime.run()
        assert result.runtime_seconds <= 0.005

    def test_network_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            SimulationRuntime(_nodes(EchoOnceNode, n=4), network=AsynchronousNetwork(5))

    def test_unknown_byzantine_node_rejected(self):
        with pytest.raises(SimulationError):
            SimulationRuntime(_nodes(EchoOnceNode), byzantine={9: CrashStrategy()})

    def test_decision_times_recorded_per_node(self):
        runtime = SimulationRuntime(_nodes(EchoOnceNode))
        result = runtime.run()
        assert set(result.decision_times) == {0, 1, 2, 3}
        assert result.runtime_seconds == pytest.approx(max(result.decision_times.values()))

    def test_output_spread_of_scalar_outputs(self):
        runtime = SimulationRuntime(_nodes(EchoOnceNode))
        result = runtime.run()
        assert result.output_spread() >= 0.0

    def test_deterministic_for_fixed_seed(self):
        def run_once():
            network = AsynchronousNetwork(4, latency=ConstantLatency(0.001))
            return SimulationRuntime(_nodes(EchoOnceNode), network=network).run()

        first, second = run_once(), run_once()
        assert first.runtime_seconds == pytest.approx(second.runtime_seconds)
        assert first.trace.message_count == second.trace.message_count
