"""Equivalence tests: the fast engine must reproduce the reference engine
result for result — outputs, decision times, simulated runtime, traffic
trace and event counts — for any seeded scenario.

This is the correctness contract documented in ``docs/SIMULATOR.md``: the
fast path is an optimisation of the *same* discrete-event semantics, so
any divergence is a bug, never an acceptable approximation.
"""

from typing import Dict, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.strategies import CrashStrategy, DelayedHonestStrategy, SpamStrategy
from repro.analysis.parameters import derive_parameters
from repro.core.delphi import DelphiNode
from repro.errors import SimulationError
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import UniformLatency
from repro.net.network import AsynchronousNetwork, DeliveryPolicy
from repro.protocols.rbc import ReliableBroadcastNode
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationRuntime


def lan(n: int, seed: int, adversarial_delay: float = 0.0, bandwidth: Optional[float] = None):
    return AsynchronousNetwork(
        num_nodes=n,
        latency=UniformLatency(low=0.001, high=0.01, seed=seed),
        bandwidth=BandwidthModel(bits_per_second=bandwidth) if bandwidth else None,
        policy=DeliveryPolicy(max_extra_delay=adversarial_delay, reorder=True, seed=seed),
    )


def result_projection(result):
    """Everything a SimulationResult exposes, in comparable form."""
    return {
        "outputs": dict(result.outputs),
        "decision_times": dict(result.decision_times),
        "runtime_seconds": result.runtime_seconds,
        "events_processed": result.events_processed,
        "message_count": result.trace.message_count,
        "total_bits": result.trace.total_bits,
        "per_sender_bits": dict(result.trace.per_sender_bits),
        "honest": result.honest_nodes,
        "byzantine": result.byzantine_nodes,
    }


def run_both(make_nodes, n: int, seed: int, byzantine_factory=None, compute=None,
             adversarial_delay: float = 0.0, bandwidth: Optional[float] = None,
             config_kwargs: Optional[Dict] = None):
    """Run the same scenario under both engines with fresh, identically
    seeded components, and return both projections."""
    projections = []
    for engine in ("reference", "fast"):
        kwargs = dict(config_kwargs or {})
        runtime = SimulationRuntime(
            nodes=make_nodes(),
            network=lan(n, seed, adversarial_delay=adversarial_delay, bandwidth=bandwidth),
            byzantine=byzantine_factory() if byzantine_factory else None,
            compute=compute,
            config=SimulationConfig(engine=engine, **kwargs),
        )
        projections.append(result_projection(runtime.run()))
    return projections


def delphi_nodes(n: int, delta_max: float, seed: int):
    params = derive_parameters(n=n, epsilon=1.0, delta_max=delta_max, max_rounds=4)
    spread = delta_max * 0.4
    values = [100.0 - spread / 2 + spread * i / max(1, n - 1) for i in range(n)]
    return {
        i: DelphiNode(node_id=i, params=params, value=values[i]) for i in range(n)
    }


def rbc_nodes(n: int, t: int, value):
    return {
        i: ReliableBroadcastNode(i, n, t, broadcaster=0, value=value if i == 0 else None)
        for i in range(n)
    }


class TestDelphiEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
        delta_max=st.sampled_from([4.0, 8.0, 16.0]),
    )
    def test_seeded_delphi_identical(self, n, seed, delta_max):
        reference, fast = run_both(lambda: delphi_nodes(n, delta_max, seed), n, seed)
        assert reference == fast

    def test_with_compute_model(self):
        compute = ComputeModel(
            per_message_seconds=5e-6, per_byte_seconds=2e-9, per_crypto_unit_seconds=2e-3
        )
        reference, fast = run_both(
            lambda: delphi_nodes(7, 8.0, 3), 7, 3, compute=compute
        )
        assert reference == fast

    def test_with_bandwidth_limit(self):
        reference, fast = run_both(
            lambda: delphi_nodes(5, 8.0, 4), 5, 4, bandwidth=5e6
        )
        assert reference == fast

    def test_with_crash_adversary(self):
        reference, fast = run_both(
            lambda: delphi_nodes(7, 8.0, 5), 7, 5,
            byzantine_factory=lambda: {6: CrashStrategy()},
        )
        assert reference == fast

    def test_with_delay_adversary_and_extra_network_delay(self):
        reference, fast = run_both(
            lambda: delphi_nodes(7, 8.0, 6), 7, 6,
            byzantine_factory=lambda: {6: DelayedHonestStrategy(hold_back=3)},
            adversarial_delay=0.02,
        )
        assert reference == fast

    def test_with_spam_adversary(self):
        reference, fast = run_both(
            lambda: delphi_nodes(7, 8.0, 7), 7, 7,
            byzantine_factory=lambda: {6: SpamStrategy(copies=2)},
        )
        assert reference == fast


class TestRbcEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
        value=st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False, allow_infinity=False, width=32), st.text(max_size=8)),
    )
    def test_seeded_rbc_identical(self, n, seed, value):
        t = (n - 1) // 3
        reference, fast = run_both(lambda: rbc_nodes(n, t, value), n, seed)
        assert reference == fast

    def test_rbc_with_crashed_broadcast_peer(self):
        reference, fast = run_both(
            lambda: rbc_nodes(7, 2, "payload"), 7, 9,
            byzantine_factory=lambda: {6: CrashStrategy()},
        )
        assert reference == fast


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(engine="turbo")

    def test_non_contiguous_node_ids_fall_back_to_reference(self):
        nodes = rbc_nodes(4, 1, "x")
        nodes[7] = nodes.pop(3)  # ids {0, 1, 2, 7}: fast path unsupported
        runtime = SimulationRuntime(nodes=nodes, config=SimulationConfig(engine="fast"))
        assert not runtime._fast_supported()

    def test_max_time_stops_fast_engine_cleanly(self):
        reference, fast = run_both(
            lambda: delphi_nodes(5, 8.0, 8), 5, 8,
            config_kwargs={"max_time": 0.005},
        )
        assert reference == fast
        assert fast["outputs"] == {}  # the horizon, not a decision, ended the run
        assert fast["runtime_seconds"] <= 0.005

    def test_max_events_guard_matches_reference(self):
        for engine in ("reference", "fast"):
            runtime = SimulationRuntime(
                nodes=delphi_nodes(5, 8.0, 2),
                network=lan(5, 2),
                config=SimulationConfig(engine=engine, max_events=50),
            )
            with pytest.raises(SimulationError):
                runtime.run()

    def test_negative_compute_costs_rejected(self):
        with pytest.raises(SimulationError):
            ComputeModel(per_message_seconds=-1e-6)
