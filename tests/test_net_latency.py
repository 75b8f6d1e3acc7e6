"""Tests for the latency models and the block-drawn streams behind them."""

import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cells import build_inputs, build_network
from repro.experiments.spec import ScenarioSpec
from repro.net import latency, network
from repro.net.latency import (
    AWS_REGIONS,
    ConstantLatency,
    GeoLatencyModel,
    UniformLatency,
    aws_latency_model,
    cps_latency_model,
)
from repro.net.network import DeliveryPolicy
from repro.protocols.registry import get_protocol
from repro.runner import run_protocol
from repro.sim.runtime import SimulationConfig


class TestConstantLatency:
    def test_returns_constant(self):
        model = ConstantLatency(0.005)
        assert model.delay(0, 1) == 0.005
        assert model.expected_delay(3, 4) == 0.005

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-0.001)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(float("nan"))


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(low=0.001, high=0.002, seed=1)
        for _ in range(100):
            delay = model.delay(0, 1)
            assert 0.001 <= delay <= 0.002

    def test_reproducible_for_same_seed(self):
        a = UniformLatency(seed=7)
        b = UniformLatency(seed=7)
        assert [a.delay(0, 1) for _ in range(5)] == [b.delay(0, 1) for _ in range(5)]

    def test_expected_delay_is_midpoint(self):
        model = UniformLatency(low=0.002, high=0.006)
        assert model.expected_delay(0, 1) == pytest.approx(0.004)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(low=0.01, high=0.001)

    def test_rejects_an_infinite_bound(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(low=0.001, high=float("inf"))


class TestGeoLatencyModel:
    def test_round_robin_region_assignment(self):
        model = aws_latency_model(num_nodes=16)
        assert model.region_of(0) == AWS_REGIONS[0]
        assert model.region_of(8) == AWS_REGIONS[0]
        assert model.region_of(9) == AWS_REGIONS[1]

    def test_intra_region_faster_than_cross_continent(self):
        model = aws_latency_model(num_nodes=16)
        same_region = model.base_delay(0, 8)
        cross = model.base_delay(0, 6)  # us-east-1 -> ap-southeast-1
        assert same_region < cross

    def test_base_delay_symmetric(self):
        model = aws_latency_model(num_nodes=8)
        assert model.base_delay(1, 5) == pytest.approx(model.base_delay(5, 1))

    def test_jitter_stays_within_fraction(self):
        model = aws_latency_model(num_nodes=8, seed=3)
        base = model.base_delay(0, 6)
        for _ in range(50):
            delay = model.delay(0, 6)
            assert abs(delay - base) <= base * model.jitter_fraction + 1e-12

    def test_assignment_length_checked(self):
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(
                regions=("a", "b"),
                one_way_ms={("a", "a"): 1.0},
                num_nodes=4,
                assignment=["a"],
            )

    def test_rejects_a_negative_jitter_fraction(self):
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(AWS_REGIONS, {}, num_nodes=8, jitter_fraction=-0.5)

    def test_rejects_a_nan_jitter_fraction(self):
        with pytest.raises(ConfigurationError):
            GeoLatencyModel(AWS_REGIONS, {}, num_nodes=8, jitter_fraction=float("nan"))

    @pytest.mark.parametrize("one_way_ms", [float("nan"), -5.0])
    def test_rejects_a_bad_one_way_entry(self, one_way_ms):
        # NaN would reach delay(); a negative entry was clamped to 0 unseen.
        with pytest.raises(ConfigurationError, match="one_way_ms"):
            GeoLatencyModel(("a",), {("a", "a"): one_way_ms}, num_nodes=2)


class TestCpsLatency:
    def test_sub_two_millisecond_lan(self):
        model = cps_latency_model(num_nodes=10)
        for _ in range(50):
            assert model.delay(0, 1) <= 0.0015


#: Every block-drawn stream: the two jittered latency models' pair samplers
#: and the delivery policy's three per-concern streams.
STREAMS = {
    "uniform": lambda: UniformLatency(low=0.001, high=0.01, seed=5).pair_sampler(2, 3),
    "geo": lambda: aws_latency_model(num_nodes=16, seed=5).pair_sampler(0, 6),
    "policy-delay": lambda: DeliveryPolicy(seed=5)._delay_stream.next,
    "policy-tiebreak": lambda: DeliveryPolicy(seed=5)._tie_stream.next,
    "policy-loss": lambda: DeliveryPolicy(seed=5)._loss_stream.next,
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_block_size_never_changes_a_value(name, monkeypatch):
    """Determinism rule 3: a stream is one sequence of Python floats,
    whatever block size it is drawn in."""
    sequences = []
    for block in (1, 7, None):
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(latency, "JITTER_BLOCK", block)
                patch.setattr(network, "POLICY_BLOCK", block)
            draw = STREAMS[name]()
            sequences.append([draw() for _ in range(600)])
    assert sequences[0] == sequences[1] == sequences[2]
    assert all(type(value) is float for value in sequences[2])


def test_a_delphi_n40_aws_run_keeps_its_jitter_packed():
    """The per-pair streams a finished run leaves behind hold their block as
    C doubles: at most 4 KB per ordered pair (a list of 256 floats alone is
    8 KB).  One round already draws every pair's first block, so it is
    measured under tracemalloc without tracing a whole run."""
    spec = ScenarioSpec(protocol="delphi", n=40, testbed="aws", seed=1, max_rounds=1)
    net, compute = build_network(spec)
    nodes = get_protocol("delphi").roster(spec).nodes(build_inputs(spec))
    tracemalloc.start()
    try:
        run_protocol("delphi", nodes, net, None, compute, SimulationConfig(engine="fast"))
        streams = net.latency._streams
        pairs = len(streams)
        held = tracemalloc.get_traced_memory()[0]
        streams.clear()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pairs == 40 * 39
    assert retained / pairs <= 4096, f"{retained / pairs:.0f} bytes per pair"
