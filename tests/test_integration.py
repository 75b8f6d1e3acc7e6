"""End-to-end integration tests: the full pipelines the examples and
benchmarks drive, at a reduced scale."""

import pytest

from repro.adversary.base import HonestWithInput
from repro.adversary.strategies import CrashStrategy
from repro.analysis.parameters import derive_parameters
from repro.analysis.range_analysis import analyse_ranges, validity_margin
from repro.core.delphi import DelphiNode
from repro.distributions.extreme_value import delta_bound
from repro.distributions.thin_tailed import NormalInputs
from repro.runner import run_delphi
from repro.testbed.aws import AwsTestbed
from repro.testbed.cps import CpsTestbed
from repro.workloads.bitcoin import BitcoinPriceFeed
from repro.workloads.drone import DroneLocalisationWorkload

from helpers import assert_agreement, assert_validity, run_named, run_nodes


class TestOraclePipeline:
    """The full oracle-network pipeline: data analysis -> parameters -> run."""

    def test_configuration_from_observed_data(self):
        feed = BitcoinPriceFeed(seed=21)
        ranges = feed.observed_ranges(num_nodes=7, minutes=300)
        stats = analyse_ranges(ranges, thresholds=(100.0,), security_bits=20)
        params = derive_parameters(
            n=7,
            epsilon=2.0,
            delta_max=max(stats.recommended_delta, 64.0),
            rho0=10.0,
            max_rounds=6,
        )
        values = feed.node_inputs(7)
        result = run_delphi(params, values)
        assert result.all_decided
        assert_agreement(result.output_values, params.epsilon)
        delta = max(values) - min(values)
        assert_validity(result.output_values, values, relaxation=max(params.rho0, delta))

    def test_delphi_vs_fin_same_workload(self):
        feed = BitcoinPriceFeed(seed=22)
        values = feed.node_inputs(7)
        params = derive_parameters(n=7, epsilon=2.0, delta_max=2000.0, rho0=10.0, max_rounds=6)
        delphi = run_delphi(params, values)
        fin = run_named("fin", values)
        assert delphi.all_decided and fin.all_decided
        # Both land near the honest inputs.
        for result in (delphi, fin):
            assert min(values) - 25.0 <= result.output_values[0] <= max(values) + 25.0

    def test_aws_testbed_runtime_ordering_small_scale(self):
        """Even at small n, the AWS model should show FIN's computation cost
        being amortised while Delphi pays its round complexity — both finish."""
        feed = BitcoinPriceFeed(seed=23)
        n = 7
        values = feed.node_inputs(n)
        params = derive_parameters(n=n, epsilon=2.0, delta_max=2000.0, rho0=10.0, max_rounds=6)
        testbed = AwsTestbed(num_nodes=n)
        delphi = run_delphi(params, values, network=testbed.network(), compute=testbed.compute())
        fin = run_named("fin", values, testbed="aws")
        assert delphi.all_decided and fin.all_decided
        assert delphi.runtime_seconds > 0 and fin.runtime_seconds > 0


class TestDronePipeline:
    def test_two_coordinate_agreement(self):
        workload = DroneLocalisationWorkload(true_location=(120.0, 80.0), seed=31)
        n = 7
        xs, ys = workload.node_inputs(n)
        params = derive_parameters(n=n, epsilon=0.5, delta_max=50.0, max_rounds=6)
        result_x = run_delphi(params, xs)
        result_y = run_delphi(params, ys)
        assert result_x.all_decided and result_y.all_decided
        agreed_x = result_x.output_values[0]
        agreed_y = result_y.output_values[0]
        # The agreed location lands within a few metres of the ground truth.
        assert abs(agreed_x - 120.0) < 10.0
        assert abs(agreed_y - 80.0) < 10.0

    def test_cps_testbed_bandwidth_sensitivity(self):
        """On the CPS model, a larger input range (more active checkpoints)
        must cost at least as much traffic — the effect behind Fig. 6c."""
        n = 4
        params = derive_parameters(n=n, epsilon=0.5, delta_max=64.0, max_rounds=5)
        tight = [100.0, 100.2, 100.4, 100.6]
        wide = [80.0, 95.0, 110.0, 125.0]
        testbed = CpsTestbed(num_nodes=n)
        result_tight = run_delphi(params, tight, network=testbed.network(), compute=testbed.compute())
        result_wide = run_delphi(params, wide, network=testbed.network(), compute=testbed.compute())
        assert result_wide.total_megabytes >= result_tight.total_megabytes


class TestParameterisationFromTheory:
    def test_delta_bound_keeps_delphi_terminating(self):
        noise = NormalInputs(sigma=1.0, true_value=200.0, seed=41)
        n = 7
        delta_max = delta_bound(n, security_bits=20, distribution=noise)
        params = derive_parameters(n=n, epsilon=0.5, delta_max=max(delta_max, 2.0), max_rounds=6)
        values = noise.sample_inputs(n)
        result = run_delphi(params, values)
        assert result.all_decided
        assert_agreement(result.output_values, params.epsilon)


class TestAdversarialEndToEnd:
    def test_full_fault_budget_mixed_strategies(self):
        n, t = 7, 2
        params = derive_parameters(n=n, epsilon=1.0, delta_max=16.0, max_rounds=6)
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        byzantine = {
            5: CrashStrategy(),
            6: HonestWithInput(DelphiNode(6, params, value=0.0)),
        }
        assert len(byzantine) == t
        nodes = {i: DelphiNode(i, params, value=values[i]) for i in range(n)}
        result = run_nodes(nodes, byzantine=byzantine)
        honest_inputs = values[:5]
        outputs = [nodes[i].output for i in range(5)]
        assert result.all_honest_decided
        assert_agreement(outputs, params.epsilon)
        margin = validity_margin(outputs, honest_inputs)
        delta = max(honest_inputs) - min(honest_inputs)
        assert margin <= max(params.rho0, delta) + params.epsilon

    def test_dora_certificates_under_crash_faults(self):
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        result = run_named(
            "dora", values, {5: CrashStrategy()}, epsilon=1.0, delta_max=16.0, max_rounds=6
        )
        assert result.all_decided
        certified = {output.value for output in result.outputs.values()}
        assert len(certified) <= 2

    def test_baselines_and_delphi_all_survive_crashes(self):
        n = 7
        values = [10.2, 10.5, 10.9, 11.4, 10.1, 10.7, 11.0]
        params = derive_parameters(n=n, epsilon=1.0, delta_max=16.0, max_rounds=5)
        byz = {6: CrashStrategy()}
        delphi = run_delphi(params, values, byzantine=dict(byz))
        abraham = run_named(
            "abraham", values, {6: CrashStrategy()}, epsilon=1.0, delta_max=16.0, max_rounds=None
        )
        fin = run_named("fin", values, {6: CrashStrategy()})
        hbbft = run_named("hbbft", values, {6: CrashStrategy()})
        for result in (delphi, abraham, fin, hbbft):
            assert result.all_decided
