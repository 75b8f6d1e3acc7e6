"""Tests for the AWS/CPS testbed models, metrics collection and the runner."""

import pytest

from repro.analysis.parameters import derive_parameters
from repro.errors import ConfigurationError
from repro.runner import run_delphi, run_protocol
from repro.sim.runtime import ComputeModel
from repro.testbed.aws import AwsTestbed
from repro.testbed.cps import CpsTestbed
from repro.testbed.metrics import ExperimentRecord, MetricsCollector

from helpers import run_named


class TestAwsTestbed:
    def test_network_matches_node_count(self):
        testbed = AwsTestbed(num_nodes=16)
        network = testbed.network()
        assert network.num_nodes == 16

    def test_wide_area_latency_dominates(self):
        testbed = AwsTestbed(num_nodes=16)
        network = testbed.network()
        # Cross-continent pairs should see tens of milliseconds one-way.
        delay = network.latency.expected_delay(0, 6)
        assert delay > 0.05

    def test_compute_model_charges_pairings_heavily(self):
        compute = AwsTestbed(num_nodes=8).compute()
        cheap = compute.processing_delay(100, crypto_units=0)
        expensive = compute.processing_delay(100, crypto_units=1)
        assert expensive > 100 * cheap

    def test_describe(self):
        description = AwsTestbed(num_nodes=8).describe()
        assert description["testbed"] == "aws" and description["regions"] == 8


class TestCpsTestbed:
    def test_lan_latency_small(self):
        testbed = CpsTestbed(num_nodes=12)
        network = testbed.network()
        assert network.latency.expected_delay(0, 5) < 0.005

    def test_bandwidth_shared_between_processes(self):
        few = CpsTestbed(num_nodes=12, processes_per_device=2).network()
        many = CpsTestbed(num_nodes=12, processes_per_device=12).network()
        assert (
            many.accountant.model.bits_per_second
            < few.accountant.model.bits_per_second
        )

    def test_cps_compute_slower_than_aws(self):
        aws = AwsTestbed(num_nodes=8).compute()
        cps = CpsTestbed(num_nodes=8).compute()
        assert cps.processing_delay(1000, 1) > aws.processing_delay(1000, 1)

    def test_describe(self):
        description = CpsTestbed(num_nodes=12).describe()
        assert description["testbed"] == "cps"


class TestMetricsCollector:
    def _collector(self):
        collector = MetricsCollector("fig6a")
        collector.add_run("delphi", 16, runtime_seconds=2.0, megabytes=1.0)
        collector.add_run("delphi", 64, runtime_seconds=3.0, megabytes=4.0)
        collector.add_run("fin", 16, runtime_seconds=1.5, megabytes=2.0)
        collector.add_run("fin", 64, runtime_seconds=9.0, megabytes=40.0)
        return collector

    def test_series_ordered_by_n(self):
        collector = self._collector()
        assert [record.n for record in collector.series("delphi")] == [16, 64]

    def test_protocols_in_first_seen_order(self):
        assert self._collector().protocols() == ["delphi", "fin"]

    def test_render_table_contains_all_cells(self):
        table = self._collector().render_table("runtime_seconds")
        assert "delphi" in table and "fin" in table and "n=64" in table

    def test_speedup_ratios(self):
        speedup = self._collector().speedup("fin", "delphi")
        assert speedup[64] == pytest.approx(3.0)

    def test_json_serialisation(self):
        payload = self._collector().to_json()
        assert '"experiment": "fig6a"' in payload

    def test_record_round_trip(self):
        record = ExperimentRecord(
            experiment="x", protocol="p", n=4, runtime_seconds=1.0, megabytes=0.5
        )
        assert record.as_dict()["protocol"] == "p"


class TestRunnerHelpers:
    def test_run_delphi_under_aws_model(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=8.0, max_rounds=4)
        testbed = AwsTestbed(num_nodes=4)
        result = run_delphi(
            params,
            [5.0, 5.3, 5.6, 5.1],
            network=testbed.network(),
            compute=testbed.compute(),
        )
        assert result.all_decided
        assert result.runtime_seconds > 0.1  # WAN round trips dominate
        assert result.protocol == "delphi"

    def test_run_fin_under_cps_model_charges_crypto(self):
        plain = run_named("fin", [1.0, 2.0, 3.0, 4.0])
        costly = run_named("fin", [1.0, 2.0, 3.0, 4.0], testbed="cps")
        assert costly.runtime_seconds > plain.runtime_seconds

    def test_input_length_checked(self, make_delphi_params):
        params = make_delphi_params(n=4)
        with pytest.raises(ConfigurationError):
            run_delphi(params, [1.0, 2.0])

    def test_output_values_and_spread(self, make_delphi_params):
        params = make_delphi_params(n=4, epsilon=1.0, delta_max=8.0, max_rounds=4)
        result = run_delphi(params, [5.0, 5.3, 5.6, 5.1])
        assert len(result.output_values) == 4
        assert result.output_spread <= params.epsilon + 1e-9
