"""End-to-end tests for the two-level sharded Delphi protocol.

Covers the tentpole acceptance criteria: epsilon-agreement end to end
(hierarchical monitor green), byte-identical results between the fast
and reference engines, a real message-count reduction vs flat Delphi at
the same n, the fault cells (crashed representative stalls its group; a
value-lying representative is *caught* by the hierarchical monitor), and
the registry/CLI surfaces the new protocol rides in on.
"""

import json
from typing import List

import pytest

from repro.adversary.base import AdversaryStrategy
from repro.errors import ConfigurationError
from repro.experiments.cells import build_inputs, run_protocol_cell
from repro.experiments.cli import main as cli_main
from repro.experiments.spec import KNOWN_PROTOCOLS, ScenarioSpec
from repro.faults.campaign import campaign, run_campaign, run_cell_engine
from repro.faults.monitors import HierarchicalAgreementMonitor, build_monitors
from repro.net.message import Message
from repro.protocols.registry import HIERARCHICAL_AGREEMENT, PROTOCOLS, get_protocol
from repro.protocols.sharded_delphi import (
    derive_sharded_parameters,
    sharded_parameters_of,
    sharded_topology_of,
)
from repro.runner import run_delphi, run_sharded_delphi
from repro.sim.runtime import SimulationConfig
from repro.analysis.parameters import derive_parameters


def sharded_spec(n: int, group_size: int, **overrides) -> ScenarioSpec:
    return ScenarioSpec(
        protocol="sharded-delphi",
        n=n,
        extras={"group_size": group_size},
        **overrides,
    )


def run_sharded(n: int, group_size: int, engine: str = "fast", seed: int = 0):
    spec = sharded_spec(n, group_size, seed=seed)
    inputs = build_inputs(spec)
    params = sharded_parameters_of(spec)
    return run_sharded_delphi(
        params, inputs, config=SimulationConfig(engine=engine)
    ), inputs, params


class TestEndToEndAgreement:
    @pytest.mark.parametrize("n,group_size", [(8, 4), (20, 5), (40, 8)])
    def test_all_decide_within_epsilon(self, n, group_size):
        result, inputs, params = run_sharded(n, group_size)
        assert result.all_decided
        values = list(result.output_values)
        assert max(values) - min(values) <= params.epsilon + 1e-9
        # Validity (2-level relaxed): outputs stay near the input hull.
        assert min(values) >= min(inputs) - 2 * (max(inputs) - min(inputs) + 1.0)
        assert max(values) <= max(inputs) + 2 * (max(inputs) - min(inputs) + 1.0)

    def test_single_group_degenerates_to_flat(self):
        result, _inputs, params = run_sharded(5, 8)
        assert params.rep_params is None
        assert params.topology.num_groups == 1
        assert result.all_decided

    def test_engines_byte_identical(self):
        fast, _, _ = run_sharded(20, 5, engine="fast")
        reference, _, _ = run_sharded(20, 5, engine="reference")
        assert fast.outputs == reference.outputs
        assert fast.message_count == reference.message_count
        assert fast.total_megabytes == reference.total_megabytes
        assert fast.runtime_seconds == reference.runtime_seconds
        assert fast.events_processed == reference.events_processed

    def test_sharding_cuts_traffic_vs_flat(self):
        n = 40
        sharded, inputs, _ = run_sharded(n, 8)
        flat_params = derive_parameters(n=n, epsilon=1.0, delta_max=16.0, max_rounds=6)
        flat = run_delphi(flat_params, inputs, config=SimulationConfig(engine="fast"))
        assert sharded.message_count < flat.message_count / 2


class TestParameters:
    def test_rep_round_uses_doubled_delta_max(self):
        params = derive_sharded_parameters(n=40, epsilon=1.0, delta_max=16.0, group_size=8)
        assert params.rep_params is not None
        assert params.topology.num_groups == 5
        assert len(params.group_params) == 5

    def test_spec_round_trip(self):
        spec = sharded_spec(24, 6, seed=3)
        params = sharded_parameters_of(spec)
        assert params.n == 24
        assert params.topology.num_groups == 4
        assert sharded_topology_of(spec).groups == params.topology.groups


class TestRegistryDispatch:
    def test_protocol_registered(self):
        assert "sharded-delphi" in KNOWN_PROTOCOLS
        row = get_protocol("sharded-delphi")
        assert PROTOCOLS["sharded-delphi"] is row
        assert row.name == "sharded-delphi"
        assert row.agreement == HIERARCHICAL_AGREEMENT

    def test_cell_runs_through_registry(self):
        metrics = run_protocol_cell(sharded_spec(12, 4))
        assert metrics["all_decided"]
        assert metrics["output_spread"] <= 1.0 + 1e-9
        assert metrics["decided_count"] == 12

    def test_unknown_protocol_still_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(protocol="no-such-protocol")


class TestHierarchicalMonitor:
    def test_build_monitors_attaches_hierarchical(self):
        spec = sharded_spec(12, 4)
        monitors = build_monitors(spec, build_inputs(spec))
        names = [type(m).__name__ for m in monitors]
        assert "HierarchicalAgreementMonitor" in names
        assert "ValidityMonitor" in names

    def test_cross_group_divergence_caught(self):
        monitor = HierarchicalAgreementMonitor(((0, 1), (2, 3)), epsilon=1.0)
        monitor.on_decide(0, 10.0, time=0.0)
        monitor.on_decide(1, 10.0, time=0.1)
        from repro.errors import InvariantViolation

        # Node 2 agrees with its own group-mates-to-be, but the global
        # spread vs group 0 is 10 — caught at the moment it decides.
        with pytest.raises(InvariantViolation) as caught:
            monitor.on_decide(2, 20.0, time=0.2)
        assert "cross-group" in str(caught.value)

    def test_intra_group_divergence_caught(self):
        monitor = HierarchicalAgreementMonitor(((0, 1), (2, 3)), epsilon=1.0)
        monitor.on_decide(0, 10.0, time=0.0)
        from repro.errors import InvariantViolation

        with pytest.raises(InvariantViolation):
            monitor.on_decide(1, 15.0, time=0.1)


class _LyingRepresentative(AdversaryStrategy):
    """Runs the honest two-level protocol but shifts every FINAL payload —
    the fan-down trust attack the hierarchical monitor must catch."""

    def on_start(self) -> List:
        return self._lie(self.node.on_start())

    def on_message(self, sender: int, message: Message) -> List:
        return self._lie(self.node.on_message(sender, message))

    def _lie(self, outbound):
        shifted = []
        for destination, message in outbound:
            if message.mtype == "FINAL":
                message = message.with_payload(float(message.payload) + 50.0)
            shifted.append((destination, message))
        return shifted


class TestFaultCells:
    def test_lying_representative_caught_by_monitor(self):
        spec = sharded_spec(12, 4, seed=0)
        rep = sharded_topology_of(spec).representatives[0]
        outcome = run_cell_engine(
            spec, "fast", extra_byzantine={rep: _LyingRepresentative()}
        )
        assert outcome.status == "violation"
        assert outcome.violation["monitor"] == "hierarchical-epsilon-agreement"

    def test_sharded_campaign_passes(self):
        result = run_campaign(campaign("sharded"))
        assert result.passed
        statuses = {v.spec.label.split("/")[-1]: v.status for v in result.verdicts}
        # A crashed or withholding representative stalls its group (the
        # designed liveness hazard); everything else terminates cleanly.
        assert all(status in ("ok", "stalled") for status in statuses.values())

    def test_rep_crash_stalls_its_group(self):
        spec = None
        for cell in campaign("sharded").cells():
            if "rep-crash" in cell.label:
                spec = cell
                break
        assert spec is not None
        outcome = run_cell_engine(spec, "fast")
        assert outcome.status == "stalled"


class TestCliSurfaces:
    def test_list_scenarios_names_protocols(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "sharded-delphi" in out
        assert "hierarchical" in out

    def test_faults_list_names_protocols(self, capsys):
        assert cli_main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sharded" in out
        assert "sharded-delphi" in out

    def test_sharded_smoke_small(self, tmp_path, capsys):
        output = tmp_path / "verdict.json"
        code = cli_main(
            [
                "sharded-smoke",
                "--n",
                "24",
                "--group-size",
                "6",
                "--quiet",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        verdict = json.loads(output.read_text())
        assert verdict["status"] == "ok"
        assert verdict["num_groups"] == 4
        assert verdict["metrics"]["decided"] == 24
        assert verdict["margins"]["epsilon_margin"] == 1.0


class _GarbageBundles(AdversaryStrategy):
    """Runs the honest protocol but ships every bundle with a payload the
    codec rejects, still inside the group namespace."""

    GARBAGE = "not a bundle"

    def __init__(self):
        self.broadcasts = 0

    def on_start(self) -> List:
        return self._garble(self.node.on_start())

    def on_message(self, sender: int, message: Message) -> List:
        return self._garble(self.node.on_message(sender, message))

    def _garble(self, outbound):
        self.broadcasts += len(outbound)
        return [(to, message.with_payload(self.GARBAGE)) for to, message in outbound]


class TestOneDecodePerPhysicalMessage:
    """The wall-clock-free guard on the decode memos: n receivers of a
    wrapped broadcast share one inner message, and messages with the same
    content share one decoded bundle."""

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_decodes_equal_broadcasts(self, engine, bundle_codec_calls):
        encoded, decoded = bundle_codec_calls
        result, _, _ = run_sharded(16, 4, engine=engine)
        assert result.all_decided
        assert result.events_processed > 4 * len(encoded)
        # One decode per distinct content, and the contents repeat.
        assert len(decoded) == len(set(decoded))
        assert set(decoded) == set(encoded)
        assert len(decoded) < len(encoded)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_wrapped_malformed_bundle_discarded_by_every_member(
        self, engine, bundle_codec_calls
    ):
        _, decoded = bundle_codec_calls
        spec = sharded_spec(16, 4, seed=0)
        topology = sharded_topology_of(spec)
        (byzantine,) = topology.safe_corrupted_ids(1)
        strategy = _GarbageBundles()
        outcome = run_cell_engine(spec, engine, extra_byzantine={byzantine: strategy})
        # Monitors attached: every honest node decided, within epsilon.
        assert outcome.status == "ok"
        # Validated (and rejected) once per physical message, not per member.
        rejected = [payload for payload in decoded if payload == strategy.GARBAGE]
        assert strategy.broadcasts > 0
        assert len(rejected) == strategy.broadcasts
