"""Tests for the fault-injection campaign subsystem: declarative fault
specs, network-fault injection, schedule-driven corruption, runtime
invariant monitors (including a deliberately broken invariant caught with a
seed repro bundle) and engine equivalence under faults."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from repro.adversary.base import AdversaryStrategy, HonestWithInput
from repro.adversary.strategies import CrashStrategy, ScheduledStrategy
from repro.analysis.parameters import derive_parameters
from repro.core.delphi import DelphiNode
from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments.cli import main as cli_main
from repro.experiments.spec import ScenarioSpec
from repro.faults import (
    FULL_BUDGET,
    CorruptionSpec,
    DelayWindow,
    FaultSpec,
    LossWindow,
    PartitionWindow,
    register_strategy,
    run_fault_cell,
    scenario_corrupted_ids,
)
from repro.faults.campaign import (
    EngineOutcome,
    load_pins,
    make_pin,
    replay_pin,
    run_campaign,
    run_cell_engine,
    smoke_campaign,
    tiny_campaign,
    write_pins,
)
from repro.faults.monitors import (
    BinaryBASafetyMonitor,
    EpsilonAgreementMonitor,
    RbcSafetyMonitor,
    TerminationMonitor,
    ValidityMonitor,
    build_monitors,
)
from repro.net.message import Message
from repro.net.network import DROPPED, DeliveryPolicy
from repro.protocols.rbc import ReliableBroadcastNode
from repro.sim.observers import TraceRecorder
from repro.sim.runtime import SimulationConfig, SimulationRuntime

from helpers import run_nodes, small_network


def fault_cell(protocol="delphi", n=4, fault=None, seed=0, **overrides):
    """A lan scenario cell with ``fault`` embedded in the extras."""
    spec = ScenarioSpec(
        protocol=protocol,
        n=n,
        seed=seed,
        testbed="lan",
        delta=0.5,
        centre=5.0,
        max_rounds=4,
        **overrides,
    )
    if fault is not None:
        spec = spec.replace(faults=fault.to_dict())
    return spec


class TestFaultSpec:
    def test_roundtrip_through_dict(self):
        spec = FaultSpec(
            corruptions=(CorruptionSpec("crash", count=1, activation_time=0.5),),
            partitions=(PartitionWindow(start=0.0, end=1.0, groups=((0, 1),)),),
            delays=(DelayWindow(start=0.0, end=1.0, extra=0.1, receivers=(2,)),),
            losses=(LossWindow(start=0.0, end=0.5, probability=0.3),),
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # Embeddable in a ScenarioSpec's extras (hashing requires JSON-safe).
        cell = fault_cell(fault=spec)
        assert ScenarioSpec.from_dict(cell.to_dict()).spec_hash() == cell.spec_hash()

    def test_misspelt_keys_are_rejected_not_ignored(self):
        window = {"start": 0.0, "end": 1.0, "extra": 0.1}
        with pytest.raises(ConfigurationError, match="'delay'"):
            FaultSpec.from_dict({"delay": [window]})
        with pytest.raises(ConfigurationError, match="'reciever'"):
            FaultSpec.from_dict({"delays": [{**window, "reciever": [0]}]})
        with pytest.raises(ConfigurationError, match="'strategi'"):
            FaultSpec.from_dict({"corruptions": [{"strategi": "crash"}]})
        # Missing optional keys stay tolerated.
        spec = FaultSpec.from_dict({"delays": [window], "corruptions": [{}]})
        assert spec.has_network_faults
        assert spec.corruptions == (CorruptionSpec(),)

    def test_full_budget_resolves_per_n(self):
        spec = FaultSpec(corruptions=(CorruptionSpec("crash"),))
        assert spec.corrupted_ids(4) == [3]
        assert spec.corrupted_ids(7) == [6, 5]
        assert spec.corrupted_ids(10) == [9, 8, 7]

    def test_over_budget_rejected_unless_allowed(self):
        spec = FaultSpec(corruptions=(CorruptionSpec("crash", count=2),))
        with pytest.raises(ConfigurationError):
            spec.corrupted_ids(4)
        allowed = FaultSpec(
            corruptions=(CorruptionSpec("crash", count=2),), allow_over_budget=True
        )
        assert allowed.corrupted_ids(4) == [3, 2]
        # Explicit nodes count against the same t budget, alone or beside an
        # implicit group.
        explicit = (CorruptionSpec("crash", nodes=(0, 1)),)
        with pytest.raises(ConfigurationError, match="budget"):
            FaultSpec(corruptions=explicit).corrupted_ids(4)
        assert FaultSpec(corruptions=explicit).corrupted_ids(7) == [0, 1]
        mixed = (CorruptionSpec("crash", nodes=(0,)), CorruptionSpec("spam", count=2))
        with pytest.raises(ConfigurationError, match="budget"):
            FaultSpec(corruptions=mixed).corrupted_ids(7)
        assert FaultSpec(corruptions=mixed).corrupted_ids(10) == [0, 9, 8]

    @pytest.mark.parametrize("nodes", [(4,), (9,), (-1,), (0, 4)])
    def test_explicit_node_outside_the_system_rejected(self, nodes):
        spec = FaultSpec(corruptions=(CorruptionSpec("crash", nodes=nodes),))
        with pytest.raises(ConfigurationError, match=r"outside \[0, 4\)"):
            spec.build_strategies(4)

    def test_explicit_nodes_duplicated_or_claimed_twice_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            CorruptionSpec("crash", nodes=(2, 2))
        twice = FaultSpec(
            corruptions=(
                CorruptionSpec("crash", nodes=(2,)),
                CorruptionSpec("spam", nodes=(2,)),
            ),
            allow_over_budget=True,
        )
        with pytest.raises(ConfigurationError, match="multiple groups"):
            twice.corrupted_ids(7)

    def test_activation_time_wraps_the_strategy(self):
        spec = FaultSpec(
            corruptions=(
                CorruptionSpec("crash", nodes=(2,), activation_time=1.5),
                CorruptionSpec("crash", nodes=(6,)),
            )
        )
        strategies = spec.build_strategies(7)
        # Honest until the activation time (the runtime injects the clock).
        assert isinstance(strategies[2], ScheduledStrategy)
        assert isinstance(strategies[2].inner, CrashStrategy)
        assert strategies[2].activation_time == 1.5
        assert type(strategies[6]) is CrashStrategy

    def test_unknown_strategy_rejected(self):
        spec = FaultSpec(corruptions=(CorruptionSpec("no-such-strategy", count=1),))
        with pytest.raises(ConfigurationError):
            spec.build_strategies(4)

    def test_window_specs_validated_at_declaration(self):
        with pytest.raises(ConfigurationError):
            DelayWindow(start=0.0, end=1.0, extra=-0.5)
        with pytest.raises(ConfigurationError):
            LossWindow(start=0.0, end=1.0, probability=1.5)
        with pytest.raises(ConfigurationError):
            PartitionWindow(start=1.0, end=0.5, groups=((0,),))
        with pytest.raises(ConfigurationError):
            LossWindow(start=-1.0, end=1.0, probability=0.5)
        with pytest.raises(ConfigurationError):
            CorruptionSpec("crash", activation_time=-1.0)

    def test_negative_count_refused_at_declaration(self):
        assert CorruptionSpec("crash", count=FULL_BUDGET).resolved_count(7) == 2
        assert CorruptionSpec("crash", count=0).resolved_count(7) == 0
        with pytest.raises(ConfigurationError, match=r"CorruptionSpec\.count: -2 "):
            CorruptionSpec("crash", count=-2)

    def test_termination_expectation_derived_from_losses(self):
        assert FaultSpec().terminating()
        assert not FaultSpec(
            losses=(LossWindow(start=0.0, end=1.0, probability=0.5),)
        ).terminating()
        assert FaultSpec(
            losses=(LossWindow(start=0.0, end=1.0, probability=0.5),),
            expect_termination=True,
        ).terminating()

    def test_scenario_corrupted_ids_covers_both_conventions(self):
        plain = fault_cell(adversary="crash", num_byzantine=1)
        assert scenario_corrupted_ids(plain) == [3]
        fault = fault_cell(fault=FaultSpec(corruptions=(CorruptionSpec("crash", count=1),)))
        assert scenario_corrupted_ids(fault) == [3]
        assert scenario_corrupted_ids(fault_cell()) == []


class TestNetworkFaultInjection:
    def test_partition_holds_messages_until_heal(self):
        plan = FaultSpec(
            partitions=(PartitionWindow(start=0.0, end=1.0, groups=((0,),), heal_delay=0.5),)
        ).network_plan()
        policy = DeliveryPolicy(faults=plan)
        # Crossing the cut at t=0.2: held until end (1.0) + heal (0.5).
        assert policy.fault_delay(0, 1, 0.2) == pytest.approx(1.3)
        # Inside the remainder group: unaffected.
        assert policy.fault_delay(1, 2, 0.2) == 0.0
        # After the window: unaffected.
        assert policy.fault_delay(0, 1, 1.5) == 0.0

    def test_targeted_delay_window(self):
        plan = FaultSpec(
            delays=(DelayWindow(start=0.0, end=1.0, extra=0.25, receivers=(2,)),)
        ).network_plan()
        policy = DeliveryPolicy(faults=plan)
        assert policy.fault_delay(0, 2, 0.5) == pytest.approx(0.25)
        assert policy.fault_delay(0, 1, 0.5) == 0.0
        assert policy.fault_delay(0, 2, 2.0) == 0.0

    def test_loss_window_is_seeded_and_deterministic(self):
        plan = FaultSpec(
            losses=(LossWindow(start=0.0, end=1.0, probability=0.5),)
        ).network_plan()
        draws_a = [DeliveryPolicy(seed=7, faults=plan).fault_delay(0, 1, 0.1) for _ in range(1)]
        first = [DeliveryPolicy(seed=7, faults=plan) for _ in range(2)]
        seq_a = [first[0].fault_delay(0, 1, 0.1) for _ in range(50)]
        seq_b = [first[1].fault_delay(0, 1, 0.1) for _ in range(50)]
        assert seq_a == seq_b
        assert DROPPED in seq_a and 0.0 in seq_a  # both outcomes occur
        assert draws_a[0] == seq_a[0]

    def test_benign_policy_has_no_faults(self):
        assert not DeliveryPolicy().faults_active


class TestScheduledCorruption:
    def test_late_activation_is_honest_until_then(self):
        # Corruption activating long after the protocol finishes must be
        # indistinguishable from a fully honest run.
        clean = run_fault_cell(fault_cell())
        late = run_fault_cell(
            fault_cell(
                fault=FaultSpec(
                    corruptions=(
                        CorruptionSpec("crash", count=1, activation_time=1e6),
                    ),
                    # The to-be-corrupted node never counts as honest, so
                    # termination is judged on the remaining three nodes.
                )
            )
        )
        assert clean.ok and late.ok
        # Honest nodes 0..2 computed identical outputs in both runs.
        clean_outputs = clean.fast.projection["outputs"]
        late_outputs = late.fast.projection["outputs"]
        for node in ("0", "1", "2"):
            assert clean_outputs[node] == late_outputs[node]

    def test_midrun_crash_still_terminates(self):
        verdict = run_fault_cell(
            fault_cell(
                protocol="fin",
                fault=FaultSpec(
                    corruptions=(CorruptionSpec("crash", count=1, activation_time=0.02),)
                ),
            )
        )
        assert verdict.ok
        assert verdict.equivalent


class TestEngineEquivalenceUnderFaults:
    @pytest.mark.parametrize("protocol", ["delphi", "fin"])
    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec(partitions=(PartitionWindow(start=0.0, end=0.05, groups=((0,),)),)),
            FaultSpec(delays=(DelayWindow(start=0.0, end=0.2, extra=0.05, senders=(1,)),)),
            FaultSpec(losses=(LossWindow(start=0.0, end=0.03, probability=0.25),)),
            FaultSpec(
                corruptions=(CorruptionSpec("crash", count=1, activation_time=0.01),),
                losses=(LossWindow(start=0.01, end=0.02, probability=0.5),),
            ),
        ],
        ids=["partition", "targeted-delay", "loss", "adaptive+loss"],
    )
    def test_fast_and_reference_identical(self, protocol, fault):
        verdict = run_fault_cell(fault_cell(protocol=protocol, n=5, fault=fault, seed=11))
        assert verdict.equivalent, (
            f"engines diverged: fast={verdict.fast.comparable()} "
            f"reference={verdict.reference.comparable()}"
        )


class TestMonitors:
    def test_epsilon_agreement_monitor_fires(self):
        monitor = EpsilonAgreementMonitor(epsilon=0.5)
        monitor.on_decide(0, 1.0, time=0.1)
        with pytest.raises(InvariantViolation) as exc:
            monitor.on_decide(1, 2.0, time=0.2)
        assert exc.value.monitor == "epsilon-agreement"

    def test_validity_monitor_fires(self):
        monitor = ValidityMonitor([1.0, 2.0], relaxation=0.5)
        monitor.on_decide(0, 2.4, time=0.0)  # inside the relaxed hull
        with pytest.raises(InvariantViolation):
            monitor.on_decide(1, 3.0, time=0.0)

    def test_termination_monitor_totality(self):
        class _Result:
            honest_nodes = [0, 1, 2]
            outputs = {0: 1.0}
            events_processed = 42

        with pytest.raises(InvariantViolation) as exc:
            TerminationMonitor(expect_termination=True).on_run_end(_Result())
        assert "totality" in exc.value.detail
        TerminationMonitor(expect_termination=False).on_run_end(_Result())

    def test_binary_ba_monitor_rejects_non_bits_and_disagreement(self):
        monitor = BinaryBASafetyMonitor()
        monitor.on_decide(0, 1, time=0.0)
        with pytest.raises(InvariantViolation):
            monitor.on_decide(1, 0, time=0.0)
        bad = BinaryBASafetyMonitor()
        with pytest.raises(InvariantViolation):
            bad.on_decide(0, 0.5, time=0.0)

    def test_build_monitors_selects_per_protocol(self):
        approx = build_monitors(fault_cell(protocol="delphi"), [1.0, 2.0])
        names = [type(m).__name__ for m in approx]
        assert "EpsilonAgreementMonitor" in names and "ValidityMonitor" in names
        exact = build_monitors(fault_cell(protocol="fin"), [1.0, 2.0])
        assert exact[0].epsilon == 0.0


class _TwoFacedBroadcaster(AdversaryStrategy):
    """Test-only RBC attack: SEND/ECHO/READY value A to even nodes, B to odd.

    With an accomplice this exceeds the t=1 budget at n=4 and makes honest
    nodes deliver different values — which the safety monitor must catch.
    """

    def _half(self, mtype):
        out = []
        for node_id in range(self.node.n):
            value = "A" if node_id % 2 == 0 else "B"
            out.append((node_id, Message("rbc", mtype, None, [mtype, value])))
        return out

    def on_start(self):
        return self._half("SEND") + self._half("ECHO") + self._half("READY")


class _Accomplice(_TwoFacedBroadcaster):
    def on_start(self):
        return self._half("ECHO") + self._half("READY")


class TestRbcSafetyMonitor:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_two_faced_broadcast_caught(self, engine):
        n, t = 4, 1
        nodes = {
            i: ReliableBroadcastNode(i, n, t, broadcaster=0, value="A" if i == 0 else None)
            for i in range(n)
        }
        runtime = SimulationRuntime(
            nodes=nodes,
            network=small_network(n, seed=3),
            byzantine={0: _TwoFacedBroadcaster(), 1: _Accomplice()},
            config=SimulationConfig(engine=engine),
            observers=[RbcSafetyMonitor()],
        )
        with pytest.raises(InvariantViolation) as exc:
            runtime.run()
        assert exc.value.monitor == "rbc-safety"
        assert "delivered different values" in exc.value.detail

    def test_honest_broadcast_passes(self):
        n, t = 4, 1
        nodes = {
            i: ReliableBroadcastNode(i, n, t, broadcaster=0, value="A" if i == 0 else None)
            for i in range(n)
        }
        monitor = RbcSafetyMonitor(broadcaster_value="A")
        result = run_nodes(nodes, observers=[monitor])
        assert result.all_honest_decided


class TestBrokenInvariantRepro:
    """The acceptance scenario: a test-only strategy breaks validity; the
    monitors catch it and the campaign layer emits a seed repro bundle."""

    @pytest.fixture(autouse=True)
    def _register(self):
        def hull_breaker(ctx):
            params = derive_parameters(
                n=ctx.scenario.n,
                epsilon=ctx.scenario.epsilon,
                rho0=ctx.scenario.rho0,
                delta_max=ctx.scenario.delta_max,
                max_rounds=ctx.scenario.max_rounds,
            )
            poison = float(ctx.options.get("poison", 12.5))
            return HonestWithInput(DelphiNode(ctx.node_id, params, value=poison))

        register_strategy("test-hull-breaker", hull_breaker)
        yield
        # Unregister so other tests see the pristine strategy registry
        # regardless of execution order.
        from repro.faults.spec import STRATEGY_FACTORIES

        STRATEGY_FACTORIES.pop("test-hull-breaker", None)

    def _spec(self):
        return fault_cell(
            fault=FaultSpec(
                corruptions=(CorruptionSpec("test-hull-breaker", count=3),),
                allow_over_budget=True,
                expect_termination=False,
            ),
            seed=3,
        )

    def test_violation_caught_with_bundle(self, tmp_path):
        verdict = run_fault_cell(self._spec(), bundle_dir=str(tmp_path))
        assert verdict.status == "violation"
        assert verdict.equivalent  # both engines observe the same violation
        assert verdict.fast.violation["monitor"] == "validity"
        bundle = json.loads(open(verdict.bundle_path).read())
        assert bundle["schema"] == "repro-fault-pins/1"
        (pin,) = bundle["entries"]
        assert pin["spec"]["seed"] == 3
        assert pin["spec"]["protocol"] == "delphi"
        assert pin["trace_tail"], "bundle must carry the violating schedule"
        assert pin["violation"]["monitor"] == "validity"
        assert pin["violation"]["engine"] == "fast"

    def test_bundle_replay_reproduces_violation(self, tmp_path):
        verdict = run_fault_cell(self._spec(), bundle_dir=str(tmp_path))
        replayed, _problems = replay_pin(load_pins(verdict.bundle_path)[0])
        assert replayed.status == "violation"
        assert replayed.fast.violation == verdict.fast.violation

    def test_replay_report_detects_faithful_bundle(self, tmp_path):
        verdict = run_fault_cell(self._spec(), bundle_dir=str(tmp_path))
        _replayed, problems = replay_pin(load_pins(verdict.bundle_path)[0])
        assert problems == []
        assert cli_main(["faults", "--replay", verdict.bundle_path]) == 0

    def test_replay_exits_nonzero_on_tampered_bundle(self, tmp_path):
        """The stale-corpus check: a bundle whose recorded verdict no longer
        matches the replay must fail, both for a drifted detail and for a
        spec that no longer violates at all."""
        verdict = run_fault_cell(self._spec(), bundle_dir=str(tmp_path))
        (pin,) = load_pins(verdict.bundle_path)

        # Same violation class, drifted detail (as if the monitor's numbers
        # changed under the committed bundle).
        drifted = dict(
            pin, violation=dict(pin["violation"], detail="node 0 output 999 outside hull")
        )
        _replayed, problems = replay_pin(drifted)
        assert len(problems) == 1 and "replay violated 'validity'" in problems[0]
        drifted_path = tmp_path / "drifted.json"
        write_pins(str(drifted_path), [drifted])
        assert cli_main(["faults", "--replay", str(drifted_path)]) == 1

        # Spec tampered into a healthy cell: nothing violates on replay.
        healthy = dict(pin, spec=dict(pin["spec"], extras={}))
        _replayed, problems = replay_pin(healthy)
        assert len(problems) == 1 and "no longer reproduces" in problems[0]
        healthy_path = tmp_path / "healthy.json"
        write_pins(str(healthy_path), [healthy])
        assert cli_main(["faults", "--replay", str(healthy_path)]) == 1

        # No pins at all is an error, never a clean replay.
        assert cli_main(["faults", "--replay", str(tmp_path / "absent.json")]) == 2


# ``repro.faults`` exports a function called ``campaign`` that shadows the
# submodule of the same name.
campaign_module = importlib.import_module("repro.faults.campaign")


def _outcome(engine, outputs=None, violation=None):
    """A canned engine outcome, for faking ``run_cell_engine``."""
    margins = {"epsilon_margin": 0.5}
    if violation is not None:
        trace = {"events_seen": 1, "trace_tail": []}
        return EngineOutcome(engine, "violation", violation=violation, trace=trace, margins=margins)
    projection = {
        "outputs": outputs or {"0": 1.0},
        "decided": [0],
        "honest": [0],
        "events_processed": 1,
        "runtime_seconds": 0.1,
    }
    return EngineOutcome(engine, "ok", projection=projection, margins=margins)


class TestReplayPin:
    """Each outcome of the one replay rule, on a faked ``run_cell_engine``
    (the module-level seam ``run_fault_cell`` looks up at call time)."""

    SPEC = ScenarioSpec(protocol="delphi", n=4, testbed="lan", seed=0)
    VIOLATION = {"monitor": "validity", "detail": "node 1 left the hull", "time": 0.1, "node": 1}

    @pytest.fixture
    def engines(self, monkeypatch):
        """Set ``engines["fast"]`` / ``engines["reference"]`` to the outcome
        each engine should report."""
        canned = {"fast": _outcome("fast"), "reference": _outcome("reference")}
        monkeypatch.setattr(
            campaign_module, "run_cell_engine", lambda spec, engine: canned[engine]
        )
        return canned

    def test_margin_drift(self, engines):
        pin = make_pin(self.SPEC, "p", margins={"epsilon_margin": 0.25})
        (problem,) = replay_pin(pin)[1]
        assert problem.startswith("margins drifted")

    def test_status_drift(self, engines):
        pin = make_pin(self.SPEC, "p", status="stalled")
        (problem,) = replay_pin(pin)[1]
        assert problem == "status drifted: recorded 'stalled', replayed 'ok'"

    def test_engine_divergence(self, engines):
        engines["reference"] = _outcome("reference", outputs={"0": 2.0})
        problems = replay_pin(make_pin(self.SPEC, "p"))[1]
        assert problems[0] == "engines diverged on replay"
        assert "replayed 'engine-mismatch'" in problems[1]

    def test_drifted_violation_detail(self, engines):
        engines["fast"] = _outcome("fast", violation=self.VIOLATION)
        recorded = dict(self.VIOLATION, detail="node 2 left the hull", engine="fast")
        (problem,) = replay_pin(make_pin(self.SPEC, "p", violation=recorded))[1]
        assert "node 1 left the hull" in problem and "node 2 left the hull" in problem

    def test_violation_recorded_only_on_the_reference_engine(self, engines, tmp_path):
        """The fastpath-divergence case: only the reference engine violates.
        The verdict surfaces it, its bundle is the one written, and replaying
        that bundle checks the reference engine, not the fast one."""
        engines["reference"] = _outcome("reference", violation=self.VIOLATION)
        verdict = run_fault_cell(self.SPEC, bundle_dir=str(tmp_path))
        entry = verdict.as_dict()
        assert entry["status"] == "engine-mismatch"
        assert entry["violation_engine"] == "reference"
        assert verdict.bundle_path.endswith("_reference.json")
        assert [p.name for p in tmp_path.iterdir()] == [Path(verdict.bundle_path).name]
        (pin,) = load_pins(verdict.bundle_path)
        assert pin["violation"]["engine"] == "reference"
        assert replay_pin(pin)[1] == []
        assert cli_main(["faults", "--replay", verdict.bundle_path]) == 0
        # The same record pinned to the fast engine is stale.
        fast_pin = dict(pin, violation=dict(pin["violation"], engine="fast"))
        (problem,) = replay_pin(fast_pin)[1]
        assert "no longer reproduces on the fast engine" in problem


class TestCampaign:
    def test_tiny_campaign_passes_and_writes_artifact(self, tmp_path):
        result = run_campaign(tiny_campaign())
        assert result.passed
        assert len(result) == 2
        path = result.write_json(str(tmp_path / "FAULTS_tiny.json"))
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-faults/1"
        assert payload["summary"]["cells"] == 2
        assert all(cell["equivalent"] for cell in payload["cells"])
        # Margin channels ride in the verdict artifact, per cell and
        # aggregated per protocol.
        for cell in payload["cells"]:
            assert "margins" in cell and "margin_ratios" in cell
        assert "epsilon_margin" in payload["best_margins"]["delphi"]

    def test_cli_faults_tiny(self, tmp_path, capsys):
        code = cli_main(
            ["faults", "--campaign", "tiny", "--quiet", "--output", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "FAULTS_tiny.json").exists()

    def test_cli_faults_list_and_dry_run(self, capsys):
        assert cli_main(["faults", "--list"]) == 0
        assert "smoke" in capsys.readouterr().out
        assert cli_main(["faults", "--campaign", "smoke", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "28 cells" in out

    def test_smoke_matrix_margins_exist_and_are_finite(self):
        """Every smoke-matrix cell must report finite epsilon-agreement and
        hull-distance margins — the fitness channels the adversarial search
        (and the campaign artifact) are built on.  Fast engine only: the
        margins derive from the observer stream, which the equivalence tests
        already pin across engines."""
        import math

        for spec in smoke_campaign().cells():
            outcome = run_cell_engine(spec, "fast")
            for channel in ("epsilon_margin", "hull_distance"):
                assert channel in outcome.margins, (
                    f"{spec.label}: missing margin channel {channel}"
                )
                assert math.isfinite(outcome.margins[channel]), (
                    f"{spec.label}: non-finite {channel}"
                )
                assert math.isfinite(outcome.margin_ratios[channel])
            if (spec.extras.get("faults") or {}).get("losses"):
                # Loss windows waive the liveness guarantee, so the
                # termination channel must stay silent rather than report
                # a meaningless slack.
                assert "termination_slack" not in outcome.margins
            else:
                assert 0.0 <= outcome.margins["termination_slack"] <= 1.0

    @pytest.mark.slow
    def test_smoke_campaign_holds_on_seeds_0_to_299(self):
        """The smoke matrix at 300 schedule seeds, both engines: no
        invariant violation, no engine mismatch and no exception (stalls
        occur only where a loss window waives termination).  About 5 min
        on one core; CI runs it in its own step."""
        failures = []
        for seed in range(300):
            result = run_campaign(dataclasses.replace(smoke_campaign(), seeds=(seed,)))
            failures += [
                (seed, verdict.spec.label, verdict.spec.protocol, verdict.spec.n, verdict.status)
                for verdict in result.verdicts
                if verdict.status not in ("ok", "stalled")
            ]
        assert failures == []

    def test_observers_see_identical_streams_on_both_engines(self):
        streams = {}
        for engine in ("fast", "reference"):
            recorder = TraceRecorder(limit=10_000)
            nodes = {
                i: ReliableBroadcastNode(i, 4, 1, broadcaster=0, value=7 if i == 0 else None)
                for i in range(4)
            }
            runtime = SimulationRuntime(
                nodes=nodes,
                network=small_network(4, seed=5),
                config=SimulationConfig(engine=engine),
                observers=[recorder],
            )
            runtime.run()
            streams[engine] = recorder.tail()
        assert streams["fast"] == streams["reference"]
        assert streams["fast"], "observer saw no events"
