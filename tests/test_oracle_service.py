"""Tests for the epoch-pipelined oracle service: multi-epoch operation,
cross-engine parity, churn, epoch tagging, monitors and the serve CLI."""

import json
import time

import pytest

from repro.analysis.parameters import derive_parameters
from repro.core.dora import DoraNode
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError, InvariantViolation, LivenessTimeout
from repro.experiments.cli import main
from repro.faults.monitors import CertificateStreamMonitor
from repro.net.message import Message
from repro.oracle.service import (
    EpochNode,
    KNOWN_SERVICE_ENGINES,
    OracleService,
    ServiceResult,
    build_service,
)
from repro.sim.asyncio_runtime import InMemoryTransport
from repro.workloads import EPOCH_WORKLOADS, make_epoch_workload


def small_service(workload="sensors", n=4, engine="fast", **kwargs):
    kwargs.setdefault("parity", False)
    return build_service(workload, n, engine=engine, **kwargs)


class TestEpochNode:
    @pytest.fixture
    def epoch_node(self):
        params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0, max_rounds=3)
        scheme = SignatureScheme(num_nodes=4)
        inner = DoraNode(0, params, value=2.0, scheme=scheme)
        return EpochNode(inner, epoch=1)

    def test_outbound_messages_are_epoch_tagged(self, epoch_node):
        outbound = epoch_node.on_start()
        assert outbound
        for _destination, message in outbound:
            assert message.protocol.startswith("epoch:1/")

    def test_stale_epoch_messages_dropped_and_counted(self, epoch_node):
        stale = Message("epoch:0/dora", "REPORT", None, [2.0, None])
        assert epoch_node.on_message(1, stale) == []
        assert epoch_node.stale_messages == 1
        assert epoch_node.processing_cost(stale) == 0.0

    def test_cost_hook_and_handler_share_one_unwrap(self, epoch_node, monkeypatch):
        # As received from a socket: no memo yet.  The engine asks for the
        # processing cost, then delivers; the inner node must be handed the
        # same object both times (one peel, and one place for its memos).
        received = Message("epoch:1/dora", "REPORT", None, [2.0, None])
        seen = []
        inner = epoch_node.inner
        monkeypatch.setattr(
            inner, "processing_cost", lambda message: seen.append(message) or 1.0
        )
        monkeypatch.setattr(
            inner, "on_message", lambda sender, message: seen.append(message) or []
        )
        assert epoch_node.processing_cost(received) == 1.0
        assert epoch_node.on_message(1, received) == []
        assert seen[0] is seen[1]
        assert seen[0] == Message("dora", "REPORT", None, [2.0, None])

    @pytest.mark.parametrize(
        "protocol, epoch",
        [
            ("dora", None),  # untagged
            ("cluster", None),
            ("epoch:x/dora", None),  # malformed
            ("epoch:/dora", None),
            ("epochs:3/dora", None),
            ("epoch:3", None),  # a head with nothing inside it
            ("epoch:3/dora", 3),
            ("epoch:3/group:1/delphi", 3),  # nested: the outermost tag
            ("group:1/epoch:3/delphi", None),
        ],
    )
    def test_epoch_tag_reader(self, protocol, epoch):
        message = Message(protocol, "REPORT", None, None)
        assert EpochNode.epoch_of(message) == epoch

    def test_the_tag_reader_and_the_node_share_one_peel(self, epoch_node):
        received = Message("epoch:1/dora", "REPORT", None, [2.0, None])
        assert EpochNode.epoch_of(received) == epoch_node.epoch
        assert epoch_node._namespace.unwrap(received) is received._peel[1]

    def test_decision_mirrors_inner_node(self, epoch_node):
        # The fast engine reads _has_output directly, so the wrapper must
        # mirror the inner decision into its own output slots.
        assert not epoch_node.has_output
        epoch_node.inner._decide("cert")
        epoch_node._sync()
        assert epoch_node.has_output
        assert epoch_node._has_output
        assert epoch_node.output == "cert"


class TestMultiEpochService:
    def test_serves_epochs_with_persistent_pki_and_chain(self):
        service = small_service()
        result = service.serve(3)
        assert result.epochs == 3
        assert [report.epoch for report in result.reports] == [0, 1, 2]
        # Every epoch's consumed certificate verifies against the *service*
        # scheme: identities and keys persist across epochs.
        for report in result.reports:
            assert service.scheme.verify_aggregate(
                report.value,
                report.certificate.aggregate,
                threshold=service.params.t + 1,
            )
        assert result.chain_entries >= result.epochs
        assert result.events_processed > 0
        assert result.epochs_per_sec is None or result.epochs_per_sec > 0

    def test_epoch_values_track_the_stream(self):
        service = small_service(workload="bitcoin", n=4)
        result = service.serve(3)
        values = [report.value for report in result.reports]
        epsilon = service.params.epsilon
        for value in values:
            assert round(value / epsilon) * epsilon == value
        # The bitcoin walk moves: epochs are distinct draws, not replays.
        assert len(set(values)) >= 2 or values[0] != 0.0

    def test_churn_rotates_and_service_survives(self):
        service = small_service(n=4, churn=1)
        result = service.serve(4)
        offline = [report.offline_nodes for report in result.reports]
        assert offline == [(0,), (1,), (2,), (3,)]
        for report in result.reports:
            assert report.certificate.signer_count >= service.params.t + 1
            # The offline node cannot have contributed a signature.
            assert not set(report.offline_nodes) & set(
                report.certificate.aggregate.signers
            )

    def test_churn_plan_override(self):
        service = small_service(n=4, engine="fast")
        service.churn_plan = {1: (2,)}
        result = service.serve(2)
        assert result.reports[0].offline_nodes == ()
        assert result.reports[1].offline_nodes == (2,)

    def test_serve_twice_reports_per_call_chain_deltas(self):
        service = small_service()
        first = service.serve(2)
        second = service.serve(2)
        # The chain itself is service-lifetime state ...
        assert len(service.chain.entries) >= first.chain_entries + second.chain_entries
        # ... but each ServiceResult counts only its own call's epochs.
        assert first.epochs == second.epochs == 2
        assert second.chain_entries <= first.chain_entries + 1  # same shape per call
        assert second.chain_validations > 0
        assert first.chain_entries + second.chain_entries == sum(
            1 for entry in service.chain.entries if entry.valid
        )

    def test_result_dict_is_json_safe(self):
        result = small_service().serve(2)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["epochs"] == 2
        assert len(payload["reports"]) == 2


class TestCrossEngineParity:
    @pytest.mark.parametrize("workload", ["bitcoin", "sensors"])
    def test_asyncio_matches_simulator_over_epochs(self, workload):
        """Every asyncio epoch with parity on is verified by the byte-exact
        schedule replay, over >= 3 epochs on two workloads; a real
        divergence raises."""
        service = build_service(workload, 4, engine="asyncio", seed=5, parity=True)
        assert service.parity is True
        result = service.serve(3)
        assert [report.parity for report in result.reports] == ["schedule"] * 3
        assert [report.as_dict()["parity"] for report in result.reports] == [
            "schedule"
        ] * 3

    def test_dropped_delivery_fails_serve_even_when_values_match(self, monkeypatch):
        """The replay runs on every asyncio epoch, not only when the epoch's
        value differs from a simulator run's.  Dropping one recorded REPORT
        delivery from a signer of a node's live certificate means the
        replayed node cannot build the same certificate, so ``serve`` must
        raise although the certified value itself is fine."""
        from repro.errors import EquivalenceError

        real_replay = OracleService._replay_schedule
        dropped = []

        def replay_with_one_delivery_dropped(
            self, epoch, inputs, recorder, live_nodes, offline
        ):
            node_id, node = next(
                (node_id, node)
                for node_id, node in sorted(live_nodes.items())
                if node_id not in offline and node.certificate is not None
            )
            signer = next(
                s for s in node.certificate.aggregate.signers if s != node_id
            )
            deliveries = recorder.inbound[node_id]
            index = next(
                k
                for k, (sender, message) in enumerate(deliveries)
                if sender == signer and message.mtype == "REPORT"
            )
            dropped.append(deliveries.pop(index))
            return real_replay(self, epoch, inputs, recorder, live_nodes, offline)

        monkeypatch.setattr(
            OracleService, "_replay_schedule", replay_with_one_delivery_dropped
        )
        service = build_service("sensors", 4, engine="asyncio", seed=5, parity=True)
        with pytest.raises(EquivalenceError, match="schedule replay"):
            service.serve(1)
        assert len(dropped) == 1

    def test_schedule_replay_reproduces_live_run(self):
        """Drive the schedule replay directly on a recorded asyncio epoch."""
        from repro.oracle.service import ScheduleRecorder

        service = build_service("sensors", 4, engine="asyncio", seed=2, parity=False)
        inputs = [float(v) for v in service.workload.epoch_inputs(4)]
        recorder = ScheduleRecorder()
        nodes, _result = service._run_epoch_on_engine(
            "asyncio", 0, inputs, (), service.scheme, (recorder,)
        )
        # Faithful trace replays cleanly ...
        service._replay_schedule(0, inputs, recorder, nodes, ())
        # ... and a tampered trace (most deliveries dropped, so the replayed
        # node cannot reach the live node's decision) is caught.
        victim = max(recorder.inbound, key=lambda nid: len(recorder.inbound[nid]))
        recorder.inbound[victim] = recorder.inbound[victim][:3]
        from repro.errors import EquivalenceError

        with pytest.raises(EquivalenceError, match="schedule replay"):
            service._replay_schedule(0, inputs, recorder, nodes, ())

    def test_fast_and_reference_services_agree(self):
        results = {}
        for engine in ("fast", "reference"):
            results[engine] = small_service(
                workload="bitcoin", n=4, engine=engine, seed=9
            ).serve(3)
        assert [r.value for r in results["fast"].reports] == [
            r.value for r in results["reference"].reports
        ]

    def test_parity_mismatch_raises(self, monkeypatch):
        from repro.errors import EquivalenceError

        service = build_service("sensors", 4, engine="fast", seed=1, parity=True)
        monkeypatch.setattr(
            OracleService, "_parity_value", lambda self, *args: -1234.5
        )
        with pytest.raises(EquivalenceError):
            service.serve(1)

    def test_twin_engine_certifying_nothing_raises_instead_of_skipping(
        self, monkeypatch
    ):
        """A twin run with no certificate is an engine divergence, not a
        liveness failure the watchdog may skip."""
        import repro.oracle.service as service_module
        from repro.errors import EquivalenceError

        real_submissions = service_module._submissions
        calls = []

        def twin_submits_nothing(nodes, offline):
            calls.append(offline)
            return real_submissions(nodes, offline) if len(calls) == 1 else []

        monkeypatch.setattr(service_module, "_submissions", twin_submits_nothing)
        service = build_service("sensors", 4, engine="fast", seed=1, parity=True)
        with pytest.raises(EquivalenceError, match="certified None"):
            service.serve(1)
        assert len(calls) == 2
        assert service.epochs_skipped == 0


class TestCertificateStreamMonitor:
    @pytest.fixture
    def armed_monitor(self):
        params = derive_parameters(n=4, epsilon=1.0, delta_max=8.0)
        monitor = CertificateStreamMonitor(params)
        monitor.begin_epoch(0, [10.0, 10.4, 10.8])
        return monitor, params

    def _certificate(self, value, signers=(0, 1)):
        class FakeAggregate:
            def __init__(self, signers):
                self.signers = tuple(signers)

        class FakeCertificate:
            def __init__(self, value, signers):
                self.value = value
                self.aggregate = FakeAggregate(signers)
                self.signer_count = len(self.aggregate.signers)

        return FakeCertificate(value, signers)

    def test_valid_certificate_passes(self, armed_monitor):
        monitor, _params = armed_monitor
        monitor.check_certificate(0, self._certificate(10.0))

    def test_off_grid_value_violates(self, armed_monitor):
        monitor, _params = armed_monitor
        with pytest.raises(InvariantViolation):
            monitor.check_certificate(0, self._certificate(10.3))

    def test_out_of_hull_value_violates(self, armed_monitor):
        monitor, _params = armed_monitor
        with pytest.raises(InvariantViolation):
            monitor.check_certificate(0, self._certificate(25.0))

    def test_insufficient_signers_violates(self, armed_monitor):
        monitor, _params = armed_monitor
        with pytest.raises(InvariantViolation):
            monitor.check_certificate(0, self._certificate(10.0, signers=(0,)))

    def test_rounded_output_spread_violates(self, armed_monitor):
        monitor, _params = armed_monitor
        monitor.on_decide(0, self._certificate(10.0), 0.0)
        with pytest.raises(InvariantViolation):
            monitor.on_decide(1, self._certificate(13.0), 0.1)

    def test_empty_epoch_inputs_rejected(self, armed_monitor):
        monitor, _params = armed_monitor
        with pytest.raises(InvariantViolation):
            monitor.begin_epoch(1, [])


class TestServiceValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            build_service("nope", 4)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            small_service(engine="tokio")

    def test_churn_beyond_fault_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            small_service(n=4, churn=2)  # t = 1

    def test_churn_plan_beyond_budget_rejected_at_epoch(self):
        service = small_service(n=4)
        service.churn_plan = {0: (0, 1)}
        with pytest.raises(ConfigurationError):
            service.serve(1)

    def test_workload_length_mismatch_rejected(self):
        service = small_service(n=4)

        class ShortWorkload:
            def epoch_inputs(self, n):
                return [1.0]

        service.workload = ShortWorkload()
        with pytest.raises(ConfigurationError):
            service.run_epoch()

    def test_registry_covers_all_service_workloads(self):
        for name in EPOCH_WORKLOADS:
            feed = make_epoch_workload(name, seed=3)
            inputs = feed.epoch_inputs(5)
            assert len(inputs) == 5
            assert all(isinstance(value, float) for value in inputs)
        assert KNOWN_SERVICE_ENGINES == ("asyncio", "fast", "reference")


class TestServeCli:
    def test_serve_cli_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--workload",
                "sensors",
                "--epochs",
                "2",
                "--n",
                "4",
                "--engine",
                "fast",
                "--quiet",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "2 epochs" in stdout
        assert "epochs/sec" in stdout
        payload = json.loads(out.read_text())
        assert payload["epochs"] == 2
        assert payload["engine"] == "fast"
        assert [report["parity"] for report in payload["reports"]] == ["exact"] * 2

    def test_serve_cli_exits_1_when_an_epoch_is_skipped(self, monkeypatch, capsys):
        real_run_epoch = OracleService.run_epoch
        state = {"failed": False}

        def fail_once(self):
            if not state["failed"]:
                state["failed"] = True
                raise LivenessTimeout("transient stall")
            return real_run_epoch(self)

        monkeypatch.setattr(OracleService, "run_epoch", fail_once)
        code = main(
            ["serve", "--workload", "sensors", "--epochs", "3", "--n", "4",
             "--engine", "fast", "--quiet"]
        )
        assert code == 1
        stdout = capsys.readouterr().out
        assert "epoch   0: SKIPPED after 1 attempt(s) (LivenessTimeout" in stdout
        assert "skipped epochs: 1" in stdout
        assert "epoch   2: value=" in stdout

    def test_serve_cli_asyncio_no_parity(self, capsys):
        code = main(
            [
                "serve",
                "--workload",
                "sensors",
                "--epochs",
                "2",
                "--n",
                "4",
                "--engine",
                "asyncio",
                "--no-parity",
                "--churn",
                "1",
                "--quiet",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "offline" in stdout

    def test_serve_cli_rejects_bad_churn(self, capsys):
        code = main(
            ["serve", "--workload", "sensors", "--n", "4", "--churn", "3", "--quiet"]
        )
        assert code == 2


class TestBuildServiceLatency:
    def test_zero_latency_is_not_dropped(self):
        """latency_seconds=0.0 is a real request for zero-delay delivery;
        the old truthiness check (`if latency_seconds`) silently discarded
        it and left the engine on its default latency model."""
        service = small_service(engine="asyncio", latency_seconds=0.0)
        assert service.latency == 0.0 and service.latency is not None

    def test_positive_latency_still_wired(self):
        service = small_service(engine="asyncio", latency_seconds=0.25)
        assert service.latency == 0.25

    def test_default_latency_is_engine_choice(self):
        assert small_service().latency is None

    def test_zero_latency_service_still_converges(self):
        service = small_service(engine="asyncio", latency_seconds=0.0)
        report = service.run_epoch()
        assert report.certificate is not None

    def test_latency_delays_the_epoch(self):
        """Every cross-node message waits the latency, so an epoch cannot
        finish sooner (a lower bound: it cannot flake)."""
        service = small_service(engine="asyncio", latency_seconds=0.05)
        report = service.run_epoch()
        assert report.certificate is not None
        assert report.wall_seconds >= 0.05

    def test_latency_wraps_the_factory_transport(self):
        """The factory's transport is kept and delayed, not replaced: no
        cross-node message reaches it sooner than the latency."""

        class Stamped(InMemoryTransport):
            async def open(self, node_ids):
                self.opened_at, self.remote_puts = time.monotonic(), []
                await super().open(node_ids)

            async def put(self, target, item):
                if target != item[0]:
                    self.remote_puts.append(time.monotonic() - self.opened_at)
                await super().put(target, item)

        transports = []

        def factory(epoch):
            transports.append(Stamped())
            return transports[-1]

        service = small_service(engine="asyncio", latency_seconds=0.05)
        service.transport_factory = factory
        service.run_epoch()
        assert len(transports) == 1 and transports[0].remote_puts
        assert min(transports[0].remote_puts) >= 0.05


class TestServiceResultRates:
    def test_zero_wall_seconds_yields_none_rates(self):
        """A zero-duration run (all epochs served faster than the clock
        resolution, or an empty run) must report null rates, not divide by
        zero."""
        result = ServiceResult(workload="sensors", engine="fast", n=4)
        assert result.wall_seconds == 0.0
        assert result.epochs_per_sec is None
        assert result.certs_per_sec is None

    def test_zero_wall_seconds_survives_json(self):
        result = ServiceResult(workload="sensors", engine="fast", n=4)
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["epochs_per_sec"] is None
        assert payload["certs_per_sec"] is None

    def test_positive_wall_seconds_rates(self):
        result = ServiceResult(
            workload="sensors",
            engine="fast",
            n=4,
            wall_seconds=2.0,
            chain_entries=6,
        )
        result.reports = [None] * 4  # only len() is used by the property
        assert result.epochs_per_sec == 2.0
        assert result.certs_per_sec == 3.0
