"""Tests for the cluster chaos layer (:mod:`repro.oracle.chaos`) and the
graceful-degradation machinery it leans on: chaos schedules (JSON round
trip, validation, the standard acceptance schedule), the cluster liveness
monitor's epoch/kill accounting, verdict helpers (deterministic-vs-observed
split), the service epoch watchdog (retry then skip-and-account), the
tick-buffer circuit breaker, and the supervisor's collective TERM->KILL
reaping.  The tier-2 (``slow``) tests at the bottom run real multi-process
clusters under chaos: same-seed determinism of the verdict's deterministic
section, and the n=7 standard-schedule acceptance run."""

import asyncio
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    CertificateShortfall,
    ConfigurationError,
    InvariantViolation,
    LivenessTimeout,
)
from repro.faults.monitors import ClusterLivenessMonitor
from repro.experiments.cli import main as cli_main
from repro.net.chaos import WireFaults
from repro.net.network import LossWindow
from repro.oracle.chaos import (
    ChaosSchedule,
    KillSpec,
    PauseSpec,
    deterministic_view,
    standard_schedule,
    write_verdict,
)
from repro.oracle.cluster import ClusterSupervisor, build_cluster_config
from repro.oracle.service import SkippedEpoch, build_service
from repro.workloads.ticks import TickBufferWorkload


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
#: ``standard_schedule(7, seed=3).write(...)`` as the commit before the
#: window merge wrote it (the wire windows were still ``*Spec`` twins).
PRE_MERGE_SCHEDULE = Path(__file__).parent / "data" / "chaos_schedule_standard_n7.json"


class TestChaosSchedule:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            KillSpec(node=0, at=-1.0)
        with pytest.raises(ConfigurationError):
            KillSpec(node=0, at=0.0, restart_delay=-0.1)
        with pytest.raises(ConfigurationError):
            PauseSpec(node=0, at=0.0, duration=0.0)

    def test_json_round_trip(self, tmp_path):
        schedule = ChaosSchedule(
            seed=13,
            kills=(KillSpec(node=1, at=1.5, restart_delay=0.4),),
            pauses=(PauseSpec(node=2, at=3.0, duration=0.8),),
            wire=WireFaults(
                losses=(LossWindow(start=4.0, end=6.0, probability=0.2),)
            ),
        )
        path = schedule.write(tmp_path / "schedule.json")
        assert ChaosSchedule.load(path) == schedule

    def test_misspelt_keys_are_rejected_not_ignored(self):
        with pytest.raises(ConfigurationError, match="'kill'"):
            ChaosSchedule.from_dict({"kill": [{"node": 1, "at": 1.0}]})
        with pytest.raises(ConfigurationError, match="'restart'"):
            ChaosSchedule.from_dict({"kills": [{"node": 1, "at": 1.0, "restart": 2}]})
        with pytest.raises(ConfigurationError, match="'loss'"):
            ChaosSchedule.from_dict({"wire": {"loss": []}})
        # Missing optional keys stay tolerated.
        schedule = ChaosSchedule.from_dict({"kills": [{"node": 1, "at": 1}]})
        assert schedule.kills == (KillSpec(node=1, at=1.0),)

    def test_load_reads_a_schedule_written_before_the_window_merge(self, tmp_path):
        assert ChaosSchedule.load(PRE_MERGE_SCHEDULE) == standard_schedule(7, seed=3)
        rewritten = standard_schedule(7, seed=3).write(tmp_path / "again.json")
        assert rewritten.read_text() == PRE_MERGE_SCHEDULE.read_text()

    def test_cli_rejects_short_loss_flag(self, capsys):
        """``--loss PROB:START:END`` needs all three fields (was IndexError)."""
        assert cli_main(["chaos", "--loss", "0.2:10"]) == 2
        assert "malformed --loss '0.2:10'" in capsys.readouterr().err

    def test_with_seed_keeps_fault_plan(self):
        schedule = standard_schedule(7, seed=1)
        reseeded = schedule.with_seed(99)
        assert reseeded.seed == 99
        assert (reseeded.kills, reseeded.pauses, reseeded.wire) == (
            schedule.kills,
            schedule.pauses,
            schedule.wire,
        )

    def test_validate_rejects_out_of_cluster_nodes(self):
        config = build_cluster_config("sensors", 4, secret_seed=b"x")
        schedule = ChaosSchedule(kills=(KillSpec(node=7, at=0.0),))
        with pytest.raises(ConfigurationError):
            schedule.validate(config)

    def test_standard_schedule_shape(self):
        with pytest.raises(ConfigurationError):
            standard_schedule(3)
        schedule = standard_schedule(7, seed=5)
        assert len(schedule.kills) == 2
        assert len(schedule.pauses) == 1
        assert len(schedule.wire.partitions) == 1
        (loss,) = schedule.wire.losses
        assert loss.probability == 0.2
        # The partition must leave neither side with the n - t = 5 nodes
        # agreement needs, so the epoch stalls until heal instead of
        # certifying on one island.
        (partition,) = schedule.wire.partitions
        island = set(partition.groups[0])
        assert len(island) < 5 and 7 - len(island) < 5


# ----------------------------------------------------------------------
# Liveness monitor
# ----------------------------------------------------------------------
class TestClusterLivenessMonitor:
    def test_certified_within_deadline(self):
        monitor = ClusterLivenessMonitor(epochs=2, deadline=1.0)
        monitor.begin_epoch(0, 10.0)
        monitor.on_certified(0, 10.5)
        monitor.begin_epoch(1, 11.0)
        monitor.on_certified(1, 11.2)
        monitor.finalize()
        summary = monitor.summary()
        assert summary["certified"] == [0, 1]
        assert summary["unaccounted"] == []
        assert summary["slowest_certify_seconds"] == pytest.approx(0.5)
        assert monitor.margin_channels()["certify_margin"] == pytest.approx(0.5)

    def test_late_certification_violates(self):
        monitor = ClusterLivenessMonitor(epochs=1, deadline=0.5)
        monitor.begin_epoch(0, 0.0)
        with pytest.raises(InvariantViolation):
            monitor.on_certified(0, 2.0)

    def test_certified_without_begin_violates(self):
        monitor = ClusterLivenessMonitor(epochs=1, deadline=1.0)
        with pytest.raises(InvariantViolation):
            monitor.on_certified(0, 1.0)

    def test_skipped_epochs_are_accounted(self):
        monitor = ClusterLivenessMonitor(epochs=2, deadline=1.0)
        monitor.begin_epoch(0, 0.0)
        monitor.on_certified(0, 0.1)
        monitor.begin_epoch(1, 1.0)
        monitor.on_skipped(1, "no valid certificate within 15s")
        monitor.finalize()  # skipped = accounted, no violation
        assert monitor.summary()["skipped"] == {
            "1": "no valid certificate within 15s"
        }

    def test_unaccounted_epoch_violates_at_finalize(self):
        monitor = ClusterLivenessMonitor(epochs=3, deadline=1.0)
        monitor.begin_epoch(0, 0.0)
        monitor.on_certified(0, 0.1)
        with pytest.raises(InvariantViolation) as excinfo:
            monitor.finalize()
        assert "[1, 2]" in str(excinfo.value)

    def test_kill_rejoin_accounting(self):
        monitor = ClusterLivenessMonitor(epochs=1, deadline=1.0)
        monitor.on_kill(2)
        monitor.on_kill(2)
        monitor.on_kill(3)
        monitor.on_rejoin(2)
        assert monitor.unrejoined() == [2, 3]  # 2 killed twice, rejoined once
        monitor.on_rejoin(2)
        monitor.on_rejoin(3)
        assert monitor.unrejoined() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ClusterLivenessMonitor(epochs=0, deadline=1.0)
        with pytest.raises(ValueError):
            ClusterLivenessMonitor(epochs=1, deadline=0.0)


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
class TestVerdicts:
    def test_deterministic_view_drops_observed(self):
        verdict = {"seed": 3, "ok": True, "observed": {"wall_seconds": 1.23}}
        assert deterministic_view(verdict) == {"seed": 3, "ok": True}

    def test_write_verdict_is_stable_bytes(self, tmp_path):
        verdict = {"seed": 7, "b": [2, 1], "a": {"y": 1, "x": 2}}
        first = write_verdict(tmp_path, verdict)
        assert first.name == "CHAOS_7.json"
        content = first.read_bytes()
        assert write_verdict(tmp_path, dict(verdict)).read_bytes() == content
        assert json.loads(content) == verdict


# ----------------------------------------------------------------------
# Schedule wiring (no processes spawned)
# ----------------------------------------------------------------------
class TestChaosControllerWiring:
    def _supervisor(self, schedule, n=4):
        config = build_cluster_config("sensors", n, epochs=2, secret_seed=b"w")
        return ClusterSupervisor(config, schedule=schedule, spawn=False), config

    def test_wire_faults_flow_into_node_config(self):
        schedule = ChaosSchedule(
            seed=21, wire=WireFaults(losses=(LossWindow(0.0, 1.0, 0.5),))
        )
        _supervisor, config = self._supervisor(schedule)
        assert config.chaos == {"seed": 21, "wire": schedule.wire.to_dict()}

    def test_process_only_schedule_keeps_transport_bare(self):
        supervisor, config = self._supervisor(
            ChaosSchedule(kills=(KillSpec(node=0, at=0.0),))
        )
        assert config.chaos is None
        assert supervisor.liveness.epochs == config.epochs

    def test_health_source_transitions(self):
        supervisor, _config = self._supervisor(ChaosSchedule())
        assert supervisor._health_source() == ("ok", [])
        supervisor.liveness.on_skipped(1, "stalled")
        status, reasons = supervisor._health_source()
        assert status == "degraded" and "epochs skipped: [1]" in reasons[0]
        supervisor.violations.append({"monitor": "m", "detail": "broke"})
        status, reasons = supervisor._health_source()
        assert status == "unhealthy" and "broke" in reasons[0]

    def test_injectors_without_processes_account_faults(self):
        supervisor, _config = self._supervisor(
            ChaosSchedule(
                kills=(KillSpec(node=1, at=0.0, restart_delay=0.0),),
                pauses=(PauseSpec(node=2, at=0.0, duration=0.1),),
            )
        )
        supervisor._zero = time.monotonic()

        async def scenario():
            supervisor._start_schedule()  # the supervisor's injectors, as tasks
            await asyncio.sleep(0.02)  # both fire at once (at=0.0) ...
            await supervisor._settle_faults()  # ... and are awaited through

        asyncio.run(scenario())
        assert supervisor.liveness.kills == [1]
        kinds = [event["kind"] for event in supervisor.fault_events]
        assert kinds == ["kill", "pause-noop"]  # no live process to pause
        assert supervisor.restarts == []  # spawn=False: nothing to respawn
        assert supervisor._down == set()  # always cleaned up


# ----------------------------------------------------------------------
# Service epoch watchdog
# ----------------------------------------------------------------------
def _service(**overrides):
    defaults = dict(engine="fast", seed=3, parity=False)
    defaults.update(overrides)
    return build_service("sensors", 4, **defaults)


class TestServiceWatchdog:
    def test_retry_recovers_and_reuses_epoch_number(self):
        service = _service(epoch_retries=2, retry_backoff=0.0)
        real_run_epoch = service.run_epoch
        calls = []

        def flaky():
            calls.append(service._epoch)
            if len(calls) == 1:
                service._epoch += 1  # mimic run_epoch's advance-then-fail
                raise LivenessTimeout("epoch stalled")
            return real_run_epoch()

        service.run_epoch = flaky
        report = service.run_epoch_resilient()
        assert report.epoch == 0
        assert calls == [0, 0]  # the retry reused the failed epoch number
        assert (service.epochs_failed, service.epochs_skipped) == (1, 0)

    def test_exhausted_retries_skip_and_account(self):
        service = _service(epoch_retries=1, retry_backoff=0.0)

        def always_short():
            raise CertificateShortfall("no attested certificate")

        service.run_epoch = always_short
        outcome = service.run_epoch_resilient()
        assert isinstance(outcome, SkippedEpoch)
        assert outcome.epoch == 0 and outcome.attempts == 2
        assert outcome.reason.startswith("CertificateShortfall")
        assert (service.epochs_failed, service.epochs_skipped) == (2, 1)
        assert service._epoch == 1  # the stream moves on past the skip

    def test_unrecoverable_errors_still_propagate(self):
        service = _service(epoch_retries=3, retry_backoff=0.0)

        def corrupted():
            raise ValueError("not a liveness problem")

        service.run_epoch = corrupted
        with pytest.raises(ValueError):
            service.run_epoch_resilient()
        assert service.epochs_skipped == 0

    def test_serve_resilient_collects_skips(self):
        service = _service(epoch_retries=0, retry_backoff=0.0)
        real_run_epoch = service.run_epoch
        state = {"failed": False}

        def fail_once():
            if not state["failed"]:
                state["failed"] = True
                service._epoch += 1
                raise LivenessTimeout("transient stall")
            return real_run_epoch()

        service.run_epoch = fail_once
        result = service.serve(3)
        assert len(result.reports) == 2
        assert [skip.epoch for skip in result.skipped] == [0]
        entry = result.as_dict()["skipped"][0]
        assert entry["reason"].startswith("LivenessTimeout")

    def test_watchdog_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            _service(epoch_retries=-1)
        with pytest.raises(ConfigurationError):
            _service(retry_backoff=-0.5)


# ----------------------------------------------------------------------
# Tick-pool circuit breaker
# ----------------------------------------------------------------------
class _FlatFeed:
    def epoch_inputs(self, n):
        return [50.0] * n


class TestTickBreaker:
    def _workload(self, **overrides):
        defaults = dict(breaker_threshold=2, breaker_recovery=1)
        defaults.update(overrides)
        return TickBufferWorkload(_FlatFeed(), **defaults)

    def test_starved_epochs_trip_the_breaker(self):
        ticks = self._workload()
        for _ in range(2):
            ticks.push([50.0, 50.0])  # 2 < n: starved
            assert ticks.epoch_inputs(4) == [50.0] * 4
        assert ticks.breaker_open and ticks.breaker_trips == 1

    def test_open_breaker_preserves_the_pool(self):
        ticks = self._workload()
        for _ in range(2):
            ticks.push([50.0, 50.0])
            ticks.epoch_inputs(4)
        ticks.push([50.0, 50.0])
        assert ticks.epoch_inputs(4) == [50.0] * 4  # fed from base, not ticks
        assert ticks.pending == 2  # the trickle accumulates instead of burning
        assert ticks.epochs_short_circuited == 1

    def test_breaker_recloses_after_full_pool(self):
        ticks = self._workload()
        for _ in range(2):
            ticks.push([50.0, 50.0])
            ticks.epoch_inputs(4)
        ticks.push([50.0, 50.1, 49.9, 50.2])  # a full epoch's worth pending
        served = ticks.epoch_inputs(4)
        assert not ticks.breaker_open  # recovery=1: one clean epoch re-closes
        assert served == [50.0, 50.1, 49.9, 50.2]  # ticks resume immediately
        assert ticks.epochs_from_ticks == 1

    def test_zero_tick_epochs_never_trip(self):
        ticks = self._workload()
        for _ in range(10):
            assert ticks.epoch_inputs(4) == [50.0] * 4  # pure feed mode
        assert not ticks.breaker_open and ticks.breaker_trips == 0

    def test_threshold_none_disables_breaker(self):
        ticks = self._workload(breaker_threshold=None)
        for _ in range(10):
            ticks.push([50.0])
            ticks.epoch_inputs(4)
        assert not ticks.breaker_open

    def test_stats_carry_breaker_fields(self):
        stats = self._workload().stats()
        assert {"breaker_open", "breaker_trips", "epochs_short_circuited"} <= set(
            stats
        )

    def test_breaker_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            self._workload(breaker_threshold=0)
        with pytest.raises(ConfigurationError):
            self._workload(breaker_recovery=0)


# ----------------------------------------------------------------------
# Supervisor teardown hardening
# ----------------------------------------------------------------------
def _spawnless_supervisor(tmp_path):
    config = build_cluster_config(
        "sensors", 4, secret_seed=b"teardown", runtime_dir=tmp_path
    )
    return ClusterSupervisor(config, spawn=False)


def _stubborn_child():
    """A child that ignores SIGTERM (like a SIGSTOPped or wedged node).

    Returns only once the child has said it ignores SIGTERM: on a busy host
    a SIGTERM sent before ``signal.signal`` runs would still kill it."""
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import signal, sys, time; "
            "signal.signal(signal.SIGTERM, signal.SIG_IGN); "
            "sys.stdout.write('.'); sys.stdout.flush(); time.sleep(60)",
        ],
        stdout=subprocess.PIPE,
    )
    with child.stdout:
        assert child.stdout.read(1) == b"."
    return child


class TestBootAccounting:
    def test_first_join_after_a_spawn_closes_its_boot(self, tmp_path):
        supervisor = _spawnless_supervisor(tmp_path)
        supervisor._spawned_at[2] = time.monotonic() - 0.5  # as _spawn_node notes
        supervisor._note_join(2)
        supervisor._note_join(2)  # a resync JOIN: same process, no new boot
        supervisor._note_join(3)  # --no-spawn: started elsewhere, never timed
        assert supervisor._joined == {2, 3}
        assert [entry["node"] for entry in supervisor.boots] == [2]
        assert 0.5 <= supervisor.boots[0]["boot_seconds"] < 5.0


class TestTeardownHardening:
    def test_reap_escalates_collectively_not_serially(self, tmp_path):
        """k wedged children must share ONE term_grace window before the
        SIGKILL sweep — not k serial full-budget waits."""
        supervisor = _spawnless_supervisor(tmp_path)
        children = [_stubborn_child() for _ in range(3)]
        for node_id, process in enumerate(children):
            supervisor.processes[node_id] = process
        started = time.monotonic()
        exit_codes = asyncio.run(
            supervisor._reap_children(timeout=0.2, term_grace=0.3)
        )
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"reap took {elapsed:.2f}s — serial escalation?"
        assert set(exit_codes) == {0, 1, 2}
        assert all(code == -9 for code in exit_codes.values())  # SIGKILLed

    def test_reap_uses_sigterm_for_cooperative_stragglers(self, tmp_path):
        supervisor = _spawnless_supervisor(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        supervisor.processes[0] = child
        exit_codes = asyncio.run(
            supervisor._reap_children(timeout=0.2, term_grace=2.0)
        )
        assert exit_codes[0] == -15  # SIGTERM sufficed; no SIGKILL needed

    def test_sweep_tolerates_removed_runtime_dir(self, tmp_path):
        import shutil

        runtime = tmp_path / "runtime"
        runtime.mkdir()
        supervisor = _spawnless_supervisor(runtime)
        shutil.rmtree(runtime)
        assert supervisor._sweep_sockets() == 0  # no raise, nothing removed

    def test_sweep_removes_leftover_socket_files(self, tmp_path):
        supervisor = _spawnless_supervisor(tmp_path)
        for address in supervisor.config.addresses.values():
            with open(address[1], "w") as handle:
                handle.write("")
        assert supervisor._sweep_sockets() == len(supervisor.config.addresses)
        assert supervisor._sweep_sockets() == 0  # idempotent


# ----------------------------------------------------------------------
# Tier-2: real multi-process chaos runs
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestLiveChaosRuns:
    def test_same_seed_runs_are_deterministically_accounted(self, tmp_path):
        """The acceptance gate: two runs with the same seed produce
        byte-identical deterministic verdict sections."""
        schedule = ChaosSchedule(
            seed=42,
            kills=(KillSpec(node=1, at=1.0, restart_delay=0.4),),
            wire=WireFaults(losses=(LossWindow(start=2.0, end=3.5, probability=0.2),)),
        )
        views = []
        for run_dir in ("first", "second"):
            config = build_cluster_config(
                "sensors",
                4,
                epochs=3,
                seed=schedule.seed,
                runtime_dir=tmp_path / run_dir,
                secret_seed=b"chaos-determinism",
                epoch_interval=0.5,
            )
            verdict = ClusterSupervisor(config, schedule=schedule).run()
            assert verdict["ok"], verdict["violations"]
            views.append(
                json.dumps(deterministic_view(verdict), sort_keys=True)
            )
        assert views[0] == views[1]

    def test_standard_schedule_n7_every_epoch_accounted(self, tmp_path):
        """The n=7 acceptance scenario: 2 SIGKILLs + SIGSTOP pause +
        partition + 20% loss, zero violations, every epoch certified or
        explicitly skipped-and-accounted."""
        schedule = standard_schedule(7, seed=5)
        config = build_cluster_config(
            "sensors",
            7,
            epochs=6,
            seed=5,
            runtime_dir=tmp_path,
            secret_seed=b"chaos-standard",
            epoch_timeout=15.0,
            epoch_interval=1.0,
        )
        verdict = ClusterSupervisor(config, schedule=schedule).run()
        assert verdict["violations"] == []
        assert verdict["ok"]
        accounted = {entry["epoch"] for entry in verdict["epochs"]}
        assert accounted == set(range(6))
        for entry in verdict["epochs"]:
            assert entry["outcome"] in ("certified", "skipped")
        liveness = verdict["observed"]["liveness"]
        assert liveness["unaccounted"] == []
        assert sorted(liveness["kills"]) == [1, 2]
        assert liveness["unrejoined"] == []
        # Seven first boots plus the two respawns, timed in ``observed`` only.
        booted = sorted(entry["node"] for entry in verdict["observed"]["boots"])
        assert booted == sorted(list(range(7)) + liveness["kills"])
        assert "boots" not in deterministic_view(verdict)
        # Clean teardown: no leaked sockets, no orphaned children.
        assert not list(tmp_path.glob("*.sock")), "leaked unix sockets"
