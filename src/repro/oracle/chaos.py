"""Chaos controller for the live multi-process cluster (+ optional gateway).

This is the deployment-side counterpart of the simulator's fault campaigns:
a :class:`ChaosSchedule` composes **wire-level faults** (the
:class:`~repro.net.chaos.WireFaults` vocabulary, injected inside every node
process by :class:`~repro.net.chaos.ChaosTransport`) with **process-level
faults** — repeated SIGKILL/respawn (:class:`KillSpec`; ``cluster.py``'s
epoch-anchored ``CrashPlan`` resolves onto the same barrier clock and the
same kill path) and SIGSTOP/SIGCONT pauses (:class:`PauseSpec`; a
paused-then-resumed node is a distinct failure mode from a crashed one: its
kernel sockets stay up, the TCP peer buffers frames, and on SIGCONT it
drains a backlog of stale epoch tags and fast-forwarding COMMITs instead of
rejoining fresh).

A chaos run is a cluster run plus a schedule.
:class:`~repro.oracle.cluster.ClusterSupervisor` owns the run loop, the
processes and therefore every process fault; :class:`ChaosController` adds
only what chaos adds, through the supervisor's three seams: the schedule
(``_schedule_faults``), graceful degradation (``_serve_epoch``: an epoch that
gathers no valid certificate within the budget is **skipped and accounted**
— the supervisor broadcasts ``EPOCH(epoch+1)`` to release the nodes — rather
than aborting the run) and the verdict (``_report``).  The supervisor's
:class:`~repro.faults.monitors.CertificateStreamMonitor` and
:class:`~repro.faults.monitors.ClusterLivenessMonitor` audit every epoch.
The run's verdict is written as ``CHAOS_<seed>.json``, split into a
**deterministic** section (schedule + per-epoch outcomes + violations —
byte-identical across same-seed runs) and an ``observed`` section
(wall-clock timings, certified values, transport counters, fault-event log).

Clock bases: process faults (``at`` in kill/pause specs) are seconds after
the supervisor's startup barrier releases epoch 0.  Wire-fault windows run
on each node process's own transport clock, which starts when that process
opens its transport — a respawned process re-enters its wire timeline at
zero (see ``docs/CHAOS.md``).
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from repro.domains import NON_NEGATIVE, POSITIVE
from repro.errors import ConfigurationError, InvariantViolation, LivenessTimeout
from repro.net.chaos import WireFaults
from repro.net.network import JsonSpec, LossWindow, PartitionWindow, write_json
from repro.oracle.cluster import EPOCH, ClusterConfig, ClusterSupervisor
from repro.oracle.service import EpochReport


@dataclass(frozen=True)
class KillSpec(JsonSpec):
    """SIGKILL ``node`` ``at`` seconds after the barrier; respawn it
    ``restart_delay`` seconds later (the respawn rejoins the live run)."""

    node: int
    at: float
    restart_delay: float = 0.5

    def __post_init__(self) -> None:
        self._coerce(node=int, at=NON_NEGATIVE, restart_delay=NON_NEGATIVE)


@dataclass(frozen=True)
class PauseSpec(JsonSpec):
    """SIGSTOP ``node`` ``at`` seconds after the barrier, SIGCONT it
    ``duration`` seconds later."""

    node: int
    at: float
    duration: float = 1.0

    def __post_init__(self) -> None:
        self._coerce(node=int, at=NON_NEGATIVE, duration=POSITIVE)


@dataclass(frozen=True)
class ChaosSchedule(JsonSpec):
    """One seeded chaos scenario: process faults + wire faults, JSON-safe."""

    seed: int = 0
    kills: Tuple[KillSpec, ...] = ()
    pauses: Tuple[PauseSpec, ...] = ()
    wire: WireFaults = field(default_factory=WireFaults)

    @property
    def active(self) -> bool:
        return bool(self.kills or self.pauses or self.wire.active)

    def validate(self, config: ClusterConfig) -> None:
        """Declaration-time checks against a concrete cluster config."""
        for spec in list(self.kills) + list(self.pauses):
            if not 0 <= spec.node < config.n:
                raise ConfigurationError(
                    f"chaos schedule targets node {spec.node} outside the "
                    f"n={config.n} cluster"
                )

    def with_seed(self, seed: int) -> "ChaosSchedule":
        """The same fault plan under a different seed (soak iterations)."""
        return replace(self, seed=seed)


def standard_schedule(n: int, seed: int = 0) -> ChaosSchedule:
    """The acceptance-gate schedule: 2 SIGKILLs, one SIGSTOP pause, one
    asymmetric partition window and one 20% loss window.

    The partition splits the cluster so *neither* side holds the ``n - t``
    nodes agreement needs — every frame crossing the cut is held until heal,
    so the epoch under the window certifies late (from the released backlog)
    but within the ``epoch_timeout`` budget.
    """
    if n < 4:
        raise ConfigurationError(f"the standard schedule needs n >= 4, got {n}")
    island = tuple(range((n + 1) // 2))  # the larger half, still < n - t
    return ChaosSchedule(
        seed=seed,
        kills=(
            KillSpec(node=1, at=1.5, restart_delay=0.4),
            KillSpec(node=2, at=4.0, restart_delay=0.4),
        ),
        pauses=(PauseSpec(node=3, at=6.0, duration=0.8),),
        wire=WireFaults(
            partitions=(
                PartitionWindow(start=8.0, end=9.0, groups=(island,), heal_delay=0.2),
            ),
            losses=(LossWindow(start=10.0, end=11.0, probability=0.2),),
        ),
    )


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def deterministic_view(verdict: Mapping[str, Any]) -> Dict[str, Any]:
    """The verdict minus its wall-clock ``observed`` section — the part the
    acceptance gate requires byte-identical across same-seed runs."""
    return {key: value for key, value in verdict.items() if key != "observed"}


def write_verdict(directory: os.PathLike, verdict: Mapping[str, Any]) -> Path:
    """Write ``CHAOS_<seed>.json`` (sorted keys, so diffs are stable)."""
    return write_json(Path(directory) / f"CHAOS_{verdict['seed']}.json", verdict)


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class ChaosController(ClusterSupervisor):
    """A cluster run plus a :class:`ChaosSchedule`: the supervisor's one run
    loop, with the three seams filled in to degrade gracefully instead of
    dying.

    * node processes wrap their transports in
      :class:`~repro.net.chaos.ChaosTransport` (``config.chaos`` carries the
      wire schedule into them; the supervisor's own transport stays bare so
      the audit channel cannot be the thing that fails);
    * :meth:`_schedule_faults` starts the schedule's kills and pauses as free
      timers on the barrier clock — the supervisor injects them, it owns the
      processes;
    * :meth:`_serve_epoch`: an epoch whose certificate never arrives is
      *skipped and accounted* (nodes are released with ``EPOCH(epoch+1)``)
      instead of aborting, and an :class:`~repro.errors.InvariantViolation`
      is recorded and winds the run down (chaos is survivable, corruption is
      not); certified epochs are optionally published to a fronting
      :class:`~repro.oracle.gateway.OracleGateway`, whose ``/healthz``
      reflects the run through ``health_source``;
    * :meth:`_report` is the verdict: a deterministic section and the
      supervisor's accounting under ``observed``.
    """

    def __init__(
        self,
        config: ClusterConfig,
        schedule: ChaosSchedule,
        *,
        spawn: bool = True,
        progress: Any = None,
        gateway: Any = None,
    ) -> None:
        schedule.validate(config)
        super().__init__(config, spawn=spawn, crash=None, progress=progress)
        self.schedule = schedule
        self.gateway = gateway
        if schedule.wire.active:
            config.chaos = {"seed": schedule.seed, "wire": schedule.wire.to_dict()}
        self.violations: List[Dict[str, str]] = []
        self.details: List[Dict[str, Any]] = []
        if gateway is not None:
            gateway.health_source = self._health_source

    # -- health for a fronting gateway -----------------------------------
    def _health_source(self) -> Tuple[str, List[str]]:
        if self.violations:
            return (
                "unhealthy",
                [f"monitor violation: {v['detail']}" for v in self.violations],
            )
        skipped = sorted(
            epoch
            for epoch, outcome in self.liveness.outcomes.items()
            if outcome == "skipped"
        )
        if skipped:
            return ("degraded", [f"epochs skipped: {skipped}"])
        return ("ok", [])

    def _note_violation(self, violation: InvariantViolation) -> None:
        self.violations.append(
            {"monitor": violation.monitor, "detail": violation.detail}
        )

    # -- the three seams --------------------------------------------------
    def _schedule_faults(self) -> None:
        for kill in self.schedule.kills:
            self._start_fault(self._inject_kill(kill.node, kill.at, kill.restart_delay))
        for pause in self.schedule.pauses:
            self._start_fault(self._inject_pause(pause.node, pause.at, pause.duration))

    async def _serve_epoch(self, epoch: int) -> Dict[str, Any]:
        """One epoch, degraded gracefully.  The returned entry is
        deterministic (epoch, certified/skipped[, reason]); the observed
        values of a certified epoch go to ``self.details``."""
        try:
            detail = await self._run_epoch(epoch)
        except LivenessTimeout:
            # Stable reason text: the exception's message embeds the (run-
            # dependent) certificate-sender list, which would break the
            # verdict's deterministic section.
            reason = f"no valid certificate within {self.config.epoch_timeout}s"
            self.liveness.on_skipped(epoch, reason)
            await self._broadcast(EPOCH, epoch + 1, epoch + 1)
            self._say(f"  epoch {epoch}: SKIPPED ({reason})")
            return {"epoch": epoch, "outcome": "skipped", "reason": reason}
        except InvariantViolation as violation:
            self._note_violation(violation)
            self._halt = True
            self._say(f"  epoch {epoch}: VIOLATION {violation}")
            return {"epoch": epoch, "outcome": "violation"}
        self.details.append(detail)
        self._publish(epoch, detail)
        return {"epoch": epoch, "outcome": "certified"}

    def _publish(self, epoch: int, detail: Dict[str, Any]) -> None:
        """Fan the certified epoch out to the fronting gateway, if any."""
        if self.gateway is None or self.last_certificate is None:
            return
        inputs = self.feed.inputs(epoch)
        report = EpochReport(
            epoch=epoch,
            value=float(detail["value"]),
            certificate=self.last_certificate,
            honest_outputs={},
            input_range=max(inputs) - min(inputs),
            wall_seconds=0.0,
            events_processed=0,
            runtime_seconds=0.0,
            megabytes=0.0,
            offline_nodes=(),
            stale_messages=0,
        )
        self.gateway.publish(report)

    def _report(
        self, epochs: List[Dict[str, Any]], observed: Dict[str, Any]
    ) -> Dict[str, Any]:
        try:
            self.liveness.finalize()
        except InvariantViolation as violation:
            self._note_violation(violation)
        summary = self.liveness.summary()
        observed.update(
            epoch_details=self.details,
            fault_events=self.fault_events,
            liveness=summary,
            margins=self.liveness.margin_channels(),
        )
        if self.gateway is not None:
            observed["gateway"] = self.gateway.metrics()
        return {
            "kind": "chaos-verdict",
            "seed": self.schedule.seed,
            "n": self.config.n,
            "t": self.params.t,
            "workload": self.config.workload,
            "epochs_planned": self.config.epochs,
            "schedule": self.schedule.to_dict(),
            "epochs": epochs,
            "violations": self.violations,
            "ok": not self.violations and not summary["unaccounted"],
            "observed": observed,
        }


def run_chaos(
    config: ClusterConfig,
    schedule: ChaosSchedule,
    *,
    spawn: bool = True,
    progress: Any = None,
    gateway: Any = None,
) -> Dict[str, Any]:
    """Build a controller and run one chaos scenario; returns the verdict.

    With a ``gateway`` (an un-started
    :class:`~repro.oracle.gateway.OracleGateway`), the gateway serves
    clients *on the controller's own event loop* for the duration of the
    run — certified epochs are published to it and its ``/healthz``
    reflects the chaos run through ``health_source`` — and is closed when
    the run ends.
    """
    controller = ChaosController(
        config, schedule, spawn=spawn, progress=progress, gateway=gateway
    )
    if gateway is None:
        return controller.run()

    async def _run_with_gateway() -> Dict[str, Any]:
        host, port = await gateway.start()
        controller._say(f"# chaos: gateway front listening on {host}:{port}")
        try:
            return await controller._run_async()
        finally:
            await gateway.close()

    return asyncio.run(_run_with_gateway())
