"""Chaos controller for the live multi-process cluster (+ optional gateway).

This is the deployment-side counterpart of the simulator's fault campaigns:
a :class:`ChaosSchedule` composes **wire-level faults** (the
:class:`~repro.net.chaos.WireFaults` vocabulary, injected inside every node
process by :class:`~repro.net.chaos.ChaosTransport`) with **process-level
faults** — repeated SIGKILL/respawn (:class:`KillSpec`, generalising
``cluster.py``'s single-shot ``CrashPlan``) and SIGSTOP/SIGCONT pauses
(:class:`PauseSpec`; a paused-then-resumed node is a distinct failure mode
from a crashed one: its kernel sockets stay up, the TCP peer buffers frames,
and on SIGCONT it drains a backlog of stale epoch tags and fast-forwarding
COMMITs instead of rejoining fresh).

:class:`ChaosController` extends
:class:`~repro.oracle.cluster.ClusterSupervisor` with graceful degradation:
an epoch that gathers no valid certificate within the budget is **skipped
and accounted** (the supervisor broadcasts ``EPOCH(epoch+1)`` to release the
nodes) rather than aborting the run, while the PR 5
:class:`~repro.faults.monitors.CertificateStreamMonitor` plus the new
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
import json
import os
import signal
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, InvariantViolation, LivenessTimeout
from repro.faults.monitors import ClusterLivenessMonitor
from repro.net.chaos import WireFaults
from repro.net.message import Message
from repro.net.network import JsonSpec, LossWindow, PartitionWindow, reject_unknown_keys
from repro.net.socket_transport import SocketTransport
from repro.oracle.cluster import (
    CLUSTER_PROTOCOL,
    EPOCH,
    JOIN,
    SHUTDOWN,
    ClusterConfig,
    ClusterSupervisor,
)
from repro.oracle.service import EpochReport


@dataclass(frozen=True)
class KillSpec(JsonSpec):
    """SIGKILL ``node`` ``at`` seconds after the barrier; respawn it
    ``restart_delay`` seconds later (the respawn rejoins the live run)."""

    node: int
    at: float
    restart_delay: float = 0.5

    def __post_init__(self) -> None:
        self._coerce(node=int, at=float, restart_delay=float)
        if self.at < 0:
            raise ConfigurationError(f"kill time must be >= 0, got {self.at}")
        if self.restart_delay < 0:
            raise ConfigurationError(
                f"restart_delay must be >= 0, got {self.restart_delay}"
            )


@dataclass(frozen=True)
class PauseSpec(JsonSpec):
    """SIGSTOP ``node`` ``at`` seconds after the barrier, SIGCONT it
    ``duration`` seconds later."""

    node: int
    at: float
    duration: float = 1.0

    def __post_init__(self) -> None:
        self._coerce(node=int, at=float, duration=float)
        if self.at < 0:
            raise ConfigurationError(f"pause time must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"pause duration must be > 0, got {self.duration}"
            )


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

    # -- (de)serialisation ----------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSchedule":
        """Inverse of :meth:`to_dict` (tolerant of missing keys)."""
        reject_unknown_keys(cls, data)
        return cls(
            seed=int(data.get("seed", 0)),
            kills=tuple(KillSpec.from_dict(e) for e in data.get("kills", ())),
            pauses=tuple(PauseSpec.from_dict(e) for e in data.get("pauses", ())),
            wire=WireFaults.from_dict(data.get("wire") or {}),
        )


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
    target = Path(directory) / f"CHAOS_{verdict['seed']}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    return target


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
class ChaosController(ClusterSupervisor):
    """A :class:`ClusterSupervisor` that injects a :class:`ChaosSchedule`
    and degrades gracefully instead of dying.

    Differences from the base supervisor's run:

    * node processes wrap their transports in
      :class:`~repro.net.chaos.ChaosTransport` (``config.chaos`` carries the
      wire schedule into them; the supervisor's own transport stays bare so
      the audit channel cannot be the thing that fails);
    * kill/pause injectors run as free timers against the post-barrier
      clock, not tied to one epoch;
    * an epoch whose certificate never arrives is *skipped and accounted*
      (nodes are released with ``EPOCH(epoch+1)``) instead of aborting;
    * every epoch outcome feeds a
      :class:`~repro.faults.monitors.ClusterLivenessMonitor`, and any
      :class:`~repro.errors.InvariantViolation` is recorded in the verdict
      (aborting the remaining epochs — chaos is survivable, corruption is
      not);
    * certified epochs are optionally published to a fronting
      :class:`~repro.oracle.gateway.OracleGateway`, whose ``/healthz``
      reflects the run through :attr:`health_source <publish gateway>`.
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
        # Per-epoch certify budget: the supervisor itself gives up at
        # epoch_timeout, so anything certifying beyond timeout + grace +
        # pacing (+ slack) means the accounting itself broke.
        self.liveness = ClusterLivenessMonitor(
            epochs=config.epochs,
            deadline=config.epoch_timeout
            + config.epoch_grace
            + config.epoch_interval
            + 1.0,
        )
        self.violations: List[Dict[str, str]] = []
        self.fault_events: List[Dict[str, Any]] = []
        self._zero: float = 0.0
        self._paused: Dict[int, subprocess.Popen] = {}
        self._shutting_down = False
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

    # -- injectors --------------------------------------------------------
    async def _sleep_until(self, at: float) -> None:
        delay = self._zero + at - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)

    async def _inject_kill(self, spec: KillSpec) -> None:
        await self._sleep_until(spec.at)
        process = self.processes.get(spec.node)
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGKILL)
            process.wait()
        self._down.add(spec.node)
        self.liveness.on_kill(spec.node)
        self.fault_events.append(
            {"kind": "kill", "node": spec.node, "epoch": self._epoch}
        )
        self._say(f"# chaos: SIGKILLed node {spec.node} (epoch {self._epoch})")
        try:
            await asyncio.sleep(spec.restart_delay)
        finally:
            # Respawn even if this injector is being cancelled at teardown
            # (the replacement is then reaped with everything else) — but
            # not once shutdown began, where a fresh child would only join
            # a dead run and orphan itself.
            if self.spawn and not self._shutting_down:
                self.processes[spec.node] = self._spawn_node(spec.node)
                self.restarts.append({"node": spec.node, "epoch": self._epoch})
                self._say(f"# chaos: respawned node {spec.node}")
            self._down.discard(spec.node)

    async def _inject_pause(self, spec: PauseSpec) -> None:
        await self._sleep_until(spec.at)
        process = self.processes.get(spec.node)
        if process is None or process.poll() is not None:
            self.fault_events.append(
                {"kind": "pause-noop", "node": spec.node, "epoch": self._epoch}
            )
            return
        process.send_signal(signal.SIGSTOP)
        self._paused[spec.node] = process
        # A stopped node misses its epoch like a crashed one; counting it
        # in _down keeps the supervisor's grace drain from waiting on it.
        self._down.add(spec.node)
        self.fault_events.append(
            {"kind": "pause", "node": spec.node, "epoch": self._epoch}
        )
        self._say(f"# chaos: SIGSTOPped node {spec.node} (epoch {self._epoch})")
        try:
            await asyncio.sleep(spec.duration)
        finally:
            if self._paused.pop(spec.node, None) is process and process.poll() is None:
                process.send_signal(signal.SIGCONT)
                self.fault_events.append(
                    {"kind": "resume", "node": spec.node, "epoch": self._epoch}
                )
                self._say(f"# chaos: SIGCONTed node {spec.node}")
            self._down.discard(spec.node)

    def _resume_paused(self) -> None:
        """Teardown backstop: a SIGSTOPped child ignores SIGTERM *and*
        keeps its sockets bound — resume it so the normal teardown works."""
        for node, process in list(self._paused.items()):
            if process.poll() is None:
                process.send_signal(signal.SIGCONT)
            self._paused.pop(node, None)

    # -- rejoin accounting ------------------------------------------------
    async def _greet(self, transport: SocketTransport, node_id: int, epoch: int) -> None:
        if self._started:
            self.liveness.on_rejoin(node_id)
        await super()._greet(transport, node_id, epoch)

    async def _await_all_rejoins(self, transport: SocketTransport) -> None:
        """Generalised ``_await_rejoin``: wait for every killed node's
        replacement before SHUTDOWN, so none is orphaned mid-connect."""
        if not self.spawn:
            return
        deadline = time.monotonic() + self.config.join_timeout
        while self.liveness.unrejoined():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._say(
                    f"# chaos: nodes {self.liveness.unrejoined()} never "
                    f"rejoined within {self.config.join_timeout}s"
                )
                return
            try:
                sender, message = await asyncio.wait_for(
                    transport.get(self.config.supervisor_id), remaining
                )
            except asyncio.TimeoutError:
                continue
            if message.protocol == CLUSTER_PROTOCOL and message.mtype == JOIN:
                await self._greet(transport, sender, self.config.epochs)

    # -- resilient epochs -------------------------------------------------
    async def _run_epoch_resilient(
        self, transport: SocketTransport, epoch: int
    ) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
        """One epoch, degraded gracefully: returns ``(outcome, detail)``
        where ``outcome`` is deterministic (epoch, certified/skipped[,
        reason]) and ``detail`` carries the observed values (or ``None``)."""
        self.liveness.begin_epoch(epoch, time.monotonic())
        try:
            detail = await self._run_epoch(transport, epoch)
            self.liveness.on_certified(epoch, time.monotonic())
        except LivenessTimeout:
            # Stable reason text: the exception's message embeds the (run-
            # dependent) certificate-sender list, which would break the
            # verdict's deterministic section.
            reason = (
                f"no valid certificate within {self.config.epoch_timeout}s"
            )
            self.liveness.on_skipped(epoch, reason)
            await self._broadcast(
                transport,
                Message(CLUSTER_PROTOCOL, EPOCH, epoch + 1, epoch + 1),
            )
            self._say(f"  epoch {epoch}: SKIPPED ({reason})")
            return {"epoch": epoch, "outcome": "skipped", "reason": reason}, None
        except InvariantViolation as violation:
            self.violations.append(
                {"monitor": violation.monitor, "detail": violation.detail}
            )
            self._say(f"  epoch {epoch}: VIOLATION {violation}")
            return {"epoch": epoch, "outcome": "violation"}, None
        self._publish(epoch, detail)
        return {"epoch": epoch, "outcome": "certified"}, detail

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
            offline_nodes=(),
            stale_messages=0,
        )
        self.gateway.publish(report)

    # -- the run ----------------------------------------------------------
    async def _run_async(self) -> Dict[str, Any]:
        config = self.config
        directory = Path(config.runtime_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self._config_path = directory / "cluster.json"
        config.write(self._config_path)
        transport = config.make_transport(config.supervisor_id)
        await transport.open([config.supervisor_id])
        started_wall = time.monotonic()
        outcomes: List[Dict[str, Any]] = []
        details: List[Dict[str, Any]] = []
        injectors: List[asyncio.Task] = []
        exit_codes: Dict[int, Optional[int]] = {}
        try:
            if self.spawn:
                for node_id in range(config.n):
                    self.processes[node_id] = self._spawn_node(node_id)
            await self._startup_barrier(transport)
            self._zero = time.monotonic()
            for kill in self.schedule.kills:
                injectors.append(asyncio.create_task(self._inject_kill(kill)))
            for pause in self.schedule.pauses:
                injectors.append(asyncio.create_task(self._inject_pause(pause)))
            for epoch in range(config.epochs):
                self._epoch = epoch
                outcome, detail = await self._run_epoch_resilient(transport, epoch)
                outcomes.append(outcome)
                if detail is not None:
                    details.append(detail)
                if outcome["outcome"] == "violation":
                    break
            if injectors:
                # Give in-flight injectors a moment to finish their respawn
                # half; anything scheduled far beyond the run is cancelled.
                await asyncio.wait(injectors, timeout=1.0)
            self._shutting_down = True
            await self._await_all_rejoins(transport)
            await self._broadcast(transport, Message(CLUSTER_PROTOCOL, SHUTDOWN, 0))
            exit_codes = await self._reap_children()
        finally:
            self._shutting_down = True
            for task in injectors:
                if not task.done():
                    task.cancel()
            if injectors:
                await asyncio.gather(*injectors, return_exceptions=True)
            self._resume_paused()
            self._kill_children()
            await transport.close()
            self._sweep_sockets()
        try:
            self.liveness.finalize()
        except InvariantViolation as violation:
            self.violations.append(
                {"monitor": violation.monitor, "detail": violation.detail}
            )
        verdict: Dict[str, Any] = {
            "kind": "chaos-verdict",
            "seed": self.schedule.seed,
            "n": config.n,
            "t": self.params.t,
            "workload": config.workload,
            "epochs_planned": config.epochs,
            "schedule": self.schedule.to_dict(),
            "epochs": outcomes,
            "violations": self.violations,
            "ok": not self.violations
            and not self.liveness.summary()["unaccounted"],
            "observed": {
                "wall_seconds": time.monotonic() - started_wall,
                "epoch_details": details,
                "fault_events": self.fault_events,
                "restarts": self.restarts,
                "rejoins": self.rejoins,
                "boots": self.boots,
                "exit_codes": {str(k): v for k, v in exit_codes.items()},
                "liveness": self.liveness.summary(),
                "margins": self.liveness.margin_channels(),
                "chain_entries": len(self.chain.entries),
                "chain_validations": self.chain.validations,
                "transport": transport.wire_counters(),
            },
        }
        if self.gateway is not None:
            verdict["observed"]["gateway"] = self.gateway.metrics()
        return verdict


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
