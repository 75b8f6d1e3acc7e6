"""The chaos vocabulary of the live multi-process cluster.

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

The schedule is data; :class:`~repro.oracle.cluster.ClusterSupervisor` runs
it.  Every cluster run has one (an empty one by default), so every run skips
and accounts an epoch that certifies nothing and returns the same verdict.
:func:`deterministic_view` is the verdict's byte-reproducible part (schedule
+ per-epoch outcomes + violations); the rest sits under ``observed``
(wall-clock timings, certified values, transport counters, fault-event log).
:func:`write_verdict` writes it as ``CHAOS_<seed>.json``.

Clock bases: process faults (``at`` in kill/pause specs) are seconds after
the supervisor's startup barrier releases epoch 0.  Wire-fault windows run
on each node process's own transport clock, which starts when that process
opens its transport — a respawned process re-enters its wire timeline at
zero (see ``docs/CHAOS.md``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

from repro.domains import NON_NEGATIVE, POSITIVE
from repro.errors import ConfigurationError
from repro.net.chaos import WireFaults
from repro.net.network import JsonSpec, LossWindow, PartitionWindow, write_json


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

    def validate(self, config: Any) -> None:
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
