"""Deterministic discrete-event simulation runtime for protocol execution."""

from repro.sim.scheduler import EventScheduler
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationResult, SimulationRuntime
from repro.sim.asyncio_runtime import AsyncioRuntime, InMemoryTransport

__all__ = [
    "AsyncioRuntime",
    "InMemoryTransport",
    "ComputeModel",
    "EventScheduler",
    "SimulationConfig",
    "SimulationResult",
    "SimulationRuntime",
]
