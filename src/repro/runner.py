"""High-level helpers that run one protocol instance end to end.

:func:`run_protocol` drives a set of protocol nodes through the
deterministic simulator under a chosen testbed/network model and returns a
:class:`ProtocolRunResult` with the outputs, the simulated runtime, and the
traffic statistics the paper's figures report.  :func:`run_delphi` and
:func:`run_sharded_delphi` build their nodes from explicit parameters; a
run described by a :class:`ScenarioSpec` goes through
``repro.experiments.cells.run_spec`` and the protocol table instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from repro.adversary.base import AdversaryStrategy
from repro.analysis.parameters import DelphiParameters
from repro.core.delphi import DelphiNode
from repro.net.network import AsynchronousNetwork
from repro.protocols.base import ProtocolNode
from repro.protocols.registry import Roster
from repro.protocols.sharded_delphi import ShardedDelphiParameters, ShardedDelphiNode
from repro.protocols.topology import Topology
from repro.sim.observers import SimObserver
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationRuntime


@dataclass(frozen=True)
class ProtocolRunResult:
    """Everything one protocol run produced, in benchmark-friendly form."""

    protocol: str
    outputs: Dict[int, Any]
    runtime_seconds: float
    total_megabytes: float
    message_count: int
    events_processed: int
    honest_nodes: List[int]
    byzantine_nodes: List[int]

    @property
    def output_values(self) -> List[float]:
        """Honest scalar outputs (certificates are unwrapped to their value)."""
        values: List[float] = []
        for output in self.outputs.values():
            if output is None:
                continue
            value = getattr(output, "value", output)
            if isinstance(value, (int, float)):
                values.append(float(value))
        return values

    @property
    def output_spread(self) -> float:
        """Max pairwise distance between honest scalar outputs."""
        values = self.output_values
        if len(values) < 2:
            return 0.0
        return max(values) - min(values)

    @property
    def all_decided(self) -> bool:
        """Whether every honest node produced an output."""
        return all(node in self.outputs for node in self.honest_nodes)


def run_protocol(
    protocol: str,
    nodes: Dict[int, ProtocolNode],
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
    topology: Optional[Topology] = None,
) -> ProtocolRunResult:
    """Run an arbitrary set of protocol nodes through the simulator."""
    runtime = SimulationRuntime(
        nodes=nodes,
        network=network,
        byzantine=byzantine,
        compute=compute,
        config=config,
        observers=observers,
        topology=topology,
    )
    result = runtime.run()
    return ProtocolRunResult(
        protocol=protocol,
        outputs=result.outputs,
        runtime_seconds=result.runtime_seconds,
        total_megabytes=result.trace.total_megabytes,
        message_count=result.trace.message_count,
        events_processed=result.events_processed,
        honest_nodes=result.honest_nodes,
        byzantine_nodes=result.byzantine_nodes,
    )


def run_delphi(
    params: DelphiParameters,
    values: Sequence[float],
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run one Delphi instance with the given per-node input values."""
    nodes = Roster(params.n, partial(DelphiNode, params=params)).nodes(values)
    return run_protocol("delphi", nodes, network, byzantine, compute, config, observers)


def run_sharded_delphi(
    params: ShardedDelphiParameters,
    values: Sequence[float],
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run one two-level sharded Delphi instance (see
    :mod:`repro.protocols.sharded_delphi`)."""
    topology = params.topology
    make_node = partial(ShardedDelphiNode, params=params)
    nodes = Roster(topology.num_nodes, make_node).nodes(values)
    return run_protocol(
        "sharded-delphi", nodes, network, byzantine, compute, config, observers, topology
    )
