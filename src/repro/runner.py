"""High-level helpers that run one protocol instance end to end.

These are the functions the examples, tests and benchmarks share: build one
protocol node per participant, drive them through the deterministic
simulator under a chosen testbed/network model and return a
:class:`ProtocolRunResult` with the outputs, the simulated runtime, and the
traffic statistics the paper's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.adversary.base import AdversaryStrategy
from repro.analysis.parameters import DelphiParameters
from repro.core.delphi import DelphiNode
from repro.core.dora import DoraNode
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.net.network import AsynchronousNetwork
from repro.protocols.base import ProtocolNode
from repro.protocols.baselines.abraham_aaa import AbrahamAAANode
from repro.protocols.baselines.dolev_aaa import DolevAAANode
from repro.protocols.baselines.fin_acs import FinAcsNode
from repro.protocols.baselines.hbbft_acs import HoneyBadgerAcsNode
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


def _run(
    protocol: str,
    n: int,
    values: Sequence[float],
    make_node: Callable[..., ProtocolNode],
    env: tuple,
    topology: Optional[Topology] = None,
) -> ProtocolRunResult:
    """The body every ``run_<protocol>`` helper shares: one node per input
    value, then :func:`run_protocol` with the caller's ``(network,
    byzantine, compute, config, observers)`` passed through as ``env``."""
    if len(values) != n:
        raise ConfigurationError(f"expected {n} input values, got {len(values)}")
    nodes = {
        node_id: make_node(node_id=node_id, value=float(values[node_id]))
        for node_id in range(n)
    }
    return run_protocol(protocol, nodes, *env, topology=topology)


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
    env = (network, byzantine, compute, config, observers)
    return _run("delphi", params.n, values, partial(DelphiNode, params=params), env)


def run_dora(
    params: DelphiParameters,
    values: Sequence[float],
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    scheme: Optional[SignatureScheme] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run Delphi plus the DORA attestation step."""
    make_node = partial(
        DoraNode, params=params, scheme=scheme or SignatureScheme(num_nodes=params.n)
    )
    env = (network, byzantine, compute, config, observers)
    return _run("dora", params.n, values, make_node, env)


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
    env = (network, byzantine, compute, config, observers)
    return _run("sharded-delphi", topology.num_nodes, values, make_node, env, topology)


def run_abraham(
    n: int,
    values: Sequence[float],
    epsilon: float,
    delta_max: float,
    t: Optional[int] = None,
    rounds: Optional[int] = None,
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run the Abraham et al. approximate-agreement baseline."""
    make_node = partial(
        AbrahamAAANode,
        n=n,
        t=(n - 1) // 3 if t is None else t,
        epsilon=epsilon,
        delta_max=delta_max,
        rounds=rounds,
    )
    env = (network, byzantine, compute, config, observers)
    return _run("abraham", n, values, make_node, env)


def run_dolev(
    n: int,
    values: Sequence[float],
    epsilon: float,
    delta_max: float,
    t: Optional[int] = None,
    rounds: Optional[int] = None,
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run the Dolev et al. (n = 5t + 1) approximate-agreement baseline."""
    make_node = partial(
        DolevAAANode,
        n=n,
        t=(n - 1) // 5 if t is None else t,
        epsilon=epsilon,
        delta_max=delta_max,
        rounds=rounds,
    )
    env = (network, byzantine, compute, config, observers)
    return _run("dolev", n, values, make_node, env)


def run_fin(
    n: int,
    values: Sequence[float],
    t: Optional[int] = None,
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run the FIN-style ACS baseline (output = median of the agreed set)."""
    make_node = partial(FinAcsNode, n=n, t=(n - 1) // 3 if t is None else t)
    env = (network, byzantine, compute, config, observers)
    return _run("fin", n, values, make_node, env)


def run_hbbft(
    n: int,
    values: Sequence[float],
    t: Optional[int] = None,
    network: Optional[AsynchronousNetwork] = None,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    compute: Optional[ComputeModel] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[SimObserver]] = None,
) -> ProtocolRunResult:
    """Run the HoneyBadger/BKR-style ACS baseline."""
    make_node = partial(HoneyBadgerAcsNode, n=n, t=(n - 1) // 3 if t is None else t)
    env = (network, byzantine, compute, config, observers)
    return _run("hbbft", n, values, make_node, env)
