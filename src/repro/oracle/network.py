"""End-to-end oracle network: measure, agree, attest, submit.

This is the application the paper's first evaluation targets: a network of
oracle nodes that once a minute measures the trading price of Bitcoin,
reaches approximate agreement with Delphi, attests the rounded output and
submits it to the blockchain (SMR channel).  The class wires together the
workload generator, the Delphi/DORA protocol nodes, the simulated testbed
and the SMR channel, and is what the examples and the figure benchmarks
drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.parameters import DelphiParameters
from repro.core.dora import DoraCertificate, DoraNode, certificate_validator
from repro.crypto.signatures import SignatureScheme
from repro.errors import ConfigurationError
from repro.net.network import AsynchronousNetwork
from repro.oracle.smr import SMRChannel
from repro.sim.runtime import ComputeModel, SimulationConfig, SimulationRuntime


@dataclass(frozen=True)
class OracleReport:
    """One consumed oracle report plus run statistics."""

    value: float
    certificate: DoraCertificate
    runtime_seconds: float
    total_megabytes: float
    honest_outputs: Dict[int, float]
    events_processed: int = 0

    @property
    def output_spread(self) -> float:
        """Maximum pairwise distance between honest rounded outputs."""
        values = list(self.honest_outputs.values())
        if len(values) < 2:
            return 0.0
        return max(values) - min(values)


class OracleNetwork:
    """A Delphi-based oracle network bound to a simulated testbed.

    Parameters
    ----------
    params:
        Delphi configuration shared by every oracle.
    network_factory:
        Callable returning a fresh :class:`AsynchronousNetwork` per round of
        reporting (testbed models provide these).
    compute:
        Per-node CPU cost model of the testbed.
    """

    def __init__(
        self,
        params: DelphiParameters,
        network_factory=None,
        compute: Optional[ComputeModel] = None,
    ) -> None:
        self.params = params
        self.network_factory = network_factory
        self.compute = compute or ComputeModel()
        self.scheme = SignatureScheme(num_nodes=params.n)
        self.chain = SMRChannel(validator=certificate_validator(self.scheme, params.t + 1))

    # ------------------------------------------------------------------
    def _build_network(self) -> AsynchronousNetwork:
        if self.network_factory is None:
            return AsynchronousNetwork(self.params.n)
        return self.network_factory()

    # ------------------------------------------------------------------
    def report_round(
        self,
        measurements: Sequence[float],
        byzantine=None,
        config: Optional[SimulationConfig] = None,
    ) -> OracleReport:
        """Run one full reporting round over the given measurements.

        The report returned is the first valid one *this round* submitted;
        the chain keeps the entries of earlier rounds.

        Parameters
        ----------
        measurements:
            One measurement per oracle node (length must equal ``n``).
        byzantine:
            Optional mapping of node id to adversary strategy.
        config:
            Optional simulation limits.
        """
        if len(measurements) != self.params.n:
            raise ConfigurationError(
                f"expected {self.params.n} measurements, got {len(measurements)}"
            )
        nodes = {
            node_id: DoraNode(
                node_id=node_id,
                params=self.params,
                value=float(measurements[node_id]),
                scheme=self.scheme,
            )
            for node_id in range(self.params.n)
        }
        runtime = SimulationRuntime(
            nodes=nodes,
            network=self._build_network(),
            byzantine=byzantine,
            compute=self.compute,
            config=config,
        )
        result = runtime.run()
        certificate = self.chain.consume(
            (node_id, nodes[node_id].certificate)
            for node_id in result.honest_nodes
            if nodes[node_id].certificate is not None
        )
        assert isinstance(certificate, DoraCertificate)
        honest_outputs = {
            node_id: nodes[node_id].rounded_value
            for node_id in result.honest_nodes
            if nodes[node_id].rounded_value is not None
        }
        return OracleReport(
            value=float(certificate.value),
            certificate=certificate,
            runtime_seconds=result.runtime_seconds,
            total_megabytes=result.trace.total_megabytes,
            honest_outputs=honest_outputs,
            events_processed=result.events_processed,
        )
