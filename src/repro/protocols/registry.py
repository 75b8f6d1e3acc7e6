"""The protocol table: one row per protocol, the only description of it.

A :class:`ProtocolRow` names the protocol, classifies its agreement
property (which drives monitor construction) and builds, for a
:class:`ScenarioSpec`, the :class:`Roster` a run needs: the node count, a
``make_node(node_id=, value=)`` factory, the topology (sharded only) and
the derived parameters the metrics dict reports.  ``cells.run_spec``
turns a roster into nodes and runs them; the spec validator, monitors,
fuzz search and CLI index :data:`PROTOCOLS`.

Rows import their node classes at call time: ``repro.core`` imports the
``repro.protocols`` package (for BinAA), and this module is re-exported
from ``repro.protocols``, so a module-level import would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.protocols.topology import Topology

#: Agreement classifications; monitors are built per kind.
EPSILON_AGREEMENT = "epsilon"
EXACT_AGREEMENT = "exact"
HIERARCHICAL_AGREEMENT = "hierarchical"


@dataclass(frozen=True)
class Roster:
    """What one run of a protocol is made of.

    ``derived`` holds the parameters the protocol derived from the spec
    (levels, rounds, topology shape) for the metrics dict.
    """

    n: int
    make_node: Callable[..., Any]
    topology: Optional[Topology] = None
    derived: Dict[str, Any] = field(default_factory=dict)

    def nodes(self, values: Sequence[float]) -> Dict[int, Any]:
        """One node per input value, node ``i`` starting from ``values[i]``."""
        if len(values) != self.n:
            raise ConfigurationError(f"expected {self.n} input values, got {len(values)}")
        return {
            node_id: self.make_node(node_id=node_id, value=float(values[node_id]))
            for node_id in range(self.n)
        }


@dataclass(frozen=True)
class ProtocolRow:
    """One protocol: ``roster(spec)`` derives its parameters once per run."""

    name: str
    description: str
    agreement: str
    roster: Callable[[Any], Roster]


def get_protocol(name: str) -> ProtocolRow:
    """Resolve a protocol row or raise ``ConfigurationError``."""
    row = PROTOCOLS.get(name)
    if row is None:
        raise ConfigurationError(
            f"unknown protocol {name!r} (known: {', '.join(PROTOCOLS)})"
        )
    return row


def delphi_parameters(spec: Any):
    """The :class:`DelphiParameters` a scenario spec describes."""
    from repro.analysis.parameters import derive_parameters

    return derive_parameters(
        n=spec.n,
        epsilon=spec.epsilon,
        rho0=spec.rho0,
        delta_max=spec.delta_max,
        max_rounds=spec.max_rounds,
    )


def _delphi_family(node_cls: Callable[..., Any], spec: Any, **shared: Any) -> Roster:
    params = delphi_parameters(spec)
    derived = {"levels": params.level_count, "rounds": params.rounds}
    return Roster(spec.n, partial(node_cls, params=params, **shared), derived=derived)


def _delphi(spec: Any) -> Roster:
    from repro.core.delphi import DelphiNode

    return _delphi_family(DelphiNode, spec)


def _dora(spec: Any) -> Roster:
    """Delphi plus the attestation step; the nodes share one signature scheme."""
    from repro.core.dora import DoraNode
    from repro.crypto.signatures import SignatureScheme

    return _delphi_family(DoraNode, spec, scheme=SignatureScheme(num_nodes=spec.n))


def _round_based(node_cls: Callable[..., Any], ratio: int, spec: Any) -> Roster:
    """The round-based baselines, tolerating t = (n - 1) // ratio faults."""
    make_node = partial(
        node_cls,
        n=spec.n,
        t=(spec.n - 1) // ratio,
        epsilon=spec.epsilon,
        delta_max=spec.delta_max,
        rounds=spec.max_rounds,
    )
    return Roster(spec.n, make_node)


def _abraham(spec: Any) -> Roster:
    from repro.protocols.baselines.abraham_aaa import AbrahamAAANode

    return _round_based(AbrahamAAANode, 3, spec)


def _dolev(spec: Any) -> Roster:
    from repro.protocols.baselines.dolev_aaa import DolevAAANode

    return _round_based(DolevAAANode, 5, spec)


def _fin(spec: Any) -> Roster:
    from repro.protocols.baselines.fin_acs import FinAcsNode

    return Roster(spec.n, partial(FinAcsNode, n=spec.n, t=(spec.n - 1) // 3))


def _hbbft(spec: Any) -> Roster:
    from repro.protocols.baselines.hbbft_acs import HoneyBadgerAcsNode

    return Roster(spec.n, partial(HoneyBadgerAcsNode, n=spec.n, t=(spec.n - 1) // 3))


def _sharded(spec: Any) -> Roster:
    from repro.protocols.sharded_delphi import ShardedDelphiNode, sharded_parameters_of

    params = sharded_parameters_of(spec)
    topology = params.topology
    derived = {
        "num_groups": topology.num_groups,
        "group_sizes": [len(group) for group in topology.groups],
        "representatives": list(topology.representatives),
    }
    make_node = partial(ShardedDelphiNode, params=params)
    return Roster(topology.num_nodes, make_node, topology, derived)


#: Every protocol a spec can name, in table order.
PROTOCOLS: Dict[str, ProtocolRow] = {
    row.name: row
    for row in (
        ProtocolRow(
            "delphi",
            "Delphi approximate agreement (Algorithm 2, bundled checkpoints)",
            EPSILON_AGREEMENT,
            _delphi,
        ),
        ProtocolRow(
            "dora", "DORA oracle agreement over the Delphi core", EPSILON_AGREEMENT, _dora
        ),
        ProtocolRow(
            "abraham",
            "Abraham et al. synchronous approximate agreement baseline",
            EPSILON_AGREEMENT,
            _abraham,
        ),
        ProtocolRow(
            "dolev", "Dolev et al. approximate agreement baseline", EPSILON_AGREEMENT, _dolev
        ),
        ProtocolRow("fin", "FIN exact binary agreement baseline", EXACT_AGREEMENT, _fin),
        ProtocolRow(
            "hbbft", "HoneyBadgerBFT-style exact agreement baseline", EXACT_AGREEMENT, _hbbft
        ),
        ProtocolRow(
            "sharded-delphi",
            "Two-level Delphi: per-group instances, an inter-group round "
            "among representatives, final value fanned back down",
            HIERARCHICAL_AGREEMENT,
            _sharded,
        ),
    )
}
