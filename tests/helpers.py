"""Shared helpers for the test suite, importable as ``helpers``.

The protocol tests run real instances through the deterministic simulator,
but at small scale (n = 4..10) so the whole suite stays fast.  Helpers here
centralise the common patterns: building a small Delphi configuration,
running a set of nodes under a chosen network/adversary, and asserting the
agreement/validity properties the paper proves.

These used to live in ``tests/conftest.py``, but importing them with
``from conftest import ...`` breaks when pytest collects the repo root:
``benchmarks/conftest.py`` is loaded first and wins the ``conftest`` module
name.  A dedicated module with a unique name has no such ambiguity
(``benchmarks/`` keeps its own helper module, ``bench_common``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.adversary.base import AdversaryStrategy
from repro.analysis.parameters import DelphiParameters, derive_parameters
from repro.experiments.cells import lan_network, run_spec
from repro.experiments.spec import ScenarioSpec
from repro.net.network import AsynchronousNetwork
from repro.protocols.base import ProtocolNode
from repro.runner import ProtocolRunResult
from repro.sim.runtime import SimulationConfig, SimulationResult, SimulationRuntime


#: Bundle-shaped payloads whose fields do not convert to their types
#: (``TypeError``, ``ValueError``, ``OverflowError`` in the codec): a
#: Byzantine sender's cheapest way at an honest node's decoder.
UNCONVERTIBLE_BUNDLES = [
    ((None, (), (), ()),),
    ((0, 5, (), ()),),
    ((0, (), (), ((1, None),)),),
    (("x", (), (), ()),),
    ((0, (), (("ECHO1", "r", 1.0),), ()),),
    ((0, (), (("ECHO1", float("inf"), 1.0),), ()),),
]


def small_network(
    n: int, seed: int = 0, adversarial_delay: float = 0.0
) -> AsynchronousNetwork:
    """A small asynchronous network with jittered latency and reordering."""
    return lan_network(n, seed=seed, adversarial_delay=adversarial_delay)


def run_nodes(
    nodes: Dict[int, ProtocolNode],
    seed: int = 0,
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    adversarial_delay: float = 0.0,
    max_events: int = 2_000_000,
    observers: Optional[Sequence] = None,
    engine: str = "fast",
) -> SimulationResult:
    """Run a set of protocol nodes through the simulator and return the result."""
    runtime = SimulationRuntime(
        nodes=nodes,
        network=small_network(len(nodes), seed=seed, adversarial_delay=adversarial_delay),
        byzantine=byzantine,
        config=SimulationConfig(max_events=max_events, engine=engine),
        observers=observers,
    )
    return runtime.run()


def run_named(
    protocol: str,
    values: Sequence[float],
    byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
    **spec_fields,
) -> ProtocolRunResult:
    """Run a protocol-table row over ``values`` (one node each) through
    ``cells.run_spec``.  ``spec_fields`` are further ``ScenarioSpec`` fields;
    the testbed defaults to ``ideal`` (no network or compute model)."""
    spec = ScenarioSpec(protocol=protocol, n=len(values), **{"testbed": "ideal", **spec_fields})
    result, _derived = run_spec(spec, list(values), extra_byzantine=byzantine)
    return result


def small_delphi_params(
    n: int = 7,
    epsilon: float = 1.0,
    delta_max: float = 16.0,
    rho0: Optional[float] = None,
    max_rounds: int = 6,
) -> DelphiParameters:
    """A Delphi configuration small enough for fast simulated runs."""
    return derive_parameters(
        n=n, epsilon=epsilon, delta_max=delta_max, rho0=rho0, max_rounds=max_rounds
    )


def assert_agreement(outputs: Sequence[float], epsilon: float) -> None:
    """Assert the epsilon-agreement property on honest outputs."""
    values = list(outputs)
    assert values, "no honest outputs were produced"
    spread = max(values) - min(values)
    assert spread <= epsilon + 1e-9, f"outputs spread {spread} exceeds epsilon {epsilon}"


def assert_validity(
    outputs: Sequence[float], honest_inputs: Sequence[float], relaxation: float
) -> None:
    """Assert the rho-relaxed min-max validity property."""
    low = min(honest_inputs) - relaxation
    high = max(honest_inputs) + relaxation
    for value in outputs:
        assert low - 1e-9 <= value <= high + 1e-9, (
            f"output {value} outside relaxed range [{low}, {high}]"
        )
