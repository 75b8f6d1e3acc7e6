"""Cell functions: turn one :class:`ScenarioSpec` into a metrics dict.

Every scenario *kind* maps to one module-level function (so cells pickle
cleanly into worker processes).  Cell functions are **pure**: all randomness
derives from ``spec.seed``, which is what lets the executor cache results by
spec hash and guarantees parallel == serial output.

Metrics dicts are JSON-safe (plain floats/ints/strings/lists) because they
are written verbatim into the on-disk result cache and the JSON/CSV
artifacts.

Example
-------
>>> from repro.experiments import ScenarioSpec
>>> from repro.experiments.cells import run_cell
>>> metrics = run_cell(ScenarioSpec(protocol="delphi", n=5, delta_max=8.0))
>>> metrics["all_decided"]
True
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.base import AdversaryStrategy
from repro.analysis.range_analysis import analyse_ranges, validity_margin
from repro.distributions.fitting import fit_distributions, histogram
from repro.distributions.thin_tailed import NormalInputs
from repro.errors import ConfigurationError
from repro.faults.spec import corruption_spec_of, fault_spec_of
from repro.net.latency import UniformLatency
from repro.net.network import AsynchronousNetwork, DeliveryPolicy
from repro.protocols.registry import get_protocol
from repro.runner import ProtocolRunResult, run_protocol
from repro.sim.runtime import ComputeModel, SimulationConfig
from repro.testbed.aws import AwsTestbed
from repro.testbed.cps import CpsTestbed
from repro.workloads.bitcoin import BitcoinPriceFeed
from repro.workloads.drone import DroneLocalisationWorkload
from repro.workloads.sensors import SensorGridWorkload

from repro.experiments.spec import ScenarioSpec

# ----------------------------------------------------------------------
# Building blocks: inputs, network/compute, adversary.


def spread_inputs(n: int, centre: float, delta: float) -> List[float]:
    """n inputs spread deterministically across a range ``delta`` — the
    canonical input layout of the paper's protocol sweeps (shared with the
    benchmark suite via ``bench_common.spread_inputs``)."""
    if n == 1:
        return [centre]
    inputs = [centre - delta / 2.0 + delta * index / (n - 1) for index in range(n)]
    if not all(map(math.isfinite, inputs)):
        raise ConfigurationError(
            f"ScenarioSpec.delta: {delta} around centre {centre} spreads "
            "the inputs past the largest float"
        )
    return inputs


def lan_network(
    n: int, seed: int = 0, adversarial_delay: float = 0.0
) -> AsynchronousNetwork:
    """A small asynchronous network with jittered latency and reordering —
    the test suite's default environment (shared with ``tests/helpers.py``)."""
    return AsynchronousNetwork(
        num_nodes=n,
        latency=UniformLatency(low=0.001, high=0.01, seed=seed),
        policy=DeliveryPolicy(max_extra_delay=adversarial_delay, reorder=True, seed=seed),
    )


def build_inputs(spec: ScenarioSpec) -> List[float]:
    """Honest input values for a protocol cell, from the spec's workload."""
    n = spec.n
    if spec.workload == "spread":
        return spread_inputs(n, spec.centre, spec.delta)
    if spec.workload == "bitcoin":
        return BitcoinPriceFeed(seed=spec.seed).node_inputs(n)
    if spec.workload == "drone":
        xs, _ys = DroneLocalisationWorkload(seed=spec.seed).node_inputs(n)
        return xs
    if spec.workload == "sensors":
        return SensorGridWorkload(true_value=spec.centre, seed=spec.seed).node_inputs(n)
    if spec.workload == "normal":
        sigma = float(spec.extras.get("sigma", 0.5))
        return NormalInputs(
            sigma=sigma, true_value=spec.centre, seed=spec.seed
        ).sample_inputs(n)
    raise ConfigurationError(f"unknown workload {spec.workload!r}")


def build_network(spec: ScenarioSpec) -> Tuple[Optional[AsynchronousNetwork], Optional[ComputeModel]]:
    """The (network, compute) pair for the spec's testbed.

    When the spec embeds a fault plan (``extras['faults']`` with partition/
    delay/loss windows, see :mod:`repro.faults.spec`), the plan is installed
    on the network's delivery policy.
    """
    if spec.testbed == "aws":
        testbed = AwsTestbed(
            num_nodes=spec.n, seed=spec.seed, adversarial_delay=spec.adversarial_delay
        )
        network, compute = testbed.network(), testbed.compute()
    elif spec.testbed == "cps":
        testbed = CpsTestbed(
            num_nodes=spec.n, seed=spec.seed, adversarial_delay=spec.adversarial_delay
        )
        network, compute = testbed.network(), testbed.compute()
    elif spec.testbed == "lan":
        network, compute = (
            lan_network(spec.n, seed=spec.seed, adversarial_delay=spec.adversarial_delay),
            None,
        )
    elif spec.testbed == "ideal":
        network, compute = None, None
    else:
        raise ConfigurationError(f"unknown testbed {spec.testbed!r}")

    fault_spec = fault_spec_of(spec)
    if fault_spec is not None and fault_spec.has_network_faults:
        if network is None:
            raise ConfigurationError(
                "network fault windows require a concrete testbed "
                "(aws/cps/lan), not 'ideal'"
            )
        network.policy.install_faults(fault_spec.network_plan())
    return network, compute


def build_adversary(spec: ScenarioSpec) -> Optional[Dict[int, AdversaryStrategy]]:
    """Per-node Byzantine strategies, built through the fault-strategy
    registry from the spec's corruption groups: the fault spec in
    ``extras['faults']`` when it names any, otherwise the plain
    ``adversary`` / ``num_byzantine`` fields (the highest node ids) — see
    :func:`repro.faults.spec.corruption_spec_of`.
    """
    fault_spec = corruption_spec_of(spec)
    if fault_spec is None:
        return None
    return fault_spec.build_strategies(spec.n, seed=spec.seed, scenario=spec)


# ----------------------------------------------------------------------
# Protocol cell.


def run_spec(
    spec: ScenarioSpec,
    inputs: List[float],
    config: Optional[SimulationConfig] = None,
    observers: Optional[List[Any]] = None,
    extra_byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
) -> Tuple[ProtocolRunResult, Dict[str, Any]]:
    """Run ``spec``'s protocol once through the protocol table.

    Builds the spec's network, compute model, adversary and nodes (from the
    protocol row's roster), and returns the run result with the protocol's
    derived parameters.  The one entry point from a spec to a protocol run:
    the sweep cells, the fault campaign and the perf fingerprint gate all go
    through it.
    """
    network, compute = build_network(spec)
    byzantine = build_adversary(spec)
    if extra_byzantine:
        byzantine = {**(byzantine or {}), **extra_byzantine}
    roster = get_protocol(spec.protocol).roster(spec)
    result = run_protocol(
        spec.protocol,
        roster.nodes(inputs),
        network,
        byzantine,
        compute,
        config,
        observers,
        roster.topology,
    )
    return result, roster.derived


def run_protocol_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run one protocol instance end to end and summarise it as metrics."""
    inputs = build_inputs(spec)
    result, derived = run_spec(spec, inputs)
    honest_inputs = [inputs[node_id] for node_id in result.honest_nodes] or inputs
    metrics: Dict[str, Any] = {
        "protocol": spec.protocol,
        "n": spec.n,
        "runtime_seconds": result.runtime_seconds,
        "megabytes": result.total_megabytes,
        "message_count": result.message_count,
        "events_processed": result.events_processed,
        "output_spread": result.output_spread,
        # No decision leaves the hull, so a stalled cell has margin 0.
        "validity_margin": (
            validity_margin(result.output_values, honest_inputs)
            if result.output_values
            else 0.0
        ),
        "all_decided": result.all_decided,
        "decided_count": len(result.outputs),
        "num_byzantine": len(result.byzantine_nodes),
        "input_range": max(honest_inputs) - min(honest_inputs),
        "output_values": list(result.output_values),
    }
    metrics.update(derived)
    return metrics


# ----------------------------------------------------------------------
# Workload-analysis cells (Figs. 4 and 5).


def run_bitcoin_range_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Fig. 4 cell: per-minute Bitcoin inter-exchange range statistics.

    ``extras``: ``minutes`` (observation window), ``num_sources`` (exchanges
    queried per minute), ``thresholds``, ``security_bits``, ``bins``,
    ``candidates`` (distribution families to fit).
    """
    extras = spec.extras
    minutes = int(extras.get("minutes", 3 * 24 * 60))
    num_sources = int(extras.get("num_sources", 10))
    thresholds = tuple(float(t) for t in extras.get("thresholds", (30.0, 100.0, 300.0)))
    candidates = tuple(extras.get("candidates", ("frechet", "gumbel", "gamma", "normal")))
    feed = BitcoinPriceFeed(seed=spec.seed)
    ranges = feed.observed_ranges(num_nodes=num_sources, minutes=minutes)
    stats = analyse_ranges(
        ranges, thresholds=thresholds, security_bits=int(extras.get("security_bits", 30))
    )
    centres, counts = histogram(ranges, bins=int(extras.get("bins", 30)))
    fits = fit_distributions(ranges, candidates=candidates)
    return {
        "samples": len(ranges),
        "mean": stats.mean,
        "median": stats.median,
        "p99": stats.p99,
        "max": stats.maximum,
        "fraction_below": [[t, stats.fraction_below[t]] for t in thresholds],
        "recommended_delta": stats.recommended_delta,
        "fits": [{"name": fit.name, "ks": fit.ks_statistic} for fit in fits],
        "histogram": {"centres": centres, "counts": counts},
    }


def run_drone_iou_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Fig. 5 cell: object-detection IoU distribution for the drone workload.

    ``extras``: ``detections``, ``bins``, ``candidates``, ``num_drones``
    (for the implied location-error statistic).
    """
    extras = spec.extras
    detections = int(extras.get("detections", 12_000))
    candidates = tuple(extras.get("candidates", ("gamma", "normal", "frechet")))
    workload = DroneLocalisationWorkload(seed=spec.seed)
    ious = workload.sample_ious(detections)
    values = np.asarray(ious)
    centres, counts = histogram(ious, bins=int(extras.get("bins", 25)))
    fits = fit_distributions(ious, candidates=candidates)
    errors = workload.error_distances(num_drones=int(extras.get("num_drones", 2000)))
    return {
        "samples": detections,
        "mean_iou": float(values.mean()),
        "fraction_below_06": float(np.mean(values < 0.6)),
        "fits": [{"name": fit.name, "ks": fit.ks_statistic} for fit in fits],
        "histogram": {"centres": centres, "counts": counts},
        "mean_error_m": float(np.mean(errors)),
    }


#: Registry mapping scenario kinds to their cell functions.
CELL_KINDS: Dict[str, Callable[[ScenarioSpec], Dict[str, Any]]] = {
    "protocol": run_protocol_cell,
    "bitcoin_range": run_bitcoin_range_cell,
    "drone_iou": run_drone_iou_cell,
}


def run_cell(spec: ScenarioSpec) -> Dict[str, Any]:
    """Dispatch one spec to its registered cell function."""
    try:
        cell = CELL_KINDS[spec.kind]
    except KeyError:
        raise ConfigurationError(f"no cell function registered for kind {spec.kind!r}")
    return cell(spec)
