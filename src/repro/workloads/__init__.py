"""Synthetic workload generators for the paper's two applications.

Every workload doubles as a *streaming epoch feed* for the oracle service
(:mod:`repro.oracle.service`): calling :meth:`epoch_inputs(num_nodes)`
advances the underlying process one epoch (a reporting minute for the
Bitcoin feed, a fresh measurement round for the sensor grid, a new swarm
observation for the drones) and returns one scalar input per oracle node.
:func:`make_epoch_workload` builds a feed by name with service-appropriate
Delphi defaults (epsilon / delta_max calibrated to each workload's input
spread).
"""

from typing import Any, Dict, Optional

from repro.analysis.parameters import DelphiParameters, derive_parameters
from repro.errors import ConfigurationError
from repro.workloads.bitcoin import BitcoinPriceFeed, ExchangeQuote
from repro.workloads.drone import DroneLocalisationWorkload, DroneObservation
from repro.workloads.sensors import SensorGridWorkload
from repro.workloads.ticks import TickBufferWorkload

#: Workloads the oracle service can stream, with their per-epoch feed
#: factory and the paper-derived Delphi defaults for that input process
#: (epsilon is the application's agreement need; delta_max bounds the
#: honest input range; rho0 trades levels for per-level traffic).
EPOCH_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "bitcoin": {
        "factory": BitcoinPriceFeed,
        "epsilon": 2.0,
        "rho0": 10.0,
        "delta_max": 2000.0,
        "description": "per-minute Bitcoin quotes from ten exchanges (Section VI-A)",
    },
    "sensors": {
        "factory": SensorGridWorkload,
        "epsilon": 0.5,
        "rho0": 0.5,
        "delta_max": 16.0,
        "description": "sensor grid measuring a common scalar with noise",
    },
    "drone": {
        "factory": DroneLocalisationWorkload,
        "epsilon": 0.5,
        "rho0": 1.0,
        "delta_max": 64.0,
        "description": "drone-swarm object localisation, x coordinate (Section VI-B)",
    },
}


def epoch_workload_entry(name: str) -> Dict[str, Any]:
    """The :data:`EPOCH_WORKLOADS` row for ``name``, or a ``ConfigurationError``
    listing the known names."""
    try:
        return EPOCH_WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r} (known: {', '.join(sorted(EPOCH_WORKLOADS))})"
        )


def make_epoch_workload(name: str, seed: int = 0, **options: Any):
    """Build the named workload as an epoch feed (``epoch_inputs`` hook)."""
    return epoch_workload_entry(name)["factory"](seed=seed, **options)


def epoch_parameters(
    workload: str,
    n: int,
    *,
    epsilon: Optional[float] = None,
    rho0: Optional[float] = None,
    delta_max: Optional[float] = None,
    max_rounds: Optional[int] = 6,
) -> DelphiParameters:
    """Delphi parameters for serving ``workload`` on ``n`` oracles: the
    workload's calibrated defaults with any override applied.  The default
    ``rho0`` belongs to the default ``epsilon``: overriding ``epsilon``
    alone falls back to the paper's static ``rho0 = epsilon``."""
    defaults = epoch_workload_entry(workload)
    if rho0 is None and epsilon is None:
        rho0 = defaults["rho0"]
    return derive_parameters(
        n=n,
        epsilon=defaults["epsilon"] if epsilon is None else epsilon,
        rho0=rho0,
        delta_max=defaults["delta_max"] if delta_max is None else delta_max,
        max_rounds=max_rounds,
    )


__all__ = [
    "BitcoinPriceFeed",
    "DroneLocalisationWorkload",
    "DroneObservation",
    "EPOCH_WORKLOADS",
    "ExchangeQuote",
    "SensorGridWorkload",
    "TickBufferWorkload",
    "epoch_parameters",
    "epoch_workload_entry",
    "make_epoch_workload",
]
