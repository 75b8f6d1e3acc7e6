#!/usr/bin/env python3
"""Fault-injection example: Delphi under an active Byzantine adversary.

This example demonstrates the adversary toolbox: it runs the same oracle
agreement repeatedly while escalating the attack —

* no faults,
* crash faults (silent nodes),
* poisoned inputs (Byzantine nodes run the protocol on wild values),
* equivocation plus adversarial message delay and reordering,

and reports, for each scenario, whether the honest nodes still reached
``epsilon``-agreement inside the relaxed validity range.

Run with::

    python examples/fault_injection.py
"""

from __future__ import annotations

import random

from repro.adversary.base import HonestWithInput
from repro.adversary.strategies import CrashStrategy, EquivocatingStrategy
from repro.analysis.parameters import derive_parameters
from repro.analysis.range_analysis import validity_margin
from repro.core.delphi import DelphiNode
from repro.faults.spec import CorruptionSpec, FaultSpec
from repro.net.latency import UniformLatency
from repro.net.network import AsynchronousNetwork, DeliveryPolicy
from repro.runner import run_delphi
from repro.workloads.bitcoin import BitcoinPriceFeed


def adversarial_network(n: int, extra_delay: float, seed: int) -> AsynchronousNetwork:
    """A network whose scheduler delays and reorders honest traffic."""
    return AsynchronousNetwork(
        num_nodes=n,
        latency=UniformLatency(low=0.002, high=0.02, seed=seed),
        policy=DeliveryPolicy(max_extra_delay=extra_delay, reorder=True, seed=seed),
    )


def main() -> None:
    n, t = 10, 3
    params = derive_parameters(n=n, epsilon=2.0, rho0=2.0, delta_max=500.0, max_rounds=7)
    feed = BitcoinPriceFeed(seed=17)
    measurements = feed.node_inputs(n)
    honest_by_scenario = {}

    scenarios = {}

    # Scenario 1: no faults.
    scenarios["no faults"] = ({}, 0.0, list(range(n)))

    # Scenario 2: t crash faults on randomly chosen nodes (the fault spec
    # checks them against the t budget).
    crashed = random.Random(3).sample(range(n), t)
    crashes = FaultSpec(corruptions=(CorruptionSpec("crash", nodes=crashed),))
    scenarios["crash x3"] = (
        crashes.build_strategies(n),
        0.0,
        [i for i in range(n) if i not in crashed],
    )

    # Scenario 3: poisoned inputs — Byzantine nodes claim absurd prices.
    poisoned = {
        7: HonestWithInput(DelphiNode(7, params, value=measurements[7] + 400.0)),
        8: HonestWithInput(DelphiNode(8, params, value=measurements[8] - 400.0)),
        9: CrashStrategy(),
    }
    scenarios["poisoned inputs"] = (poisoned, 0.0, list(range(7)))

    # Scenario 4: equivocation plus 50 ms of adversarial delay on every link.
    equivocators = {
        8: EquivocatingStrategy(),
        9: EquivocatingStrategy(),
    }
    scenarios["equivocation + delay"] = (equivocators, 0.05, list(range(8)))

    print(f"oracle inputs: min {min(measurements):.2f} $, max {max(measurements):.2f} $")
    print(f"configuration: {params.describe()}\n")
    print(f"{'scenario':<24}{'decided':>9}{'spread $':>10}{'excursion $':>13}{'runtime s':>11}")

    for name, (byzantine, extra_delay, honest_ids) in scenarios.items():
        result = run_delphi(
            params,
            measurements,
            byzantine=dict(byzantine),
            network=adversarial_network(n, extra_delay, seed=11),
        )
        honest_inputs = [measurements[i] for i in honest_ids]
        excursion = validity_margin(result.output_values, honest_inputs)
        honest_by_scenario[name] = result
        print(
            f"{name:<24}{str(result.all_decided):>9}{result.output_spread:>10.3f}"
            f"{excursion:>13.3f}{result.runtime_seconds:>11.3f}"
        )

    print("\nIn every scenario the honest nodes terminate, agree within epsilon and "
          "stay inside the relaxed validity range — the guarantees of Definition II.1.")


if __name__ == "__main__":
    main()
