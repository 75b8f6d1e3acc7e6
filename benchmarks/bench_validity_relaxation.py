"""Section VI-E: practical impact of Delphi's validity relaxation.

Delphi trades communication for a relaxed validity guarantee
(``[m - delta, M + delta]`` instead of ``[m, M]``).  The paper quantifies the
practical impact: in the oracle network the output is ~25$ (≈0.05% of the
Bitcoin price) from the honest average in expectation versus ~12.5$ for the
exact-validity baselines, and in the drone application at most ~1.3 m
further from the target than the baselines.

This benchmark measures, over repeated rounds of both workloads, the
distance between each protocol's output and (a) the honest input average
and (b) the honest input hull, for Delphi and the FIN baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.parameters import derive_parameters
from repro.analysis.range_analysis import distance_from_mean, validity_margin
from repro.runner import run_delphi
from repro.workloads.bitcoin import BitcoinPriceFeed
from repro.workloads.drone import DroneLocalisationWorkload

from bench_common import emit as print  # noqa: A001 - route prints past pytest capture
from bench_common import bench_scale, max_rounds, run_named

ROUNDS = 10 if bench_scale() == "full" else 4
N = 7


def _summarise(label, mean_distances, margins):
    print(
        f"  {label:<18} mean |output - honest avg| = {np.mean(mean_distances):8.3f}, "
        f"max excursion outside hull = {np.max(margins):8.3f}"
    )


def test_validity_relaxation_oracle(benchmark):
    params = derive_parameters(
        n=N, epsilon=2.0, rho0=10.0, delta_max=2000.0, max_rounds=max_rounds()
    )
    feed = BitcoinPriceFeed(seed=6)

    def sweep():
        rows = []
        for _ in range(ROUNDS):
            values = feed.node_inputs(N)
            delphi = run_delphi(params, values)
            fin = run_named("fin", values)
            rows.append((values, delphi.output_values, fin.output_values))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    delphi_distance = [distance_from_mean(outputs, values) for values, outputs, _ in rows]
    fin_distance = [distance_from_mean(outputs, values) for values, _, outputs in rows]
    delphi_margin = [validity_margin(outputs, values) for values, outputs, _ in rows]
    fin_margin = [validity_margin(outputs, values) for values, _, outputs in rows]

    print(f"\n# Validity relaxation, oracle workload ({ROUNDS} rounds, n={N})")
    _summarise("delphi", delphi_distance, delphi_margin)
    _summarise("fin (exact)", fin_distance, fin_margin)
    deltas = [max(values) - min(values) for values, _, _ in rows]
    print(f"  mean honest range delta = {np.mean(deltas):.2f} $")

    # FIN's output never leaves the honest hull; Delphi's may, but by at most
    # ~delta + epsilon (Theorem IV.3 plus rounding), which is tiny relative to
    # the price level (paper: ~0.05 %).
    assert max(fin_margin) == 0.0
    assert max(delphi_margin) <= max(deltas) + params.rho0 + params.epsilon
    relative_error = np.mean(delphi_distance) / 40_000.0
    print(f"  delphi relative error vs price level: {100 * relative_error:.4f} % (paper: ~0.05 %)")
    assert relative_error < 0.005


def test_validity_relaxation_drone(benchmark):
    params = derive_parameters(
        n=N, epsilon=0.5, rho0=0.5, delta_max=50.0, max_rounds=max_rounds()
    )
    workload = DroneLocalisationWorkload(true_location=(100.0, 60.0), seed=7)

    def sweep():
        rows = []
        for _ in range(ROUNDS):
            xs, _ = workload.node_inputs(N)
            delphi = run_delphi(params, xs)
            fin = run_named("fin", xs)
            rows.append((xs, delphi.output_values, fin.output_values))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    delphi_distance = [distance_from_mean(outputs, values) for values, outputs, _ in rows]
    fin_distance = [distance_from_mean(outputs, values) for values, _, outputs in rows]
    delphi_margin = [validity_margin(outputs, values) for values, outputs, _ in rows]

    print(f"\n# Validity relaxation, drone workload ({ROUNDS} rounds, n={N})")
    _summarise("delphi", delphi_distance, delphi_margin)
    _summarise("fin (exact)", fin_distance, [0.0])
    extra = np.mean(delphi_distance) - np.mean(fin_distance)
    print(f"  delphi extra distance from honest average: {extra:.2f} m (paper: <= ~1.3 m)")

    assert np.mean(delphi_distance) < 5.0
    assert extra < 3.0
