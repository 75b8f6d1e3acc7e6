#!/usr/bin/env python3
"""Oracle network example: attested Bitcoin price reports (paper Section V/VI-A).

The pipeline mirrors the paper's first application end to end:

1. **Range analysis** — observe two (simulated) days of per-minute price
   feeds from ten exchanges, fit the per-minute inter-exchange range and
   derive the maximum-range bound ``Delta`` (Fig. 4's analysis).
2. **Configuration** — set ``epsilon = rho0 = 2$`` and ``Delta`` from the
   analysis, as the paper does.
3. **Reporting rounds** — every minute, each oracle queries an exchange and
   the oracle service runs one epoch of Delphi + DORA over the
   geo-distributed AWS testbed model, producing a single attested price
   that is submitted to the SMR (blockchain) channel.

Run with::

    python examples/oracle_network.py
"""

from __future__ import annotations

from repro.analysis.parameters import derive_parameters
from repro.analysis.range_analysis import analyse_ranges
from repro.oracle.service import OracleService
from repro.testbed.aws import AwsTestbed
from repro.workloads.bitcoin import BitcoinPriceFeed


def main() -> None:
    num_oracles = 10

    # ------------------------------------------------------------------
    # 1. Range analysis over historical (synthetic) data.
    # ------------------------------------------------------------------
    history = BitcoinPriceFeed(seed=2024)
    observed_ranges = history.observed_ranges(num_nodes=num_oracles, minutes=2 * 24 * 60)
    stats = analyse_ranges(observed_ranges, thresholds=(30.0, 100.0, 300.0), security_bits=30)
    print("range analysis over 2 days of per-minute data:")
    print(f"  mean delta          : {stats.mean:8.2f} $")
    print(f"  99th percentile     : {stats.p99:8.2f} $")
    print(f"  max observed        : {stats.maximum:8.2f} $")
    for threshold, fraction in stats.fraction_below.items():
        print(f"  below {threshold:6.0f} $      : {100 * fraction:6.2f} % of minutes")
    if stats.fit is not None:
        print(f"  best fitting law    : {stats.fit.name}")
    print(f"  recommended Delta   : {stats.recommended_delta:8.2f} $")

    # ------------------------------------------------------------------
    # 2. Configure Delphi as the paper does (epsilon = rho0 = 2$).
    # ------------------------------------------------------------------
    delta_max = max(stats.recommended_delta, 500.0)
    params = derive_parameters(
        n=num_oracles,
        epsilon=2.0,
        rho0=2.0,
        delta_max=delta_max,
        max_rounds=8,  # simulation-scale cap; see DESIGN.md
    )
    print("\nDelphi configuration:", params.describe())

    # ------------------------------------------------------------------
    # 3. Run a few reporting rounds over the AWS testbed model.
    # ------------------------------------------------------------------
    testbed = AwsTestbed(num_nodes=num_oracles, seed=7)
    live_feed = BitcoinPriceFeed(seed=99)
    service = OracleService(
        params,
        live_feed,
        engine="fast",
        network_factory=lambda epoch: testbed.network(),
        compute=testbed.compute(),
    )

    print("\nper-minute attested reports:")
    for minute in range(3):
        report = service.run_epoch()
        print(
            f"  minute {minute + 1}: attested {report.value:10.2f} $ "
            f"(input range {report.input_range:6.2f} $, "
            f"{report.certificate.signer_count} signers, "
            f"{report.runtime_seconds:5.2f} s simulated, "
            f"{report.megabytes:6.2f} MB)"
        )

    consumed = service.chain.first_valid()
    print(f"\nfirst report the blockchain consumed (position {consumed.position}): "
          f"{consumed.payload.value:.2f} $")
    distinct_total = len({e.payload.value for e in service.chain.entries if e.valid})
    print(f"distinct values posted across {live_feed.minute} reporting rounds: "
          f"{distinct_total} (Delphi posts at most 2 per round)")


if __name__ == "__main__":
    main()
