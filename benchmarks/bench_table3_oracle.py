"""Table III: comparison of oracle reporting protocols.

The analytic half evaluates Chainlink OCR, DORA and Delphi at the paper's
system size.  The measured half runs the full Delphi+DORA attestation over a
simulated oracle network and verifies the two properties the table credits
Delphi with: zero signature verifications *during agreement* (all signature
work happens once, at attestation), and at most two distinct attested values
reaching the SMR channel.
"""

from __future__ import annotations

import pytest

from repro.analysis.complexity import oracle_comparison_table
from repro.analysis.parameters import derive_parameters
from repro.oracle.service import OracleService
from repro.workloads.bitcoin import BitcoinPriceFeed

from bench_common import emit as print  # noqa: A001 - route prints past pytest capture
from bench_common import ORACLE_DELTA_MAX, ORACLE_EPSILON, max_rounds


def test_table3_analytic(benchmark):
    table = benchmark.pedantic(
        lambda: oracle_comparison_table(n=160, delta=20.0, epsilon=ORACLE_EPSILON),
        rounds=1,
        iterations=1,
    )
    print("\n# Table III (analytic, n=160)")
    for row in table:
        print(
            f"  {row['protocol']:<14} network={row['network']:<22} "
            f"comm={row['communication_bits']:.3e} bits, adaptive={row['adaptively_secure']}, "
            f"verif={row['verifications']}, rounds={row['rounds']:.1f}, validity={row['validity']}"
        )
    delphi = next(row for row in table if row["protocol"] == "Delphi")
    assert delphi["verifications"] == 0
    assert delphi["adaptively_secure"] is True


def test_table3_measured_dora_round(benchmark):
    n = 7
    params = derive_parameters(
        n=n,
        epsilon=ORACLE_EPSILON,
        rho0=10.0,
        delta_max=ORACLE_DELTA_MAX,
        max_rounds=max_rounds(),
    )
    # The service draws its epoch from its own feed; a twin feed with the
    # same seed yields the same measurements for the validity assertion.
    measurements = BitcoinPriceFeed(seed=33).node_inputs(n)
    service = OracleService(params, BitcoinPriceFeed(seed=33), engine="fast")

    report = benchmark.pedantic(service.run_epoch, rounds=1, iterations=1)

    signatures = service.scheme.sign_count
    verifications = service.scheme.verify_count
    distinct_values = len(
        {entry.payload.value for entry in service.chain.entries if entry.valid}
    )
    print("\n# Table III (measured, Delphi+DORA, n=7)")
    print(f"  attested value        : {report.value:.2f} $")
    print(f"  signatures produced   : {signatures} (one per oracle)")
    print(f"  verifications (total) : {verifications}")
    print(f"  distinct chain values : {distinct_values}")
    print(f"  simulated runtime     : {report.runtime_seconds:.3f} s")
    print(f"  traffic               : {report.megabytes:.3f} MB")

    # One signature per oracle, at most two distinct attested values, and the
    # attested value is close to the honest inputs.
    assert signatures <= 2 * n
    assert distinct_values <= 2
    assert min(measurements) - 25.0 <= report.value <= max(measurements) + 25.0
