"""Table I: comparison of asynchronous convex-BA protocols.

The analytic half of the table evaluates each protocol's closed-form
communication/round/computation complexity at the paper's headline system
size.  The measured half cross-checks the *growth* of communication with n
for the protocols we implement (Delphi, Abraham et al., FIN) by running them
in the simulator at two sizes and reporting the scaling exponent — Delphi
should scale ~quadratically and the RBC-based protocols ~cubically.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.complexity import protocol_comparison_table
from repro.runner import run_delphi
from repro.testbed.metrics import MetricsCollector

from bench_common import emit as print  # noqa: A001 - route prints past pytest capture
from bench_common import (
    ORACLE_DELTA_MAX,
    ORACLE_EPSILON,
    max_rounds,
    oracle_params,
    print_report,
    record_run,
    run_named,
    spread_inputs,
)


def test_table1_analytic(benchmark):
    """Evaluate Table I's asymptotic expressions at n = 160."""

    def build():
        return protocol_comparison_table(
            n=160, delta=20.0, epsilon=ORACLE_EPSILON, delta_max=ORACLE_DELTA_MAX
        )

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    print("\n# Table I (analytic, n=160, delta=20$, eps=2$, Delta=2000$)")
    header = f"{'protocol':<18}{'comm (bits)':>16}{'rounds':>10}{'sign':>8}{'verif':>10}  validity"
    print(header)
    for row in table:
        print(
            f"{row.protocol:<18}{row.communication_bits:>16.3e}{row.rounds:>10.1f}"
            f"{row.signatures:>8.0f}{row.verifications:>10.0f}  {row.validity}"
        )
    delphi = next(row for row in table if row.protocol == "Delphi")
    fin = next(row for row in table if row.protocol == "FIN")
    abraham = next(row for row in table if row.protocol == "Abraham et al.")
    assert delphi.communication_bits < fin.communication_bits
    assert delphi.communication_bits < abraham.communication_bits
    assert delphi.verifications == 0


def test_table1_measured_scaling(benchmark):
    """Measured communication growth with n for the implemented protocols."""
    sizes = (7, 13)
    delta = 4 * ORACLE_EPSILON
    collector = MetricsCollector("table1-measured")

    def run_all():
        for n in sizes:
            inputs = spread_inputs(n, centre=40_000.0, delta=delta)
            record_run(
                collector, "delphi", n, run_delphi(oracle_params(n), inputs), inputs
            )
            record_run(
                collector,
                "abraham",
                n,
                run_named(
                    "abraham",
                    inputs,
                    epsilon=ORACLE_EPSILON,
                    delta_max=ORACLE_DELTA_MAX,
                    max_rounds=max_rounds(),
                ),
                inputs,
            )
            record_run(collector, "fin", n, run_named("fin", inputs), inputs)
        return collector

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_report(collector, "megabytes")
    print_report(collector, "message_count")

    def growth(protocol: str) -> float:
        series = collector.series(protocol)
        return math.log(series[-1].megabytes / series[0].megabytes) / math.log(
            series[-1].n / series[0].n
        )

    delphi_exponent = growth("delphi")
    abraham_exponent = growth("abraham")
    fin_exponent = growth("fin")
    print(
        f"\ncommunication growth exponents: delphi={delphi_exponent:.2f}, "
        f"abraham={abraham_exponent:.2f}, fin={fin_exponent:.2f}"
    )
    # Delphi's traffic grows more slowly with n than the RBC-based baselines.
    assert delphi_exponent < abraham_exponent + 0.2
    assert delphi_exponent < fin_exponent + 0.2
