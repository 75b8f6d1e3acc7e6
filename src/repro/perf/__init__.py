"""The fast-vs-reference fingerprint gate behind ``python -m repro perf``.

See :mod:`repro.perf.suite`.  No wall time is measured here: performance
claims are made with ``benchmarks/e2e/run.py``.
"""

from repro.perf.suite import (
    SCENARIOS,
    PerfScenario,
    compare_to_baseline,
    load_baseline,
    run_suite,
)

__all__ = [
    "SCENARIOS",
    "PerfScenario",
    "compare_to_baseline",
    "load_baseline",
    "run_suite",
]
