"""Shared configuration and helpers for the benchmark harness.

Every benchmark reproduces one table or figure from the paper's evaluation
(see DESIGN.md's experiment index).  Because the protocols run inside a
pure-Python discrete-event simulator rather than on 160 AWS instances, the
default ("quick") scale uses smaller system sizes; the *shape* of each
result — who wins, how curves grow with n, where the crossovers are — is
what EXPERIMENTS.md compares against the paper.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

* ``quick`` (default): small n, capped BinAA rounds; the full harness runs
  in a few minutes.
* ``full``: the paper's system sizes (n up to 160/169).  This takes hours in
  pure Python and is provided for completeness.

Benchmark functions use ``benchmark.pedantic(..., rounds=1)`` — each
simulated protocol run is already an aggregate over thousands of message
events, so repeating it only wastes time; variance across seeds is explored
by the dedicated sweeps instead.
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro.analysis.parameters import DelphiParameters, derive_parameters
from repro.experiments import SweepExecutor
from repro.experiments.cells import run_spec
from repro.experiments.cells import spread_inputs as _spread_inputs
from repro.experiments.presets import (
    DRONE_DELTA_MAX,
    DRONE_EPSILON,
    DRONE_RHO0,
    ORACLE_DELTA_MAX,
    ORACLE_EPSILON,
    ORACLE_RHO0,
)
from repro.experiments.presets import aws_node_counts as _aws_node_counts
from repro.experiments.presets import cps_node_counts as _cps_node_counts
from repro.experiments.presets import max_rounds as _max_rounds
from repro.experiments.spec import ScenarioSpec
from repro.runner import ProtocolRunResult
from repro.testbed.metrics import MetricsCollector


#: File collecting every experiment table printed during a benchmark session.
#: The session's terminal-summary hook (see ``conftest.py``) replays it into
#: the final pytest output so the teed benchmark log records the tables even
#: though pytest captures per-test stdout.
TABLES_PATH = os.path.join(os.path.dirname(__file__), "experiment_tables.txt")


def emit(*args, **kwargs) -> None:
    """Print an experiment-table line and append it to the session log.

    The tables each benchmark prints are part of the deliverable (they are
    what EXPERIMENTS.md quotes and what the teed benchmark log records), so
    in addition to normal stdout (visible with ``pytest -s``) every line is
    appended to :data:`TABLES_PATH`, which the terminal-summary hook replays
    at the end of the run.
    """
    text = kwargs.pop("sep", " ").join(str(arg) for arg in args)
    print(text, **kwargs)
    with open(TABLES_PATH, "a", encoding="utf-8") as handle:
        handle.write(text + "\n")


def bench_scale() -> str:
    """The active benchmark scale (``quick`` or ``full``)."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick").lower()


def aws_node_counts() -> List[int]:
    """System sizes for the AWS (oracle) experiments."""
    return _aws_node_counts(bench_scale())


def cps_node_counts() -> List[int]:
    """System sizes for the CPS (drone) experiments."""
    return _cps_node_counts(bench_scale())


def max_rounds() -> int:
    """Cap on BinAA iterations at quick scale (uncapped at full scale)."""
    return _max_rounds(bench_scale())


def harness_executor() -> SweepExecutor:
    """The executor benchmark sweeps run through.

    No on-disk cache (benchmark timing must reflect real execution) and no
    progress lines (pytest captures stdout/stderr anyway); parallelism is
    auto-detected from the machine and can be pinned with
    ``REPRO_SWEEP_WORKERS``.
    """
    return SweepExecutor(cache_dir=None, progress=None)


def oracle_params(n: int, rho0: float = ORACLE_RHO0) -> DelphiParameters:
    """Delphi configuration for the oracle application at system size n."""
    return derive_parameters(
        n=n,
        epsilon=ORACLE_EPSILON,
        rho0=rho0,
        delta_max=ORACLE_DELTA_MAX,
        max_rounds=max_rounds(),
    )


def drone_params(n: int) -> DelphiParameters:
    """Delphi configuration for the drone application at system size n."""
    return derive_parameters(
        n=n,
        epsilon=DRONE_EPSILON,
        rho0=DRONE_RHO0,
        delta_max=DRONE_DELTA_MAX,
        max_rounds=max_rounds(),
    )


def spread_inputs(n: int, centre: float, delta: float, seed: int = 0) -> List[float]:
    """n honest inputs spread (deterministically) across a range of ``delta``."""
    return _spread_inputs(n, centre, delta)


def run_named(protocol: str, values: Sequence[float], **spec_fields) -> ProtocolRunResult:
    """One run of a protocol-table row over ``values`` (one node each) on
    the ideal testbed, through ``cells.run_spec``."""
    spec = ScenarioSpec(protocol=protocol, n=len(values), testbed="ideal", **spec_fields)
    result, _derived = run_spec(spec, list(values))
    return result


def record_run(
    collector: MetricsCollector,
    protocol: str,
    n: int,
    result: ProtocolRunResult,
    honest_inputs: Sequence[float],
    **parameters: float,
) -> None:
    """Store one run's metrics in the collector."""
    low, high = min(honest_inputs), max(honest_inputs)
    margin = 0.0
    for value in result.output_values:
        if value < low:
            margin = max(margin, low - value)
        elif value > high:
            margin = max(margin, value - high)
    collector.add_run(
        protocol=protocol,
        n=n,
        runtime_seconds=result.runtime_seconds,
        megabytes=result.total_megabytes,
        message_count=result.message_count,
        output_spread=result.output_spread,
        validity_margin=margin,
        **parameters,
    )


def print_report(collector: MetricsCollector, metric: str = "runtime_seconds") -> None:
    """Print the experiment table to the real stdout (recorded by the tee log)."""
    emit()
    emit(collector.render_table(metric))
