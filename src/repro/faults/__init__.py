"""Fault-injection campaigns and runtime protocol-invariant monitors.

The subsystem has three layers:

* :mod:`repro.faults.spec` — declarative :class:`FaultSpec` (corruption
  schedules + network-fault windows), JSON-safe and embeddable in
  ``ScenarioSpec.extras['faults']``;
* :mod:`repro.faults.monitors` — :class:`~repro.sim.observers.SimObserver`
  subclasses that watch the paper's invariants during a run and fail fast;
* :mod:`repro.faults.campaign` — :class:`FaultCampaign` matrices run on both
  simulation engines with equivalence asserted, verdict artifacts, and the
  pin files (violation bundles, committed corpora) with their one replay
  check.
"""

from repro.net.network import DelayWindow, LossWindow, PartitionWindow
from repro.faults.spec import (
    FULL_BUDGET,
    CorruptionSpec,
    FaultSpec,
    StrategyContext,
    fault_spec_of,
    register_strategy,
    scenario_corrupted_ids,
)
from repro.faults.monitors import (
    BinaryBASafetyMonitor,
    EpsilonAgreementMonitor,
    InvariantMonitor,
    RbcSafetyMonitor,
    TerminationMonitor,
    ValidityMonitor,
    build_monitors,
    collect_margins,
)
from repro.faults.campaign import (
    CAMPAIGNS,
    CampaignResult,
    CellVerdict,
    FaultCampaign,
    FaultCase,
    campaign,
    list_campaigns,
    load_pins,
    make_pin,
    replay_pin,
    run_campaign,
    run_fault_cell,
    write_pins,
)
from repro.faults.search import (
    FUZZ_SCHEMA,
    Evaluation,
    FuzzResult,
    MUTATORS,
    ScheduleSearch,
    fuzz_schedules,
    mutate,
)

__all__ = [
    "BinaryBASafetyMonitor",
    "CAMPAIGNS",
    "CampaignResult",
    "CellVerdict",
    "CorruptionSpec",
    "DelayWindow",
    "EpsilonAgreementMonitor",
    "Evaluation",
    "FULL_BUDGET",
    "FUZZ_SCHEMA",
    "FaultCampaign",
    "FaultCase",
    "FaultSpec",
    "FuzzResult",
    "InvariantMonitor",
    "LossWindow",
    "MUTATORS",
    "PartitionWindow",
    "RbcSafetyMonitor",
    "ScheduleSearch",
    "StrategyContext",
    "TerminationMonitor",
    "ValidityMonitor",
    "build_monitors",
    "campaign",
    "collect_margins",
    "fault_spec_of",
    "fuzz_schedules",
    "list_campaigns",
    "load_pins",
    "make_pin",
    "mutate",
    "register_strategy",
    "replay_pin",
    "run_campaign",
    "run_fault_cell",
    "scenario_corrupted_ids",
    "write_pins",
]
