"""Fault-injection campaigns and runtime protocol-invariant monitors.

The subsystem has three layers:

* :mod:`repro.faults.spec` — declarative :class:`FaultSpec` (corruption
  schedules + network-fault windows), JSON-safe and embeddable in
  ``ScenarioSpec.extras['faults']``;
* :mod:`repro.faults.monitors` — :class:`~repro.sim.observers.SimObserver`
  subclasses that watch the paper's invariants during a run and fail fast;
* :mod:`repro.faults.campaign` — :class:`FaultCampaign` matrices run on both
  simulation engines with equivalence asserted, verdict artifacts and
  violation repro bundles.
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
    ReplayReport,
    campaign,
    list_campaigns,
    replay_bundle,
    replay_bundle_report,
    run_campaign,
    run_fault_cell,
)
from repro.faults.search import (
    CORPUS_SCHEMA,
    FUZZ_SCHEMA,
    Evaluation,
    FuzzResult,
    MUTATORS,
    ScheduleSearch,
    corpus_entry,
    fuzz_schedules,
    load_corpus,
    mutate,
    replay_corpus_entry,
    save_corpus,
)

__all__ = [
    "BinaryBASafetyMonitor",
    "CAMPAIGNS",
    "CORPUS_SCHEMA",
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
    "ReplayReport",
    "ScheduleSearch",
    "StrategyContext",
    "TerminationMonitor",
    "ValidityMonitor",
    "build_monitors",
    "campaign",
    "collect_margins",
    "corpus_entry",
    "fault_spec_of",
    "fuzz_schedules",
    "list_campaigns",
    "load_corpus",
    "mutate",
    "register_strategy",
    "replay_bundle",
    "replay_bundle_report",
    "replay_corpus_entry",
    "run_campaign",
    "run_fault_cell",
    "save_corpus",
    "scenario_corrupted_ids",
]
