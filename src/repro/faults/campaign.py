"""Fault campaigns: declarative fault matrices run on both engines.

A :class:`FaultCampaign` is a grid — protocol × system size × fault case ×
seed — expressed through the existing :class:`~repro.experiments.spec.SweepSpec`
machinery (each fault case becomes a sweep *variant* whose
:class:`~repro.faults.spec.FaultSpec` rides in ``extras['faults']``).

Running a campaign executes every cell **twice**, once per simulation engine,
with the runtime invariant monitors attached, then:

* asserts the two engines produced identical results (the fast path must
  stay byte-identical even under partitions, targeted delay, message loss
  and adaptive corruption);
* records a per-cell verdict (``ok`` / ``violation`` / ``stalled``);
* on an invariant violation, writes a **repro bundle** — a one-entry pin
  file (:func:`make_pin`) holding the cell's spec, the violation and the
  trace recorder's event tail — so the exact schedule can be replayed
  (``python -m repro faults --replay BUNDLE``).

The campaign verdict is written as a JSON artifact by the
``python -m repro faults`` CLI subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, InvariantViolation
from repro.experiments.spec import ScenarioSpec, SweepSpec
from repro.faults.monitors import build_monitors, collect_margins
from repro.faults.spec import (
    CorruptionSpec,
    FaultSpec,
    fault_spec_of,
    scenario_corrupted_ids,
)
from repro.net.network import DelayWindow, LossWindow, PartitionWindow, write_json
from repro.protocols.topology import ShardedTopology
from repro.sim.observers import TraceRecorder
from repro.sim.runtime import SimulationConfig

#: Schema tag written into every campaign verdict artifact.
FAULTS_SCHEMA = "repro-faults/1"

#: Schema tag of every pin file (violation bundles and committed corpora).
PINS_SCHEMA = "repro-fault-pins/1"

#: Events kept in the repro bundle's trace tail.
TRACE_TAIL_LIMIT = 200


@dataclass(frozen=True)
class FaultCase:
    """One named fault configuration in a campaign matrix."""

    label: str
    spec: FaultSpec


@dataclass
class FaultCampaign:
    """A full fault matrix: protocols × sizes × fault cases × seeds."""

    name: str
    base: ScenarioSpec
    protocols: Sequence[str]
    sizes: Sequence[int]
    cases: Sequence[FaultCase]
    seeds: Sequence[int] = (0,)
    description: str = ""

    def sweep(self) -> SweepSpec:
        """The campaign expressed as a standard sweep grid."""
        variants = [
            {"name": case.label, "faults": case.spec.to_dict()} for case in self.cases
        ]
        return SweepSpec(
            name=f"faults-{self.name}",
            base=self.base,
            axes={
                "protocol": list(self.protocols),
                "n": list(self.sizes),
                "seed": list(self.seeds),
            },
            variants=variants,
            description=self.description,
            derive_seeds=False,
        )

    def cells(self) -> List[ScenarioSpec]:
        return self.sweep().cells()

    def __len__(self) -> int:
        return len(self.cells())


# ----------------------------------------------------------------------
# Cell execution.


def _projection(result) -> Dict[str, Any]:
    """JSON-safe engine-comparison projection of a ProtocolRunResult."""
    return {
        "outputs": {
            str(node): getattr(output, "value", output)
            for node, output in sorted(result.outputs.items())
        },
        "runtime_seconds": result.runtime_seconds,
        "events_processed": result.events_processed,
        "message_count": result.message_count,
        "megabytes": result.total_megabytes,
        "decided": sorted(result.outputs),
        "honest": list(result.honest_nodes),
        "byzantine": list(result.byzantine_nodes),
    }


@dataclass
class EngineOutcome:
    """One engine's verdict for one cell."""

    engine: str
    status: str  # "ok" | "stalled" | "violation"
    projection: Optional[Dict[str, Any]] = None
    violation: Optional[Dict[str, Any]] = None
    #: ``events_seen`` and ``trace_tail`` of a violating run, for its bundle.
    trace: Optional[Dict[str, Any]] = None
    margins: Dict[str, float] = field(default_factory=dict)
    margin_ratios: Dict[str, float] = field(default_factory=dict)

    def comparable(self) -> Tuple[str, Any, Any]:
        """What engine equivalence is asserted over (margins included: they
        derive purely from the observer stream, so they must match too)."""
        if self.violation is not None:
            return (
                self.status,
                (self.violation["monitor"], self.violation["detail"]),
                self.margins,
            )
        return (self.status, self.projection, self.margins)


def run_cell_engine(
    spec: ScenarioSpec,
    engine: str,
    extra_byzantine: Optional[Dict[int, Any]] = None,
    extra_observers: Optional[Sequence[Any]] = None,
) -> EngineOutcome:
    """Run one fault cell on one engine with monitors + trace recorder.

    ``extra_byzantine`` lets tests inject strategies directly (on top of the
    spec's own fault plan) — e.g. deliberately invariant-breaking ones.
    ``extra_observers`` attaches additional :class:`SimObserver` instances
    (the adversarial-schedule search uses a :class:`ScheduleDigest` here).
    """
    from repro.experiments.cells import build_inputs, run_spec

    inputs = build_inputs(spec)
    corrupted = set(scenario_corrupted_ids(spec)) | set(extra_byzantine or {})
    honest_inputs = [
        inputs[node] for node in range(spec.n) if node not in corrupted
    ] or list(inputs)
    fault_spec = fault_spec_of(spec) or FaultSpec()
    expect_termination = fault_spec.terminating() and not extra_byzantine
    recorder = TraceRecorder(limit=TRACE_TAIL_LIMIT)
    monitors = build_monitors(
        spec, honest_inputs, expect_termination=expect_termination
    )
    try:
        result, _derived = run_spec(
            spec,
            inputs,
            config=SimulationConfig(engine=engine),
            observers=[recorder, *monitors, *(extra_observers or [])],
            extra_byzantine=extra_byzantine,
        )
    except InvariantViolation as violation:
        detail = {
            "monitor": violation.monitor,
            "detail": violation.detail,
            "time": violation.time,
            "node": violation.node,
        }
        channels = collect_margins(monitors)
        return EngineOutcome(
            engine=engine,
            status="violation",
            violation=detail,
            trace={"events_seen": recorder.events_seen, "trace_tail": recorder.tail()},
            margins=channels["margins"],
            margin_ratios=channels["ratios"],
        )
    status = "ok" if result.all_decided else "stalled"
    channels = collect_margins(monitors)
    return EngineOutcome(
        engine=engine,
        status=status,
        projection=_projection(result),
        margins=channels["margins"],
        margin_ratios=channels["ratios"],
    )


@dataclass
class CellVerdict:
    """The complete verdict for one campaign cell (both engines)."""

    spec: ScenarioSpec
    fast: EngineOutcome
    reference: EngineOutcome
    bundle_path: Optional[str] = None

    @property
    def equivalent(self) -> bool:
        return self.fast.comparable() == self.reference.comparable()

    @property
    def status(self) -> str:
        if not self.equivalent:
            return "engine-mismatch"
        return self.fast.status

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "label": self.spec.label,
            "spec_hash": self.spec.spec_hash(),
            "protocol": self.spec.protocol,
            "n": self.spec.n,
            "seed": self.spec.seed,
            "status": self.status,
            "equivalent": self.equivalent,
            "expect_termination": (fault_spec_of(self.spec) or FaultSpec()).terminating(),
        }
        entry["margins"] = dict(self.fast.margins)
        entry["margin_ratios"] = dict(self.fast.margin_ratios)
        if self.fast.projection is not None:
            projection = self.fast.projection
            entry["decided"] = len(projection["decided"])
            entry["honest"] = len(projection["honest"])
            entry["events_processed"] = projection["events_processed"]
            entry["runtime_seconds"] = projection["runtime_seconds"]
        # Surface whichever engine observed a violation — a reference-only
        # violation is exactly the fastpath-divergence case this subsystem
        # exists to diagnose, so it must not vanish from the verdict.
        violation = self.fast.violation or self.reference.violation
        if violation is not None:
            entry["violation"] = violation
            entry["violation_engine"] = (
                "fast" if self.fast.violation is not None else "reference"
            )
        if self.bundle_path is not None:
            entry["bundle"] = self.bundle_path
        return entry


@dataclass
class CampaignResult:
    """All cell verdicts of one campaign run, plus summary counters."""

    name: str
    verdicts: List[CellVerdict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.verdicts)

    @property
    def summary(self) -> Dict[str, int]:
        counts = {"cells": len(self.verdicts), "ok": 0, "stalled": 0, "violations": 0, "engine_mismatches": 0}
        for verdict in self.verdicts:
            if verdict.status == "ok":
                counts["ok"] += 1
            elif verdict.status == "stalled":
                counts["stalled"] += 1
            elif verdict.status == "violation":
                counts["violations"] += 1
            elif verdict.status == "engine-mismatch":
                counts["engine_mismatches"] += 1
        return counts

    @property
    def passed(self) -> bool:
        """A campaign passes when no invariant was violated and the engines
        agreed everywhere.  ``stalled`` cells are acceptable: they only occur
        when the fault spec voids the liveness guarantee (e.g. loss windows)
        — a stall under guaranteed termination raises a violation instead."""
        summary = self.summary
        return summary["violations"] == 0 and summary["engine_mismatches"] == 0

    def best_margins(self, protocol: Optional[str] = None) -> Dict[str, float]:
        """The smallest margin observed per channel across the campaign's
        cells (optionally restricted to one protocol) — the fixed-matrix
        baseline the adversarial-schedule search has to beat."""
        best: Dict[str, float] = {}
        for verdict in self.verdicts:
            if protocol is not None and verdict.spec.protocol != protocol:
                continue
            for channel, value in verdict.fast.margins.items():
                if channel not in best or value < best[channel]:
                    best[channel] = value
        return best

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": FAULTS_SCHEMA,
            "campaign": self.name,
            "summary": self.summary,
            "passed": self.passed,
            "best_margins": {
                protocol: self.best_margins(protocol)
                for protocol in sorted({v.spec.protocol for v in self.verdicts})
            },
            "cells": [verdict.as_dict() for verdict in self.verdicts],
        }

    def write_json(self, path: str) -> Path:
        """Write the verdict artifact and return its path."""
        return write_json(path, self.to_payload())


def run_fault_cell(spec: ScenarioSpec, bundle_dir: Optional[str] = None) -> CellVerdict:
    """Run one cell on both engines, compare them, and persist any bundle."""
    fast = run_cell_engine(spec, "fast")
    reference = run_cell_engine(spec, "reference")
    verdict = CellVerdict(spec=spec, fast=fast, reference=reference)
    if bundle_dir is not None:
        # Persist every engine's bundle: when only the reference engine
        # violated (an engine divergence), its bundle is the sole repro.
        for outcome in (fast, reference):
            if outcome.violation is None:
                continue
            pin = make_pin(
                spec,
                spec.label,
                status="violation",
                violation={**outcome.violation, "engine": outcome.engine},
                **(outcome.trace or {}),
            )
            bundle_path = write_pins(
                Path(bundle_dir) / f"VIOLATION_{spec.spec_hash()}_{outcome.engine}.json",
                [pin],
            )
            if verdict.bundle_path is None:
                verdict.bundle_path = str(bundle_path)
    return verdict


def run_campaign(
    campaign: FaultCampaign,
    bundle_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Execute every cell of ``campaign`` and return the aggregate result."""
    say = progress or (lambda message: None)
    cells = campaign.cells()
    result = CampaignResult(name=campaign.name)
    for index, spec in enumerate(cells):
        say(
            f"[faults] [{index + 1}/{len(cells)}] {spec.label} "
            f"protocol={spec.protocol} n={spec.n} seed={spec.seed}"
        )
        verdict = run_fault_cell(spec, bundle_dir=bundle_dir)
        if verdict.status != "ok":
            say(f"[faults]   -> {verdict.status}")
        result.verdicts.append(verdict)
    return result


# ----------------------------------------------------------------------
# Pins: a spec plus what replaying it must show.


def make_pin(spec: ScenarioSpec, label: str, **fields: Any) -> Dict[str, Any]:
    """A pin for ``spec``.  Replay reads ``status`` (default ``"ok"``),
    ``margins`` and ``violation`` (``monitor``, ``detail``, ``engine``) from
    ``fields``; any other field, ``spec_hash`` included, is provenance."""
    return {
        "label": label, "spec": spec.to_dict(), "spec_hash": spec.spec_hash(), **fields
    }


def pin_hash(pin: Mapping[str, Any]) -> str:
    """What identifies a pin's schedule: its spec's hash, derived afresh."""
    return ScenarioSpec.from_dict(pin["spec"]).spec_hash()


def load_pins(path: str) -> List[Dict[str, Any]]:
    """The pins in a pin file; an absent file holds none."""
    target = Path(path)
    if not target.exists():
        return []
    data = json.loads(target.read_text())
    if data.get("schema") != PINS_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a pin file (schema {data.get('schema')!r})"
        )
    return list(data["entries"])


def write_pins(path: str, pins: Sequence[Mapping[str, Any]]) -> Path:
    """Write a pin file, deduplicated by spec hash and sorted for stable diffs."""
    unique = {pin_hash(pin): pin for pin in pins}
    ordered = [unique[key] for key in sorted(unique, key=lambda k: (unique[k]["label"], k))]
    return write_json(path, {"schema": PINS_SCHEMA, "entries": ordered})


def replay_pin(pin: Mapping[str, Any]) -> Tuple[CellVerdict, List[str]]:
    """Re-run a pin on both engines and list how the replay departs from it.

    A recorded ``violation`` must recur, same monitor and same detail, on
    its recorded engine.  Any other pin must replay equivalent on both
    engines with its recorded ``status`` and, if it records ``margins``,
    exactly those margins on the fast engine.  Runs are deterministic, so
    any problem means the pin no longer describes the code.
    """
    verdict = run_fault_cell(ScenarioSpec.from_dict(pin["spec"]))
    problems: List[str] = []
    recorded = pin.get("violation")
    if recorded is not None:
        engine = recorded["engine"]
        replayed = (verdict.fast if engine == "fast" else verdict.reference).violation
        if replayed is None:
            problems.append(
                f"recorded {recorded['monitor']!r} violation no longer reproduces "
                f"on the {engine} engine (replay status: {verdict.status})"
            )
        elif any(replayed[key] != recorded[key] for key in ("monitor", "detail")):
            problems.append(
                f"replay violated {replayed['monitor']!r} ({replayed['detail']}) but "
                f"the pin recorded {recorded['monitor']!r} ({recorded['detail']})"
            )
        return verdict, problems
    if not verdict.equivalent:
        problems.append("engines diverged on replay")
    status = pin.get("status", "ok")
    if verdict.status != status:
        problems.append(f"status drifted: recorded {status!r}, replayed {verdict.status!r}")
    if "margins" in pin:
        margins = {channel: float(value) for channel, value in pin["margins"].items()}
        if dict(verdict.fast.margins) != margins:
            problems.append(
                f"margins drifted: recorded {margins}, replayed {dict(verdict.fast.margins)}"
            )
    return verdict, problems


# ----------------------------------------------------------------------
# Campaign presets.


def _base_scenario() -> ScenarioSpec:
    return ScenarioSpec(testbed="lan", workload="spread", delta=4.0, centre=100.0, max_rounds=4)


def _common_cases() -> List[FaultCase]:
    return [
        FaultCase("baseline", FaultSpec()),
        FaultCase(
            "crash-static",
            FaultSpec(corruptions=(CorruptionSpec("crash"),)),
        ),
        FaultCase(
            "crash-adaptive",
            FaultSpec(
                corruptions=(CorruptionSpec("crash", activation_time=0.05),)
            ),
        ),
        FaultCase(
            "delay-holdback",
            FaultSpec(corruptions=(CorruptionSpec("delay"),)),
        ),
        FaultCase(
            "partition-heal",
            FaultSpec(
                partitions=(
                    PartitionWindow(start=0.0, end=0.05, groups=((0,),)),
                )
            ),
        ),
        FaultCase(
            "targeted-delay",
            FaultSpec(
                delays=(DelayWindow(start=0.0, end=0.2, extra=0.05, receivers=(0,)),)
            ),
        ),
        FaultCase(
            "loss-window",
            FaultSpec(losses=(LossWindow(start=0.0, end=0.02, probability=0.2),)),
        ),
    ]


def tiny_campaign() -> FaultCampaign:
    """Two-cell-per-case campaign used by tests and ultra-fast CI checks."""
    return FaultCampaign(
        name="tiny",
        base=_base_scenario(),
        protocols=("delphi",),
        sizes=(4,),
        cases=[case for case in _common_cases() if case.label in ("baseline", "crash-static")],
        seeds=(0,),
        description="minimal matrix for tests: delphi n=4, baseline + crash",
    )


def smoke_campaign() -> FaultCampaign:
    """The committed CI matrix: protocol × fault case × schedule × n."""
    return FaultCampaign(
        name="smoke",
        base=_base_scenario(),
        protocols=("delphi", "fin"),
        sizes=(4, 7),
        cases=_common_cases(),
        seeds=(0,),
        description="delphi+fin, n in {4,7}, all fault cases, both engines",
    )


def sharded_campaign() -> FaultCampaign:
    """Two-level sharded-Delphi matrix: Byzantine representatives and
    whole-group partitions on top of the common baseline.

    The representative-targeting cases pin explicit node ids (the elected
    reps depend on the topology seed, not the highest-ids convention).  A
    crashed representative stalls its group *and* the inter-group round —
    no honest node decides a wrong value, but liveness is lost, so those
    cells set ``expect_termination=False`` and must come back "stalled"
    with clean margins.  A delaying representative and an in-budget member
    crash must still terminate; so must a healed whole-group partition.
    """
    n = 12
    group_size = 4
    topology = ShardedTopology(n, group_size=group_size, seed=0)
    reps = topology.representatives
    cases = [
        FaultCase("baseline", FaultSpec()),
        FaultCase(
            "rep-crash",
            FaultSpec(
                corruptions=(CorruptionSpec("crash", nodes=(reps[0],)),),
                expect_termination=False,
            ),
        ),
        FaultCase(
            # The holdback strategy keeps its last batches queued forever,
            # so a delaying representative starves its group of the FINAL
            # fan-down: the other groups decide, this one stalls.  Clean
            # margins, no termination guarantee.
            "rep-delay-holdback",
            FaultSpec(
                corruptions=(CorruptionSpec("delay", nodes=(reps[1],)),),
                expect_termination=False,
            ),
        ),
        FaultCase(
            "members-crash-in-budget",
            FaultSpec(
                corruptions=(
                    CorruptionSpec(
                        "crash", nodes=topology.safe_corrupted_ids(2)
                    ),
                ),
            ),
        ),
        FaultCase(
            "group-partition-heal",
            FaultSpec(
                partitions=(
                    PartitionWindow(
                        start=0.0, end=0.05, groups=(topology.groups[1],)
                    ),
                )
            ),
        ),
    ]
    return FaultCampaign(
        name="sharded",
        base=_base_scenario().replace(group_size=group_size),
        protocols=("sharded-delphi",),
        sizes=(n,),
        cases=cases,
        seeds=(0,),
        description=(
            "sharded-delphi n=12 (3 groups of 4): Byzantine reps, in-budget "
            "member crashes, whole-group partition"
        ),
    )


def full_campaign() -> FaultCampaign:
    """The larger overnight matrix (more protocols, sizes and seeds)."""
    return FaultCampaign(
        name="full",
        base=_base_scenario(),
        protocols=("delphi", "dora", "fin", "hbbft"),
        sizes=(4, 7, 10),
        cases=_common_cases(),
        seeds=(0, 1, 2),
        description="delphi/dora/fin/hbbft, n in {4,7,10}, 3 seeds per cell",
    )


#: Registry of named campaigns for the CLI.
CAMPAIGNS: Dict[str, Tuple[Callable[[], FaultCampaign], str]] = {
    "tiny": (tiny_campaign, "minimal matrix for tests (delphi n=4)"),
    "smoke": (smoke_campaign, "CI matrix: delphi+fin x faults x {4,7}"),
    "sharded": (
        sharded_campaign,
        "two-level matrix: sharded-delphi x {byz reps, group partition}",
    ),
    "full": (full_campaign, "overnight matrix: 4 protocols x faults x sizes x seeds"),
}


def campaign(name: str) -> FaultCampaign:
    """Look up a registered campaign by name."""
    try:
        factory, _description = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise ConfigurationError(f"unknown campaign {name!r} (known: {known})")
    return factory()


def list_campaigns() -> List[Tuple[str, str, int]]:
    """(name, description, cell count) rows for the CLI listing."""
    return [
        (name, description, len(factory()))
        for name, (factory, description) in sorted(CAMPAIGNS.items())
    ]
