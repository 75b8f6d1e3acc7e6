"""Coverage-guided adversarial-schedule search over fault specs.

The fixed :mod:`repro.faults.campaign` matrices answer "do these known fault
shapes break an invariant?".  This module answers the harder question the
paper's schedule-dependent claims need: *how close can any schedule get?*
It runs a deterministic, seeded mutation search whose fitness signal is the
monitors' margin channels (:func:`repro.faults.monitors.collect_margins`):

* ``epsilon_margin`` — smallest observed ``epsilon - spread`` over honest
  decision pairs (epsilon-agreement headroom);
* ``hull_distance`` — closest any honest output came to the validity-hull
  boundary;
* ``termination_slack`` — decision-time straggler ratio (1 = simultaneous,
  towards 0 = one node barely decided, 0 = stall).

Mutators perturb :class:`~repro.faults.spec.FaultSpec` fields (corruption
strategy/count/activation, partition/delay/loss windows), the run seed (which
drives latency sampling and delivery tiebreaks), the workload, testbed and
system size.  Runs that *almost* violate an invariant — low normalised margin
or a never-seen :class:`~repro.sim.observers.ScheduleDigest` — are kept and
mutated further.  Any violation or retained near-miss is greedily shrunk
before it is reported or promoted, as a pin
(:func:`~repro.faults.campaign.make_pin`), into the persistent corpus
(``tests/data/adversarial_corpus.json``), which tier-1 replays on both
engines.

Everything is deterministic given the search seed: same seed → byte-identical
leaderboard payload.  No wall clocks, no unseeded randomness, no sets
iterated into output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ScenarioSpec
from repro.faults.campaign import make_pin, run_cell_engine
from repro.faults.spec import CorruptionSpec, FaultSpec, fault_spec_of
from repro.net.network import DelayWindow, LossWindow, PartitionWindow, write_json
from repro.protocols.base import byzantine_bound
from repro.protocols.registry import HIERARCHICAL_AGREEMENT, PROTOCOLS, get_protocol
from repro.sim.observers import ScheduleDigest

#: Schema tag of the fuzz leaderboard artifact.
FUZZ_SCHEMA = "repro-fuzz/1"

#: Search grids.  Values are drawn from fixed lattices so mutated specs stay
#: JSON-clean and the shrinker's simplifications land on grid points too.
WORKLOADS = ("spread", "bitcoin", "sensors", "normal")
TESTBEDS = ("lan", "aws")
RUN_SEEDS = tuple(range(48))
SIZES = (4, 5, 7)
STRATEGIES = ("crash", "delay", "equivocate", "random-bit", "spam")
ACTIVATIONS = (0.0, 0.02, 0.05, 0.1)
WINDOW_STARTS = (0.0, 0.02, 0.05, 0.1)
WINDOW_SPANS = (0.02, 0.05, 0.1, 0.2)
DELAY_EXTRAS = (0.02, 0.05, 0.08)
LOSS_PROBABILITIES = (0.1, 0.2, 0.3)
POISON_OFFSETS = (-16.0, -8.0, -4.0, 4.0, 8.0, 16.0)
#: ``FaultSpec`` fields holding network-fault windows, in mutation order.
WINDOW_KINDS = ("partitions", "delays", "losses")

#: Evaluations kept per protocol population, shrink runs per search, and
#: schedules per protocol on the leaderboard.
MAX_POPULATION = 24
MAX_SHRINK_RUNS = 120
LEADERBOARD_SIZE = 5


# ----------------------------------------------------------------------
# Mutators.  Each is a pure function (rng, spec) -> spec drawing randomness
# only from the passed ``random.Random``; inapplicable mutators return the
# spec unchanged so the driver can simply try another.


def _faults_of(spec: ScenarioSpec) -> FaultSpec:
    return fault_spec_of(spec) or FaultSpec()


def _with_faults(spec: ScenarioSpec, faults: FaultSpec) -> ScenarioSpec:
    return spec.replace(faults=faults.to_dict())


def _without(faults: FaultSpec, kind: str, index: int) -> FaultSpec:
    """``faults`` minus entry ``index`` of its tuple field ``kind``."""
    entries = getattr(faults, kind)
    return replace(faults, **{kind: entries[:index] + entries[index + 1 :]})


def _budget_used(faults: FaultSpec, n: int) -> int:
    return sum(corruption.resolved_count(n) for corruption in faults.corruptions)


def _trim_to_budget(faults: FaultSpec, n: int) -> FaultSpec:
    """Drop trailing corruption groups until the ``t`` budget holds."""
    groups = list(faults.corruptions)
    while groups and sum(g.resolved_count(n) for g in groups) > byzantine_bound(n):
        groups.pop()
    if len(groups) == len(faults.corruptions):
        return faults
    return replace(faults, corruptions=tuple(groups))


def _mut_reseed(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    return spec.replace(seed=rng.choice(RUN_SEEDS))


def _mut_workload(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    return spec.replace(workload=rng.choice(WORKLOADS))


def _mut_testbed(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    return spec.replace(testbed=rng.choice(TESTBEDS))


def _mut_resize(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    n = rng.choice(SIZES)
    faults = _trim_to_budget(_faults_of(spec), n)
    return _with_faults(spec.replace(n=n), faults)


def _mut_add_corruption(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    if _budget_used(faults, spec.n) + 1 > byzantine_bound(spec.n):
        return spec
    strategy = rng.choice(STRATEGIES)
    group = CorruptionSpec(
        strategy=strategy, count=1, activation_time=rng.choice(ACTIVATIONS)
    )
    return _with_faults(
        spec, replace(faults, corruptions=faults.corruptions + (group,))
    )


def _mut_poison_value(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    """Add (or re-value) a poison-input corruption — delphi only."""
    if spec.protocol != "delphi":
        return spec
    faults = _faults_of(spec)
    value = spec.centre + rng.choice(POISON_OFFSETS) * max(spec.delta, 1.0) / 4.0
    groups = list(faults.corruptions)
    for index, group in enumerate(groups):
        if group.strategy == "poison-input":
            groups[index] = replace(group, options={"value": value})
            break
    else:
        if _budget_used(faults, spec.n) + 1 > byzantine_bound(spec.n):
            return spec
        groups.append(
            CorruptionSpec(strategy="poison-input", count=1, options={"value": value})
        )
    return _with_faults(spec, replace(faults, corruptions=tuple(groups)))


def _mut_drop_corruption(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    if not faults.corruptions:
        return spec
    index = rng.randrange(len(faults.corruptions))
    return _with_faults(spec, _without(faults, "corruptions", index))


def _mut_retime_corruption(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    if not faults.corruptions:
        return spec
    groups = list(faults.corruptions)
    index = rng.randrange(len(groups))
    groups[index] = replace(groups[index], activation_time=rng.choice(ACTIVATIONS))
    return _with_faults(spec, replace(faults, corruptions=tuple(groups)))


def _mut_add_delay(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    start = rng.choice(WINDOW_STARTS)
    window = DelayWindow(
        start=start,
        end=start + rng.choice(WINDOW_SPANS),
        extra=rng.choice(DELAY_EXTRAS),
        receivers=(rng.randrange(spec.n),) if rng.random() < 0.7 else None,
    )
    return _with_faults(spec, replace(faults, delays=faults.delays + (window,)))


def _mut_add_partition(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    start = rng.choice(WINDOW_STARTS[:3])
    window = PartitionWindow(
        start=start,
        end=start + rng.choice(WINDOW_SPANS[:2]),
        groups=((rng.randrange(spec.n),),),
        heal_delay=rng.choice((0.0, 0.01)),
    )
    return _with_faults(spec, replace(faults, partitions=faults.partitions + (window,)))


def _mut_add_loss(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    start = rng.choice(WINDOW_STARTS[:2])
    window = LossWindow(
        start=start,
        end=start + rng.choice(WINDOW_SPANS[:2]),
        probability=rng.choice(LOSS_PROBABILITIES),
    )
    return _with_faults(spec, replace(faults, losses=faults.losses + (window,)))


def _mut_drop_window(rng: random.Random, spec: ScenarioSpec) -> ScenarioSpec:
    faults = _faults_of(spec)
    kinds = [kind for kind in WINDOW_KINDS if getattr(faults, kind)]
    if not kinds:
        return spec
    kind = kinds[rng.randrange(len(kinds))]
    return _with_faults(
        spec, _without(faults, kind, rng.randrange(len(getattr(faults, kind))))
    )


#: Ordered mutator registry — the order is part of the deterministic contract.
MUTATORS: Tuple[Tuple[str, Callable[[random.Random, ScenarioSpec], ScenarioSpec]], ...] = (
    ("reseed", _mut_reseed),
    ("workload", _mut_workload),
    ("testbed", _mut_testbed),
    ("resize", _mut_resize),
    ("add-corruption", _mut_add_corruption),
    ("poison-value", _mut_poison_value),
    ("drop-corruption", _mut_drop_corruption),
    ("retime-corruption", _mut_retime_corruption),
    ("add-delay", _mut_add_delay),
    ("add-partition", _mut_add_partition),
    ("add-loss", _mut_add_loss),
    ("drop-window", _mut_drop_window),
)


def mutate(rng: random.Random, spec: ScenarioSpec, attempts: int = 4) -> ScenarioSpec:
    """Apply one randomly chosen mutator; retry until the spec changes."""
    for _ in range(attempts):
        _name, mutator = MUTATORS[rng.randrange(len(MUTATORS))]
        mutated = mutator(rng, spec)
        if mutated.spec_hash() != spec.spec_hash():
            return mutated
    return spec


# ----------------------------------------------------------------------
# Evaluation.


@dataclass(frozen=True)
class Evaluation:
    """One engine run of one candidate schedule, with its fitness signal."""

    spec: ScenarioSpec
    status: str
    margins: Mapping[str, float]
    ratios: Mapping[str, float]
    violation: Optional[Mapping[str, Any]]
    digest: str

    @property
    def fitness(self) -> float:
        """Lower is more adversarial; violations rank below every margin."""
        if self.violation is not None:
            return -1.0
        if not self.ratios:
            return 1.0
        return min(self.ratios.values())

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "protocol": self.spec.protocol,
            "n": self.spec.n,
            "seed": self.spec.seed,
            "workload": self.spec.workload,
            "status": self.status,
            "fitness": self.fitness,
            "margins": dict(self.margins),
            "ratios": dict(self.ratios),
            "digest": self.digest,
        }
        if self.violation is not None:
            entry["violation"] = dict(self.violation)
        return entry


# ----------------------------------------------------------------------
# The search engine.


def _base_spec(protocol: str) -> ScenarioSpec:
    """Per-protocol starting point — mirrors the fixed campaigns' base cell
    so fuzz margins are directly comparable to the smoke-matrix baseline."""
    spec = ScenarioSpec(
        protocol=protocol,
        n=4,
        testbed="lan",
        workload="spread",
        delta=4.0,
        centre=100.0,
        max_rounds=4,
        seed=0,
    )
    if PROTOCOLS[protocol].agreement == HIERARCHICAL_AGREEMENT:
        # Two-level protocols need at least two groups to exercise the
        # representative round; the resize mutator keeps the group size.
        spec = spec.replace(n=8, group_size=4)
    return spec


@dataclass
class FuzzResult:
    """Everything one search run produced, JSON-safe and deterministic."""

    seed: int
    budget: int
    protocols: Tuple[str, ...]
    min_margin: float
    engine: str
    runs: int = 0
    cache_hits: int = 0
    shrink_runs: int = 0
    best_margins: Dict[str, Dict[str, float]] = field(default_factory=dict)
    best_ratios: Dict[str, Dict[str, float]] = field(default_factory=dict)
    baseline_margins: Dict[str, Dict[str, float]] = field(default_factory=dict)
    leaderboard: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    corpus_candidates: List[Dict[str, Any]] = field(default_factory=list)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": FUZZ_SCHEMA,
            "seed": self.seed,
            "budget": self.budget,
            "protocols": list(self.protocols),
            "min_margin": self.min_margin,
            "engine": self.engine,
            "runs": self.runs,
            "cache_hits": self.cache_hits,
            "shrink_runs": self.shrink_runs,
            "baseline_margins": self.baseline_margins,
            "best_margins": self.best_margins,
            "best_ratios": self.best_ratios,
            "leaderboard": self.leaderboard,
            "violations": self.violations,
            "corpus_candidates": self.corpus_candidates,
        }

    def write_json(self, path: str) -> Path:
        return write_json(path, self.to_payload())


class ScheduleSearch:
    """Deterministic coverage-guided mutation search over fault schedules."""

    def __init__(
        self,
        protocols: Sequence[str] = ("delphi", "fin"),
        budget: int = 200,
        seed: int = 0,
        min_margin: float = 0.9,
        engine: str = "fast",
        corpus: Sequence[Mapping[str, Any]] = (),
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if budget < 1:
            raise ConfigurationError(f"fuzz budget must be >= 1, got {budget}")
        if not protocols:
            raise ConfigurationError("fuzz needs at least one protocol")
        for protocol in protocols:
            get_protocol(protocol)  # raises on an unknown name
        self.protocols = tuple(protocols)
        self.budget = budget
        self.seed = seed
        self.min_margin = min_margin
        self.engine = engine
        self.corpus = list(corpus)
        self.progress = progress or (lambda message: None)
        self.rng = random.Random(seed)
        self.runs = 0
        self.cache_hits = 0
        self.shrink_runs = 0
        self._cache: Dict[str, Evaluation] = {}
        self._seen_digests: Dict[str, str] = {}
        # per-protocol population + per-(protocol, channel) best ratios
        self._population: Dict[str, List[Evaluation]] = {p: [] for p in self.protocols}
        self._best_ratio: Dict[Tuple[str, str], float] = {}
        self._best_eval: Dict[Tuple[str, str], Evaluation] = {}
        self.violations: List[Evaluation] = []

    # ------------------------------------------------------------------
    def evaluate(self, spec: ScenarioSpec, count_budget: bool = True) -> Evaluation:
        """Run one candidate on the search engine (cached by spec hash)."""
        key = spec.spec_hash()
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        digest_observer = ScheduleDigest()
        outcome = run_cell_engine(spec, self.engine, extra_observers=[digest_observer])
        evaluation = Evaluation(
            spec=spec,
            status=outcome.status,
            margins=dict(outcome.margins),
            ratios=dict(outcome.margin_ratios),
            violation=None if outcome.violation is None else dict(outcome.violation),
            digest=digest_observer.digest,
        )
        self._cache[key] = evaluation
        if count_budget:
            self.runs += 1
        else:
            self.shrink_runs += 1
        return evaluation

    # ------------------------------------------------------------------
    def _record(self, evaluation: Evaluation) -> bool:
        """Fold an evaluation into bests/population; True if it was kept."""
        protocol = evaluation.spec.protocol
        improved = False
        for channel, ratio in sorted(evaluation.ratios.items()):
            key = (protocol, channel)
            if key not in self._best_ratio or ratio < self._best_ratio[key]:
                self._best_ratio[key] = ratio
                self._best_eval[key] = evaluation
                improved = True
        if evaluation.violation is not None:
            self.violations.append(evaluation)
            improved = True
        novel = evaluation.digest not in self._seen_digests
        self._seen_digests.setdefault(evaluation.digest, evaluation.spec.spec_hash())
        keep = improved or (novel and evaluation.fitness < self.min_margin)
        if keep:
            population = self._population[protocol]
            population.append(evaluation)
            if len(population) > MAX_POPULATION:
                worst = max(range(len(population)), key=lambda i: population[i].fitness)
                population.pop(worst)
        return keep

    def _pick_parent(self) -> Evaluation:
        """Pick a protocol uniformly, then a size-2 tournament within it.

        Uniform protocol choice matters: fitness scales are not comparable
        across protocols (binary-output protocols legitimately sit at the
        hull boundary, margin 0), so a shared pool would starve the others.
        """
        pools = [p for p in self._population.values() if p]
        pool = pools[self.rng.randrange(len(pools))]
        first = pool[self.rng.randrange(len(pool))]
        second = pool[self.rng.randrange(len(pool))]
        return first if first.fitness <= second.fitness else second

    # ------------------------------------------------------------------
    def _shrink_variants(self, spec: ScenarioSpec) -> List[ScenarioSpec]:
        """Candidate simplifications, most aggressive first (deterministic)."""
        variants: List[ScenarioSpec] = []
        faults = _faults_of(spec)
        for kind in ("corruptions",) + WINDOW_KINDS:
            for index in range(len(getattr(faults, kind))):
                variants.append(_with_faults(spec, _without(faults, kind, index)))
        for index, group in enumerate(faults.corruptions):
            if group.activation_time > 0.0:
                groups = list(faults.corruptions)
                groups[index] = replace(group, activation_time=0.0)
                variants.append(
                    _with_faults(spec, replace(faults, corruptions=tuple(groups)))
                )
        if spec.n > min(SIZES):
            variants.append(
                _with_faults(
                    spec.replace(n=min(SIZES)),
                    _trim_to_budget(faults, min(SIZES)),
                )
            )
        if spec.testbed != "lan":
            variants.append(spec.replace(testbed="lan"))
        if spec.seed != 0:
            variants.append(spec.replace(seed=0))
        if spec.workload != "spread":
            variants.append(spec.replace(workload="spread"))
        return variants

    def shrink(self, evaluation: Evaluation) -> Evaluation:
        """Greedily minimise a schedule while it stays as interesting.

        A violating schedule must keep violating the *same* monitor; a
        near-miss must keep its minimum normalised margin no worse than the
        original's.  Shrink runs are bounded by :data:`MAX_SHRINK_RUNS` and do
        not consume the search budget.
        """
        if evaluation.violation is not None:
            monitor = evaluation.violation["monitor"]

            def still_interesting(candidate: Evaluation) -> bool:
                return (
                    candidate.violation is not None
                    and candidate.violation["monitor"] == monitor
                )

        else:
            bar = evaluation.fitness

            def still_interesting(candidate: Evaluation) -> bool:
                return candidate.violation is None and candidate.fitness <= bar

        current = evaluation
        shrunk = True
        while shrunk and self.shrink_runs < MAX_SHRINK_RUNS:
            shrunk = False
            for variant in self._shrink_variants(current.spec):
                if self.shrink_runs >= MAX_SHRINK_RUNS:
                    break
                if variant.spec_hash() == current.spec.spec_hash():
                    continue
                try:
                    candidate = self.evaluate(variant, count_budget=False)
                except ConfigurationError:
                    continue
                if still_interesting(candidate):
                    current = candidate
                    shrunk = True
                    break
        return current

    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        """Execute the full search: seed → mutate → shrink → report."""
        result = FuzzResult(
            seed=self.seed,
            budget=self.budget,
            protocols=self.protocols,
            min_margin=self.min_margin,
            engine=self.engine,
        )
        # Seed the population: each protocol's base cell, then any committed
        # corpus entries for the selected protocols.
        seeds: List[ScenarioSpec] = [_base_spec(p) for p in self.protocols]
        for entry in self.corpus:
            spec = ScenarioSpec.from_dict(entry["spec"])
            if spec.protocol in self.protocols:
                seeds.append(spec)
        baseline: Dict[str, Dict[str, float]] = {}
        for spec in seeds:
            if self.runs >= self.budget:
                break
            evaluation = self.evaluate(spec)
            self._record(evaluation)
            if spec.workload == "spread" and not fault_spec_of(spec):
                baseline[spec.protocol] = dict(evaluation.margins)
            self.progress(
                f"[fuzz] seed {spec.protocol} n={spec.n}: fitness={evaluation.fitness:.4f}"
            )
        result.baseline_margins = baseline
        # Mutation loop.
        stall_guard = self.budget * 40
        iterations = 0
        while self.runs < self.budget and iterations < stall_guard:
            iterations += 1
            parent = self._pick_parent()
            mutant_spec = mutate(self.rng, parent.spec)
            if mutant_spec.spec_hash() in self._cache:
                self.cache_hits += 1
                continue
            evaluation = self.evaluate(mutant_spec)
            kept = self._record(evaluation)
            if evaluation.violation is not None:
                self.progress(
                    f"[fuzz] VIOLATION {evaluation.violation['monitor']} "
                    f"at run {self.runs}: {mutant_spec.label}"
                )
            elif kept:
                self.progress(
                    f"[fuzz] run {self.runs}/{self.budget}: kept "
                    f"{mutant_spec.protocol} fitness={evaluation.fitness:.4f}"
                )
        # Shrink violations first (they own the exit code), then the best
        # near-miss per (protocol, channel) that beat its protocol baseline.
        for violation in list(self.violations):
            shrunk = self.shrink(violation)
            result.violations.append(
                {**shrunk.as_dict(), "shrunk_from": violation.spec.spec_hash()}
            )
        for (protocol, channel), best in sorted(self._best_eval.items()):
            base_margin = baseline.get(protocol, {}).get(channel)
            margin = best.margins.get(channel)
            if best.violation is not None or margin is None:
                continue
            if base_margin is not None and not margin < base_margin:
                continue
            shrunk = self.shrink(best)
            # Shrinking preserves min fitness, not necessarily this channel's
            # margin — fall back to the unshrunk winner if the channel regressed.
            if shrunk.margins.get(channel, float("inf")) > margin:
                shrunk = best
            result.corpus_candidates.append(
                make_pin(
                    shrunk.spec,
                    f"{protocol}-{channel}",
                    status=shrunk.status,
                    margins=dict(shrunk.margins),
                    channel=channel,
                    origin=f"fuzz-seed-{self.seed}",
                    ratios=dict(shrunk.ratios),
                )
            )
            self.progress(
                f"[fuzz] corpus candidate {protocol}/{channel}: "
                f"margin {shrunk.margins.get(channel)}"
            )
        # Leaderboard: top near-misses per protocol by (fitness, spec_hash).
        for protocol in self.protocols:
            ranked = sorted(
                {e.spec.spec_hash(): e for e in self._population[protocol]}.values(),
                key=lambda e: (e.fitness, e.spec.spec_hash()),
            )
            for rank, evaluation in enumerate(ranked[:LEADERBOARD_SIZE], start=1):
                result.leaderboard.append({"rank": rank, **evaluation.as_dict()})
        result.runs = self.runs
        result.cache_hits = self.cache_hits
        result.shrink_runs = self.shrink_runs
        result.best_margins = {
            protocol: {
                channel: self._best_eval[(protocol, channel)].margins[channel]
                for (p, channel) in sorted(self._best_eval)
                if p == protocol and channel in self._best_eval[(protocol, channel)].margins
            }
            for protocol in self.protocols
        }
        result.best_ratios = {
            protocol: {
                channel: ratio
                for (p, channel), ratio in sorted(self._best_ratio.items())
                if p == protocol
            }
            for protocol in self.protocols
        }
        return result


def fuzz_schedules(
    protocols: Sequence[str] = ("delphi", "fin"),
    budget: int = 200,
    seed: int = 0,
    min_margin: float = 0.9,
    engine: str = "fast",
    corpus: Sequence[Mapping[str, Any]] = (),
    progress: Optional[Callable[[str], None]] = None,
    **kwargs: Any,
) -> FuzzResult:
    """Convenience wrapper: build a :class:`ScheduleSearch` and run it."""
    search = ScheduleSearch(
        protocols=protocols,
        budget=budget,
        seed=seed,
        min_margin=min_margin,
        engine=engine,
        corpus=corpus,
        progress=progress,
        **kwargs,
    )
    return search.run()
