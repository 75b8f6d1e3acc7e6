"""Declarative fault descriptions: corruption schedules + network faults.

A :class:`FaultSpec` describes everything a fault campaign can do to one
scenario, as plain JSON-safe data:

* **corruptions** — which Byzantine strategies run, on how many nodes, and
  *when* they activate (static from t=0, or adaptive mid-run via
  :class:`~repro.adversary.strategies.ScheduledStrategy`);
* **partitions / delays / losses** — the network-fault windows of
  :mod:`repro.net.network` themselves, handed as a
  :class:`~repro.net.network.NetworkFaultPlan` to the scenario's
  :class:`~repro.net.network.DeliveryPolicy`.

Because the spec is JSON-safe it rides inside ``ScenarioSpec.extras["faults"]``
and therefore composes with the existing :class:`~repro.experiments.spec.SweepSpec`
grids: fault cells hash, cache and parallelise exactly like any other cell.

Strategies are created through a registry (:data:`STRATEGY_FACTORIES`) so
tests and downstream code can :func:`register_strategy` their own behaviours
(including deliberately protocol-breaking ones used to prove the invariant
monitors fire).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.adversary.base import AdversaryStrategy
from repro.adversary.strategies import (
    BogusPayloadStrategy,
    CrashStrategy,
    DelayedHonestStrategy,
    EquivocatingStrategy,
    RandomBitStrategy,
    ScheduledStrategy,
    SpamStrategy,
)
from repro.domains import NON_NEGATIVE, domain
from repro.errors import ConfigurationError
from repro.net.network import (
    DelayWindow,
    JsonSpec,
    LossWindow,
    NetworkFaultPlan,
    PartitionWindow,
    optional_ids,
)
from repro.protocols.base import byzantine_bound

#: ``CorruptionSpec.count`` value meaning "the full t = (n-1)//3 budget".
FULL_BUDGET = -1


@dataclass(frozen=True)
class StrategyContext:
    """Everything a strategy factory may need to build one strategy."""

    node_id: int
    n: int
    t: int
    seed: int
    options: Mapping[str, Any]
    scenario: Any = None  # the enclosing ScenarioSpec, when available


StrategyFactory = Callable[[StrategyContext], AdversaryStrategy]


def _poison_input_strategy(ctx: StrategyContext) -> AdversaryStrategy:
    """An otherwise-honest Delphi node whose *input* is adversarial.

    The node follows the protocol exactly but starts from an attacker-chosen
    value (``options['value']``), probing the validity-hull boundary rather
    than the message layer.  Delphi-only: DORA's shared signature scheme
    is built in its protocol-table row, so an externally-built node cannot
    join that run.
    """
    from repro.adversary.base import HonestWithInput
    from repro.core.delphi import DelphiNode
    from repro.protocols.registry import delphi_parameters

    scenario = ctx.scenario
    if scenario is None or getattr(scenario, "protocol", None) != "delphi":
        raise ConfigurationError(
            "poison-input corruption requires a delphi scenario context"
        )
    value = float(ctx.options.get("value", 0.0))
    return HonestWithInput(
        DelphiNode(ctx.node_id, delphi_parameters(scenario), value=value)
    )


#: Registry of corruption strategies available to fault specs, by name.
STRATEGY_FACTORIES: Dict[str, StrategyFactory] = {
    "crash": lambda ctx: CrashStrategy(),
    "delay": lambda ctx: DelayedHonestStrategy(
        hold_back=int(ctx.options.get("hold_back", 3))
    ),
    "equivocate": lambda ctx: EquivocatingStrategy(
        flip_field=ctx.options.get("flip_field")
    ),
    "random-bit": lambda ctx: RandomBitStrategy(seed=ctx.seed + ctx.node_id),
    "spam": lambda ctx: SpamStrategy(copies=int(ctx.options.get("copies", 2))),
    "bogus-report": lambda ctx: BogusPayloadStrategy(
        protocol=str(ctx.options.get("protocol", "dora")),
        junk=ctx.options.get("junk", "bogus"),
    ),
    "poison-input": _poison_input_strategy,
}


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register (or replace) a corruption strategy factory under ``name``.

    Tests use this to inject deliberately invariant-breaking behaviours and
    check that the runtime monitors catch them.
    """
    STRATEGY_FACTORIES[name] = factory


@dataclass(frozen=True)
class CorruptionSpec(JsonSpec):
    """One group of corrupted nodes sharing a strategy and a schedule.

    ``count = FULL_BUDGET`` resolves to the cell's full ``(n-1)//3`` fault
    budget, so one spec can ride a sweep across system sizes.
    ``activation_time > 0`` makes the corruption *adaptive*: the nodes behave
    honestly until that simulated time.
    ``nodes`` pins the corruption to explicit node ids instead of the
    highest-ids convention — sharded fault cells use it to target elected
    representatives (whose ids depend on the topology seed).  When set, it
    overrides ``count``.
    """

    strategy: str = "crash"
    count: int = FULL_BUDGET
    activation_time: float = 0.0
    options: Mapping[str, Any] = field(default_factory=dict)
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self._coerce(
            strategy=str,
            count=domain("[0, inf) or FULL_BUDGET", lambda x: x >= FULL_BUDGET, int),
            activation_time=NON_NEGATIVE,
            options=dict,
            nodes=optional_ids,
        )
        if self.nodes is not None and len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError(
                f"corruption nodes contain duplicates: {self.nodes}"
            )

    def resolved_count(self, n: int) -> int:
        if self.nodes is not None:
            return len(self.nodes)
        if self.count == FULL_BUDGET:
            return byzantine_bound(n)
        return self.count

    def resolved_nodes(self, n: int, taken: "set[int]") -> List[int]:
        """The node ids this group corrupts, honouring explicit targets.

        ``taken`` holds ids claimed by earlier groups; implicit groups keep
        the historical highest-ids-first convention, skipping claimed ids.
        """
        if self.nodes is not None:
            for node in self.nodes:
                if not 0 <= node < n:
                    raise ConfigurationError(
                        f"corruption node {node} outside [0, {n})"
                    )
                if node in taken:
                    raise ConfigurationError(
                        f"corruption node {node} claimed by multiple groups"
                    )
            return list(self.nodes)
        ids: List[int] = []
        next_id = n - 1
        for _ in range(self.resolved_count(n)):
            while next_id >= 0 and next_id in taken:
                next_id -= 1
            if next_id < 0:
                raise ConfigurationError(
                    f"fault spec corrupts more than n={n} nodes"
                )
            ids.append(next_id)
            next_id -= 1
        return ids


@dataclass(frozen=True)
class FaultSpec(JsonSpec):
    """A complete fault configuration for one scenario cell.

    Attributes
    ----------
    corruptions:
        Corruption groups (strategy, node count, activation schedule).
    partitions, delays, losses:
        Network-fault windows, handed to the delivery policy as a
        :class:`~repro.net.network.NetworkFaultPlan`.
    allow_over_budget:
        Permit corrupting more than ``(n-1)//3`` nodes.  Off by default —
        exceeding the budget voids the paper's guarantees, which is exactly
        what monitor-demonstration tests use it for.
    expect_termination:
        Overrides the derived liveness expectation; ``None`` derives it
        (termination is *not* expected when loss windows may drop messages,
        or when the corruption budget is exceeded).
    """

    corruptions: Tuple[CorruptionSpec, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    delays: Tuple[DelayWindow, ...] = ()
    losses: Tuple[LossWindow, ...] = ()
    allow_over_budget: bool = False
    expect_termination: Optional[bool] = None

    # ------------------------------------------------------------------
    @property
    def has_network_faults(self) -> bool:
        return bool(self.partitions or self.delays or self.losses)

    def network_plan(self) -> Optional[NetworkFaultPlan]:
        """The runtime fault plan for the delivery policy (or ``None``)."""
        if not self.has_network_faults:
            return None
        return NetworkFaultPlan(self.partitions, self.delays, self.losses)

    def _assignments(self, n: int) -> List[Tuple[CorruptionSpec, List[int]]]:
        """Per-group corrupted-node assignment: explicit ``nodes`` targets
        claim their ids first, then implicit groups fill highest ids first
        in one contiguous block per group (matching the existing
        ``num_byzantine`` convention of the experiment cells), skipping any
        explicitly claimed id."""
        taken: set = set()
        resolved: Dict[int, List[int]] = {}
        for explicit in (True, False):
            for index, corruption in enumerate(self.corruptions):
                if (corruption.nodes is not None) is explicit:
                    ids = corruption.resolved_nodes(n, taken)
                    taken.update(ids)
                    resolved[index] = ids
        total = sum(len(ids) for ids in resolved.values())
        if not self.allow_over_budget and total > byzantine_bound(n):
            raise ConfigurationError(
                f"fault spec corrupts {total} nodes, exceeding the "
                f"t={byzantine_bound(n)} budget for n={n} "
                "(set allow_over_budget=True to explore beyond the model)"
            )
        return [
            (corruption, resolved[index])
            for index, corruption in enumerate(self.corruptions)
        ]

    def corrupted_ids(self, n: int) -> List[int]:
        """Deterministic corrupted-node assignment (see :meth:`_assignments`)."""
        ids: List[int] = []
        for _, group_ids in self._assignments(n):
            ids.extend(group_ids)
        return ids

    def build_strategies(
        self, n: int, seed: int = 0, scenario: Any = None
    ) -> Dict[int, AdversaryStrategy]:
        """Instantiate the per-node strategy map for the simulation runtime."""
        t = byzantine_bound(n)
        assignment: Dict[int, AdversaryStrategy] = {}
        for corruption, group_ids in self._assignments(n):
            try:
                factory = STRATEGY_FACTORIES[corruption.strategy]
            except KeyError:
                known = ", ".join(sorted(STRATEGY_FACTORIES))
                raise ConfigurationError(
                    f"unknown corruption strategy {corruption.strategy!r} "
                    f"(known: {known})"
                )
            for node_id in group_ids:
                context = StrategyContext(
                    node_id=node_id,
                    n=n,
                    t=t,
                    seed=seed,
                    options=dict(corruption.options),
                    scenario=scenario,
                )
                strategy = factory(context)
                if corruption.activation_time > 0.0:
                    strategy = ScheduledStrategy(strategy, corruption.activation_time)
                assignment[node_id] = strategy
        return assignment

    def terminating(self) -> bool:
        """Whether honest termination is guaranteed under this fault spec."""
        if self.expect_termination is not None:
            return self.expect_termination
        return not self.losses


def fault_spec_of(scenario: Any) -> Optional[FaultSpec]:
    """The :class:`FaultSpec` embedded in a scenario's extras, if any."""
    raw = getattr(scenario, "extras", {}).get("faults")
    if not raw:
        return None
    if isinstance(raw, FaultSpec):
        return raw
    return FaultSpec.from_dict(raw)


def corruption_spec_of(scenario: Any) -> Optional[FaultSpec]:
    """The :class:`FaultSpec` whose corruption groups apply to ``scenario``,
    or ``None`` when it corrupts nobody.

    The embedded fault spec wins when it names corruptions.  Otherwise the
    plain ``adversary`` / ``num_byzantine`` fields are the one-group spec
    they describe: that strategy on the ``num_byzantine`` highest ids,
    tuned by ``extras['hold_back']`` / ``extras['spam_copies']``.  The
    plain fields never enforced the ``t`` budget (``ScenarioSpec`` admits
    up to ``n - 1``), hence ``allow_over_budget``.
    """
    fault_spec = fault_spec_of(scenario)
    if fault_spec is not None and fault_spec.corruptions:
        return fault_spec
    if scenario.adversary == "none" or not scenario.num_byzantine:
        return None
    options = {
        "hold_back": scenario.extras.get("hold_back", 3),
        "copies": scenario.extras.get("spam_copies", 2),
    }
    plain = CorruptionSpec(scenario.adversary, scenario.num_byzantine, options=options)
    return FaultSpec(corruptions=(plain,), allow_over_budget=True)


def scenario_corrupted_ids(scenario: Any) -> List[int]:
    """Corrupted node ids for a scenario, from its fault spec or the plain
    ``num_byzantine`` field (highest ids, the shared convention)."""
    fault_spec = corruption_spec_of(scenario)
    return [] if fault_spec is None else fault_spec.corrupted_ids(scenario.n)
