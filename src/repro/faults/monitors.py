"""Runtime protocol-invariant monitors.

Monitors are :class:`~repro.sim.observers.SimObserver` subclasses hooked into
the simulation runtime (both engines call them identically).  Each watches
one property the paper proves and **fails fast**: the moment a decided output
breaks the property the monitor raises
:class:`~repro.errors.InvariantViolation`, so the violating schedule is still
in the trace recorder's tail and the campaign layer can emit a seed +
event-trace repro bundle (see ``docs/TESTING.md``).

Monitored properties:

* **ε-agreement** (:class:`EpsilonAgreementMonitor`) — honest scalar outputs
  stay within ``epsilon`` of each other (``epsilon = 0`` gives the exact
  agreement required of the ACS baselines).
* **validity** (:class:`ValidityMonitor`) — honest outputs stay inside the
  honest-input hull, relaxed by ``rho`` (Definition II.1's ρ-relaxed min-max
  validity).
* **termination / totality** (:class:`TerminationMonitor`) — checked at run
  end: every honest node decided (termination), and never *some but not all*
  when termination is expected (totality).
* **per-protocol safety** (:class:`RbcSafetyMonitor`,
  :class:`BinaryBASafetyMonitor`) — the RBC and binary-BA predicates from
  the protocol layer, evaluated on every new decision.

Beyond pass/fail, the agreement, validity and termination monitors track
**margin channels**: how close the run came to violating the invariant
(smallest observed ε-agreement margin, closest distance to the validity-hull
boundary, latest termination slack).  Margins are derived purely from the
observer callback stream, so both engines report identical values for the
same schedule; the adversarial-schedule search (:mod:`repro.faults.search`)
uses them as its fitness signal and the campaign layer surfaces them in the
per-cell verdict JSON.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.aggregation import round_to_epsilon
from repro.errors import InvariantViolation
from repro.protocols.binary_ba import ba_safety_violation
from repro.protocols.rbc import rbc_safety_violation
from repro.protocols.registry import (
    EPSILON_AGREEMENT,
    EXACT_AGREEMENT,
    HIERARCHICAL_AGREEMENT,
    PROTOCOLS,
)
from repro.sim.observers import SimObserver

#: Floating-point slack every agreement and validity check allows.
TOLERANCE = 1e-9


def _scalar(output: Any) -> Optional[float]:
    """Unwrap an output to a float when possible (certificates and structured
    outputs expose ``.value``; non-scalar outputs are skipped)."""
    value = getattr(output, "value", output)
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


class InvariantMonitor(SimObserver):
    """Base class: names the monitor and raises uniform violations."""

    name = "invariant"

    def violation(self, detail: str, time: float = 0.0, node: int = -1) -> None:
        raise InvariantViolation(self.name, detail, time=time, node=node)

    def margin_channels(self) -> Dict[str, float]:
        """Raw margin values observed so far (channel name -> margin).

        A margin measures how far the run stayed from violating the invariant
        in the invariant's own units; it goes negative exactly when the
        monitor fires.  Monitors without a meaningful margin return ``{}``.
        """
        return {}

    def margin_ratios(self) -> Dict[str, float]:
        """Margins normalised to ``[-inf, 1]`` (1 = maximally safe, < 0 =
        violated) so channels with different units are comparable — this is
        the fitness signal of the adversarial-schedule search."""
        return {}


def _ratio(margin: float, cap: float) -> float:
    """Normalise a raw margin against its a-priori maximum ``cap``.

    With a degenerate cap (an exact-agreement monitor has ``epsilon = 0``)
    there is no gradient: any non-negative margin is fully safe (1.0) and a
    violation keeps its raw negative magnitude.
    """
    if cap > 0.0:
        return margin / cap
    return 1.0 if margin >= 0.0 else margin


def collect_margins(
    monitors: Sequence["InvariantMonitor"],
) -> Dict[str, Dict[str, float]]:
    """Merge every monitor's channels into ``{"margins": ..., "ratios": ...}``.

    Called by the campaign layer after a run (including violating runs —
    margins are recorded before a monitor raises, so a violation carries its
    negative margin).
    """
    margins: Dict[str, float] = {}
    ratios: Dict[str, float] = {}
    for monitor in monitors:
        margins.update(monitor.margin_channels())
        ratios.update(monitor.margin_ratios())
    return {"margins": margins, "ratios": ratios}


class EpsilonAgreementMonitor(InvariantMonitor):
    """Honest scalar outputs must stay within ``epsilon`` of each other.

    Margin channel ``epsilon_margin``: the smallest observed value of
    ``epsilon - spread``.  It starts at the a-priori maximum ``epsilon``
    (one decision has spread 0) and shrinks as outputs diverge; a violation
    drives it negative.
    """

    name = "epsilon-agreement"

    def __init__(self, epsilon: float) -> None:
        self.epsilon = epsilon
        self.min_margin = epsilon
        self._decided: Dict[int, float] = {}

    def margin_channels(self) -> Dict[str, float]:
        return {"epsilon_margin": self.min_margin}

    def margin_ratios(self) -> Dict[str, float]:
        return {"epsilon_margin": _ratio(self.min_margin, self.epsilon)}

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        value = _scalar(output)
        if value is None:
            return
        self._decided[node_id] = value
        spread = max(self._decided.values()) - min(self._decided.values())
        self.min_margin = min(self.min_margin, self.epsilon - spread)
        if spread > self.epsilon + TOLERANCE:
            pairs = ", ".join(
                f"node {n} -> {v:.6g}" for n, v in sorted(self._decided.items())
            )
            self.violation(
                f"output spread {spread:.6g} exceeds epsilon {self.epsilon:.6g} "
                f"({pairs})",
                time=time,
                node=node_id,
            )


class ValidityMonitor(InvariantMonitor):
    """Honest outputs must lie in the honest-input hull, relaxed by ``rho``.

    Margin channel ``hull_distance``: the closest any honest output came to
    the hull boundary, ``min(value - low, high - value)``.  It starts at the
    hull's half-width (no value can sit farther from both edges) and a
    violation drives it negative.
    """

    name = "validity"

    def __init__(
        self,
        honest_inputs: Sequence[float],
        relaxation: float = 0.0,
    ) -> None:
        if not honest_inputs:
            raise InvariantViolation(self.name, "no honest inputs to validate against")
        self.low = min(honest_inputs) - relaxation
        self.high = max(honest_inputs) + relaxation
        self.half_width = (self.high - self.low) / 2.0
        self.min_distance = self.half_width

    def margin_channels(self) -> Dict[str, float]:
        return {"hull_distance": self.min_distance}

    def margin_ratios(self) -> Dict[str, float]:
        return {"hull_distance": _ratio(self.min_distance, self.half_width)}

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        value = _scalar(output)
        if value is None:
            return
        self.min_distance = min(
            self.min_distance, value - self.low, self.high - value
        )
        if not (self.low - TOLERANCE <= value <= self.high + TOLERANCE):
            self.violation(
                f"node {node_id} output {value:.6g} outside relaxed honest hull "
                f"[{self.low:.6g}, {self.high:.6g}]",
                time=time,
                node=node_id,
            )


class TerminationMonitor(InvariantMonitor):
    """End-of-run liveness: termination (all honest decided) and totality
    (never some-but-not-all) when the fault spec guarantees them.

    Margin channel ``termination_slack`` (only when termination is
    expected): the straggler ratio ``first_decision_time /
    last_decision_time``.  1 means all honest nodes decided together; a value
    near 0 means the last node decided many times later than the first — the
    run *almost* left a node behind; a stall reports slack 0.  (The engines
    stop as soon as every honest node decided, so an event-count slack would
    always be zero; decision-time straggle is the schedule-sensitive signal.)
    """

    name = "termination"

    def __init__(self, expect_termination: bool = True) -> None:
        self.expect_termination = expect_termination
        self._first_decide: Optional[float] = None
        self._last_decide: Optional[float] = None
        self._stalled: Optional[bool] = None

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        if self._first_decide is None:
            self._first_decide = time
        self._last_decide = time

    def margin_channels(self) -> Dict[str, float]:
        if not self.expect_termination:
            return {}
        if self._stalled:
            return {"termination_slack": 0.0}
        if self._first_decide is None or self._last_decide is None:
            # No honest decision observed (violation-aborted run): the
            # channel has nothing meaningful to report.
            return {}
        if self._last_decide <= 0.0:
            return {"termination_slack": 1.0}
        return {"termination_slack": self._first_decide / self._last_decide}

    def margin_ratios(self) -> Dict[str, float]:
        # The slack is already a fraction of the run.
        return self.margin_channels()

    def on_run_end(self, result: Any) -> None:
        missing = [n for n in result.honest_nodes if n not in result.outputs]
        self._stalled = bool(missing)
        if not self.expect_termination:
            return
        if missing:
            decided = [n for n in result.honest_nodes if n in result.outputs]
            kind = "totality" if decided else "termination"
            self.violation(
                f"{kind} violated: honest nodes {missing} never decided "
                f"({len(decided)}/{len(result.honest_nodes)} decided, "
                f"{result.events_processed} events processed)"
            )


class RbcSafetyMonitor(InvariantMonitor):
    """RBC agreement/validity, evaluated on every new honest delivery."""

    name = "rbc-safety"

    def __init__(self, broadcaster_value: Any = None) -> None:
        self.broadcaster_value = broadcaster_value
        self._delivered: Dict[int, Any] = {}

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        self._delivered[node_id] = output
        detail = rbc_safety_violation(self._delivered, self.broadcaster_value)
        if detail is not None:
            self.violation(detail, time=time, node=node_id)


class BinaryBASafetyMonitor(InvariantMonitor):
    """Binary-BA agreement + well-formed outputs, on every new decision."""

    name = "binary-ba-safety"

    def __init__(self) -> None:
        self._decided: Dict[int, Any] = {}

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        self._decided[node_id] = output
        detail = ba_safety_violation(self._decided)
        if detail is not None:
            self.violation(detail, time=time, node=node_id)


class CertificateStreamMonitor(InvariantMonitor):
    """DORA certificate-stream invariants for the multi-epoch oracle service.

    The service (:mod:`repro.oracle.service`) registers one instance as a
    per-epoch run observer *and* drives the epoch hooks directly:
    :meth:`begin_epoch` resets the per-epoch state with that epoch's honest
    inputs, ``on_decide`` (the regular observer hook) collects the honest
    certificates of the running epoch, and :meth:`check_certificate`
    validates the epoch's consumed certificate — it must sit on the epsilon
    rounding grid, carry at least ``t + 1`` distinct signers, and lie inside
    the epoch's relaxed honest-input hull (Theorem IV.3's bound, the same
    relaxation convention as :func:`build_monitors`).  Any breach raises
    :class:`~repro.errors.InvariantViolation` and aborts the service.
    """

    name = "certificate-stream"

    def __init__(self, params: Any) -> None:
        self.params = params
        self.epoch = -1
        self._low = 0.0
        self._high = 0.0
        self._decided: Dict[int, float] = {}

    def begin_epoch(self, epoch: int, honest_inputs: Sequence[float]) -> None:
        """Arm the monitor for one epoch's run."""
        if not honest_inputs:
            self.violation(f"epoch {epoch}: no honest inputs to validate against")
        input_range = max(honest_inputs) - min(honest_inputs)
        relaxation = max(self.params.rho0, input_range) + self.params.epsilon
        self.epoch = epoch
        self._low = min(honest_inputs) - relaxation
        self._high = max(honest_inputs) + relaxation
        self._decided = {}

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        value = _scalar(output)
        if value is None:
            return
        self._decided[node_id] = value
        spread = max(self._decided.values()) - min(self._decided.values())
        # Rounded honest values land on at most two *adjacent* multiples.
        if spread > self.params.epsilon + TOLERANCE:
            self.violation(
                f"epoch {self.epoch}: rounded honest outputs spread "
                f"{spread:.6g} beyond epsilon {self.params.epsilon:.6g}",
                time=time,
                node=node_id,
            )

    def check_certificate(self, epoch: int, certificate: Any) -> None:
        """Validate one epoch's consumed certificate."""
        value = float(certificate.value)
        epsilon = self.params.epsilon
        if round_to_epsilon(value, epsilon) != value:
            self.violation(
                f"epoch {epoch}: certificate value {value!r} is not a "
                f"multiple of epsilon {epsilon!r}"
            )
        if certificate.signer_count < self.params.t + 1:
            self.violation(
                f"epoch {epoch}: certificate carries {certificate.signer_count} "
                f"signers, need t+1 = {self.params.t + 1}"
            )
        if not (self._low - TOLERANCE <= value <= self._high + TOLERANCE):
            self.violation(
                f"epoch {epoch}: certificate value {value:.6g} outside the "
                f"relaxed honest hull [{self._low:.6g}, {self._high:.6g}]"
            )


class ClusterLivenessMonitor(InvariantMonitor):
    """Liveness accounting for a live (chaos-injected) cluster run.

    Complements :class:`CertificateStreamMonitor` (which audits *what* gets
    certified) with *whether and when*: every planned epoch must end either
    **certified** within the per-epoch deadline or **explicitly skipped**
    with a recorded reason, and every node the chaos layer killed must be
    seen rejoining (or be accounted as still down at run end).  Silent
    outcomes — an epoch that just vanishes, a kill with no rejoin record —
    are exactly the failure modes a chaos soak exists to catch.

    The cluster supervisor drives the hooks directly (there is no simulator
    run to observe): :meth:`begin_epoch` / :meth:`on_certified` / :meth:`on_skipped`
    per epoch, :meth:`on_kill` / :meth:`on_rejoin` per process fault, and
    :meth:`finalize` once the run ends.

    Margin channel ``certify_margin``: ``deadline - slowest certification``
    — how much per-epoch budget the worst epoch left unspent.
    """

    name = "cluster-liveness"

    def __init__(self, epochs: int, deadline: float) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.epochs = epochs
        self.deadline = deadline
        self.outcomes: Dict[int, str] = {}
        self.skip_reasons: Dict[int, str] = {}
        self.kills: List[int] = []
        self._rejoined: Dict[int, int] = {}
        self._began: Dict[int, float] = {}
        self._slowest = 0.0

    # -- epoch accounting ------------------------------------------------
    def begin_epoch(self, epoch: int, wall: float) -> None:
        self._began[epoch] = wall

    def on_certified(self, epoch: int, wall: float) -> None:
        self.outcomes[epoch] = "certified"
        began = self._began.get(epoch)
        if began is None:
            self.violation(f"epoch {epoch} certified without begin_epoch")
        took = wall - began
        self._slowest = max(self._slowest, took)
        if took > self.deadline:
            self.violation(
                f"epoch {epoch} certified after {took:.3f}s, beyond the "
                f"{self.deadline:.3f}s deadline",
                time=wall,
            )

    def on_skipped(self, epoch: int, reason: str) -> None:
        self.outcomes[epoch] = "skipped"
        self.skip_reasons[epoch] = reason

    # -- process-fault accounting ---------------------------------------
    def on_kill(self, node: int) -> None:
        self.kills.append(node)

    def on_rejoin(self, node: int) -> None:
        self._rejoined[node] = self._rejoined.get(node, 0) + 1

    def unrejoined(self) -> List[int]:
        """Killed nodes with fewer rejoins than kills, in kill order."""
        pending: Dict[int, int] = {}
        for node in self.kills:
            pending[node] = pending.get(node, 0) + 1
        return sorted(
            node
            for node, count in pending.items()
            if self._rejoined.get(node, 0) < count
        )

    # -- run-end checks --------------------------------------------------
    def finalize(self) -> None:
        """Raise on any unaccounted epoch (neither certified nor skipped)."""
        missing = [
            epoch for epoch in range(self.epochs) if epoch not in self.outcomes
        ]
        if missing:
            self.violation(
                f"epochs {missing} ended neither certified nor "
                "explicitly skipped"
            )

    def summary(self) -> Dict[str, Any]:
        """Non-raising JSON-safe accounting snapshot for the verdict."""
        return {
            "epochs_planned": self.epochs,
            "certified": sorted(
                e for e, o in self.outcomes.items() if o == "certified"
            ),
            "skipped": {
                str(e): self.skip_reasons.get(e, "")
                for e, o in sorted(self.outcomes.items())
                if o == "skipped"
            },
            "unaccounted": [
                e for e in range(self.epochs) if e not in self.outcomes
            ],
            "kills": list(self.kills),
            "unrejoined": self.unrejoined(),
            "slowest_certify_seconds": self._slowest,
        }

    def margin_channels(self) -> Dict[str, float]:
        return {"certify_margin": self.deadline - self._slowest}

    def margin_ratios(self) -> Dict[str, float]:
        return {
            "certify_margin": _ratio(self.deadline - self._slowest, self.deadline)
        }


class HierarchicalAgreementMonitor(InvariantMonitor):
    """Two-level epsilon agreement for sharded protocols.

    Checks two layers on every honest decision:

    - **per-group agreement** — members of one group must agree within
      ``epsilon`` (sharded Delphi fans the representative's value down
      verbatim, so in clean runs the per-group spread is 0);
    - **cross-group agreement** — the *end-to-end* property: all honest
      outputs across all groups must agree within ``epsilon``.

    Margin channels: ``epsilon_margin`` (the global, end-to-end margin —
    same channel name as the flat monitor so fuzz fitness and campaign
    tables compose) and ``group_epsilon_margin`` (the worst per-group
    margin).
    """

    name = "hierarchical-epsilon-agreement"

    def __init__(self, groups: Sequence[Sequence[int]], epsilon: float) -> None:
        self.epsilon = epsilon
        self.groups = [tuple(group) for group in groups]
        self._group_of = {
            node: index
            for index, group in enumerate(self.groups)
            for node in group
        }
        self._decided: Dict[int, float] = {}
        self._group_decided: Dict[int, Dict[int, float]] = {}
        self.min_margin = epsilon
        self.min_group_margin = epsilon

    def margin_channels(self) -> Dict[str, float]:
        return {
            "epsilon_margin": self.min_margin,
            "group_epsilon_margin": self.min_group_margin,
        }

    def margin_ratios(self) -> Dict[str, float]:
        return {
            "epsilon_margin": _ratio(self.min_margin, self.epsilon),
            "group_epsilon_margin": _ratio(self.min_group_margin, self.epsilon),
        }

    def on_decide(self, node_id: int, output: Any, time: float) -> None:
        value = _scalar(output)
        if value is None:
            return
        group = self._group_of.get(node_id)
        if group is None:
            self.violation(
                f"node {node_id} decided but belongs to no group",
                time=time,
                node=node_id,
            )
        decided_in_group = self._group_decided.setdefault(group, {})
        decided_in_group[node_id] = value
        group_values = decided_in_group.values()
        group_spread = max(group_values) - min(group_values)
        self.min_group_margin = min(
            self.min_group_margin, self.epsilon - group_spread
        )
        if group_spread > self.epsilon + TOLERANCE:
            pairs = ", ".join(
                f"node {n} -> {v:.6g}" for n, v in sorted(decided_in_group.items())
            )
            self.violation(
                f"group {group} spread {group_spread:.6g} exceeds epsilon "
                f"{self.epsilon:.6g} ({pairs})",
                time=time,
                node=node_id,
            )
        self._decided[node_id] = value
        spread = max(self._decided.values()) - min(self._decided.values())
        self.min_margin = min(self.min_margin, self.epsilon - spread)
        if spread > self.epsilon + TOLERANCE:
            lows = min(self._decided, key=self._decided.get)
            highs = max(self._decided, key=self._decided.get)
            self.violation(
                f"cross-group spread {spread:.6g} exceeds epsilon "
                f"{self.epsilon:.6g} (node {lows} [group "
                f"{self._group_of.get(lows)}] -> {self._decided[lows]:.6g}, "
                f"node {highs} [group {self._group_of.get(highs)}] -> "
                f"{self._decided[highs]:.6g})",
                time=time,
                node=node_id,
            )


def _approximate_relaxation(
    scenario: Any, honest_inputs: Sequence[float], levels: int = 1
) -> float:
    """Theorem IV.3's validity bound, composed over ``levels`` rounds."""
    input_range = max(honest_inputs) - min(honest_inputs) if honest_inputs else 0.0
    rho0 = scenario.rho0 if scenario.rho0 is not None else scenario.epsilon
    return float(
        scenario.extras.get(
            "validity_relaxation",
            levels * (max(rho0, input_range) + scenario.epsilon),
        )
    )


def build_monitors(
    scenario: Any,
    honest_inputs: Sequence[float],
    expect_termination: bool = True,
) -> List[InvariantMonitor]:
    """The monitor set for one experiment cell.

    ``honest_inputs`` are the inputs of the nodes that stay honest for the
    whole run.  The protocol's agreement classification comes from the
    protocol table.  The validity relaxation for the approximate
    protocols follows the test-suite convention ``max(rho0, honest input
    range) + epsilon`` (Theorem IV.3's bound with Byzantine value
    injection); hierarchical protocols compose that bound over two levels;
    cells can override it through ``extras['validity_relaxation']``.
    """
    monitors: List[InvariantMonitor] = []
    kind = PROTOCOLS[scenario.protocol].agreement
    if kind == EPSILON_AGREEMENT:
        monitors.append(EpsilonAgreementMonitor(scenario.epsilon))
        monitors.append(
            ValidityMonitor(
                honest_inputs,
                relaxation=_approximate_relaxation(scenario, honest_inputs),
            )
        )
    elif kind == HIERARCHICAL_AGREEMENT:
        from repro.protocols.sharded_delphi import sharded_topology_of

        topology = sharded_topology_of(scenario)
        monitors.append(
            HierarchicalAgreementMonitor(topology.groups, scenario.epsilon)
        )
        monitors.append(
            ValidityMonitor(
                honest_inputs,
                relaxation=_approximate_relaxation(
                    scenario, honest_inputs, levels=2
                ),
            )
        )
    elif kind == EXACT_AGREEMENT:
        monitors.append(EpsilonAgreementMonitor(0.0))
        # ACS medians: with at most t Byzantine values in an agreed set of
        # >= 2t+1, the median cannot leave the honest-input hull.
        monitors.append(ValidityMonitor(honest_inputs, relaxation=0.0))
    monitors.append(TerminationMonitor(expect_termination=expect_termination))
    return monitors
