"""Deterministic discrete-event simulation runtime.

The runtime owns a set of protocol nodes (some possibly replaced by
Byzantine strategies), an :class:`~repro.net.network.AsynchronousNetwork`
and a :class:`ComputeModel`.  It repeatedly pops the earliest event, lets the
target node process it, charges the node's CPU cost on the simulated clock
and schedules the resulting outbound messages for delivery.

The run finishes when every honest node has produced an output (or when the
event queue drains / a safety limit is hit), and returns a
:class:`SimulationResult` with per-node outputs, termination times and the
complete traffic trace — everything the paper's figures are derived from.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.domains import AT_LEAST_ONE, NON_NEGATIVE, NON_NEGATIVE_OR_INF, coerce, optional
from repro.errors import SimulationError
from repro.adversary.base import AdversaryStrategy
from repro.net.message import Envelope, Message, MessageTrace
from repro.net.network import AsynchronousNetwork
from repro.protocols.base import BROADCAST, Outbound, ProtocolNode
from repro.protocols.topology import FlatTopology, Topology
from repro.sim.events import DELIVER_EVENT, START_EVENT
from repro.sim.observers import SimObserver, event_observers
from repro.sim.scheduler import EventScheduler


@dataclass(frozen=True)
class ComputeModel:
    """Per-node CPU cost model.

    The cost of processing one delivered message is::

        per_message_seconds
        + per_byte_seconds * message_bytes
        + per_crypto_unit_seconds * crypto_units

    where ``crypto_units`` is reported by the protocol node itself through
    :meth:`ProtocolNode.processing_cost`-style hooks (the baselines report
    one unit per signature verification or coin-share operation).  The two
    testbed models (:mod:`repro.testbed.aws`, :mod:`repro.testbed.cps`)
    provide calibrated instances of this class.
    """

    per_message_seconds: float = 0.0
    per_byte_seconds: float = 0.0
    per_crypto_unit_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Negative costs would let events finish before they start, which
        # breaks the scheduler's no-past-events invariant.
        costs = ("per_message_seconds", "per_byte_seconds", "per_crypto_unit_seconds")
        coerce(self, dict.fromkeys(costs, NON_NEGATIVE), error=SimulationError)

    def processing_delay(self, message_bytes: int, crypto_units: float = 0.0) -> float:
        """CPU time charged for one delivered message."""
        return (
            self.per_message_seconds
            + self.per_byte_seconds * message_bytes
            + self.per_crypto_unit_seconds * crypto_units
        )


#: Simulation engines selectable through :attr:`SimulationConfig.engine`.
KNOWN_ENGINES = ("fast", "reference")


@dataclass
class SimulationConfig:
    """Run limits and the engine choice.

    A run always ends as soon as every honest node has an output; these
    limits only bound a run that has not got there.

    Attributes
    ----------
    max_events:
        Hard cap on processed events; exceeding it raises
        :class:`~repro.errors.SimulationError` (it indicates a livelock or a
        runaway protocol).
    max_time:
        Optional cap on simulated time, enforced centrally by the
        scheduler's pop (see :class:`~repro.sim.scheduler.EventScheduler`):
        events beyond the cap are never released and the run ends cleanly.
    engine:
        ``"fast"`` (default) runs the inlined hot loop in
        :mod:`repro.sim.fastpath`; ``"reference"`` runs the per-event
        method loop over an :class:`~repro.sim.scheduler.EventScheduler`
        (per-target envelopes, ``network.delivery_time``), the independent
        oracle.  Both schedule native tuple events and both produce
        identical results for the same inputs — the perf suite asserts it
        (see ``docs/SIMULATOR.md``).
    """

    max_events: int = 5_000_000
    max_time: Optional[float] = None
    engine: str = "fast"

    def __post_init__(self) -> None:
        limits = {"max_events": AT_LEAST_ONE, "max_time": optional(NON_NEGATIVE_OR_INF)}
        coerce(self, limits, error=SimulationError)
        if self.engine not in KNOWN_ENGINES:
            raise SimulationError(
                f"unknown simulation engine {self.engine!r} "
                f"(known: {', '.join(KNOWN_ENGINES)})"
            )


@dataclass
class SimulationResult:
    """Everything a single protocol run produced."""

    outputs: Dict[int, Any]
    decision_times: Dict[int, float]
    runtime_seconds: float
    events_processed: int
    trace: MessageTrace
    honest_nodes: List[int]
    byzantine_nodes: List[int]

    @property
    def honest_outputs(self) -> Dict[int, Any]:
        """Outputs restricted to honest nodes."""
        return {node: self.outputs[node] for node in self.honest_nodes if node in self.outputs}

    @property
    def all_honest_decided(self) -> bool:
        """Whether every honest node produced an output."""
        return all(node in self.outputs for node in self.honest_nodes)

    def output_spread(self) -> float:
        """Maximum pairwise distance between honest scalar outputs."""
        values = [v for v in self.honest_outputs.values() if isinstance(v, (int, float))]
        if len(values) < 2:
            return 0.0
        return max(values) - min(values)


class SimulationRuntime:
    """Drives protocol nodes to completion under a simulated network."""

    def __init__(
        self,
        nodes: Dict[int, ProtocolNode],
        network: Optional[AsynchronousNetwork] = None,
        byzantine: Optional[Dict[int, AdversaryStrategy]] = None,
        compute: Optional[ComputeModel] = None,
        config: Optional[SimulationConfig] = None,
        observers: Optional[Sequence[SimObserver]] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if not nodes:
            raise SimulationError("at least one node is required")
        self.nodes = nodes
        self.num_nodes = len(nodes)
        self.network = network or AsynchronousNetwork(self.num_nodes)
        if self.network.num_nodes != self.num_nodes:
            raise SimulationError(
                "network size does not match node count: "
                f"{self.network.num_nodes} != {self.num_nodes}"
            )
        self.topology = topology or FlatTopology(self.num_nodes)
        if self.topology.num_nodes != self.num_nodes:
            raise SimulationError(
                "topology size does not match node count: "
                f"{self.topology.num_nodes} != {self.num_nodes}"
            )
        self.compute = compute or ComputeModel()
        self.config = config or SimulationConfig()
        self.byzantine: Dict[int, AdversaryStrategy] = dict(byzantine or {})
        for node_id, strategy in self.byzantine.items():
            if node_id not in self.nodes:
                raise SimulationError(f"cannot corrupt unknown node {node_id}")
            strategy.attach(self.nodes[node_id])
        #: Identifiers of nodes not under adversarial control (``byzantine``
        #: is fixed from here on, so this is computed once, not per event).
        self.honest_nodes: List[int] = sorted(
            node_id for node_id in nodes if node_id not in self.byzantine
        )
        self.observers: tuple = tuple(observers or ())
        self._event_observers = event_observers(self.observers)
        # Strategies with ``wants_time = True`` (schedule-driven corruption)
        # get the current event time injected before each dispatch.
        self._timed: Dict[int, AdversaryStrategy] = {
            node_id: strategy
            for node_id, strategy in self.byzantine.items()
            if getattr(strategy, "wants_time", False)
        }

        self.scheduler = EventScheduler(horizon=self.config.max_time)
        self._busy_until: Dict[int, float] = {node_id: 0.0 for node_id in nodes}
        self._decision_times: Dict[int, float] = {}
        self._events_processed = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _handler(self, node_id: int):
        """The object (honest node or strategy) that processes events for a node."""
        return self.byzantine.get(node_id, self.nodes[node_id])

    def _crypto_units(self, node_id: int, message: Message) -> float:
        """Ask the (honest) node how many crypto operations this message costs."""
        node = self.nodes[node_id]
        cost_hook = getattr(node, "processing_cost", None)
        if cost_hook is None:
            return 0.0
        return float(cost_hook(message))

    def _schedule_outbound(
        self, sender: int, outbound: List[Outbound], now: float
    ) -> None:
        """Expand broadcasts and schedule every outbound message for delivery."""
        for destination, message in outbound:
            if destination == BROADCAST:
                targets = self.topology.broadcast_targets(sender, message)
            else:
                targets = [destination]
            for target in targets:
                if target == sender:
                    # Local self-delivery does not consume network resources.
                    self._schedule_delivery(sender, target, message, now)
                    continue
                envelope = Envelope(sender=sender, destination=target, message=message)
                deliver_at = self.network.delivery_time(envelope, now)
                if math.isinf(deliver_at):
                    # Dropped by a fault-plan loss window: accounted as sent,
                    # never delivered.
                    continue
                self._schedule_delivery(sender, target, message, deliver_at, envelope)

    def _schedule_delivery(
        self,
        sender: int,
        destination: int,
        message: Message,
        time: float,
        envelope: Optional[Envelope] = None,
    ) -> None:
        if envelope is None:
            envelope = Envelope(
                sender=sender, destination=destination, message=message, authenticated=False
            )
        self.scheduler.schedule((
            time, self.network.policy.tiebreak(), self.scheduler.next_sequence(),
            DELIVER_EVENT, destination, envelope,
        ))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the protocol to completion and return the result.

        Dispatches to the engine selected by ``config.engine``: the fast
        loop when supported (contiguous node ids ``0..n-1``), the reference
        loop otherwise.  Both produce identical results.

        The cyclic garbage collector is paused while either engine runs and
        restored afterwards: the event heap holds up to millions of live
        tuples, so every generational collection would rescan them for
        nothing.  A run builds no reference cycles (nodes, engines and
        latency streams point one way only), so a finished run is freed by
        refcount; the ``gc.collect(1)`` on exit sweeps whatever a caller's
        own objects left in the young generations meanwhile.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self.config.engine == "fast" and self._fast_supported():
                from repro.sim.fastpath import run_fast

                result = run_fast(self)
            else:
                result = self._run_reference()
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect(1)
        for observer in self.observers:
            observer.on_run_end(result)
        return result

    def _fast_supported(self) -> bool:
        """The fast engine assumes node ids are exactly ``0..n-1``."""
        return set(self.nodes) == set(range(self.num_nodes))

    def _run_reference(self) -> SimulationResult:
        """The per-event method loop (the equivalence oracle)."""
        # Start every node at t=0 (the adversary may still reorder the
        # resulting messages arbitrarily).
        for node_id in self.nodes:
            self.scheduler.schedule((
                0.0, self.network.policy.tiebreak(), self.scheduler.next_sequence(),
                START_EVENT, node_id, None,
            ))

        while True:
            if self._all_honest_decided():
                break
            event = self.scheduler.pop()
            if event is None:
                break
            self._events_processed += 1
            if self._events_processed > self.config.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.config.max_events}; "
                    "protocol is likely not terminating"
                )
            self._process(event)

        runtime = self._completion_time()
        return SimulationResult(
            outputs={
                node_id: self.nodes[node_id].output
                for node_id in self.honest_nodes
                if self.nodes[node_id].has_output
            },
            decision_times=dict(self._decision_times),
            runtime_seconds=runtime,
            events_processed=self._events_processed,
            trace=self.network.trace,
            honest_nodes=list(self.honest_nodes),
            byzantine_nodes=sorted(self.byzantine),
        )

    def _process(self, event: tuple) -> None:
        event_time, _, _, kind, node_id, envelope = event
        handler = self._handler(node_id)
        if node_id in self._timed:
            handler.now = event_time
        ready_at = max(event_time, self._busy_until.get(node_id, 0.0))

        if kind == START_EVENT:
            outbound = handler.on_start()
            cpu = self.compute.processing_delay(0, 0.0)
            sender, message = -1, None
        else:
            message = envelope.message
            sender = envelope.sender
            crypto_units = (
                self._crypto_units(node_id, message)
                if node_id not in self.byzantine
                else 0.0
            )
            cpu = self.compute.processing_delay(message.size_bytes(), crypto_units)
            outbound = handler.on_message(sender, message)

        finished_at = ready_at + cpu
        self._busy_until[node_id] = finished_at

        node = self.nodes[node_id]
        newly_decided = (
            node_id not in self.byzantine
            and node.has_output
            and node_id not in self._decision_times
        )
        if newly_decided:
            self._decision_times[node_id] = finished_at

        if outbound:
            self._schedule_outbound(node_id, outbound, finished_at)

        if self.observers:
            for observer in self._event_observers:
                observer.on_event(event_time, kind, node_id, sender, message)
            if newly_decided:
                for observer in self.observers:
                    observer.on_decide(node_id, node.output, finished_at)

    def _all_honest_decided(self) -> bool:
        # ``_decision_times`` holds exactly the honest nodes that decided.
        return len(self._decision_times) == len(self.honest_nodes)

    def _completion_time(self) -> float:
        if not self._decision_times:
            return self.scheduler.now
        honest = [
            self._decision_times[node_id]
            for node_id in self.honest_nodes
            if node_id in self._decision_times
        ]
        return max(honest) if honest else self.scheduler.now
