"""The fast simulation engine: one inlined loop over tuple events and tables.

This module is the hot path behind ``SimulationConfig(engine="fast")`` (the
default).  It executes exactly the same discrete-event semantics as
:meth:`repro.sim.runtime.SimulationRuntime._run_reference` — the perf suite
and the property tests assert result-for-result equality — but removes every
per-message allocation and dynamic lookup the reference loop performs:

* events are plain 7-tuples ``(time, tiebreak, sequence, kind, node,
  sender, message)`` pushed straight onto one local :mod:`heapq` heap —
  no :class:`~repro.net.message.Envelope` per target and no scheduler
  method calls;
* message wire sizes are memoised per message instance
  (:meth:`repro.net.message.Message.size_bits`), so a broadcast serialises
  its payload once instead of ``3 x n`` times;
* per-pair latency samplers (:meth:`LatencyModel.pair_sampler`, block-drawn
  streams) are cached in an ``n x n`` table — no region-dict lookups or
  scalar RNG calls per message;
* bandwidth occupancy, busy-until and per-sender traffic live in flat
  lists indexed by node id; traffic totals are merged into the network's
  :class:`~repro.net.message.MessageTrace` once at the end of the run;
* honest-termination is tracked with a counter, turning the per-event
  "all honest decided?" scan into an O(1) check.

Equivalence with the reference engine rests on two invariants, documented
in ``docs/SIMULATOR.md``: (1) both engines schedule the same messages in
the same global order, and (2) every random stream (per-pair latency
jitter, policy extra-delay, policy tiebreak) is consumed the same number of
times in the same per-stream order by both engines.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf as _INF
from typing import Dict, List, Optional

from repro.errors import NetworkError, SimulationError
from repro.net.message import HMAC_TAG_BITS
from repro.protocols.base import BROADCAST
from repro.sim.events import DELIVER_EVENT, START_EVENT
from repro.sim.observers import event_observers

__all__ = ["run_fast"]


def run_fast(runtime) -> "SimulationResult":
    """Execute ``runtime`` to completion on the fast path.

    ``runtime`` is a fully constructed
    :class:`~repro.sim.runtime.SimulationRuntime`; node ids must be exactly
    ``0..n-1`` (checked by the caller via ``_fast_supported``).  The caller,
    :meth:`~repro.sim.runtime.SimulationRuntime.run`, also pauses the cyclic
    garbage collector around this loop.
    """
    from repro.sim.runtime import SimulationResult

    config = runtime.config
    network = runtime.network
    policy = network.policy
    latency = network.latency
    accountant = network.accountant
    bw_model = accountant.model
    unlimited = bw_model.unlimited
    rate = bw_model.bits_per_second
    compute = runtime.compute
    per_message = compute.per_message_seconds
    per_byte = compute.per_byte_seconds
    per_crypto = compute.per_crypto_unit_seconds

    n = runtime.num_nodes
    nodes = runtime.nodes
    byzantine = runtime.byzantine

    node_list = [nodes[i] for i in range(n)]
    handlers = [byzantine.get(i, node_list[i]) for i in range(n)]
    on_start = [h.on_start for h in handlers]
    on_message = [h.on_message for h in handlers]
    honest = [i not in byzantine for i in range(n)]
    cost_hooks = [
        getattr(node_list[i], "processing_cost", None) if honest[i] else None
        for i in range(n)
    ]

    busy: List[float] = [0.0] * n
    decision_time: List[Optional[float]] = [None] * n
    undecided = sum(honest)

    # Per-ordered-pair latency samplers, created lazily on first use (a
    # geo model's per-pair stream does its region lookups exactly once).
    pair_sampler = latency.pair_sampler
    samplers: List[List[object]] = [[None] * n for _ in range(n)]
    # ``tiebreak()`` consumes the tie stream only when reordering; bind the
    # stream's ``next`` directly so the (hot) per-event draw skips a frame.
    tiebreak = policy._tie_stream.next if policy.reorder else policy.tiebreak
    extra_raw = policy.extra_delay
    has_extra = policy.max_extra_delay > 0.0
    faults_active = policy.faults_active
    fault_delay = policy.fault_delay

    # Observer hooks and schedule-driven corruption (cold paths: a single
    # hoisted boolean guards each so fault-free runs pay one branch).
    observers = runtime.observers
    has_obs = bool(observers)
    per_event = event_observers(observers)
    timed = [h if getattr(h, "wants_time", False) else None for h in handlers]
    any_timed = any(t is not None for t in timed)

    # Flat traffic/bandwidth accumulators, merged into the trace at the end.
    message_count = 0
    total_bits = 0
    sender_bits = [0] * n
    uplink_free = [0.0] * n
    for sender, free_at in accountant._uplink_free_at.items():
        if 0 <= sender < n:
            uplink_free[sender] = free_at

    # Seed START events in the same order (and with the same tiebreak
    # draws) as the reference engine.
    heap: list = []
    sequence = 0
    for node_id in nodes:
        sequence += 1
        heap.append((0.0, tiebreak(), sequence, START_EVENT, node_id, -1, None))
    heapify(heap)

    max_events = config.max_events
    horizon = config.max_time
    events_processed = 0
    now = 0.0
    all_targets = range(n)
    topology = runtime.topology
    flat = topology.is_flat
    broadcast_targets = topology.broadcast_targets

    while True:
        if undecided == 0:
            break
        if not heap:
            break
        event_time = heap[0][0]
        if horizon is not None and event_time > horizon:
            break
        event = heappop(heap)
        if event_time > now:
            now = event_time
        events_processed += 1
        if events_processed > max_events:
            raise SimulationError(
                f"exceeded max_events={max_events}; "
                "protocol is likely not terminating"
            )

        node_id = event[4]
        if any_timed:
            timed_handler = timed[node_id]
            if timed_handler is not None:
                timed_handler.now = event_time
        ready_at = busy[node_id]
        if ready_at < event_time:
            ready_at = event_time

        if event[3] == START_EVENT:
            crypto_units = 0.0
            message_bytes = 0
            outbound = on_start[node_id]()
        else:
            message = event[6]
            hook = cost_hooks[node_id]
            crypto_units = float(hook(message)) if hook is not None else 0.0
            size_bits = message._size
            if size_bits is None:
                size_bits = message.size_bits()
            message_bytes = (size_bits + 7) // 8
            outbound = on_message[node_id](event[5], message)

        finished_at = ready_at + (
            per_message + per_byte * message_bytes + per_crypto * crypto_units
        )
        busy[node_id] = finished_at

        newly_decided = False
        if honest[node_id] and decision_time[node_id] is None:
            if node_list[node_id]._has_output:
                decision_time[node_id] = finished_at
                undecided -= 1
                newly_decided = True

        if has_obs:
            for obs in per_event:
                obs.on_event(event_time, event[3], node_id, event[5], event[6])
            if newly_decided:
                output = node_list[node_id].output
                for obs in observers:
                    obs.on_decide(node_id, output, finished_at)

        if not outbound:
            continue
        for destination, message in outbound:
            if destination == BROADCAST:
                wire_bits = message._size
                if wire_bits is None:
                    wire_bits = message.size_bits()
                wire_bits += HMAC_TAG_BITS
                # Bulk traffic accounting: every target except the sender
                # receives one wire copy (targets never need a bounds
                # check, and dropped copies are accounted too — both
                # exactly as the per-target reference loop does it).
                if flat:
                    targets = all_targets
                    copies = n - 1
                else:
                    targets = broadcast_targets(node_id, message)
                    copies = len(targets)
                    if node_id in targets:
                        copies -= 1
                message_count += copies
                bulk = wire_bits * copies
                total_bits += bulk
                sender_bits[node_id] += bulk
            else:
                targets = (destination,)
                wire_bits = None  # computed lazily below (single target)
            row = samplers[node_id]
            for target in targets:
                if target == node_id:
                    # Local self-delivery: no network resources, no trace.
                    sequence += 1
                    heappush(heap, (
                        finished_at, tiebreak(), sequence,
                        DELIVER_EVENT, target, node_id, message,
                    ))
                    continue
                if wire_bits is None:
                    if not 0 <= target < n:
                        raise NetworkError(
                            f"destination {target} outside [0, {n})"
                        )
                    wire_bits = message.size_bits() + HMAC_TAG_BITS
                    message_count += 1
                    total_bits += wire_bits
                    sender_bits[node_id] += wire_bits
                if unlimited:
                    departure = finished_at
                else:
                    start = uplink_free[node_id]
                    if start < finished_at:
                        start = finished_at
                    departure = start + wire_bits / rate
                    uplink_free[node_id] = departure
                sampler = row[target]
                if sampler is None:
                    sampler = row[target] = pair_sampler(node_id, target)
                deliver_at = departure + sampler()
                if has_extra:
                    deliver_at += extra_raw()
                if faults_active:
                    fault = fault_delay(node_id, target, departure)
                    if fault:
                        if fault == _INF:
                            # Dropped by a loss window: accounted, never
                            # delivered (matches the reference engine).
                            continue
                        deliver_at += fault
                sequence += 1
                heappush(heap, (
                    deliver_at, tiebreak(), sequence,
                    DELIVER_EVENT, target, node_id, message,
                ))

    # ------------------------------------------------------------------
    # Fold the flat accumulators back into the shared structures so the
    # result is indistinguishable from a reference-engine run.
    trace = accountant.trace
    trace.merge_counts(
        message_count,
        total_bits,
        {sender: bits for sender, bits in enumerate(sender_bits) if bits},
    )
    if not unlimited:
        for sender, free_at in enumerate(uplink_free):
            if free_at:
                accountant._uplink_free_at[sender] = free_at

    decision_times: Dict[int, float] = {
        node_id: decided_at
        for node_id, decided_at in enumerate(decision_time)
        if decided_at is not None
    }
    honest_ids = [i for i in range(n) if honest[i]]
    outputs = {
        node_id: node_list[node_id].output
        for node_id in honest_ids
        if node_list[node_id].has_output
    }
    if decision_times:
        runtime_seconds = max(decision_times.values())
    else:
        runtime_seconds = now

    # Mirror the bookkeeping the reference engine leaves on the runtime.
    runtime._events_processed = events_processed
    runtime._decision_times = dict(decision_times)
    runtime._busy_until = {i: busy[i] for i in range(n)}

    return SimulationResult(
        outputs=outputs,
        decision_times=decision_times,
        runtime_seconds=runtime_seconds,
        events_processed=events_processed,
        trace=trace,
        honest_nodes=honest_ids,
        byzantine_nodes=sorted(byzantine),
    )
